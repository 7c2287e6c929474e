//===-- perfbench/src/Spans.cpp - The benchmark's own spans ---------------===//

#include "Spans.h"
#include "Measure.h"

#include <cstdio>

namespace pb {

SpanLog &spans() {
  static SpanLog Log;
  return Log;
}

int SpanLog::begin(const char *Name, int64_t Request) {
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Request = Request < 0 && S.Parent >= 0 ? Spans[size_t(S.Parent)].Request
                                           : Request;
  Spans.push_back(std::move(S));
  int Id = int(Spans.size()) - 1;
  Open.push_back(Id);
  Spans.back().StartMs = nowMs();
  return Id;
}

void SpanLog::end(int Id) {
  Span &S = Spans[size_t(Id)];
  S.EndMs = nowMs();
  Open.pop_back();
  if (S.Parent >= 0)
    Spans[size_t(S.Parent)].ChildMs += S.EndMs - S.StartMs;
}

std::vector<double> SpanLog::selfTimes(const std::string &Name) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Out.push_back(S.EndMs - S.StartMs - S.ChildMs);
  return Out;
}

bool SpanLog::writeChromeTrace(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"traceEvents\":[\n");
  std::fprintf(F, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":1,\"args\":{\"name\":\"perfbench\"}}");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%lld}}",
                 S.Name.c_str(), S.StartMs * 1000.0,
                 (S.EndMs - S.StartMs) * 1000.0, I, S.Parent,
                 (long long)S.Request);
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

} // namespace pb
