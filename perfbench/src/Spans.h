//===-- perfbench/src/Spans.h - The benchmark's own spans -------*- C++ -*-===//
//
// In a traced run the benchmark records a span around each call it makes
// into a library layer (name, start, end, parent span, request id), keeps
// them in memory, and writes them at exit as Chrome trace-event JSON, which
// opens in Perfetto like the library's own traces. A span's self time is
// its duration minus the time its child spans cover. In untraced runs
// nothing is recorded.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

class SpanLog {
public:
  bool Enabled = false;

  int begin(const char *Name, int64_t Request);
  void end(int Id);

  /// Self times (ms) of every span named \p Name, in recording order.
  std::vector<double> selfTimes(const std::string &Name) const;
  size_t size() const { return Spans.size(); }

  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Span {
    std::string Name;
    double StartMs = 0, EndMs = 0;
    int Parent = -1;
    int64_t Request = -1;
    double ChildMs = 0;
  };
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// The process's span log.
SpanLog &spans();

/// Records one span for the lifetime of the object when tracing is on.
class ScopedSpan {
public:
  ScopedSpan(const char *Name, int64_t Request = -1)
      : Id(spans().Enabled ? spans().begin(Name, Request) : -1) {}
  ~ScopedSpan() {
    if (Id >= 0)
      spans().end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  int Id;
};

} // namespace pb

#endif // PERFBENCH_SPANS_H
