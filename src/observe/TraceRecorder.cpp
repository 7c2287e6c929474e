//===-- observe/TraceRecorder.cpp - Chrome trace-event recorder -----------===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "observe/TraceRecorder.h"
#include "observe/ShardRegistry.h"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace halide {

namespace {

std::atomic<bool> Active{false};

int64_t steadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Phase : char {
  Begin = 'B',
  End = 'E',
  Complete = 'X',
  Instant = 'i',
  Counter = 'C',
};

struct Event {
  Phase Ph;
  int64_t TsNs = 0;
  int64_t DurNs = 0; // Complete only
  std::string Cat;
  std::string Name;
  std::vector<TraceArg> Args;
};

/// Tids in order of each thread's first recorded event or name.
std::atomic<int> NextTid{0};

/// The recorder sink: the clock epoch, and the events and lane names of
/// exited threads, kept with their tids until the next traceStart.
struct Recorder {
  std::vector<std::pair<int, std::vector<Event>>> Retired; // tid, events
  std::vector<std::pair<int, std::string>> RetiredNames;   // tid, name
  int64_t EpochNs = 0; // set by the first traceStart

  struct Shard {
    int Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
    std::string Name;
    std::vector<Event> Events;
  };

  void retire(Shard &S) {
    if (!S.Events.empty())
      Retired.emplace_back(S.Tid, std::move(S.Events));
    if (!S.Name.empty())
      RetiredNames.emplace_back(S.Tid, S.Name);
  }
};

using RecorderRegistry = ShardRegistry<Recorder>;

void record(Event E) {
  E.TsNs = steadyNs();
  RecorderRegistry::local().Events.push_back(std::move(E));
}

void jsonEscape(std::string &Out, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if ((unsigned char)C < 0x20) {
      char Buf[8];
      snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
}

void writeEvent(std::string &Out, int Tid, const Event &E, int64_t EpochNs,
                bool &First) {
  if (!First)
    Out += ",\n";
  First = false;
  char Buf[128];
  Out += "{\"name\":\"";
  jsonEscape(Out, E.Name);
  Out += "\",\"cat\":\"";
  jsonEscape(Out, E.Cat.empty() ? std::string("halide") : E.Cat);
  snprintf(Buf, sizeof(Buf), "\",\"ph\":\"%c\",\"ts\":%.3f", (char)E.Ph,
           (double)(E.TsNs - EpochNs) / 1e3);
  Out += Buf;
  if (E.Ph == Phase::Complete) {
    snprintf(Buf, sizeof(Buf), ",\"dur\":%.3f", (double)E.DurNs / 1e3);
    Out += Buf;
  }
  if (E.Ph == Phase::Instant)
    Out += ",\"s\":\"t\"";
  snprintf(Buf, sizeof(Buf), ",\"pid\":1,\"tid\":%d", Tid);
  Out += Buf;
  if (E.Ph == Phase::Counter) {
    // Counter events carry their value in args; emitted below like any
    // other args object.
  }
  if (!E.Args.empty()) {
    Out += ",\"args\":{";
    for (size_t I = 0; I < E.Args.size(); ++I) {
      if (I)
        Out += ",";
      Out += "\"";
      jsonEscape(Out, E.Args[I].Key);
      Out += "\":";
      if (E.Args[I].Numeric) {
        Out += E.Args[I].Value;
      } else {
        Out += "\"";
        jsonEscape(Out, E.Args[I].Value);
        Out += "\"";
      }
    }
    Out += "}";
  }
  Out += "}";
}

void writeThreadName(std::string &Out, int Tid, const std::string &Name,
                     bool &First) {
  if (!First)
    Out += ",\n";
  First = false;
  char Buf[64];
  Out += "{\"name\":\"thread_name\",\"ph\":\"M\"";
  snprintf(Buf, sizeof(Buf), ",\"pid\":1,\"tid\":%d", Tid);
  Out += Buf;
  Out += ",\"args\":{\"name\":\"";
  jsonEscape(Out, Name);
  Out += "\"}}";
}

} // namespace

bool traceActive() { return Active.load(std::memory_order_relaxed); }

void traceStart() {
  RecorderRegistry::locked([](Recorder &R, auto &Live) {
    if (R.EpochNs == 0)
      R.EpochNs = steadyNs();
    R.Retired.clear();
    for (Recorder::Shard *S : Live)
      S->Events.clear();
  });
  Active.store(true, std::memory_order_release);
}

void traceStop() { Active.store(false, std::memory_order_relaxed); }

int64_t traceNowNs() { return steadyNs(); }

void traceSetThreadName(const std::string &Name) {
  RecorderRegistry::local().Name = Name;
}

void traceBegin(const std::string &Cat, const std::string &Name) {
  if (!traceActive())
    return;
  Event E;
  E.Ph = Phase::Begin;
  E.Cat = Cat;
  E.Name = Name;
  record(std::move(E));
}

void traceEnd() {
  if (!traceActive())
    return;
  Event E;
  E.Ph = Phase::End;
  record(std::move(E));
}

void traceComplete(const std::string &Cat, const std::string &Name,
                   int64_t StartNs, int64_t DurNs,
                   std::vector<TraceArg> Args) {
  if (!traceActive())
    return;
  Event E;
  E.Ph = Phase::Complete;
  E.Cat = Cat;
  E.Name = Name;
  E.DurNs = DurNs < 0 ? 0 : DurNs;
  E.Args = std::move(Args);
  E.TsNs = StartNs;
  RecorderRegistry::local().Events.push_back(std::move(E));
}

void traceInstant(const std::string &Cat, const std::string &Name,
                  std::vector<TraceArg> Args) {
  if (!traceActive())
    return;
  Event E;
  E.Ph = Phase::Instant;
  E.Cat = Cat;
  E.Name = Name;
  E.Args = std::move(Args);
  record(std::move(E));
}

void traceCounter(const std::string &Name, int64_t Value) {
  if (!traceActive())
    return;
  Event E;
  E.Ph = Phase::Counter;
  E.Cat = "counter";
  E.Name = Name;
  E.Args.emplace_back("value", Value);
  record(std::move(E));
}

std::string traceWriteJson() {
  return RecorderRegistry::locked([](Recorder &R, auto &Live) {
    std::string Out = "{\"traceEvents\":[\n";
    bool First = true;
    for (Recorder::Shard *S : Live)
      if (!S->Name.empty())
        writeThreadName(Out, S->Tid, S->Name, First);
    for (const auto &TN : R.RetiredNames)
      writeThreadName(Out, TN.first, TN.second, First);
    for (Recorder::Shard *S : Live)
      for (const Event &E : S->Events)
        writeEvent(Out, S->Tid, E, R.EpochNs, First);
    for (const auto &TE : R.Retired)
      for (const Event &E : TE.second)
        writeEvent(Out, TE.first, E, R.EpochNs, First);
    Out += "\n]}\n";
    return Out;
  });
}

bool traceWriteFile(const std::string &Path) {
  std::string Json = traceWriteJson();
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  fwrite(Json.data(), 1, Json.size(), F);
  fclose(F);
  return true;
}

} // namespace halide
