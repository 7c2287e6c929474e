//===-- observe/Profiler.cpp - Per-stage wall-time profiler ---------------===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "observe/Profiler.h"
#include "observe/ShardRegistry.h"
#include "observe/TraceRecorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace halide {

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-stage accumulator within one thread's shard.
struct StageSlot {
  int64_t Invocations = 0;
  int64_t SelfNanos = 0;
  int64_t TotalNanos = 0;
  int64_t CurBytes = 0;
  int64_t PeakBytes = 0;
};

void mergeSlots(std::vector<StageSlot> &Into,
                const std::vector<StageSlot> &From) {
  if (Into.size() < From.size())
    Into.resize(From.size());
  for (size_t I = 0; I < From.size(); ++I) {
    Into[I].Invocations += From[I].Invocations;
    Into[I].SelfNanos += From[I].SelfNanos;
    Into[I].TotalNanos += From[I].TotalNanos;
    Into[I].CurBytes += From[I].CurBytes;
    Into[I].PeakBytes += From[I].PeakBytes;
  }
}

/// The profiler sink: the stage-name intern table, the merged totals of
/// exited threads, and one accumulation shard per thread.
struct ProfilerSink {
  std::unordered_map<std::string, int> Ids;
  std::vector<std::string> Names;
  std::vector<StageSlot> Retired;

  struct Shard {
    struct Frame {
      int StageId;
      int64_t EnterNs;
      /// ProfChunk scopes of this same stage opened on top of the frame
      /// and not yet closed; each absorbs one ProfExit.
      int Reentries;
    };
    struct Allocation {
      int StageId; // -1 when no stage was active
      int64_t Bytes;
    };

    std::vector<StageSlot> Slots;
    std::vector<Frame> Stack;
    std::vector<Allocation> Allocations;
    int64_t BaseNs = 0; // start of the current self-time interval

    StageSlot &slot(int StageId) {
      if ((int)Slots.size() <= StageId)
        Slots.resize(StageId + 1);
      return Slots[StageId];
    }

    void push(int StageId) {
      int64_t Now = nowNs();
      if (!Stack.empty())
        slot(Stack.back().StageId).SelfNanos += Now - BaseNs;
      Stack.push_back({StageId, Now, 0});
      BaseNs = Now;
      if (traceActive())
        traceBegin("stage", profilerStageName(StageId));
    }

    void enterChunk(int StageId) {
      if (!Stack.empty() && Stack.back().StageId == StageId)
        ++Stack.back().Reentries;
      else
        push(StageId);
    }

    void exit(int StageId) {
      if (Stack.empty() || Stack.back().StageId != StageId)
        return; // mismatched marker; drop rather than corrupt the stack
      if (Stack.back().Reentries > 0) {
        --Stack.back().Reentries;
        return;
      }
      int64_t Now = nowNs();
      StageSlot &S = slot(StageId);
      S.SelfNanos += Now - BaseNs;
      S.TotalNanos += Now - Stack.back().EnterNs;
      Stack.pop_back();
      BaseNs = Now;
      if (traceActive())
        traceEnd();
    }

    void allocate(const int32_t *Payload, int PayloadLen) {
      int64_t Bytes = PayloadLen > 0 ? Payload[0] : 0;
      for (int I = 1; I < PayloadLen; ++I)
        Bytes *= Payload[I];
      int StageId = Stack.empty() ? -1 : Stack.back().StageId;
      Allocations.push_back({StageId, Bytes});
      if (StageId < 0)
        return;
      StageSlot &S = slot(StageId);
      S.CurBytes += Bytes;
      S.PeakBytes = std::max(S.PeakBytes, S.CurBytes);
    }

    void release() {
      if (Allocations.empty())
        return;
      Allocation A = Allocations.back();
      Allocations.pop_back();
      if (A.StageId >= 0)
        slot(A.StageId).CurBytes -= A.Bytes;
    }
  };

  void retire(Shard &S) { mergeSlots(Retired, S.Slots); }
};

using ProfilerRegistry = ShardRegistry<ProfilerSink>;

} // namespace

int profilerStageId(const std::string &Name) {
  return ProfilerRegistry::locked([&](ProfilerSink &P, auto &) {
    auto It = P.Ids.find(Name);
    if (It != P.Ids.end())
      return It->second;
    int Id = (int)P.Names.size();
    P.Ids.emplace(Name, Id);
    P.Names.push_back(Name);
    return Id;
  });
}

int profilerStageCount() {
  return ProfilerRegistry::locked(
      [](ProfilerSink &P, auto &) { return (int)P.Names.size(); });
}

std::string profilerStageName(int Id) {
  return ProfilerRegistry::locked([&](ProfilerSink &P, auto &) {
    if (Id < 0 || Id >= (int)P.Names.size())
      return std::string("?");
    return P.Names[Id];
  });
}

void profilerEvent(TraceEventKind Kind, int StageId, const int32_t *Payload,
                   int PayloadLen) {
  ProfilerSink::Shard &S = ProfilerRegistry::local();
  switch (Kind) {
  case TraceEventKind::ProfEnter:
    S.slot(StageId).Invocations += 1;
    S.push(StageId);
    return;
  case TraceEventKind::ProfChunk:
    S.enterChunk(StageId);
    return;
  case TraceEventKind::ProfExit:
    S.exit(StageId);
    return;
  case TraceEventKind::ProfAlloc:
    S.allocate(Payload, PayloadLen);
    return;
  case TraceEventKind::ProfFree:
    S.release();
    return;
  default:
    return;
  }
}

void profilerReset() {
  ProfilerRegistry::locked([](ProfilerSink &P, auto &Live) {
    P.Retired.clear();
    // Leave any in-progress stack alone; its frames re-accumulate from
    // their original enter timestamps when they exit.
    for (ProfilerSink::Shard *S : Live)
      S->Slots.clear();
  });
}

ProfileReport profilerReport() {
  return ProfilerRegistry::locked([](ProfilerSink &P, auto &Live) {
    std::vector<StageSlot> Merged = P.Retired;
    for (ProfilerSink::Shard *S : Live)
      mergeSlots(Merged, S->Slots);
    ProfileReport Report;
    for (size_t I = 0; I < Merged.size(); ++I) {
      const StageSlot &S = Merged[I];
      if (S.Invocations == 0 && S.SelfNanos == 0 && S.TotalNanos == 0 &&
          S.PeakBytes == 0)
        continue;
      StageProfile Row;
      Row.Name = I < P.Names.size() ? P.Names[I] : "?";
      Row.Invocations = S.Invocations;
      Row.SelfNanos = S.SelfNanos;
      Row.TotalNanos = S.TotalNanos;
      Row.PeakBytes = S.PeakBytes;
      Report.Stages.push_back(std::move(Row));
    }
    std::sort(Report.Stages.begin(), Report.Stages.end(),
              [](const StageProfile &A, const StageProfile &B) {
                if (A.SelfNanos != B.SelfNanos)
                  return A.SelfNanos > B.SelfNanos;
                return A.Name < B.Name;
              });
    return Report;
  });
}

int64_t ProfileReport::totalSelfNanos() const {
  int64_t Sum = 0;
  for (const StageProfile &S : Stages)
    Sum += S.SelfNanos;
  return Sum;
}

std::string ProfileReport::str() const {
  std::string Out;
  char Line[256];
  snprintf(Line, sizeof(Line), "%-28s %10s %12s %12s %12s %12s\n", "stage",
           "calls", "self_ms", "child_ms", "total_ms", "peak_bytes");
  Out += Line;
  for (const StageProfile &S : Stages) {
    snprintf(Line, sizeof(Line),
             "%-28s %10lld %12.3f %12.3f %12.3f %12lld\n", S.Name.c_str(),
             (long long)S.Invocations, (double)S.SelfNanos / 1e6,
             (double)S.childNanos() / 1e6, (double)S.TotalNanos / 1e6,
             (long long)S.PeakBytes);
    Out += Line;
  }
  snprintf(Line, sizeof(Line), "%-28s %10s %12.3f\n", "total", "",
           (double)totalSelfNanos() / 1e6);
  Out += Line;
  return Out;
}

std::string ProfileReport::toJson() const {
  std::string Out = "[";
  for (size_t I = 0; I < Stages.size(); ++I) {
    const StageProfile &S = Stages[I];
    if (I)
      Out += ",";
    Out += "{\"name\":\"" + S.Name + "\"";
    Out += ",\"invocations\":" + std::to_string(S.Invocations);
    Out += ",\"self_ns\":" + std::to_string(S.SelfNanos);
    Out += ",\"total_ns\":" + std::to_string(S.TotalNanos);
    Out += ",\"peak_bytes\":" + std::to_string(S.PeakBytes);
    Out += "}";
  }
  Out += "]";
  return Out;
}

} // namespace halide
