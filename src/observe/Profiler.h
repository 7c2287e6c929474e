//===-- observe/Profiler.h - Per-stage wall-time profiler -------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide per-stage profiler behind Target::Profile. Its only input
/// is the instrumentation events of profiled executables
/// (transforms/Instrument.h), which every engine reports through
/// observeEvent (observe/TraceStream.h):
///   - ProfEnter/ProfExit around each stage's produce body. The profiler
///     keeps a per-thread stage stack and charges elapsed wall time to the
///     innermost active stage (self time) and to every enclosing stage
///     (total time), so child = total - self, mirroring real Halide's
///     profiler attribution.
///   - ProfChunk/ProfExit around each parallel loop body, naming the
///     stage around the loop. A chunk scope charges time but counts no
///     invocation, so a 4-thread run reports the same per-stage
///     invocation counts as a serial run. When the stage is already
///     innermost on the thread (serial runs, inline chunks) the pair does
///     nothing.
///   - ProfAlloc/ProfFree around each allocation's scope. The bytes are
///     charged to the innermost stage on the thread; a per-thread
///     last-in-first-out stack matches each free to its allocation, which
///     holds because allocation scopes nest on every thread.
///
/// A Target::Profile executable always records; an uninstrumented one
/// contains no events and costs nothing. Stage names are interned
/// process-wide into dense int ids (profilerStageId) so the hot path is
/// an id compare, a clock read, and two thread-local adds -- no strings,
/// no locks. Each thread accumulates into its own shard
/// (observe/ShardRegistry.h); profilerReport() merges live shards plus the
/// retired totals of exited threads. Merging a shard requires its thread
/// to be between stages (stack empty); callers synchronize by joining or
/// draining the TaskScheduler before reporting, which is how the bench
/// and tests use it.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_OBSERVE_PROFILER_H
#define HALIDE_OBSERVE_PROFILER_H

#include "observe/TraceStream.h"

#include <cstdint>
#include <string>
#include <vector>

namespace halide {

/// Merged per-stage totals, one row per interned stage that ran.
struct StageProfile {
  std::string Name;
  /// Times the stage's produce body was entered (chunk scopes on worker
  /// threads do not count).
  int64_t Invocations = 0;
  /// Wall nanoseconds with this stage innermost on some thread. Across
  /// worker threads self-times add, so on a 4-thread run the sum of
  /// SelfNanos can exceed the elapsed wall clock (it is CPU-seconds of
  /// stage work); on a serial run it matches wall time spent in stages.
  int64_t SelfNanos = 0;
  /// Wall nanoseconds with this stage anywhere on the stack (self +
  /// children). On threaded runs chunk scopes add like self-times.
  int64_t TotalNanos = 0;
  /// Peak bytes of the allocations made while this stage was innermost.
  /// Threaded runs sum per-thread peaks -- exact when serial, an upper
  /// bound when threads allocate concurrently.
  int64_t PeakBytes = 0;

  int64_t childNanos() const { return TotalNanos - SelfNanos; }
};

/// The merged report: rows sorted by descending SelfNanos.
struct ProfileReport {
  std::vector<StageProfile> Stages;

  /// Sum of SelfNanos over all stages (CPU-nanoseconds of stage work).
  int64_t totalSelfNanos() const;
  /// Human-readable table (one line per stage).
  std::string str() const;
  /// JSON array of {name, invocations, self_ns, total_ns, peak_bytes}.
  std::string toJson() const;
};

/// Interns \p Name into a dense process-wide id (stable for the life of
/// the process). Safe from any thread.
int profilerStageId(const std::string &Name);
/// The name interned under \p Id ("?" if out of range).
std::string profilerStageName(int Id);
/// Number of ids interned so far (valid ids are [0, count)). Used by
/// observe/TraceStream.cpp to append stage-name records to a trace file.
int profilerStageCount();

/// Applies one profiler event (a TraceEventKind from ProfEnter up) on the
/// calling thread; observeEvent is the only caller. \p Payload is
/// ProfAlloc's element size in bytes followed by the allocation's
/// extents, and empty for the other kinds. Mismatched exits and frees are
/// ignored.
void profilerEvent(TraceEventKind Kind, int StageId, const int32_t *Payload,
                   int PayloadLen);

/// Clears all accumulated totals (live shards and retired threads).
/// Call only while no instrumented pipeline is running.
void profilerReset();

/// Merges every thread's totals into a report. Threads currently inside
/// a stage contribute their completed intervals only; call after joining
/// or draining outstanding work for exact numbers.
ProfileReport profilerReport();

} // namespace halide

#endif // HALIDE_OBSERVE_PROFILER_H
