//===-- observe/Profiler.h - Per-stage wall-time profiler -------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide per-stage profiler behind Target::Profile. Instrumented
/// executables (see transforms/Instrument.h) call profilerEnter /
/// profilerExit, through observeEvent (observe/TraceStream.h), around
/// each stage's produce body; the profiler keeps a per-thread stage stack
/// and charges elapsed wall time to the innermost active stage (self
/// time) and to every enclosing stage (total time), so child = total -
/// self, mirroring real Halide's profiler attribution.
///
/// Stage names are interned process-wide into dense int ids
/// (profilerStageId) so the hot enter/exit path is an id compare, a clock
/// read, and two thread-local adds -- no strings, no locks. Each thread
/// accumulates into a thread_local shard registered with a global list;
/// profilerReport() merges live shards plus the retired totals of exited
/// threads. Merging a shard requires its thread to be between stages
/// (stack empty); callers synchronize by joining or draining the
/// TaskScheduler before reporting, which is how the bench and tests use
/// it.
///
/// The TaskScheduler propagates stage context across parallel chunks:
/// jobs capture the submitting thread's current stage and workers enter
/// it as a *chunk* scope (profilerEnterChunk), which charges time but
/// does not bump the invocation count -- a 4-thread run reports the same
/// per-stage invocation counts as a serial run.
///
/// Collection is gated on setProfilerEnabled(): when off every entry
/// point returns after one relaxed atomic load, so uninstrumented
/// pipelines pay nothing and even instrumented ones can run silent.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_OBSERVE_PROFILER_H
#define HALIDE_OBSERVE_PROFILER_H

#include <cstdint>
#include <string>
#include <vector>

namespace halide {

/// Merged per-stage totals, one row per interned stage that ran.
struct StageProfile {
  std::string Name;
  /// Times the stage's produce body was entered (chunk re-entries on
  /// worker threads do not count; see profilerEnterChunk).
  int64_t Invocations = 0;
  /// Wall nanoseconds with this stage innermost on some thread. Across
  /// worker threads self-times add, so on a 4-thread run the sum of
  /// SelfNanos can exceed the elapsed wall clock (it is CPU-seconds of
  /// stage work); on a serial run it matches wall time spent in stages.
  int64_t SelfNanos = 0;
  /// Wall nanoseconds with this stage anywhere on the stack (self +
  /// children). On threaded runs chunk scopes add like self-times.
  int64_t TotalNanos = 0;
  /// Peak bytes attributed to this stage via profilerNoteAlloc/Free
  /// (allocations are charged to the stage active on the allocating
  /// thread). Threaded runs sum per-worker peaks -- exact when serial,
  /// an upper bound when workers allocate concurrently.
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

/// Master switch. Off (the default) makes every other entry point a
/// single relaxed atomic load. Flipping it on/off does not clear
/// accumulated data; use profilerReset() for that.
void setProfilerEnabled(bool Enabled);
bool profilerEnabled();

/// Interns \p Name into a dense process-wide id (stable for the life of
/// the process). Safe from any thread.
int profilerStageId(const std::string &Name);
/// The name interned under \p Id ("?" if out of range).
std::string profilerStageName(int Id);
/// Number of ids interned so far (valid ids are [0, count)). Used by
/// observe/TraceStream.cpp to append stage-name records to a trace file.
int profilerStageCount();

/// Stage entry/exit, called by instrumented code. Enter bumps the
/// invocation count, pushes the stage, and starts charging it self time;
/// exit pops it and resumes charging the parent. Mismatched exits are
/// ignored. No-ops while the profiler is disabled.
void profilerEnter(int StageId);
void profilerExit(int StageId);

/// Like profilerEnter but without the invocation bump: the TaskScheduler
/// uses this to extend a stage's scope onto a worker thread for one
/// chunk, so threaded runs charge time correctly without inflating
/// counts. Pair with profilerExit.
void profilerEnterChunk(int StageId);

/// The innermost active stage on the calling thread, or -1 (also -1
/// whenever the profiler is disabled). Cheap: one atomic load plus a
/// thread-local read; never allocates the calling thread's shard.
int profilerCurrentStage();

/// Charges \p Bytes (alloc) to the calling thread's innermost active
/// stage and remembers the owner so the matching free is charged back to
/// the allocating stage even if it happens under a different one.
/// BufferPool calls these for every halideMalloc/Free. No-ops while
/// disabled or when no stage is active.
void profilerNoteAlloc(const void *Ptr, int64_t Bytes);
void profilerNoteFree(const void *Ptr);

/// Clears all accumulated totals (live shards and retired threads).
/// Call only while no instrumented pipeline is running.
void profilerReset();

/// Merges every thread's totals into a report. Threads currently inside
/// a stage contribute their completed intervals only; call after joining
/// or draining outstanding work for exact numbers.
ProfileReport profilerReport();

} // namespace halide

#endif // HALIDE_OBSERVE_PROFILER_H
