//===-- runtime/TaskScheduler.h - Work-stealing task runtime ----*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared parallel task runtime of paper section 4.6, used by both
/// engines: parallel loops are lowered to a closure plus a body function
/// that runs a whole chunk of iterations, and parallelForChunks, the one
/// entry point, splits the loop's range into chunks scheduled over a
/// work-stealing pool with per-worker deques. A thread that submits a loop
/// participates in it, and a worker whose own loop is blocked on chunks
/// stolen by others steals work itself instead of idling or inlining — so
/// nested parallel loops (the paper's tile-over-scanline schedules) really
/// run in parallel rather than serializing on the submitting worker.
///
/// The scheduler carries no observability state from a submitter to the
/// threads that run its chunks: a profiled executable opens a chunk scope
/// for its stage at the top of each parallel loop body
/// (transforms/Instrument.h), and a traced run records each chunk as a
/// "task" span (observe/TraceRecorder.h).
///
/// The pool size counts the submitting thread: size N means N-1 spawned
/// workers plus the caller. The default is the HALIDE_NUM_THREADS
/// environment variable when set, otherwise the hardware concurrency.
/// Reconfiguration is locked against in-flight loops, and all workers are
/// joined on reconfiguration and at process exit.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_RUNTIME_TASKSCHEDULER_H
#define HALIDE_RUNTIME_TASKSCHEDULER_H

#include <cstdint>
#include <functional>
#include <memory>

namespace halide {

/// A chunk of a parallel loop: runs iterations [Begin, End). \p Chunk is
/// the chunk's index in the loop's deterministic partition (dense, in
/// range order), so callers can deposit per-chunk results without locks
/// and merge them in a fixed order afterwards.
using TaskChunkFn = void (*)(int64_t Begin, int64_t End, int Chunk,
                             void *Closure);

/// Runs \p Body over [Min, Min+Extent) as up to \p MaxTasks chunks on the
/// scheduler (MaxTasks <= 0 takes the pool default, taskChunkBudget(0)).
/// Returns the number of chunks dispatched, min(Extent, MaxTasks), or 0
/// when Extent <= 0. The partition is deterministic and balanced (chunk C
/// covers [Extent*C/N, Extent*(C+1)/N)), so chunk indices identify stable
/// subranges. Blocks until every chunk has finished; the calling thread
/// executes chunks itself and steals unrelated work while waiting on
/// stragglers. A single chunk, or a one-thread pool, runs inline on the
/// calling thread. Safe to call from within a chunk (nested parallelism).
/// This is the only way into the scheduler: the VM's task dispatch, the
/// runtime vtable's ParFor (which points here) and simulated-GPU launches
/// all call it.
int parallelForChunks(int64_t Min, int64_t Extent, int MaxTasks,
                      TaskChunkFn Body, void *Closure);

/// The thread-request rule: the chunk budget (parallelForChunks's
/// MaxTasks) for a run that asked for \p NumThreads threads (the request
/// passed to Executable::run). 1 runs every parallel loop as a single inline
/// chunk; 0 takes the pool default of four chunks per pool thread; N > 1
/// allows 4 N chunks. Both engines size their loops by it.
int taskChunkBudget(int NumThreads);

/// The scheduler's thread count, including the submitting thread.
int taskSchedulerThreads();

/// Overrides the pool size (0 restores the default). Blocks until every
/// in-flight parallel loop has drained, then joins and restarts the
/// workers — concurrent top-level loops are held at the gate while the
/// pool is rebuilt, so reconfiguration cannot race execution. Must not be
/// called from inside a parallel task.
void setTaskSchedulerThreads(int Threads);

/// True when the calling thread is a scheduler worker or is currently
/// executing a task chunk (used to decide top-level vs nested submission;
/// exposed for tests).
bool inTaskWorker();

/// Lifetime counters of the scheduler, sampled for the metrics registry
/// (observe/MetricsRegistry.h). Monotonic since process start — resize()
/// does not reset them — except Threads, which is the current pool size.
struct TaskSchedulerStats {
  int Threads = 1;              ///< current pool size (incl. submitter)
  int64_t Steals = 0;           ///< chunks taken from another thread's deque
  int64_t ChunksExecuted = 0;   ///< parallel-loop chunks run (any path)
  int64_t AsyncJobsExecuted = 0; ///< async jobs (frames) run to completion
  int64_t PeakQueueDepth = 0;   ///< high-water mark of queued chunks
};

/// Snapshot of the counters above. Individually consistent (each counter
/// is an atomic), not a cross-counter atomic snapshot.
TaskSchedulerStats taskSchedulerStats();

//===----------------------------------------------------------------------===//
// Async jobs: whole units of work (a frame's realize) queued on the same
// pool that runs parallel-loop chunks. This is what turns the scheduler
// from "one parallel loop at a time" into a multi-tenant serving runtime:
// many in-flight frames coexist, each fanning its own loops out as chunks,
// and idle workers pick the highest-priority queued frame next.
//===----------------------------------------------------------------------===//

struct AsyncJobState; // opaque; defined in TaskScheduler.cpp

/// Handle to a submitted async job. Copyable; default-constructed handles
/// are invalid. The job's closure runs exactly once, on whichever thread
/// picks it up (a pool worker, a thread blocked in wait(), or a resize
/// draining the queue).
class AsyncJob {
public:
  AsyncJob() = default;

  bool valid() const { return State != nullptr; }
  /// True once the job's closure has finished running.
  bool done() const;
  /// Blocks until the job completes. The waiting thread does not idle: it
  /// executes queued parallel-loop chunks and other queued async jobs
  /// while it waits, so frames complete even on a single-threaded pool
  /// (and submit-then-wait never deadlocks).
  void wait() const;

private:
  friend AsyncJob submitAsyncJob(std::function<void()> Fn, int Priority);
  std::shared_ptr<AsyncJobState> State;
};

/// Queues \p Fn on the scheduler. Higher \p Priority runs first when a
/// thread picks its next job; ties run in submission order (FIFO). Chunk
/// work from already-running loops always takes precedence over starting
/// a new job — finishing in-flight frames beats admitting new ones.
/// The closure may freely call parallelForChunks (that is the point: a
/// frame's parallel loops nest inside its job). It must not call
/// setTaskSchedulerThreads. Jobs count as in-flight work: a concurrent
/// resize drains them (executing queued ones itself if need be) before
/// rebuilding the pool.
AsyncJob submitAsyncJob(std::function<void()> Fn, int Priority = 0);

} // namespace halide

#endif // HALIDE_RUNTIME_TASKSCHEDULER_H
