//===-- runtime/TaskScheduler.cpp -----------------------------------------===//

#include "runtime/TaskScheduler.h"

#include "observe/TraceRecorder.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace halide;

namespace halide {

/// Shared completion state of one async job (the handle's pointee).
struct AsyncJobState {
  std::atomic<bool> Done{false};
};

} // namespace halide

namespace {

/// Chunks per requested thread: enough slack that uneven iterations still
/// balance across the pool (taskChunkBudget).
constexpr int ChunksPerThread = 4;

/// One queued async job: the closure plus its completion state.
struct AsyncTask {
  std::function<void()> Fn;
  std::shared_ptr<AsyncJobState> State;
};

/// One parallel loop in flight. Lives on the submitter's stack: every
/// chunk completes before parallelForChunks returns, so raw pointers to
/// it in queued work items cannot dangle.
struct Job {
  TaskChunkFn Body = nullptr;
  void *Closure = nullptr;
  std::atomic<int> PendingChunks{0};
};

/// A chunk of some job, sitting in a deque until a thread runs it.
struct WorkItem {
  Job *TheJob = nullptr;
  int64_t Begin = 0, End = 0;
  int Chunk = 0;
  int Origin = 0; ///< deque index it was pushed to; != executor => stolen
};

/// Runs one chunk body, recording a "task" span with its subrange when
/// tracing. Shared by queued-chunk execution and the serial inline path so
/// chunks are observable regardless of how they were dispatched.
void runChunkBody(TaskChunkFn Body, void *Closure, int64_t Begin,
                  int64_t End, int Chunk, bool Stolen) {
  const int64_t T0 = traceActive() ? traceNowNs() : 0;
  Body(Begin, End, Chunk, Closure);
  if (T0) {
    std::vector<TraceArg> Args;
    Args.emplace_back("begin", Begin);
    Args.emplace_back("end", End);
    Args.emplace_back("chunk", int64_t(Chunk));
    Args.emplace_back("stolen", int64_t(Stolen ? 1 : 0));
    traceComplete("task", "chunk", T0, traceNowNs() - T0, std::move(Args));
  }
}

/// A per-worker double-ended queue. The owner pushes and pops at the
/// bottom (LIFO — nested loops drain depth-first, like the serial
/// execution order); thieves take from the top (FIFO — they grab the
/// oldest, typically largest-remaining work). A plain mutex per deque is
/// uncontended in the common case and keeps the structure obviously
/// correct under TSan; the loop chunks pipelines generate are far too
/// coarse for lock-free pop latency to matter.
class WorkDeque {
public:
  void pushBottom(const WorkItem &W) {
    std::lock_guard<std::mutex> Lock(M);
    Items.push_back(W);
  }
  bool popBottom(WorkItem *W) {
    std::lock_guard<std::mutex> Lock(M);
    if (Items.empty())
      return false;
    *W = Items.back();
    Items.pop_back();
    return true;
  }
  bool stealTop(WorkItem *W) {
    std::lock_guard<std::mutex> Lock(M);
    if (Items.empty())
      return false;
    *W = Items.front();
    Items.pop_front();
    return true;
  }

private:
  std::mutex M;
  std::deque<WorkItem> Items;
};

class Scheduler {
public:
  static Scheduler &instance() {
    static Scheduler S;
    return S;
  }

  int threads() {
    std::lock_guard<std::mutex> Lock(StateMutex);
    return TotalThreads;
  }

  int run(int64_t Min, int64_t Extent, int MaxTasks, TaskChunkFn Body,
          void *Closure);
  void resize(int Threads);

  TaskSchedulerStats stats() {
    TaskSchedulerStats S;
    S.Threads = threads();
    S.Steals = Steals.load(std::memory_order_relaxed);
    S.ChunksExecuted = ChunksExecuted.load(std::memory_order_relaxed);
    S.AsyncJobsExecuted = AsyncJobsExecuted.load(std::memory_order_relaxed);
    S.PeakQueueDepth = PeakQueueDepth.load(std::memory_order_relaxed);
    return S;
  }

  std::shared_ptr<AsyncJobState> submitAsync(std::function<void()> Fn,
                                             int Priority);
  void waitAsync(const std::shared_ptr<AsyncJobState> &State);

  static thread_local int SlotIndex; ///< deque index; -1 = external thread

private:
  Scheduler() { start(0); }
  ~Scheduler() { stopWorkers(); }

  void start(int Threads) {
    if (Threads <= 0) {
      if (const char *Env = std::getenv("HALIDE_NUM_THREADS"))
        Threads = std::atoi(Env);
      if (Threads <= 0)
        Threads = int(std::thread::hardware_concurrency());
    }
    if (Threads < 1)
      Threads = 1;
    TotalThreads = Threads;
    // Deques: one per spawned worker, plus one shared by all external
    // (non-worker) submitters.
    Deques.clear();
    for (int I = 0; I < Threads; ++I)
      Deques.push_back(std::make_unique<WorkDeque>());
    Stop = false;
    for (int I = 0; I < Threads - 1; ++I)
      Workers.emplace_back([this, I] { workerLoop(I); });
  }

  /// Joins every worker. Caller must guarantee no job is in flight.
  void stopWorkers() {
    {
      std::lock_guard<std::mutex> Lock(StateMutex);
      Stop = true;
      WorkCV.notify_all();
    }
    for (std::thread &W : Workers)
      W.join();
    Workers.clear();
  }

  void workerLoop(int Index) {
    SlotIndex = Index;
    // Sticky lane name: traces started later still label worker lanes.
    traceSetThreadName("worker " + std::to_string(Index));
    WorkItem W;
    AsyncTask AT;
    while (true) {
      // Chunk work from loops already in flight comes first: finishing
      // running frames beats admitting queued ones.
      if (Deques[size_t(Index)]->popBottom(&W) || stealAny(Index, &W)) {
        execute(W);
        continue;
      }
      if (takeAsync(&AT)) {
        runAsyncTask(AT);
        continue;
      }
      std::unique_lock<std::mutex> Lock(StateMutex);
      WorkCV.wait(Lock, [&] {
        return Stop || QueuedItems.load() > 0 || !AsyncQueue.empty();
      });
      if (Stop)
        return;
    }
  }

  /// Pops the highest-priority queued async job (FIFO within a priority).
  bool takeAsync(AsyncTask *T) {
    std::lock_guard<std::mutex> Lock(StateMutex);
    if (AsyncQueue.empty())
      return false;
    auto It = AsyncQueue.begin();
    *T = std::move(It->second);
    AsyncQueue.erase(It);
    return true;
  }

  /// Runs one async job to completion on this thread and publishes the
  /// result. The job's parallel loops count as nested submissions (InTask
  /// is set), so they skip the top-level gate — the job itself is the unit
  /// resize() waits on, via ActiveJobs.
  void runAsyncTask(AsyncTask &T) {
    AsyncJobsExecuted.fetch_add(1, std::memory_order_relaxed);
    const bool WasInTask = InTask;
    InTask = true;
    T.Fn();
    InTask = WasInTask;
    T.Fn = nullptr; // drop the closure before signalling completion
    std::lock_guard<std::mutex> Lock(StateMutex);
    T.State->Done.store(true);
    WorkCV.notify_all();
    if (--ActiveJobs == 0)
      ConfigCV.notify_all();
    else if (Reconfiguring)
      ConfigCV.notify_all(); // a draining resize re-checks the queue
  }

  /// Scans every deque once, starting after \p Home's (external threads
  /// share the last deque). The scan includes Home's own deque last: its
  /// bottom was already tried, but another thread may have pushed since.
  bool stealAny(int Home, WorkItem *W) {
    const int N = int(Deques.size());
    const int Start = Home >= 0 ? Home : N - 1;
    for (int Off = 1; Off <= N; ++Off) {
      if (Deques[size_t((Start + Off) % N)]->stealTop(W))
        return true;
    }
    return false;
  }

  void execute(const WorkItem &W) {
    QueuedItems.fetch_sub(1);
    ChunksExecuted.fetch_add(1, std::memory_order_relaxed);
    const int Home =
        SlotIndex >= 0 ? SlotIndex : int(Deques.size()) - 1;
    const bool Stolen = W.Origin != Home;
    if (Stolen)
      Steals.fetch_add(1, std::memory_order_relaxed);
    const bool WasInTask = InTask;
    InTask = true;
    runChunkBody(W.TheJob->Body, W.TheJob->Closure, W.Begin, W.End,
                 W.Chunk, Stolen);
    InTask = WasInTask;
    if (W.TheJob->PendingChunks.fetch_sub(1) == 1) {
      // Last chunk: wake the submitter (and anyone else re-checking).
      std::lock_guard<std::mutex> Lock(StateMutex);
      WorkCV.notify_all();
    }
  }

  std::vector<std::unique_ptr<WorkDeque>> Deques; ///< workers + external
  std::vector<std::thread> Workers;
  std::mutex StateMutex;
  std::condition_variable WorkCV;   ///< work queued or a job completed
  std::condition_variable ConfigCV; ///< resize gate handshake
  std::atomic<int> QueuedItems{0};  ///< items sitting in deques
  // Lifetime observability counters (taskSchedulerStats()); monotonic,
  // never reset by resize().
  std::atomic<int64_t> Steals{0};
  std::atomic<int64_t> ChunksExecuted{0};
  std::atomic<int64_t> AsyncJobsExecuted{0};
  std::atomic<int64_t> PeakQueueDepth{0};
  /// Queued async jobs, ordered by (-Priority, submission sequence): the
  /// map's first entry is always the next job to run.
  std::map<std::pair<int, uint64_t>, AsyncTask> AsyncQueue;
  uint64_t AsyncSeq = 0;
  int ActiveJobs = 0; ///< top-level loops + async jobs in flight or queued
  int TotalThreads = 1;
  bool Stop = false;
  bool Reconfiguring = false;

  static thread_local bool InTask;

  friend bool halide::inTaskWorker();
};

thread_local int Scheduler::SlotIndex = -1;
thread_local bool Scheduler::InTask = false;

int Scheduler::run(int64_t Min, int64_t Extent, int MaxTasks,
                   TaskChunkFn Body, void *Closure) {
  if (Extent <= 0)
    return 0;

  const bool TopLevel = SlotIndex < 0 && !InTask;
  int PoolThreads;
  if (TopLevel) {
    // Gate: hold new top-level loops while the pool is being rebuilt, and
    // count them so resize() can wait for quiescence. Nested submissions
    // skip the gate — they are already covered by their root loop's count
    // (and taking it could deadlock against a waiting resize).
    std::unique_lock<std::mutex> Lock(StateMutex);
    ConfigCV.wait(Lock, [&] { return !Reconfiguring; });
    ++ActiveJobs;
    PoolThreads = TotalThreads;
  } else {
    std::lock_guard<std::mutex> Lock(StateMutex);
    PoolThreads = TotalThreads;
  }

  if (MaxTasks <= 0)
    MaxTasks = ChunksPerThread * PoolThreads; // taskChunkBudget(0)
  const int NumChunks = int(Extent < MaxTasks ? Extent : MaxTasks);

  if (NumChunks == 1 || PoolThreads == 1) {
    // Inline execution still honors the partition — callers size
    // per-chunk result slots from it, so every chunk index must fire.
    const bool WasInTask = InTask;
    InTask = true;
    for (int C = 0; C < NumChunks; ++C) {
      ChunksExecuted.fetch_add(1, std::memory_order_relaxed);
      runChunkBody(Body, Closure, Min + Extent * C / NumChunks,
                   Min + Extent * (C + 1) / NumChunks, C, /*Stolen=*/false);
    }
    InTask = WasInTask;
  } else {
    Job TheJob;
    TheJob.Body = Body;
    TheJob.Closure = Closure;
    TheJob.PendingChunks.store(NumChunks);

    const int MineIdx = SlotIndex >= 0 ? SlotIndex : int(Deques.size()) - 1;
    WorkDeque &Mine = *Deques[size_t(MineIdx)];
    // Deterministic balanced partition: chunk C covers
    // [Extent*C/NumChunks, Extent*(C+1)/NumChunks); no chunk is empty
    // because NumChunks <= Extent.
    for (int C = 0; C < NumChunks; ++C) {
      WorkItem W;
      W.TheJob = &TheJob;
      W.Begin = Min + Extent * C / NumChunks;
      W.End = Min + Extent * (C + 1) / NumChunks;
      W.Chunk = C;
      W.Origin = MineIdx;
      Mine.pushBottom(W);
    }
    const int64_t Depth = QueuedItems.fetch_add(NumChunks) + NumChunks;
    int64_t Peak = PeakQueueDepth.load(std::memory_order_relaxed);
    while (Depth > Peak && !PeakQueueDepth.compare_exchange_weak(
                               Peak, Depth, std::memory_order_relaxed)) {
    }
    {
      std::lock_guard<std::mutex> Lock(StateMutex);
      WorkCV.notify_all();
    }

    // Participate: drain our own deque first (depth-first — in the nested
    // case that is this loop's chunks before the enclosing loop's), then
    // steal anything from anyone rather than going idle while the last
    // chunks run elsewhere.
    const int Home = SlotIndex;
    WorkItem W;
    while (TheJob.PendingChunks.load() > 0) {
      if ((Home >= 0 ? Deques[size_t(Home)]->popBottom(&W)
                     : Deques.back()->popBottom(&W)) ||
          stealAny(Home, &W)) {
        execute(W);
        continue;
      }
      std::unique_lock<std::mutex> Lock(StateMutex);
      WorkCV.wait(Lock, [&] {
        return QueuedItems.load() > 0 || TheJob.PendingChunks.load() == 0;
      });
    }
  }

  if (TopLevel) {
    std::lock_guard<std::mutex> Lock(StateMutex);
    if (--ActiveJobs == 0)
      ConfigCV.notify_all();
  }
  return NumChunks;
}

std::shared_ptr<AsyncJobState> Scheduler::submitAsync(std::function<void()> Fn,
                                                      int Priority) {
  AsyncTask T;
  T.Fn = std::move(Fn);
  T.State = std::make_shared<AsyncJobState>();
  std::shared_ptr<AsyncJobState> Handle = T.State;
  {
    std::unique_lock<std::mutex> Lock(StateMutex);
    // Hold new submissions at the resize gate, like top-level loops — but
    // only for external threads; a submission from inside a task is
    // already covered by its enclosing job's ActiveJobs count, and gating
    // it could deadlock against a resize waiting for that very job.
    if (SlotIndex < 0 && !InTask)
      ConfigCV.wait(Lock, [&] { return !Reconfiguring; });
    ++ActiveJobs; // queued jobs count as in flight until they complete
    AsyncQueue.emplace(std::make_pair(-Priority, AsyncSeq++), std::move(T));
    WorkCV.notify_all();
    ConfigCV.notify_all(); // a draining resize must see the new job
  }
  return Handle;
}

void Scheduler::waitAsync(const std::shared_ptr<AsyncJobState> &State) {
  const int Home = SlotIndex;
  WorkItem W;
  AsyncTask AT;
  while (!State->Done.load()) {
    // Help instead of idling: chunk work first (it makes running frames
    // finish, possibly the very one we wait for), then queued jobs. This
    // is what makes submit-then-wait safe on a one-thread pool.
    if ((Home >= 0 ? Deques[size_t(Home)]->popBottom(&W)
                   : Deques.back()->popBottom(&W)) ||
        stealAny(Home, &W)) {
      execute(W);
      continue;
    }
    if (takeAsync(&AT)) {
      runAsyncTask(AT);
      continue;
    }
    std::unique_lock<std::mutex> Lock(StateMutex);
    WorkCV.wait(Lock, [&] {
      return State->Done.load() || QueuedItems.load() > 0 ||
             !AsyncQueue.empty();
    });
  }
}

void Scheduler::resize(int Threads) {
  std::unique_lock<std::mutex> Lock(StateMutex);
  // One resize at a time; wait out any loop that is already running (new
  // top-level loops queue behind the Reconfiguring gate).
  ConfigCV.wait(Lock, [&] { return !Reconfiguring; });
  Reconfiguring = true;
  // Drain in-flight work. Queued async jobs may never be picked up (the
  // workers could all be asleep on a one-thread pool, where there are no
  // workers at all), so execute them here rather than waiting forever.
  while (ActiveJobs != 0) {
    if (!AsyncQueue.empty()) {
      auto It = AsyncQueue.begin();
      AsyncTask T = std::move(It->second);
      AsyncQueue.erase(It);
      Lock.unlock();
      runAsyncTask(T);
      Lock.lock();
      continue;
    }
    ConfigCV.wait(Lock,
                  [&] { return ActiveJobs == 0 || !AsyncQueue.empty(); });
  }
  Lock.unlock();
  stopWorkers();
  Lock.lock();
  start(Threads);
  Reconfiguring = false;
  ConfigCV.notify_all();
}

} // namespace

int halide::parallelForChunks(int64_t Min, int64_t Extent, int MaxTasks,
                              TaskChunkFn Body, void *Closure) {
  return Scheduler::instance().run(Min, Extent, MaxTasks, Body, Closure);
}

int halide::taskChunkBudget(int NumThreads) {
  if (NumThreads == 1)
    return 1;
  return ChunksPerThread *
         (NumThreads > 0 ? NumThreads : taskSchedulerThreads());
}

int halide::taskSchedulerThreads() { return Scheduler::instance().threads(); }

void halide::setTaskSchedulerThreads(int Threads) {
  Scheduler::instance().resize(Threads);
}

TaskSchedulerStats halide::taskSchedulerStats() {
  return Scheduler::instance().stats();
}

bool halide::inTaskWorker() {
  return Scheduler::SlotIndex >= 0 || Scheduler::InTask;
}

bool AsyncJob::done() const {
  return State && State->Done.load();
}

void AsyncJob::wait() const {
  if (State)
    Scheduler::instance().waitAsync(State);
}

AsyncJob halide::submitAsyncJob(std::function<void()> Fn, int Priority) {
  AsyncJob Handle;
  Handle.State = Scheduler::instance().submitAsync(std::move(Fn), Priority);
  return Handle;
}
