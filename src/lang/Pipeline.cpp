//===-- lang/Pipeline.cpp -------------------------------------------------===//

#include "lang/Pipeline.h"

#include "analysis/CallGraph.h"
#include "ir/IRPrinter.h"
#include "observe/MetricsRegistry.h"
#include "observe/TraceRecorder.h"

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <sstream>

using namespace halide;

namespace {

/// The process-wide compile cache. Lowered pipelines are keyed by the
/// schedule fingerprint alone (both backends share one lowering);
/// executables additionally key on the backend and its flags. Sized for
/// the autotuner's working set; wholesale eviction keeps the bookkeeping
/// trivial and outstanding shared_ptrs keep in-use artifacts alive.
constexpr size_t MaxCacheEntries = 256;

/// A once-compile latch: the thread that inserts the slot produces the
/// value OUTSIDE the cache lock, then flips Ready; concurrent requests
/// for the same key wait on the slot instead of compiling again, and
/// compiles of different keys never wait on each other — a slow JIT of
/// one pipeline cannot serialize unrelated pipelines. Waiters hold the
/// slot by shared_ptr, so wholesale eviction during a pending compile
/// orphans the slot harmlessly rather than dangling it.
template <typename ValueT> struct CacheSlot {
  std::mutex M;
  std::condition_variable CV;
  bool Ready = false;
  ValueT Value{};

  void publish(ValueT V) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Value = std::move(V);
      Ready = true;
    }
    CV.notify_all();
  }
  ValueT await() {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return Ready; });
    return Value;
  }
};

using LowerSlot = CacheSlot<std::shared_ptr<const LoweredPipeline>>;
using ExecSlot = CacheSlot<std::shared_ptr<const Executable>>;

struct CompileCache {
  /// Guards the two maps. Counters are atomics so the hot path (a cache
  /// hit) needs only this in shared mode.
  std::shared_mutex Mutex;
  std::map<std::string, std::shared_ptr<LowerSlot>> Lowered;
  std::map<std::string, std::shared_ptr<ExecSlot>> Executables;
  std::atomic<int64_t> Lowerings{0};
  std::atomic<int64_t> BackendCompiles{0};
  std::atomic<int64_t> CacheHits{0};
};

CompileCache &cache() {
  static CompileCache C;
  return C;
}

/// Looks up Key's slot under a shared lock; on miss, inserts a fresh slot
/// under an exclusive lock (evicting wholesale at capacity). Returns the
/// slot and whether this caller created it (and so must fill it).
template <typename SlotT>
std::shared_ptr<SlotT>
lookupOrCreateSlot(std::map<std::string, std::shared_ptr<SlotT>> &Map,
                   const std::string &Key, bool *Created) {
  CompileCache &C = cache();
  {
    std::shared_lock<std::shared_mutex> Lock(C.Mutex);
    auto It = Map.find(Key);
    if (It != Map.end()) {
      *Created = false;
      return It->second;
    }
  }
  std::unique_lock<std::shared_mutex> Lock(C.Mutex);
  auto It = Map.find(Key);
  if (It != Map.end()) {
    *Created = false;
    return It->second;
  }
  if (Map.size() >= MaxCacheEntries)
    Map.clear();
  auto Slot = std::make_shared<SlotT>();
  Map.emplace(Key, Slot);
  *Created = true;
  return Slot;
}

void appendDims(std::ostringstream &OS, const std::vector<Dim> &Dims) {
  for (size_t I = 0; I < Dims.size(); ++I) {
    if (I)
      OS << ",";
    OS << Dims[I].Var << ":" << forTypeName(Dims[I].Kind);
  }
}

} // namespace

std::string Pipeline::scheduleFingerprint(
    const Target &T, std::map<std::string, ParameterPtr> *Params) const {
  std::map<std::string, Function> Env =
      buildEnvironment(Output.function(), Params);
  std::ostringstream OS;
  OS << Output.name();
  for (const auto &[Name, F] : Env) {
    const Schedule &S = F.schedule();
    // Name#id: stages of different pipelines may share a name, so the
    // process-unique id keeps one stage's cache entries from aliasing
    // another stage of that name with a different definition.
    OS << "|" << Name << "#" << F.id() << "{" << S.str();
    for (const BoundConstraint &B : S.Bounds)
      OS << " bound(" << B.Var << "," << exprToString(B.Min) << ","
         << exprToString(B.Extent) << ")";
    for (const UpdateDefinition &U : F.updates()) {
      OS << " update(";
      appendDims(OS, U.Dims);
      OS << ")";
    }
    OS << "}";
  }
  OS << "@" << T.lowerOptionsFingerprint();
  return OS.str();
}

/// The lowered pipeline for \p LowerKey, lowering (and counting) on miss.
/// A stampede of identical keys does exactly one lowering; the rest block
/// on the slot's latch until it is published.
std::shared_ptr<const LoweredPipeline>
Pipeline::cachedLowered(const std::string &LowerKey, const Target &T) {
  CompileCache &C = cache();
  bool Created = false;
  std::shared_ptr<LowerSlot> Slot =
      lookupOrCreateSlot(C.Lowered, LowerKey, &Created);
  if (!Created)
    return Slot->await();
  C.Lowerings.fetch_add(1);
  int64_t TraceT0 = traceActive() ? traceNowNs() : 0;
  // Lowering shares no mutable state with other threads (its counters are
  // per-thread, its names per-call, and the stages two pipelines share are
  // only read), so unrelated pipelines lower in parallel.
  auto LP =
      std::make_shared<const LoweredPipeline>(lower(Output.function(), T));
  if (TraceT0)
    traceComplete("compile", "lower " + Output.name(), TraceT0,
                  traceNowNs() - TraceT0);
  Slot->publish(LP);
  return LP;
}

std::shared_ptr<const Executable> Pipeline::compile(const Target &T) {
  user_assert(T.NumThreads == 0)
      << "cannot compile " << Output.name() << " for a thread request ("
      << T.str() << "): pass the request to Executable::run";
  return compileKeyed(scheduleFingerprint(T), T);
}

std::shared_ptr<const Executable>
Pipeline::compileKeyed(const std::string &LowerKey, const Target &T) {
  CompileCache &C = cache();
  // The executable key adds what changes the code to the lowering key:
  // the engine, jit_c's host-compiler flags, and instrumentation, which
  // makeExecutable applies to a copy of the shared lowering.
  std::string ExecKey =
      LowerKey + "##" + backendName(T.TargetBackend) +
      (T.TargetBackend == Backend::JitC ? "#" + T.JitFlags : "") +
      (T.Profile ? "#profile" : "") + (T.Trace ? "#trace" : "");

  bool Created = false;
  std::shared_ptr<ExecSlot> Slot =
      lookupOrCreateSlot(C.Executables, ExecKey, &Created);
  if (!Created) {
    C.CacheHits.fetch_add(1);
    if (traceActive())
      traceInstant("compile", "cache_hit " + Output.name());
    return Slot->await();
  }

  std::shared_ptr<const LoweredPipeline> LP = cachedLowered(LowerKey, T);
  C.BackendCompiles.fetch_add(1);
  int64_t TraceT0 = traceActive() ? traceNowNs() : 0;
  std::shared_ptr<const Executable> Exe = makeExecutable(*LP, T);
  if (TraceT0)
    traceComplete("compile",
                  "backend_compile " + Output.name() + " (" +
                      backendName(T.TargetBackend) + ")",
                  TraceT0, traceNowNs() - TraceT0);
  Slot->publish(Exe);
  return Exe;
}

LoweredPipeline Pipeline::lowerPipeline(const Target &T) {
  return *cachedLowered(scheduleFingerprint(T), T);
}

std::string Pipeline::loweredText(const Target &T) {
  return stmtToString(lowerPipeline(T).Body);
}

std::vector<Argument> Pipeline::inferArguments(const Target &T) {
  LoweredPipeline LP = lowerPipeline(T);
  std::vector<Argument> Args;
  for (const BufferArg &B : LP.Buffers) {
    Argument A;
    A.Name = B.Name;
    A.ArgKind =
        B.IsOutput ? Argument::Kind::OutputBuffer : Argument::Kind::InputBuffer;
    A.ArgType = B.ElemType;
    A.Dimensions = B.Dimensions;
    Args.push_back(std::move(A));
  }
  for (const ScalarArg &S : LP.Scalars) {
    Argument A;
    A.Name = S.Name;
    A.ArgKind = Argument::Kind::Scalar;
    A.ArgType = S.ArgType;
    Args.push_back(std::move(A));
  }
  return Args;
}

auto Pipeline::prepareFrame(RawBuffer Out, const ParamBindings &Params,
                            const Target &T) {
  std::map<std::string, ParameterPtr> Ps;
  std::string LowerKey = scheduleFingerprint(T, &Ps);
  ParamBindings Args = Params;
  bindParameterValues(Ps, &Args);
  Args.bind(Output.name(), Out);
  // The frame holds its own Pipeline (a cheap Func handle copy), so it
  // stays valid even if this Pipeline object dies first.
  return [Self = *this, LowerKey = std::move(LowerKey), Args = std::move(Args),
          T]() mutable {
    auto Exe = Self.compileKeyed(LowerKey, T.withThreads(0));
    ExecutionStats Stats;
    int Rc = Exe->run(Args, &Stats, T.NumThreads);
    user_assert(Rc == 0) << "pipeline " << Exe->pipeline().Name
                         << " on target " << T.str()
                         << " failed with exit code " << Rc;
    return Stats;
  };
}

ExecutionStats Pipeline::realize(RawBuffer Out, const ParamBindings &Params,
                                 const Target &T) {
  user_assert(Out.defined()) << "realize into an undefined buffer";
  return prepareFrame(Out, Params, T)();
}

FrameFuture Pipeline::realizeAsync(RawBuffer Out, const ParamBindings &Params,
                                   const Target &T, int Priority) {
  user_assert(Out.defined()) << "realizeAsync into an undefined buffer";
  FrameFuture Future;
  Future.Stats = std::make_shared<ExecutionStats>();
  // Prepare the frame NOW: it sees the parameter values as of submission
  // no matter when a worker gets to it.
  auto Run = prepareFrame(Out, Params, T);
  std::string Name = Output.name();
  std::shared_ptr<ExecutionStats> Stats = Future.Stats;
  int64_t FrameSeq = metricsNoteFrameSubmitted();
  int64_t SubmitNs = traceActive() ? traceNowNs() : 0;
  Future.Job = submitAsyncJob(
      [Run = std::move(Run), Name, Stats, FrameSeq, SubmitNs,
       Priority]() mutable {
        // Split the frame's life into queue-wait (submission to pickup)
        // and execute spans so serving traces show where latency lives.
        int64_t StartNs = SubmitNs && traceActive() ? traceNowNs() : 0;
        *Stats = Run();
        if (StartNs) {
          std::string Frame = Name + " frame " + std::to_string(FrameSeq);
          std::vector<TraceArg> Args;
          Args.emplace_back("frame", FrameSeq);
          Args.emplace_back("priority", (int64_t)Priority);
          traceComplete("serve", Frame + " queue_wait", SubmitNs,
                        StartNs - SubmitNs, Args);
          traceComplete("serve", Frame + " execute", StartNs,
                        traceNowNs() - StartNs, Args);
        }
        metricsNoteFrameCompleted();
      },
      Priority);
  return Future;
}

CompileCounters Pipeline::compileCounters() {
  CompileCache &C = cache();
  CompileCounters Counters;
  Counters.Lowerings = C.Lowerings.load();
  Counters.BackendCompiles = C.BackendCompiles.load();
  Counters.CacheHits = C.CacheHits.load();
  return Counters;
}

void Pipeline::clearCompileCache() {
  CompileCache &C = cache();
  std::unique_lock<std::shared_mutex> Lock(C.Mutex);
  cache().Lowered.clear();
  cache().Executables.clear();
}
