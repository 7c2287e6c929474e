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

/// Serializes lowering itself. Lowering touches process-wide state that
/// is individually locked but must be mutually consistent across a whole
/// lowering (the Function registry, unique-name counters, shared IR
/// construction), so two lowerings never interleave. Backend compiles
/// (the cc subprocess, bytecode emission) happen outside this lock and do
/// run concurrently.
std::mutex &loweringMutex() {
  static std::mutex M;
  return M;
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

std::string Pipeline::scheduleFingerprint(const Target &T) const {
  std::map<std::string, Function> Env = buildEnvironment(Output.function());
  std::ostringstream OS;
  OS << Output.name();
  for (const auto &[Name, F] : Env) {
    const Schedule &S = F.schedule();
    // Name#id: names are unique only among live functions, so the
    // process-unique id keeps a dead stage's cache entries from aliasing
    // a new stage that reused its name with a different definition.
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
  std::shared_ptr<const LoweredPipeline> LP;
  {
    std::lock_guard<std::mutex> Lock(loweringMutex());
    LP = std::make_shared<const LoweredPipeline>(lower(Output.function(), T));
  }
  if (TraceT0)
    traceComplete("compile", "lower " + Output.name(), TraceT0,
                  traceNowNs() - TraceT0);
  Slot->publish(LP);
  return LP;
}

std::shared_ptr<const Executable> Pipeline::compile(const Target &T) {
  CompileCache &C = cache();
  std::string LowerKey = scheduleFingerprint(T);
  // The thread request belongs in the executable key only: it never
  // changes lowering, so every thread count shares one lowered pipeline,
  // but the executable carries its Target (the VM's dispatch consults
  // NumThreads at run time), so targets differing in threads must not
  // alias one cached artifact.
  // Profile follows the same rule (see Target::Profile): instrumentation
  // happens in makeExecutable on a copy of the shared lowering, so only
  // the executable key carries the bit. Trace likewise, except its key
  // component also folds in every stage's per-Func trace flags — they
  // select which accesses the instrument pass traces, so flipping a flag
  // must not alias a differently instrumented cached executable.
  std::string TraceKey;
  if (T.Trace) {
    TraceKey = "#trace";
    for (const auto &[Name, F] : buildEnvironment(Output.function()))
      if (F.traceLoads() || F.traceStores() || F.traceRealizations())
        TraceKey += "," + Name + ":" + (F.traceLoads() ? "l" : "") +
                    (F.traceStores() ? "s" : "") +
                    (F.traceRealizations() ? "r" : "");
  }
  std::string ExecKey = LowerKey + "##" + backendName(T.TargetBackend) +
                        "#" + T.JitFlags + "#t" +
                        std::to_string(T.NumThreads) +
                        (T.Profile ? "#profile" : "") + TraceKey;

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
  if (T.compilesAheadOfRun())
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

namespace {

/// Completes \p Full against the pipeline's signature: every buffer and
/// scalar the caller did not bind explicitly is resolved from \p Snap, a
/// registry snapshot taken once per frame (so one frame never sees a
/// half-updated registry when another thread is rebinding Params), with
/// clear user_errors naming the argument on the unbound and type-mismatch
/// paths.
void bindInferredArguments(const LoweredPipeline &LP,
                           const std::map<std::string, ParamValue> &Snap,
                           ParamBindings *Full) {
  auto lookup = [&Snap](const std::string &Name) -> const ParamValue * {
    auto It = Snap.find(Name);
    return It == Snap.end() ? nullptr : &It->second;
  };
  for (const BufferArg &Arg : LP.Buffers) {
    if (!Full->hasBuffer(Arg.Name)) {
      user_assert(!Arg.IsOutput)
          << "output buffer '" << Arg.Name << "' is unbound";
      const ParamValue *PV = lookup(Arg.Name);
      user_assert(PV && PV->HasValue)
          << "input image '" << Arg.Name
          << "' is unbound: call ImageParam::set(buffer) before realize, "
             "or bind it explicitly in the ParamBindings";
      Full->bind(Arg.Name, PV->Image);
    }
    const RawBuffer &B = Full->buffer(Arg.Name);
    user_assert(B.ElemType == Arg.ElemType)
        << (Arg.IsOutput ? "output" : "input") << " buffer '" << Arg.Name
        << "' has element type " << B.ElemType.str()
        << " but the pipeline expects " << Arg.ElemType.str();
    user_assert(B.Dimensions == Arg.Dimensions)
        << (Arg.IsOutput ? "output" : "input") << " buffer '" << Arg.Name
        << "' is " << B.Dimensions << "-dimensional but the pipeline expects "
        << Arg.Dimensions << " dimensions";
  }
  for (const ScalarArg &Arg : LP.Scalars) {
    double Ignored;
    if (Full->lookupScalar(Arg.Name, &Ignored))
      continue; // bound explicitly
    const ParamValue *PV = lookup(Arg.Name);
    user_assert(PV)
        << "scalar parameter '" << Arg.Name
        << "' is unbound: no Param with that name exists; construct a "
           "Param and set() it, or bind the value explicitly";
    user_assert(!PV->IsImage)
        << "parameter '" << Arg.Name
        << "' is an ImageParam but the pipeline expects a scalar";
    user_assert(PV->DeclaredType == Arg.ArgType)
        << "scalar parameter '" << Arg.Name << "' is declared "
        << PV->DeclaredType.str() << " but the pipeline expects "
        << Arg.ArgType.str();
    user_assert(PV->HasValue) << "scalar parameter '" << Arg.Name
                              << "' is unbound: call set() before realize";
    if (Arg.ArgType.isFloat())
      Full->bindFloat(Arg.Name, PV->FloatValue);
    else
      Full->bindInt(Arg.Name, PV->IntValue);
  }
}

} // namespace

ExecutionStats Pipeline::realizeWithSnapshot(
    RawBuffer Out, const ParamBindings &Params,
    const std::map<std::string, ParamValue> &ParamSnapshot, const Target &T) {
  user_assert(Out.defined()) << "realize into an undefined buffer";
  std::shared_ptr<const Executable> Exe = compile(T);
  const LoweredPipeline &LP = Exe->pipeline();

  ParamBindings Full = Params;
  Full.bind(LP.Name, Out);
  bindInferredArguments(LP, ParamSnapshot, &Full);

  ExecutionStats Stats;
  int Rc = Exe->run(Full, &Stats);
  user_assert(Rc == 0) << "pipeline " << LP.Name << " on target " << T.str()
                       << " failed with exit code " << Rc;
  return Stats;
}

ExecutionStats Pipeline::realize(RawBuffer Out, const ParamBindings &Params,
                                 const Target &T) {
  return realizeWithSnapshot(Out, Params, snapshotParams(), T);
}

FrameFuture Pipeline::realizeAsync(RawBuffer Out, const ParamBindings &Params,
                                   const Target &T, int Priority) {
  user_assert(Out.defined()) << "realizeAsync into an undefined buffer";
  FrameFuture Future;
  Future.Stats = std::make_shared<ExecutionStats>();
  // Snapshot the Param registry NOW: the frame sees the bindings as of
  // submission no matter when a worker gets to it.
  auto Snap = std::make_shared<std::map<std::string, ParamValue>>(
      snapshotParams());
  // The closure holds its own Func handle (a cheap intrusive-ptr copy), so
  // the frame stays valid even if this Pipeline object dies first.
  Func OutputCopy = Output;
  std::shared_ptr<ExecutionStats> Stats = Future.Stats;
  int64_t FrameSeq = metricsNoteFrameSubmitted();
  int64_t SubmitNs = traceActive() ? traceNowNs() : 0;
  Future.Job = submitAsyncJob(
      [OutputCopy, Out, Params, T, Snap, Stats, FrameSeq, SubmitNs,
       Priority]() mutable {
        // Split the frame's life into queue-wait (submission to pickup)
        // and execute spans so serving traces show where latency lives.
        int64_t StartNs = SubmitNs && traceActive() ? traceNowNs() : 0;
        Pipeline P(OutputCopy);
        *Stats = P.realizeWithSnapshot(Out, Params, *Snap, T);
        if (StartNs) {
          std::string Frame =
              OutputCopy.name() + " frame " + std::to_string(FrameSeq);
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
