//===-- lang/Pipeline.h - Compile-and-run entry point -----------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single entry point tying the front end to the compiler and back
/// ends: Pipeline::compile(Target) lowers the output Func with its current
/// schedules and hands it to the backend the Target names, caching the
/// result under a schedule+options fingerprint so an unchanged pipeline is
/// compiled once and run over many frames (paper section 4, Figure 5),
/// whatever thread count each run asks for. Pipeline::realize dispatches
/// through that cache and resolves every pipeline argument the caller did
/// not bind explicitly from the pipeline's own Param<T> / ImageParam
/// parameters, which the fingerprint's walk of its definitions collects,
/// into the name->value ParamBindings that Executable::run checks and
/// packs.
///
/// The cache is safe to use from many threads at once: it is a
/// shared_mutex-guarded map of per-entry once-compile latches (a stampede
/// of identical compiles does one lowering and one backend compile while
/// the rest wait), and compiles of different pipelines, lowering included,
/// run in parallel. Each frame reads its parameters' values once, for a
/// consistent per-frame view of them. realizeAsync queues a frame as an
/// async job on the task scheduler and returns a FrameFuture, which is
/// what turns the library into a serving runtime: many in-flight frames
/// share the worker pool under per-request priorities. Schedules must not
/// be mutated while any frame of the pipeline is in flight.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_LANG_PIPELINE_H
#define HALIDE_LANG_PIPELINE_H

#include "codegen/Executable.h"
#include "lang/Func.h"
#include "lang/Param.h"
#include "lang/Target.h"
#include "runtime/ExecutionStats.h"
#include "runtime/Runtime.h"
#include "runtime/TaskScheduler.h"
#include "transforms/Lower.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace halide {

/// One formal argument of a compiled pipeline, as reported by
/// Pipeline::inferArguments: the output buffer, an input image, or a
/// scalar parameter.
struct Argument {
  enum class Kind : uint8_t { OutputBuffer, InputBuffer, Scalar };

  std::string Name;
  Kind ArgKind = Kind::Scalar;
  Type ArgType;
  int Dimensions = 0; ///< buffers only
};

/// Process-wide compile-cache counters, exposed so tests and benchmarks
/// can assert compile-once-run-many behaviour.
struct CompileCounters {
  /// Full lowering runs (schedule synthesis through simplification).
  int64_t Lowerings = 0;
  /// Backend compilations: host C compiler invocations (JitC) and
  /// bytecode compiles (VmBytecode).
  int64_t BackendCompiles = 0;
  /// compile() calls served entirely from the executable cache.
  int64_t CacheHits = 0;
};

/// Handle to one frame submitted with Pipeline::realizeAsync. Copyable;
/// default-constructed futures are invalid. Failures inside the frame
/// (unbound parameters, pipeline assertions) abort the process like a
/// synchronous realize would — the future carries no error channel
/// because this codebase has none (user_error aborts).
class FrameFuture {
public:
  FrameFuture() = default;

  bool valid() const { return Stats != nullptr; }
  /// True once the frame has been fully realized.
  bool done() const { return Job.done(); }
  /// Blocks until the frame completes (helping the scheduler run other
  /// queued work meanwhile) and returns the frame's ExecutionStats.
  ExecutionStats wait() const {
    Job.wait();
    return *Stats;
  }

private:
  friend class Pipeline;
  AsyncJob Job;
  std::shared_ptr<ExecutionStats> Stats;
};

/// A compile-once, run-many image processing pipeline.
class Pipeline {
public:
  explicit Pipeline(Func Output) : Output(std::move(Output)) {}

  Func &output() { return Output; }
  const Func &output() const { return Output; }

  /// Compiles for \p T (lowering with the Funcs' current schedules), or
  /// returns the cached artifact when an identical pipeline was already
  /// compiled. The artifact stays valid even if schedules change later.
  /// A thread request in \p T is a user_error: it belongs to run().
  std::shared_ptr<const Executable> compile(const Target &T = Target());

  /// The lowered pipeline for \p T (cached by the same fingerprint).
  LoweredPipeline lowerPipeline(const Target &T = Target());

  /// The lowered statement pretty-printed (for inspection and tests).
  std::string loweredText(const Target &T = Target());

  /// The pipeline's formal arguments: output buffer first, then input
  /// images in name order, then scalar parameters in name order.
  std::vector<Argument> inferArguments(const Target &T = Target());

  /// Compiles (through the cache) and executes on \p T's backend, writing
  /// into \p Out (which also determines the requested output region).
  /// \p T's NumThreads is the run's thread request.
  /// Arguments not bound in \p Params are resolved from the values bound
  /// to the pipeline's Param<T>s and ImageParams, read at one instant; a
  /// missing or type-mismatched argument is a user_error naming it.
  /// Aborts (user_error) if the pipeline reports a nonzero exit code. Each
  /// call re-fingerprints the schedules (O(number of stages)) to detect
  /// schedule changes; frame loops that know the schedule is frozen can
  /// hold the compile() result and call run().
  ExecutionStats realize(RawBuffer Out,
                         const ParamBindings &Params = ParamBindings(),
                         const Target &T = Target());

  template <typename T>
  ExecutionStats realize(Buffer<T> &Out,
                         const ParamBindings &Params = ParamBindings(),
                         const Target &Tgt = Target()) {
    return realize(Out.raw(), Params, Tgt);
  }

  /// Queues one frame on the task scheduler and returns immediately. The
  /// frame compiles (through the cache) and runs on whichever thread picks
  /// it up; higher \p Priority frames run first, ties in submission order.
  /// The pipeline's parameter values are read here, at submission —
  /// later set() calls do not affect this frame. The caller must keep
  /// \p Out's allocation alive until the future reports done, must not
  /// realize two in-flight frames into the same buffer, and must not mutate
  /// the pipeline's schedules while frames are in flight.
  FrameFuture realizeAsync(RawBuffer Out,
                           const ParamBindings &Params = ParamBindings(),
                           const Target &T = Target(), int Priority = 0);

  template <typename T>
  FrameFuture realizeAsync(Buffer<T> &Out,
                           const ParamBindings &Params = ParamBindings(),
                           const Target &Tgt = Target(), int Priority = 0) {
    return realizeAsync(Out.raw(), Params, Tgt, Priority);
  }

  /// The cache key for the current schedules under \p T's feature flags:
  /// every stage's Schedule::str() (plus bounds and update-stage loop
  /// orders) concatenated with the Target's lowering options. The same
  /// walk collects the pipeline's parameters into \p Params when given.
  std::string scheduleFingerprint(
      const Target &T = Target(),
      std::map<std::string, ParameterPtr> *Params = nullptr) const;

  /// Process-wide compile-cache statistics, read atomically (tests and
  /// benchmarks assert on deltas; returned by value so callers get a
  /// consistent snapshot rather than a reference into mutating state).
  static CompileCounters compileCounters();
  /// Drops every cached lowered pipeline and executable (counters stay).
  /// Safe against in-flight compiles: they finish into their latch slots,
  /// which outstanding shared_ptrs keep alive.
  static void clearCompileCache();

private:
  std::shared_ptr<const LoweredPipeline>
  cachedLowered(const std::string &LowerKey, const Target &T);

  /// compile() under a fingerprint the caller already computed.
  std::shared_ptr<const Executable> compileKeyed(const std::string &LowerKey,
                                                 const Target &T);

  /// Walks the definitions once and reads the parameters' values now;
  /// returns the frame, which compiles (through the cache) and runs.
  auto prepareFrame(RawBuffer Out, const ParamBindings &Params,
                    const Target &T);

  Func Output;
};

} // namespace halide

#endif // HALIDE_LANG_PIPELINE_H
