//===-- lang/Target.h - Execution-target description ------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single description of *how* a pipeline is compiled and executed: the
/// backend (reference interpreter, the bytecode VM, the C-source JIT, or
/// the simulated-GPU device reached through the JIT) plus the feature flags
/// that used to live in LowerOptions. A Target is part of the compile-cache key, so two
/// realizations with the same schedules and the same Target share one
/// compiled artifact (paper section 4, Figure 5: compile once, run over
/// many frames).
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_LANG_TARGET_H
#define HALIDE_LANG_TARGET_H

#include <string>

namespace halide {

/// The execution engines a pipeline can be compiled for.
enum class Backend : uint8_t {
  /// The tree-walking reference interpreter (gathers ExecutionStats).
  Interpreter,
  /// Register-based bytecode compiled from the lowered IR and executed by
  /// a dispatch loop: interpreter semantics (bit-identical results, same
  /// ExecutionStats) at a fraction of the per-operation cost, with no
  /// host-compiler dependency. The differential suite's default engine.
  VmBytecode,
  /// CodeGenC -> host C compiler -> dlopen native execution.
  JitC,
  /// Native execution through JitC with kernel launches routed to the
  /// simulated GPU device; realize() reports the launch statistics.
  GpuSim,
};

const char *backendName(Backend B);

/// A complete execution-target description. Value-semantic; the default is
/// the reference interpreter with all optimizations enabled.
struct Target {
  Backend TargetBackend = Backend::Interpreter;

  // Feature flags that steer lowering (previously LowerOptions). They are
  // part of the lowering fingerprint: changing one recompiles.
  /// Skip the sliding window optimization (for ablation benchmarks).
  bool DisableSlidingWindow = false;
  /// Skip storage folding (for ablation benchmarks).
  bool DisableStorageFolding = false;

  /// Extra flags appended to the host C compiler command line (JitC/GpuSim
  /// backends only), e.g. "-O0" for compile-time-sensitive sweeps.
  std::string JitFlags;

  /// Worker-thread request for parallel loops: 0 inherits the task
  /// scheduler's pool size (runtime/TaskScheduler.h — HALIDE_NUM_THREADS
  /// or the hardware concurrency), 1 forces serial execution, N > 1 runs
  /// parallel loops threaded with chunking sized for N workers. Does not
  /// affect lowering — it is folded into the executable cache key only,
  /// never into the lowering fingerprint, so every thread count shares one
  /// lowered pipeline per schedule.
  int NumThreads = 0;

  /// Per-stage profiling (src/observe/Profiler.h): the executable is
  /// instrumented with stage enter/exit markers at backend-compile time.
  /// Like NumThreads this does not affect lowering — it is folded into
  /// the executable cache key only, never into the lowering fingerprint,
  /// so profile-on and profile-off targets share one lowered pipeline
  /// and an off-target run is bit-identical, marker-free code.
  bool Profile = false;

  /// Value-level tracing (src/observe/TraceStream.h): the executable is
  /// instrumented with per-value load/store/realization events at
  /// backend-compile time (transforms/Instrument.h). Like Profile this
  /// does not affect lowering — it is folded into the executable cache key
  /// only (together with the per-stage Func::traceLoads()-style flags), so
  /// trace-on and trace-off targets share one lowered pipeline and an
  /// off-target run is bit-identical, event-free code.
  bool Trace = false;

  Target() = default;
  explicit Target(Backend B) : TargetBackend(B) {}

  static Target interpreter() { return Target(Backend::Interpreter); }
  static Target vm() { return Target(Backend::VmBytecode); }
  static Target jit() { return Target(Backend::JitC); }
  static Target gpuSim() { return Target(Backend::GpuSim); }

  /// Fluent option setters (Targets are tiny; pass-by-value chaining).
  Target withJitFlags(std::string Flags) const {
    Target T = *this;
    T.JitFlags = std::move(Flags);
    return T;
  }
  Target withoutSlidingWindow() const {
    Target T = *this;
    T.DisableSlidingWindow = true;
    return T;
  }
  Target withoutStorageFolding() const {
    Target T = *this;
    T.DisableStorageFolding = true;
    return T;
  }
  Target withThreads(int Threads) const {
    Target T = *this;
    T.NumThreads = Threads;
    return T;
  }
  Target withProfile(bool Enable = true) const {
    Target T = *this;
    T.Profile = Enable;
    return T;
  }
  Target withTrace(bool Enable = true) const {
    Target T = *this;
    T.Trace = Enable;
    return T;
  }

  /// True when this target invokes the host C compiler (JitC and the
  /// GpuSim device path that rides on it).
  bool usesJit() const {
    return TargetBackend == Backend::JitC || TargetBackend == Backend::GpuSim;
  }
  /// True when compile() produces an artifact ahead of the first run (a
  /// bytecode program or a native shared object) rather than a thin
  /// tree-walking wrapper; these count as backend compiles in the cache
  /// counters.
  bool compilesAheadOfRun() const {
    return TargetBackend != Backend::Interpreter;
  }

  /// Canonical textual form, e.g. "jit_c-no_sliding_window". Used in logs
  /// and as part of compile-cache keys.
  std::string str() const;

  /// The lowering-relevant portion of str(): backend excluded, so the
  /// interpreter and JIT share one lowered pipeline per schedule.
  std::string lowerOptionsFingerprint() const;

  /// Parses the bench_runner --backend flag form: "interp"/"interpreter",
  /// "vm"/"vm_bytecode", "jit"/"jit_c", "gpu"/"gpu_sim", optionally followed by
  /// "-no_sliding_window"/"-no_storage_folding" features, a
  /// "-threads<N>" thread request, "-profile", and "-trace". JitFlags have no
  /// textual form here — str()'s " [flags]" suffix is display-only.
  /// Returns false (and leaves \p Out alone) on an unknown name.
  static bool parse(const std::string &Text, Target *Out);

  bool operator==(const Target &Other) const {
    return TargetBackend == Other.TargetBackend &&
           DisableSlidingWindow == Other.DisableSlidingWindow &&
           DisableStorageFolding == Other.DisableStorageFolding &&
           JitFlags == Other.JitFlags && NumThreads == Other.NumThreads &&
           Profile == Other.Profile && Trace == Other.Trace;
  }
  bool operator!=(const Target &Other) const { return !(*this == Other); }
};

} // namespace halide

#endif // HALIDE_LANG_TARGET_H
