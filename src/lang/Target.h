//===-- lang/Target.h - Execution-target description ------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single description of *how* a pipeline is compiled and executed: the
/// engine (the bytecode VM or the C-source JIT) plus the feature flags that
/// used to live in LowerOptions. A GPU schedule (Func::gpuTile) needs no
/// target of its own: every JIT executable routes GPU-block loops to the
/// simulated device. A Target is part of the compile-cache key, so two
/// realizations with the same schedules and the same Target share one
/// compiled artifact (paper section 4, Figure 5: compile once, run over
/// many frames).
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_LANG_TARGET_H
#define HALIDE_LANG_TARGET_H

#include <string>

namespace halide {

/// The execution engines a pipeline can be compiled for. The tree-walking
/// interpreter (codegen/Interpreter.h) is not one of them: it is the
/// reference the tests compare these engines against.
enum class Backend : uint8_t {
  /// Register-based bytecode compiled from the lowered IR and executed by
  /// a dispatch loop: bit-identical results to the reference interpreter
  /// and the same ExecutionStats, with no host-compiler dependency. The
  /// default engine, and the differential suite's.
  VmBytecode,
  /// CodeGenC -> host C compiler -> dlopen native execution. GPU-block
  /// loops launch on the simulated device; a run reports its own launch
  /// statistics.
  JitC,
};

const char *backendName(Backend B);

/// A complete execution-target description. Value-semantic; the default is
/// the bytecode VM with all optimizations enabled.
struct Target {
  Backend TargetBackend = Backend::VmBytecode;

  // Feature flags that steer lowering (previously LowerOptions). They are
  // part of the lowering fingerprint: changing one recompiles.
  /// Skip the sliding window optimization (for ablation benchmarks).
  bool DisableSlidingWindow = false;
  /// Skip storage folding (for ablation benchmarks).
  bool DisableStorageFolding = false;

  /// Extra flags for the host C compiler (JitC only), e.g. "-O0" for
  /// compile-time-sensitive sweeps. They are split on whitespace and
  /// passed after the default flags, so they win. No shell runs: quotes,
  /// variables and redirections reach the compiler as they are.
  std::string JitFlags;

  /// Worker-thread request for parallel loops, honored by both engines
  /// through taskChunkBudget (runtime/TaskScheduler.h): 0 inherits the
  /// task scheduler's pool size (HALIDE_NUM_THREADS or the hardware
  /// concurrency), 1 forces serial execution, N > 1 runs parallel loops
  /// threaded with chunking sized for N workers. Does not
  /// affect lowering — it is folded into the executable cache key only,
  /// never into the lowering fingerprint, so every thread count shares one
  /// lowered pipeline per schedule.
  int NumThreads = 0;

  /// Per-stage profiling (src/observe/Profiler.h): the executable is
  /// instrumented with stage, chunk and allocation events at
  /// backend-compile time, and every run of it records. Like NumThreads this does not affect lowering — it is folded into
  /// the executable cache key only, never into the lowering fingerprint,
  /// so profile-on and profile-off targets share one lowered pipeline
  /// and an off-target run is bit-identical, marker-free code.
  bool Profile = false;

  /// Value-level tracing (src/observe/TraceStream.h): the executable is
  /// instrumented with per-value load/store/realization events at
  /// backend-compile time (transforms/Instrument.h); every load, store
  /// and realization is traced. Like Profile this does not affect
  /// lowering — it is folded into the executable cache key only, so
  /// trace-on and trace-off targets share one lowered pipeline and an
  /// off-target run is bit-identical, event-free code.
  bool Trace = false;

  Target() = default;
  explicit Target(Backend B) : TargetBackend(B) {}

  static Target vm() { return Target(Backend::VmBytecode); }
  static Target jit() { return Target(Backend::JitC); }

  /// Fluent option setters (Targets are tiny; pass-by-value chaining).
  /// \p Flags are whitespace-separated host-compiler flags (JitFlags).
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

  /// Canonical textual form, e.g. "jit_c-no_sliding_window". Used in logs
  /// and as part of compile-cache keys.
  std::string str() const;

  /// The lowering-relevant portion of str(): backend excluded, so the VM
  /// and the JIT share one lowered pipeline per schedule.
  std::string lowerOptionsFingerprint() const;

  /// Parses the bench_runner --backend flag form: "vm"/"vm_bytecode" or
  /// "jit"/"jit_c", optionally followed by "-no_sliding_window" /
  /// "-no_storage_folding" features, a "-threads<N>" thread request,
  /// "-profile", and "-trace". JitFlags have no textual form here —
  /// str()'s " [flags]" suffix is display-only. Returns false (and leaves
  /// \p Out alone) on an unknown name.
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
