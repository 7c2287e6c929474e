//===-- support/DiffTest.h - Differential schedule testing ------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential schedule-correctness harness: the paper's core safety
/// property is that *any* valid schedule of a pipeline computes the same
/// result as the naive one. For a given app this harness enumerates a
/// deterministic sample of schedules from the autotuner's search space and
/// checks every output against the breadth-first reference and, where one
/// exists, the hand-written C++ baseline from apps/baselines. Three
/// engines participate: the bytecode VM executes every schedule (the
/// engine of every leg below — fast enough to keep the sweep wide, and the
/// only one whose ExecutionStats those legs can compare), the CodeGenC ->
/// host-compiler -> dlopen path re-executes every schedule and must
/// reproduce the VM's output for it bit-for-bit, and the reference
/// interpreter (codegen/Interpreter.h) spot-checks a prefix of the sample
/// bit-for-bit. On top of that,
/// every sampled schedule is checked serial-vs-parallel: its VM executable
/// run with 4 threads must reproduce its serial run bit-for-bit with
/// identical merged ExecutionStats. A concurrency leg re-runs the first
/// four schedules' executables as simultaneous async jobs on the task
/// scheduler — the serving configuration — and requires every frame to
/// be bit-identical (output and merged stats) to its sequential run. Since
/// the backends grew real SIMD execution, a scalar-vs-vector leg re-lowers
/// every sampled schedule that contains a vectorized loop with that loop
/// demoted to serial (splits intact) and requires the vectorized run to
/// reproduce the scalarized output bit-for-bit with identical per-buffer
/// load/store counts. Finally a trace-parity leg re-runs the first
/// schedule with value tracing enabled (Target::withTrace() streaming to a
/// temporary file): the traced run must reproduce the untraced output
/// bit-for-bit, and the per-buffer load/store lane counts summed from the
/// trace itself must equal the untraced run's ExecutionStats —
/// instrumentation may not change the computation, and may not miss or
/// invent an access. Every leg runs on every call; the sample is fixed
/// below and the legs' widths in DiffTest.cpp, and only the C leg's host
/// compiler flags can be set from outside (HALIDE_DIFF_JIT_FLAGS).
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_SUPPORT_DIFFTEST_H
#define HALIDE_SUPPORT_DIFFTEST_H

#include "apps/Apps.h"
#include "transforms/Lower.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace halide {

/// The sweep's schedules: ScheduleSpace::deterministicSample(
/// DiffScheduleCount, DiffSampleSeed). The first five are the canonical
/// variants (breadth-first, max-inline, tiled+parallel, vectorized,
/// sliding window); the rest are seeded random points in the search space.
constexpr int DiffScheduleCount = 12;
constexpr uint32_t DiffSampleSeed = 2013;
/// The pyramid depth of local_laplacian in the differential suite (the
/// paper's is 8; shallower keeps the interpreter's audit fast).
constexpr int DiffLocalLaplacianLevels = 3;

/// Uniform backend entry point: executes \p P on the backend \p T names
/// and returns the pipeline's exit code (0 on success). The VM aborts via
/// user_error on internal pipeline assertions; the JIT reports them
/// through the exit code. Compiles fresh on every call — the schedule
/// sweep wants per-schedule artifacts, not the process cache.
/// \p Stats, when non-null, receives the backend's execution counters;
/// \p NumThreads is the run's thread request.
int runOnBackend(const Target &T, const LoweredPipeline &P,
                 const ParamBindings &Params, ExecutionStats *Stats = nullptr,
                 int NumThreads = 0);

/// The frame sizes of a differential run.
struct DiffOptions {
  int Width = 96;
  int Height = 64;
  /// Frame size for the hand-written-baseline check (0 = use Width/Height).
  /// Pyramid apps diverge from the baseline's edge-clamping over a border
  /// band whose width is set by pyramid depth, not frame size, so they
  /// need a frame large enough that an interior region survives the
  /// ReferenceMargin — while the schedule sweep itself (which compares
  /// full frames schedule-vs-schedule) can stay small and fast.
  int BaselineWidth = 0;
  int BaselineHeight = 0;
};

/// One disagreement between a schedule's output and the reference.
struct DiffMismatch {
  std::string Schedule;   ///< ScheduleSpace::describe of the genome
  std::string Comparison; ///< e.g. "vm_bytecode vs reference"
  std::string Detail;     ///< first differing element and both values
};

/// The outcome of a differential run over one app.
struct DiffReport {
  std::string AppName;
  int SchedulesRun = 0;
  std::vector<DiffMismatch> Mismatches;
  bool ok() const { return Mismatches.empty(); }
  /// Human-readable multi-line failure description (empty when ok).
  std::string summary() const;
};

/// Demotes every vectorized loop in the pipeline's currently applied
/// schedules to a serial loop, leaving splits intact: the scalarized
/// pipeline walks exactly the same iteration space as the vectorized
/// one, only the lane-parallel execution disappears. Returns true if any
/// loop was demoted (i.e. the schedule actually vectorized something).
/// Used by the scalar-vs-vector parity leg and bench_runner --novec.
bool scalarizeVectorLoops(const Function &Output);

/// The widest vector width the pipeline's currently applied schedules
/// request: the constant split factor (or whole-dimension bound() extent)
/// of each vectorized loop, maximized over all stages. 1 when nothing is
/// vectorized — the scalar baseline.
int scheduleVectorWidth(const Function &Output);

/// Allocates a dense planar output buffer shaped like the app's output
/// signature: W x H, plus 3 channels when the output is 3-dimensional.
/// \p Keep receives the owning storage handle.
RawBuffer makeAppOutput(const App &A, int W, int H,
                        std::shared_ptr<void> *Keep);

/// Element-wise comparison of two identically shaped buffers: bit-exact
/// for integer element types, absolute tolerance \p FloatTol for floats.
/// \p Margin border elements in dims 0 and 1 are excluded. On mismatch,
/// *Detail (if non-null) receives the first differing coordinate and both
/// values.
bool buffersMatch(const RawBuffer &A, const RawBuffer &B, double FloatTol,
                  int Margin, std::string *Detail);

/// Runs the full differential sweep for one app. The reference output is
/// the breadth-first schedule on the VM; every sampled schedule must
/// reproduce it on the VM, the C backend must reproduce the VM's output
/// for each schedule exactly, and the reference itself must agree with
/// the app's hand-written baseline where one is wired.
DiffReport runScheduleDifferential(App &A, const DiffOptions &Opts = {});

} // namespace halide

#endif // HALIDE_SUPPORT_DIFFTEST_H
