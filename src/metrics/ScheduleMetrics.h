//===-- metrics/ScheduleMetrics.h - Figure-3 strategy metrics ---*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quantifies a schedule the way the paper's Figure 3 does: span (available
/// parallelism), maximum reuse distance (locality), and work amplification
/// (redundant recomputation relative to breadth-first), plus measured wall
/// time through the JIT backend and peak intermediate memory.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_METRICS_SCHEDULEMETRICS_H
#define HALIDE_METRICS_SCHEDULEMETRICS_H

#include "lang/Pipeline.h"

#include <string>

namespace halide {

/// One row of a Figure-3-style table.
struct StrategyMetrics {
  std::string StrategyName;
  /// Parallel iterations available (threads/SIMD lanes that could be kept
  /// busy) — the paper's "span" column.
  int64_t Span = 0;
  /// Maximum operations between computing a value and reading it back.
  int64_t MaxReuseDistance = 0;
  /// Arithmetic work relative to breadth-first (1.0 = no redundancy).
  double WorkAmplification = 0.0;
  /// Peak intermediate allocation in bytes.
  int64_t PeakMemoryBytes = 0;
  /// Total loads + stores executed (the work-amplification numerator).
  int64_t MemoryOps = 0;
  /// Wall-clock milliseconds per frame through the JIT backend (median of
  /// several runs); negative if not measured.
  double Milliseconds = -1.0;
};

/// Gathers the analytic metrics from one serial, traced run of \p P on
/// the bytecode VM: its ExecutionStats give span, peak memory and
/// operation counts, and its value trace (streamed to a file under
/// tempDirectory()) gives the reuse distance. Small sizes advised: the
/// trace records every access, since a traced target traces every buffer.
/// No other trace stream may be active.
/// \p BreadthFirstOps is the memory operation count (loads + stores, a
/// proxy for arithmetic work) of the reference breadth-first schedule,
/// used as the work-amplification denominator; pass 0 to skip that
/// field. The strategy's own operation count is returned in MemoryOps.
StrategyMetrics analyzeStrategy(const std::string &Name, LoweredPipeline &P,
                                const ParamBindings &Params,
                                int64_t BreadthFirstOps);

/// Median wall-clock milliseconds of \p Iters runs of a compiled pipeline
/// (any Executable: the VM or the JIT), each with the thread request
/// \p NumThreads.
double benchmarkMs(const class Executable &Exe, const ParamBindings &Params,
                   int Iters = 5, int NumThreads = 0);

} // namespace halide

#endif // HALIDE_METRICS_SCHEDULEMETRICS_H
