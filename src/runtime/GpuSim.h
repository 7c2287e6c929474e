//===-- runtime/GpuSim.h - Simulated GPU device -----------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A software stand-in for the paper's CUDA device (see DESIGN.md,
/// substitution 2). Every JIT executable sends its GPU-block loops here
/// through the runtime vtable; a kernel launch executes its block range on
/// the host task scheduler, one chunk of blocks per task. The simulator
/// counts launches and blocks so benchmarks can report the kernel-graph
/// structure the paper discusses (e.g. the 58 distinct kernels of the
/// local Laplacian schedule): once process-wide, and once per run in the
/// counters the JIT hands each run, so concurrent frames are never
/// credited with each other's launches.
/// Memory is unified: the copy-tracking the paper describes degenerates to
/// counting logical transfers at kernel boundaries.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_RUNTIME_GPUSIM_H
#define HALIDE_RUNTIME_GPUSIM_H

#include "runtime/TaskScheduler.h"

#include <atomic>
#include <cstdint>

namespace halide {

/// A snapshot of launch statistics.
struct GpuStats {
  int64_t KernelLaunches = 0;
  int64_t BlocksExecuted = 0;
};

/// Launch counters that concurrent launches may bump at once.
struct GpuCounters {
  std::atomic<int64_t> KernelLaunches{0};
  std::atomic<int64_t> BlocksExecuted{0};

  void count(int32_t Blocks) {
    ++KernelLaunches;
    BlocksExecuted += Blocks;
  }
  GpuStats snapshot() const {
    return {KernelLaunches.load(), BlocksExecuted.load()};
  }
};

/// The simulated GPU device.
class GpuSim {
public:
  /// Launches a kernel over blocks [0, \p Blocks): parallelForChunks cuts
  /// the range into at most \p MaxTasks chunks, and Body runs each chunk's
  /// blocks (thread loops execute inside it). The launch counts toward the
  /// device totals and, when non-null, toward \p Run.
  void launch(int32_t Blocks, int MaxTasks, TaskChunkFn Body, void *Closure,
              GpuCounters *Run = nullptr);

  /// The device totals since the last resetStats().
  GpuStats stats() const { return Totals.snapshot(); }
  void resetStats() {
    Totals.KernelLaunches = 0;
    Totals.BlocksExecuted = 0;
  }

private:
  GpuCounters Totals;
};

/// The process-wide simulated device.
GpuSim &gpuSim();

} // namespace halide

#endif // HALIDE_RUNTIME_GPUSIM_H
