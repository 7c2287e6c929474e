//===-- runtime/ExecutionStats.h - Execution counters -----------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named execution counters used by tests and benchmarks to observe
/// recomputation (work amplification) and allocation behaviour without
/// affecting compiled-code performance. The interpreter and the bytecode
/// VM update them on every load, store and allocation and agree on every
/// field (ExecutionStatsParityTest); JIT-compiled code reports only the
/// simulated GPU's launch counts.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_RUNTIME_EXECUTIONSTATS_H
#define HALIDE_RUNTIME_EXECUTIONSTATS_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace halide {

/// Counters gathered while executing a pipeline.
struct ExecutionStats {
  /// Number of values stored per buffer (pure + update writes).
  std::map<std::string, int64_t> StoresPerBuffer;
  /// Number of values loaded per buffer.
  std::map<std::string, int64_t> LoadsPerBuffer;
  /// Peak simultaneous internal allocation, in bytes.
  int64_t PeakAllocationBytes = 0;
  /// Current live internal allocation, in bytes.
  int64_t CurrentAllocationBytes = 0;
  /// Total loop iterations whose ForType was Parallel/GPU (a proxy for the
  /// paper's "span" parallelism measure).
  int64_t ParallelIterations = 0;
  /// Kernel launches / blocks executed on the simulated GPU device during
  /// this run. Only populated by the GpuSim backend.
  int64_t GpuKernelLaunches = 0;
  int64_t GpuBlocksExecuted = 0;

  int64_t totalStores() const {
    int64_t Total = 0;
    for (const auto &[Name, Count] : StoresPerBuffer)
      Total += Count;
    return Total;
  }

  void noteAllocation(int64_t Bytes) {
    CurrentAllocationBytes += Bytes;
    if (CurrentAllocationBytes > PeakAllocationBytes)
      PeakAllocationBytes = CurrentAllocationBytes;
  }
  void noteFree(int64_t Bytes) { CurrentAllocationBytes -= Bytes; }
};

/// The determinism contract: the counters that identify the computation
/// performed (loads/stores per buffer, peak allocation, span, GPU
/// launches). Excludes the transient CurrentAllocationBytes, so two runs
/// of the same schedule compare equal whichever engine and thread count
/// executed them. This is what the parity/serving tests and the
/// differential harness check.
bool operator==(const ExecutionStats &A, const ExecutionStats &B);
inline bool operator!=(const ExecutionStats &A, const ExecutionStats &B) {
  return !(A == B);
}

/// Compact one-line rendering of the contract fields, for test-failure
/// and differential-mismatch diagnostics (gtest picks this up when an
/// EXPECT_EQ of two stats fails).
std::ostream &operator<<(std::ostream &OS, const ExecutionStats &S);

} // namespace halide

#endif // HALIDE_RUNTIME_EXECUTIONSTATS_H
