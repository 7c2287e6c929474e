//===-- perfbench/src/Workloads.h - The benchmark's workloads ---*- C++ -*-===//
//
// Three workloads, each a function filling a RunContext:
//   frames     steady-state jit_c frames through Executable::run (a traced
//              run adds bytecode-VM frames, ungated)
//   compile    cold Pipeline::compile to jit_c and to the VM
//   serve-mix  one closed-loop client of Pipeline::realizeAsync
// Every workload reports the same end-to-end metrics (README.md maps them
// to each workload) and, when traced, the same per-layer metrics; a layer
// a workload does not exercise reads 0 there.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Measure.h"

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace pb {

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  /// Samples behind the value (0 for counts and single measurements).
  int64_t Samples = 0;
};

struct RunContext {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;

  HostClock Clock;
  std::mt19937_64 Rng;

  int64_t Attempted = 0;
  int64_t Failed = 0;

  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// Counts that must repeat exactly between runs of the same code.
  std::map<std::string, int64_t> ExactCounts;
  /// Exact counts that differed between repetitions inside this run.
  int64_t CountMismatches = 0;

  /// Counts one verified operation; a failure is reported on stderr.
  void check(bool Ok, const std::string &What);
  void endToEnd(const std::string &Name, double Value, const char *Unit,
                int64_t Samples);
  void perLayer(const std::string &Name, double Value, const char *Unit,
                int64_t Samples = 0);
  /// Records an exact count, flagging it when a repetition disagrees.
  void exactCount(const std::string &Name, int64_t Value);
};

void runFrames(RunContext &Ctx);
void runCompile(RunContext &Ctx);
void runServeMix(RunContext &Ctx);

/// Every per-layer metric name with its unit, in report order. A traced
/// run reports each of them (the first value recorded under a name); the
/// ones its workload does not reach are 0.
const std::vector<std::pair<std::string, std::string>> &perLayerCatalog();

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
