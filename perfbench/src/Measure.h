//===-- perfbench/src/Measure.h - Host-normalized timing --------*- C++ -*-===//
//
// Timing primitives of the benchmark: a steady clock, order statistics,
// and the host clock that turns raw samples into host-normalized ones.
//
// This host's speed drifts in phases lasting seconds (memory bandwidth
// shared with other tenants), so every gated sample is divided by the
// median of the calibration runs next to it in time and multiplied by a
// fixed reference calibration time. The calibration kernel, run on the
// same thread as the samples, has two halves: a memory-streaming float
// stencil whose working set (8 MB) is above L2 and far below L3, and an
// L1-resident branchy dispatch loop. README.md records the measurements
// behind this design.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pb {

/// Milliseconds on the steady clock since the process started measuring.
double nowMs();

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in [0, 1].
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);

/// Restricts this process (and the children it spawns later) to the CPU it
/// first pinned to, or lifts that restriction when \p Pin is false.
void pinToOneCpu(bool Pin);

/// Peak resident set of this process in MB (ru_maxrss; children excluded).
double peakRssMb();
/// Current resident set of this process in KB (/proc/self/statm).
double currentRssKb();

/// The duration of one calibration pass on the reference host. Normalized
/// samples read in milliseconds of that host.
constexpr double RefCalibMs = 8.0;

/// One timed sample: \p Count operations took \p RawMs, taken after
/// calibration run number Mark - 1.
struct Sample {
  int Program = 0;
  double RawMs = 0;
  int Count = 1;
  size_t Mark = 0;
};

/// Runs the calibration kernel between samples and normalizes them.
class HostClock {
public:
  HostClock();
  HostClock(const HostClock &) = delete;
  HostClock &operator=(const HostClock &) = delete;

  /// Runs one calibration pass now and records its duration.
  void calibrate();
  /// Calibrates when more than IntervalMs passed since the last pass.
  void maybeCalibrate();
  /// The mark a sample taken now carries.
  size_t mark() const { return CalibMs.size(); }

  /// Host-normalization factor for a sample carrying \p Mark: RefCalibMs
  /// divided by the median of the two passes before the sample and the
  /// two after it.
  double factor(size_t Mark) const;
  /// Normalized per-operation time of \p S.
  double normalizedMs(const Sample &S) const {
    return S.RawMs / S.Count * factor(S.Mark);
  }
  double medianCalibMs() const { return median(CalibMs); }
  size_t calibrations() const { return CalibMs.size(); }

  /// Calibrate at least this often while sampling.
  static constexpr double IntervalMs = 40.0;

private:
  std::vector<float> A, B;
  std::vector<uint8_t> Opcodes;
  std::vector<double> CalibMs;
  double LastEndMs = -1e30;
  volatile float Sink = 0;
};

} // namespace pb

#endif // PERFBENCH_MEASURE_H
