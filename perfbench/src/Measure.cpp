//===-- perfbench/src/Measure.cpp - Host-normalized timing ----------------===//

#include "Measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

namespace pb {

double nowMs() {
  static const auto T0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(P * double(V.size())));
  return V[std::min(V.size() - 1, Rank > 0 ? Rank - 1 : 0)];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

void pinToOneCpu(bool Pin) {
  static cpu_set_t All;
  static int Cpu = -1;
  if (Cpu < 0) {
    if (sched_getaffinity(0, sizeof(All), &All) != 0)
      return;
    Cpu = sched_getcpu();
  }
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  if (sched_setaffinity(0, sizeof(cpu_set_t), Pin ? &One : &All) != 0)
    std::perror("perfbench: sched_setaffinity");
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

double currentRssKb() {
  long Pages = 0, Resident = 0;
  if (FILE *F = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(F, "%ld %ld", &Pages, &Resident) != 2)
      Resident = 0;
    std::fclose(F);
  }
  return double(Resident) * double(sysconf(_SC_PAGESIZE)) / 1024.0;
}

// Two 4 MB float planes: 8 MB streamed per pass, above L2 and far below
// L3 on the reference host, so frames running between passes cannot evict
// enough of it to change what a pass measures. The opcode table drives a
// branchy dispatch loop, the shape of interpreter and compiler code.
HostClock::HostClock()
    : A(size_t(1) << 20), B(size_t(1) << 20), Opcodes(4096) {
  for (size_t I = 0; I < A.size(); ++I)
    A[I] = float(I % 251) * 0.01f;
  uint32_t X = 2463534242u;
  for (uint8_t &Op : Opcodes) {
    X ^= X << 13;
    X ^= X >> 17;
    X ^= X << 5;
    Op = uint8_t(X % 6);
  }
}

void HostClock::calibrate() {
  const size_t N = A.size();
  const double T0 = nowMs();
  // Memory-streaming half: tracks bandwidth shared with other tenants.
  for (int Pass = 0; Pass < 4; ++Pass) {
    const std::vector<float> &In = Pass % 2 ? B : A;
    std::vector<float> &Out = Pass % 2 ? A : B;
    for (size_t I = 1; I + 1 < N; ++I)
      Out[I] = 0.25f * In[I - 1] + 0.5f * In[I] + 0.25f * In[I + 1];
  }
  // Dispatch half: tracks the core's speed on unpredictable branches,
  // which VM frames and lowering depend on and streaming does not show.
  int64_t Acc = 1;
  uint32_t Pc = 0;
  for (int I = 0; I < 400000; ++I) {
    switch (Opcodes[Pc]) {
    case 0:
      Acc += Pc;
      break;
    case 1:
      Acc ^= Acc << 3;
      break;
    case 2:
      Acc = Acc * 7 + 1;
      break;
    case 3:
      Acc -= Acc >> 5;
      break;
    case 4:
      Acc = (Acc & 1) ? Acc + 3 : Acc >> 1;
      break;
    default:
      Acc += Opcodes[(Pc * 31) & 4095];
    }
    Pc = (Pc + 1 + uint32_t(Acc & 3)) & 4095;
  }
  const double T1 = nowMs();
  Sink = Sink + A[N / 2] + float(Acc & 1);
  CalibMs.push_back(T1 - T0);
  LastEndMs = T1;
}

void HostClock::maybeCalibrate() {
  if (nowMs() - LastEndMs > IntervalMs)
    calibrate();
}

double HostClock::factor(size_t Mark) const {
  if (CalibMs.empty())
    return 1.0;
  const size_t N = CalibMs.size();
  size_t Lo = Mark >= 2 ? Mark - 2 : 0;
  size_t Hi = std::min(N, Mark + 2);
  if (Lo >= Hi)
    Lo = Hi - 1;
  std::vector<double> Near(CalibMs.begin() + long(Lo),
                           CalibMs.begin() + long(Hi));
  return RefCalibMs / median(Near);
}

} // namespace pb
