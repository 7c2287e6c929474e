//===-- runtime/ExecutionStats.cpp -----------------------------------------------=//

#include "runtime/ExecutionStats.h"

#include <ostream>

using namespace halide;

namespace {

void mapToStream(std::ostream &OS,
                 const std::map<std::string, int64_t> &M) {
  OS << "{";
  bool First = true;
  for (const auto &[Name, Count] : M) {
    OS << (First ? "" : ", ") << Name << ": " << Count;
    First = false;
  }
  OS << "}";
}

} // namespace

bool halide::operator==(const ExecutionStats &A, const ExecutionStats &B) {
  return A.StoresPerBuffer == B.StoresPerBuffer &&
         A.LoadsPerBuffer == B.LoadsPerBuffer &&
         A.PeakAllocationBytes == B.PeakAllocationBytes &&
         A.ParallelIterations == B.ParallelIterations &&
         A.GpuKernelLaunches == B.GpuKernelLaunches &&
         A.GpuBlocksExecuted == B.GpuBlocksExecuted;
}

std::ostream &halide::operator<<(std::ostream &OS,
                                 const ExecutionStats &S) {
  OS << "stores=" << S.totalStores() << " peak=" << S.PeakAllocationBytes
     << " span=" << S.ParallelIterations;
  if (S.GpuKernelLaunches)
    OS << " gpu_launches=" << S.GpuKernelLaunches
       << " gpu_blocks=" << S.GpuBlocksExecuted;
  OS << " loads=";
  mapToStream(OS, S.LoadsPerBuffer);
  OS << " stores_per_buffer=";
  mapToStream(OS, S.StoresPerBuffer);
  return OS;
}
