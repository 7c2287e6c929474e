//===-- lang/Target.cpp ---------------------------------------------------===//

#include "lang/Target.h"

#include "support/Util.h"

#include <cstdlib>
#include <vector>

using namespace halide;

const char *halide::backendName(Backend B) {
  switch (B) {
  case Backend::VmBytecode:
    return "vm_bytecode";
  case Backend::JitC:
    return "jit_c";
  }
  return "unknown";
}

std::string Target::lowerOptionsFingerprint() const {
  std::string S;
  if (DisableSlidingWindow)
    S += "-no_sliding_window";
  if (DisableStorageFolding)
    S += "-no_storage_folding";
  return S;
}

std::string Target::str() const {
  return backendName(TargetBackend) + lowerOptionsFingerprint() +
         (NumThreads > 0 ? "-threads" + std::to_string(NumThreads) : "") +
         (Profile ? "-profile" : "") + (Trace ? "-trace" : "") +
         (JitFlags.empty() ? "" : " [" + JitFlags + "]");
}

bool Target::parse(const std::string &Text, Target *Out) {
  std::vector<std::string> Parts = splitString(Text, '-');
  if (Parts.empty())
    return false;
  Target T;
  const std::string &Name = Parts[0];
  if (Name == "vm" || Name == "vm_bytecode")
    T.TargetBackend = Backend::VmBytecode;
  else if (Name == "jit" || Name == "jit_c")
    T.TargetBackend = Backend::JitC;
  else
    return false;
  for (size_t I = 1; I < Parts.size(); ++I) {
    if (Parts[I] == "no_sliding_window")
      T.DisableSlidingWindow = true;
    else if (Parts[I] == "no_storage_folding")
      T.DisableStorageFolding = true;
    else if (Parts[I] == "profile")
      T.Profile = true;
    else if (Parts[I] == "trace")
      T.Trace = true;
    else if (startsWith(Parts[I], "threads")) {
      int N = std::atoi(Parts[I].c_str() + 7);
      if (N <= 0)
        return false;
      T.NumThreads = N;
    } else
      return false;
  }
  *Out = T;
  return true;
}
