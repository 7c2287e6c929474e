//===-- lang/Param.cpp ----------------------------------------------------===//

#include "lang/Param.h"

#include <mutex>

using namespace halide;

namespace {

/// Guards every parameter's Value. One lock for all of them: a frame
/// copies its pipeline's values under one acquisition, so it never sees
/// half of a group of set() calls made on another thread.
std::mutex &valueMutex() {
  static std::mutex M;
  return M;
}

} // namespace

// Counted with the memory orders of IntrusivePtr (support/Util.h).
void halide::retainContents(ParameterContents *P) {
  P->RefCount.fetch_add(1, std::memory_order_relaxed);
}

void halide::releaseContents(ParameterContents *P) {
  if (P->RefCount.fetch_sub(1, std::memory_order_acq_rel) == 1)
    delete P;
}

void ParameterContents::set(ParamValue V) {
  std::lock_guard<std::mutex> Lock(valueMutex());
  std::swap(Value, V);
}

ParamValue ParameterContents::get() const {
  std::lock_guard<std::mutex> Lock(valueMutex());
  return Value;
}

void halide::bindParameterValues(
    const std::map<std::string, ParameterPtr> &Params,
    ParamBindings *Bindings) {
  std::lock_guard<std::mutex> Lock(valueMutex());
  for (const auto &[Name, P] : Params) {
    const ParamValue &V = P->Value;
    if (!V.HasValue || Bindings->buffer(Name) || Bindings->intScalar(Name) ||
        Bindings->floatScalar(Name))
      continue; // unbound, or bound explicitly
    if (P->Dimensions > 0)
      Bindings->bind(Name, V.Image);
    else if (P->DeclaredType.isFloat())
      Bindings->bindFloat(Name, V.FloatValue);
    else
      Bindings->bindInt(Name, V.IntValue);
  }
}
