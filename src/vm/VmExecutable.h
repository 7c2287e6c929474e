//===-- vm/VmExecutable.h - Bytecode execution backend ----------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VmBytecode backend: a lowered pipeline compiled once to a flat
/// bytecode program (vm/VmCompiler.h) and executed by a dispatch loop on
/// every run. It implements the common Executable interface, so
/// Pipeline::compile(Target{Backend::VmBytecode}) caches it by schedule
/// fingerprint exactly like the other backends, and it gathers the same
/// ExecutionStats (loads/stores per buffer, peak allocation, parallel
/// iterations) the tree-walking interpreter does — at a fraction of the
/// per-operation cost, which is what lets the differential suite and the
/// autotuner afford many more schedules per app.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_VM_VMEXECUTABLE_H
#define HALIDE_VM_VMEXECUTABLE_H

#include "codegen/Executable.h"
#include "vm/Bytecode.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace halide {

/// A pipeline compiled to bytecode, ready to run any number of times.
/// Parallel For loops are compiled to task entry points with explicit
/// closures and dispatched over the work-stealing task scheduler
/// (runtime/TaskScheduler.h), in chunks executed by per-worker contexts
/// whose statistics shards merge deterministically — a threaded run's
/// output and merged ExecutionStats are bit-identical to a serial run's.
/// The Target's NumThreads picks the dispatch (1 = serial inline, 0 =
/// the scheduler's pool size). Simulated-GPU loop types stay serial, and
/// pipeline assertions abort via user_error, so a completed run always
/// returns 0.
class VmExecutable final : public Executable {
public:
  VmExecutable(LoweredPipeline P, Target T);

  int run(const ParamBindings &Params,
          ExecutionStats *Stats = nullptr) const override;

  /// The disassembled bytecode (the VM's "generated source"), produced
  /// on first request: the compile path that feeds the schedule sweeps
  /// never pays for formatting a listing nobody reads. Cached executables
  /// are shared across threads, so the lazy fill is a call_once.
  const std::string &source() const override {
    std::call_once(ListingOnce, [this] { Listing = Prog.disassemble(); });
    return Listing;
  }

  const VmProgram &program() const { return Prog; }

private:
  VmProgram Prog;
  /// Per-buffer element kinds (vm/VmExecutable.cpp's ElemKind), computed
  /// at compile time so runs do not rebuild the table per frame.
  std::vector<uint8_t> BufKinds;
  /// Process-wide stage ids (observe/Profiler.h), one per
  /// Prog.StageNames entry, resolved once here so Event dispatch never
  /// touches the name registry. Empty for uninstrumented programs.
  std::vector<int> StageIds;
  mutable std::once_flag ListingOnce;
  mutable std::string Listing;
};

/// Compiles \p P to bytecode for target \p T.
std::shared_ptr<const VmExecutable> vmCompile(const LoweredPipeline &P,
                                              const Target &T);

} // namespace halide

#endif // HALIDE_VM_VMEXECUTABLE_H
