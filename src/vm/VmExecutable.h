//===-- vm/VmExecutable.h - Bytecode execution backend ----------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VmBytecode backend: a lowered pipeline compiled once to a flat
/// bytecode program (vm/VmCompiler.h) and executed by a dispatch loop on
/// every run; the default engine. Its parameter registers and boundary
/// buffers name positions in a run's packed arguments, not names. It
/// implements the common Executable interface, so
/// Pipeline::compile(Target::vm()) caches it by schedule fingerprint
/// exactly like the JIT, and it gathers the same
/// ExecutionStats (loads/stores per buffer, peak allocation, parallel
/// iterations) the reference interpreter does — at a fraction of the
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
/// Parallel For loops are compiled to task entry points and dispatched
/// over the work-stealing task scheduler (runtime/TaskScheduler.h), in
/// chunks executed by per-worker contexts copied from the spawning one,
/// whose statistics shards merge deterministically — a threaded run's
/// output and merged ExecutionStats are bit-identical to a serial run's.
/// Each run's thread request sets its chunk budget through
/// taskChunkBudget (1 = serial, inline in the spawning context).
/// Simulated-GPU loop types stay serial, and pipeline assertions abort via
/// user_error, so a completed run always returns 0.
class VmExecutable final : public Executable {
public:
  explicit VmExecutable(LoweredPipeline P);

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
  int execute(const BoundArgs &Args, int MaxTasks,
              ExecutionStats *Stats) const override;

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

/// Compiles \p P to bytecode.
std::shared_ptr<const VmExecutable> vmCompile(const LoweredPipeline &P);

} // namespace halide

#endif // HALIDE_VM_VMEXECUTABLE_H
