//===-- perfbench/src/Programs.h - Benchmarked pipelines --------*- C++ -*-===//
//
// A program is one app under one packaged schedule on one engine at one
// frame size: the unit each per-program row reports. This file builds the
// apps, compiles programs through the public Pipeline API, and checks
// their outputs against the apps' hand-written references outside any
// timed window.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

#include "apps/Apps.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pb {

enum class Engine { Jit, Vm };

const char *engineName(Engine E);
halide::Target engineTarget(Engine E);

/// The six registered apps, in registry order: the five paper apps and
/// histogram equalization.
std::vector<halide::App> makeApps();
halide::App &findApp(std::vector<halide::App> &Apps, const std::string &Name);

/// Resets every stage of \p A and applies the packaged schedule named
/// "tuned" or "breadth_first".
void applySchedule(halide::App &A, const std::string &Schedule);

struct Program {
  halide::App *A = nullptr;
  std::string Schedule;
  Engine E = Engine::Jit;
  int W = 0, H = 0;

  std::shared_ptr<const halide::Executable> Exe;
  /// Inputs plus the bound output buffer.
  halide::ParamBindings Params;
  halide::RawBuffer Out;
  /// Hash of the verified output; every later output must match it.
  uint64_t VerifiedHash = 0;
  /// Frames per timed sample.
  int Batch = 1;

  /// "<app>.<schedule>", as used in per-layer row names.
  std::string name() const { return A->Name + "." + Schedule; }
  /// Binds inputs and an output buffer for W x H.
  void makeBuffers();
  /// Applies the schedule and compiles through Pipeline::compile.
  void compile();
  /// Runs one frame; returns the pipeline's exit code.
  int run() const;
  /// FNV-1a hash of the output buffer's contents.
  uint64_t outputHash() const;
};

/// Runs \p P once, records the hash of its output as the verified one, and
/// checks that output. Apps whose reference has an interior at the
/// program's size are compared with it there. local_laplacian's 512-pixel
/// margin leaves no interior below 1024 pixels, so its jit programs are
/// checked once at 1088x1088, in a child process. An app without a usable
/// reference (histeq always, small VM frames of pyramid apps) is compared
/// with its breadth_first schedule on the VM, a cross-engine check.
/// \p Detail names the check that ran and, on mismatch, the first
/// differing element.
bool verifyProgram(Program &P, std::string *Detail);

} // namespace pb

#endif // PERFBENCH_PROGRAMS_H
