//===-- apps/Apps.h - The paper's evaluation applications -------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Halide implementations of the five applications in the paper's
/// evaluation (section 6) plus the histogram-equalization example from
/// section 2, each packaged with schedule variants (breadth-first,
/// hand-tuned CPU, simulated-GPU) and input generators, so examples, tests,
/// and benchmarks share one registry.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_APPS_APPS_H
#define HALIDE_APPS_APPS_H

#include "lang/ImageParam.h"
#include "lang/Pipeline.h"

#include <functional>
#include <string>
#include <vector>

namespace halide {

/// A packaged application pipeline.
struct App {
  std::string Name;
  /// The output stage. It owns every stage it reads, through its calls.
  Func Output;
  std::vector<ImageParam> Inputs;

  /// Apply a schedule (each resets all stage schedules first).
  std::function<void()> ScheduleBreadthFirst;
  std::function<void()> ScheduleTuned;
  std::function<void()> ScheduleGpu; // may be null (no GPU variant)

  /// Builds input bindings (and any scalar params) for a W x H frame.
  /// The returned bindings do NOT include the output buffer.
  std::function<ParamBindings(int W, int H)> MakeInputs;

  /// Runs the hand-written "expert" baseline (plain C++), writing into a
  /// float/byte buffer laid out like the pipeline output; used by tests
  /// for correctness and by Figure-7 benchmarks for the time comparison.
  /// Null for apps without a baseline.
  std::function<double(int W, int H)> ExpertBaselineMs;
  /// Runs the naive (clean C++, breadth-first) baseline; returns ms.
  std::function<double(int W, int H)> NaiveBaselineMs;

  /// Writes the naive hand-written baseline's output for the app's standard
  /// W x H synthetic input into \p Out (shaped like the pipeline output).
  /// Null for apps without a baseline. Used by the differential
  /// schedule-correctness harness as the independent expected result.
  std::function<void(int W, int H, const RawBuffer &Out)> Reference;
  /// Border pixels excluded when comparing against Reference: the baselines
  /// clamp each pyramid level at its own allocated extent while the Halide
  /// pipelines extend intermediate levels through bounds inference, so the
  /// two conventions legitimately diverge near image edges.
  int ReferenceMargin = 0;

  /// Properties reported by the paper (Figures 6 and 7) for context.
  int PaperHalideLines = 0;
  int PaperExpertLines = 0;
  double PaperHalideMs = 0;
  double PaperExpertMs = 0;
  /// This reproduction's own line counts (filled by the registry).
  int ReproLines = 0;
};

App makeBlurApp();
App makeBilateralGridApp();
App makeCameraPipeApp();
App makeInterpolateApp();
/// \p Levels defaults to the paper's 8 pyramid levels; smaller values keep
/// test time down.
App makeLocalLaplacianApp(int Levels = 8, int IntensityLevels = 8);
App makeHistogramEqualizeApp();

/// All five paper apps (blur, bilateral grid, camera pipe, interpolate,
/// local Laplacian), in the order of the paper's Figure 6/7 tables.
std::vector<App> paperApps(int LocalLaplacianLevels = 8);

} // namespace halide

#endif // HALIDE_APPS_APPS_H
