//===-- support/DiffTest.cpp - Differential schedule testing -----------------===//

#include "support/DiffTest.h"

#include "analysis/CallGraph.h"
#include "autotune/ScheduleSpace.h"
#include "codegen/Executable.h"
#include "codegen/Interpreter.h"
#include "ir/IROperators.h"
#include "observe/TraceStream.h"
#include "runtime/TaskScheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include <unistd.h>

using namespace halide;

namespace {

/// Absolute per-element tolerance for float outputs against the
/// reference. Integer outputs, and every same-schedule comparison, must
/// match bit-exactly.
constexpr double FloatTolerance = 1e-5;
/// The first this-many sampled schedules are also run by the reference
/// interpreter, which must reproduce the VM's output bit-for-bit: the
/// reference keeps auditing the VM without paying its 10-40x slowdown on
/// every schedule.
constexpr int InterpreterSpotChecks = 1;
/// Threads requested by the threaded-VM leg. The effective worker count
/// is still bounded by the task scheduler's pool size
/// (HALIDE_NUM_THREADS / hardware concurrency).
constexpr int ThreadedVmThreads = 4;
/// Schedules whose executables the concurrent-serving leg re-runs at once.
constexpr int ConcurrentFrames = 4;
/// Schedules the trace-parity leg re-runs traced.
constexpr int TraceParityChecks = 1;

/// C-backend host-compiler flags, appended after the JIT's own
/// "-O2 -ftree-vectorize -fvect-cost-model=dynamic": -O0 because this
/// harness checks correctness, not speed (the vectorized schedules emit
/// large translation units that the optimizing level compiles 2-5x
/// slower). HALIDE_DIFF_JIT_FLAGS replaces them so CI can pin the
/// flags per job — notably "-fno-tree-vectorize -fno-tree-slp-vectorize",
/// the JIT's level minus both host vectorizers, which proves the emitted
/// vector code carries the SIMD rather than the host compiler's
/// auto-vectorizer: the C leg must still reproduce the VM bit-for-bit.
std::string diffJitFlags() {
  const char *Env = std::getenv("HALIDE_DIFF_JIT_FLAGS");
  return Env && *Env ? Env : "-O0";
}

/// Renders the stats fields the determinism contract covers, for
/// mismatch diagnostics (the contract and rendering live with
/// ExecutionStats itself; see runtime/ExecutionStats.h).
std::string statsSummary(const ExecutionStats &S) {
  std::ostringstream OS;
  OS << S;
  return OS.str();
}

} // namespace

int halide::runOnBackend(const Target &T, const LoweredPipeline &P,
                         const ParamBindings &Params, ExecutionStats *Stats,
                         int NumThreads) {
  return makeExecutable(P, T)->run(Params, Stats, NumThreads);
}

bool halide::scalarizeVectorLoops(const Function &Output) {
  bool Any = false;
  for (auto &[Name, F] : buildEnvironment(Output)) {
    Function Fn = F; // shared handle: edits reach the pipeline's stage
    for (Dim &D : Fn.schedule().Dims)
      if (D.Kind == ForType::Vectorized) {
        D.Kind = ForType::Serial;
        Any = true;
      }
    for (UpdateDefinition &U : Fn.updates())
      for (Dim &D : U.Dims)
        if (D.Kind == ForType::Vectorized) {
          D.Kind = ForType::Serial;
          Any = true;
        }
  }
  return Any;
}

int halide::scheduleVectorWidth(const Function &Output) {
  int Width = 1;
  for (const auto &[Name, F] : buildEnvironment(Output)) {
    const Schedule &S = F.schedule();
    auto NoteDim = [&](const Dim &D) {
      if (D.Kind != ForType::Vectorized)
        return;
      int64_t Lanes;
      for (const Split &Sp : S.Splits)
        if (Sp.Inner == D.Var && asConstInt(Sp.Factor, &Lanes))
          Width = std::max(Width, int(Lanes));
      // Whole-dimension vectorize (no split): the width is the bound()
      // extent pinned on that dimension, where one exists.
      for (const BoundConstraint &B : S.Bounds)
        if (B.Var == D.Var && B.Extent.defined() &&
            asConstInt(B.Extent, &Lanes))
          Width = std::max(Width, int(Lanes));
    };
    for (const Dim &D : S.Dims)
      NoteDim(D);
    for (const UpdateDefinition &U : F.updates())
      for (const Dim &D : U.Dims)
        NoteDim(D);
  }
  return Width;
}

RawBuffer halide::makeAppOutput(const App &A, int W, int H,
                                std::shared_ptr<void> *Keep) {
  const Function &F = A.Output.function();
  Type T = F.outputType();
  int Dims = F.dimensions();
  // Harness convention: 2-D outputs are W x H, 3-D outputs are W x H x 3
  // color channels (every registered app binds its channel dim with
  // bound(c, 0, 3)). Fail loudly on anything else rather than allocate
  // the wrong shape and trip bounds asserts far from the cause.
  internal_assert(Dims == 2 || Dims == 3)
      << "makeAppOutput: app " << A.Name << " has a " << Dims
      << "-D output; extend the harness convention";
  int C = Dims >= 3 ? 3 : 1;
  for (const BoundConstraint &B : F.schedule().Bounds)
    if (Dims >= 3 && B.Var == F.args()[2]) {
      int64_t Declared = 0;
      internal_assert(asConstInt(B.Extent, &Declared) && Declared == C)
          << "makeAppOutput: app " << A.Name
          << " declares a non-3-channel output; extend the harness "
             "convention";
    }
  int64_t Elems = int64_t(W) * H * C;
  auto Storage = std::make_shared<std::vector<uint8_t>>(
      size_t(Elems * T.bytes()), uint8_t(0));
  *Keep = Storage;
  RawBuffer Raw;
  Raw.Host = Storage->data();
  Raw.ElemType = T;
  Raw.Dimensions = Dims;
  Raw.Dim[0] = {0, W, 1};
  Raw.Dim[1] = {0, H, W};
  if (Dims >= 3)
    Raw.Dim[2] = {0, C, W * H};
  Raw.Owner = Storage;
  return Raw;
}

namespace {

/// Reads element I of a buffer as a double (all supported element types).
double elementAsDouble(const RawBuffer &B, int64_t Off) {
  const Type &T = B.ElemType;
  const void *P = static_cast<const uint8_t *>(B.Host) + Off * T.bytes();
  if (T.isFloat())
    return T.Bits == 32 ? double(*static_cast<const float *>(P))
                          : *static_cast<const double *>(P);
  if (T.isUInt()) {
    switch (T.Bits) {
    case 8:
      return *static_cast<const uint8_t *>(P);
    case 16:
      return *static_cast<const uint16_t *>(P);
    case 32:
      return *static_cast<const uint32_t *>(P);
    default:
      return double(*static_cast<const uint64_t *>(P));
    }
  }
  switch (T.Bits) {
  case 8:
    return *static_cast<const int8_t *>(P);
  case 16:
    return *static_cast<const int16_t *>(P);
  case 32:
    return *static_cast<const int32_t *>(P);
  default:
    return double(*static_cast<const int64_t *>(P));
  }
}

} // namespace

bool halide::buffersMatch(const RawBuffer &A, const RawBuffer &B,
                          double FloatTol, int Margin, std::string *Detail) {
  internal_assert(A.Dimensions == B.Dimensions &&
                  A.ElemType == B.ElemType)
      << "buffersMatch: shape/type mismatch";
  double Tol = A.ElemType.isFloat() ? FloatTol : 0.0;

  int Coords[MaxBufferDims] = {0};
  int Extents[MaxBufferDims] = {1, 1, 1, 1};
  for (int D = 0; D < A.Dimensions; ++D) {
    internal_assert(A.Dim[D].Extent == B.Dim[D].Extent)
        << "buffersMatch: extent mismatch in dim " << D;
    Extents[D] = A.Dim[D].Extent;
  }

  // A margin that swallows the whole frame would make the comparison
  // vacuously true; report it as a failure so callers pick a frame large
  // enough to leave an interior.
  if (A.Dimensions >= 2 && Margin > 0 &&
      (2 * Margin >= Extents[0] || 2 * Margin >= Extents[1])) {
    if (Detail)
      *Detail = "margin " + std::to_string(Margin) +
                " leaves no interior in a " + std::to_string(Extents[0]) +
                "x" + std::to_string(Extents[1]) +
                " frame; nothing was compared";
    return false;
  }

  for (int C3 = 0; C3 < Extents[3]; ++C3)
    for (int C2 = 0; C2 < Extents[2]; ++C2)
      for (int Y = 0; Y < Extents[1]; ++Y)
        for (int X = 0; X < Extents[0]; ++X) {
          if (A.Dimensions >= 2 &&
              (X < Margin || X >= Extents[0] - Margin || Y < Margin ||
               Y >= Extents[1] - Margin))
            continue;
          Coords[0] = A.Dim[0].Min + X;
          Coords[1] = A.Dim[1].Min + Y;
          Coords[2] = A.Dimensions > 2 ? A.Dim[2].Min + C2 : 0;
          Coords[3] = A.Dimensions > 3 ? A.Dim[3].Min + C3 : 0;
          int64_t OffA = A.offsetOf(Coords, A.Dimensions);
          int CoordsB[MaxBufferDims];
          for (int D = 0; D < B.Dimensions; ++D)
            CoordsB[D] = B.Dim[D].Min + (Coords[D] - A.Dim[D].Min);
          int64_t OffB = B.offsetOf(CoordsB, B.Dimensions);
          double VA = elementAsDouble(A, OffA);
          double VB = elementAsDouble(B, OffB);
          bool Match = Tol > 0 ? std::fabs(VA - VB) <= Tol : VA == VB;
          if (!Match) {
            if (Detail) {
              std::ostringstream OS;
              OS << "first mismatch at (" << Coords[0] << ", " << Coords[1];
              if (A.Dimensions > 2)
                OS << ", " << Coords[2];
              OS << "): " << VA << " vs " << VB;
              *Detail = OS.str();
            }
            return false;
          }
        }
  return true;
}

std::string DiffReport::summary() const {
  std::ostringstream OS;
  for (const DiffMismatch &M : Mismatches)
    OS << AppName << " [" << M.Comparison << "] schedule {" << M.Schedule
       << "}: " << M.Detail << "\n";
  return OS.str();
}

DiffReport halide::runScheduleDifferential(App &A, const DiffOptions &Opts) {
  DiffReport R;
  R.AppName = A.Name;
  const int W = Opts.Width, H = Opts.Height;
  ParamBindings Inputs = A.MakeInputs(W, H);

  // Every leg but the C one runs on the VM: its ExecutionStats are what
  // the threaded, trace-parity and scalar-vs-vector legs compare. Each
  // schedule's primary run is pinned to one thread.
  const Target Exec = Target::vm();
  const std::string ExecName = backendName(Exec.TargetBackend);

  ScheduleSpace Space(A.Output.function());
  Pipeline Pipe(A.Output);

  // The semantic reference: breadth-first on the VM. Going through
  // Pipeline::lowerPipeline keys the lowering into the process compile
  // cache, so repeated differential runs (and the canonical schedules the
  // sample re-draws) stop paying re-lowering.
  std::shared_ptr<void> KeepRef;
  RawBuffer Ref = makeAppOutput(A, W, H, &KeepRef);
  Space.apply(Space.breadthFirstGenome());
  {
    LoweredPipeline P = Pipe.lowerPipeline();
    ParamBindings PB = Inputs;
    PB.bind(A.Output.name(), Ref);
    int Rc = runOnBackend(Exec, P, PB);
    if (Rc != 0) {
      // Without a reference every later comparison would report garbage;
      // fail with the one diagnostic that matters.
      R.Mismatches.push_back({"breadth_first", ExecName + " exit code",
                              "reference run returned " +
                                  std::to_string(Rc)});
      return R;
    }
  }

  // The reference itself must agree with the hand-written baseline (over
  // the interior where the edge-extension conventions coincide), possibly
  // at a larger frame so an interior survives the margin.
  if (A.Reference) {
    int BW = Opts.BaselineWidth > 0 ? Opts.BaselineWidth : W;
    int BH = Opts.BaselineHeight > 0 ? Opts.BaselineHeight : H;
    std::shared_ptr<void> KeepBRef, KeepBase;
    RawBuffer BRef = Ref;
    if (BW != W || BH != H) {
      BRef = makeAppOutput(A, BW, BH, &KeepBRef);
      LoweredPipeline P = Pipe.lowerPipeline();
      ParamBindings PB = A.MakeInputs(BW, BH);
      PB.bind(A.Output.name(), BRef);
      int Rc = runOnBackend(Exec, P, PB);
      if (Rc != 0) {
        R.Mismatches.push_back({"breadth_first", ExecName + " exit code",
                                "baseline-frame run returned " +
                                    std::to_string(Rc)});
        return R;
      }
    }
    RawBuffer Base = makeAppOutput(A, BW, BH, &KeepBase);
    A.Reference(BW, BH, Base);
    std::string Detail;
    if (!buffersMatch(BRef, Base, FloatTolerance, A.ReferenceMargin,
                      &Detail))
      R.Mismatches.push_back({"breadth_first",
                              ExecName + " vs hand-written baseline",
                              Detail});
  }

  // The concurrent-serving leg retains the first few schedules' compiled
  // executables, sequential outputs, and stats; after the sweep they all
  // run again simultaneously and must reproduce those results exactly.
  struct ConcurrentCase {
    std::string Desc;
    std::shared_ptr<const Executable> Exe;
    std::shared_ptr<void> KeepOut;
    RawBuffer SerialOut;
    ExecutionStats SerialStats;
  };
  std::vector<ConcurrentCase> Cases;

  int ScheduleIndex = 0;
  for (const Genome &G :
       Space.deterministicSample(DiffScheduleCount, DiffSampleSeed)) {
    std::string Desc = Space.describe(G);
    Space.apply(G);
    LoweredPipeline P = Pipe.lowerPipeline();
    // One VM executable serves the serial, threaded and concurrent legs.
    std::shared_ptr<const Executable> VmExe = makeExecutable(P, Exec);

    ExecutionStats SerialStats;
    std::shared_ptr<void> KeepExec;
    RawBuffer OutExec = makeAppOutput(A, W, H, &KeepExec);
    {
      ParamBindings PB = Inputs;
      PB.bind(A.Output.name(), OutExec);
      int Rc = VmExe->run(PB, &SerialStats, /*NumThreads=*/1);
      std::string Detail;
      if (Rc != 0)
        R.Mismatches.push_back({Desc, ExecName + " exit code",
                                "pipeline returned " + std::to_string(Rc)});
      else if (!buffersMatch(Ref, OutExec, FloatTolerance, 0, &Detail))
        R.Mismatches.push_back({Desc, ExecName + " vs reference", Detail});
      else if (int(Cases.size()) < ConcurrentFrames) {
        ConcurrentCase CC;
        CC.Desc = Desc;
        CC.Exe = VmExe;
        CC.KeepOut = KeepExec;
        CC.SerialOut = OutExec;
        CC.SerialStats = SerialStats;
        Cases.push_back(std::move(CC));
      }
    }

    // The serial-vs-parallel determinism leg: the schedule re-executes
    // with a thread request; outputs must match bit for bit and the merged
    // ExecutionStats must be identical.
    {
      std::shared_ptr<void> KeepThr;
      RawBuffer OutThr = makeAppOutput(A, W, H, &KeepThr);
      ParamBindings PB = Inputs;
      PB.bind(A.Output.name(), OutThr);
      ExecutionStats ThrStats;
      int Rc = VmExe->run(PB, &ThrStats, ThreadedVmThreads);
      std::string Detail;
      if (Rc != 0)
        R.Mismatches.push_back(
            {Desc, "threaded " + ExecName + " exit code",
             "pipeline returned " + std::to_string(Rc)});
      else if (!buffersMatch(OutExec, OutThr, 0.0, 0, &Detail))
        R.Mismatches.push_back(
            {Desc, "threaded vs serial " + ExecName, Detail});
      else if (ThrStats != SerialStats)
        R.Mismatches.push_back(
            {Desc, "threaded vs serial " + ExecName + " stats",
             "serial {" + statsSummary(SerialStats) + "} threaded {" +
                 statsSummary(ThrStats) + "}"});
    }

    // The reference interpreter audits a prefix of the sample: it
    // re-executes the same schedule and must reproduce the VM's output bit
    // for bit (zero tolerance — the VM's contract with the interpreter is
    // identical results, not merely close ones).
    if (ScheduleIndex < InterpreterSpotChecks) {
      std::shared_ptr<void> KeepInterp;
      RawBuffer OutInterp = makeAppOutput(A, W, H, &KeepInterp);
      ParamBindings PB = Inputs;
      PB.bind(A.Output.name(), OutInterp);
      interpret(P, PB);
      std::string Detail;
      if (!buffersMatch(OutExec, OutInterp, 0.0, 0, &Detail))
        R.Mismatches.push_back({Desc, "interpreter vs " + ExecName, Detail});
    }

    // The C backend re-executes every schedule and must reproduce the
    // VM's output for it bit for bit (zero tolerance even for floats: both
    // engines perform the same operations in the same order, and the JIT
    // compiles with -ffp-contract=off).
    {
      std::shared_ptr<void> KeepC;
      RawBuffer OutC = makeAppOutput(A, W, H, &KeepC);
      ParamBindings PB = Inputs;
      PB.bind(A.Output.name(), OutC);
      int Rc =
          runOnBackend(Target::jit().withJitFlags(diffJitFlags()), P, PB);
      std::string Detail;
      if (Rc != 0)
        R.Mismatches.push_back(
            {Desc, "codegen_c exit code", "pipeline returned " +
                                              std::to_string(Rc)});
      else if (!buffersMatch(OutExec, OutC, 0.0, 0, &Detail))
        R.Mismatches.push_back({Desc, "codegen_c vs " + ExecName, Detail});
    }

    // The trace-parity leg: the same lowered pipeline runs again with
    // value tracing enabled, streaming to a throwaway file. The traced
    // run must reproduce the untraced output bit for bit (tracing is
    // observation, not perturbation), and summing the trace's per-lane
    // load/store records per buffer must land exactly on the untraced
    // run's ExecutionStats — the instrumentation saw every access the
    // counters saw, and nothing else.
    if (ScheduleIndex < TraceParityChecks) {
      const std::string TracePath = tempDirectory() + "/halide_diff_trace_" +
                                    std::to_string(getpid()) + ".bin";
      std::shared_ptr<void> KeepTr;
      RawBuffer OutTr = makeAppOutput(A, W, H, &KeepTr);
      ParamBindings PB = Inputs;
      PB.bind(A.Output.name(), OutTr);
      if (!traceStreamStart(TracePath)) {
        R.Mismatches.push_back({Desc, "trace stream",
                                "traceStreamStart(" + TracePath +
                                    ") failed"});
      } else {
        int Rc = runOnBackend(Exec.withTrace(), P, PB, nullptr, 1);
        traceStreamStop();
        std::vector<TraceEvent> Events;
        std::string Detail;
        if (Rc != 0)
          R.Mismatches.push_back({Desc, "traced " + ExecName + " exit code",
                                  "pipeline returned " +
                                      std::to_string(Rc)});
        else if (!buffersMatch(OutExec, OutTr, 0.0, 0, &Detail))
          R.Mismatches.push_back(
              {Desc, "traced vs untraced " + ExecName, Detail});
        else if (!readTraceFile(TracePath, &Events, &Detail))
          R.Mismatches.push_back({Desc, "trace file", Detail});
        else {
          std::map<uint16_t, std::string> Names;
          for (const TraceEvent &E : Events)
            if (E.Kind == TraceEventKind::TraceName)
              Names[E.StageId] = E.Name;
          std::map<std::string, int64_t> Loads, Stores;
          for (const TraceEvent &E : Events) {
            if (E.Kind == TraceEventKind::TraceLoad)
              Loads[Names[E.StageId]] += int64_t(E.Coords.size());
            else if (E.Kind == TraceEventKind::TraceStore)
              Stores[Names[E.StageId]] += int64_t(E.Coords.size());
          }
          if (Loads != SerialStats.LoadsPerBuffer ||
              Stores != SerialStats.StoresPerBuffer) {
            // Render the trace-derived counts through the stats printer
            // so the diagnostic lines up field-for-field.
            ExecutionStats TraceStats = SerialStats;
            TraceStats.LoadsPerBuffer = std::move(Loads);
            TraceStats.StoresPerBuffer = std::move(Stores);
            R.Mismatches.push_back(
                {Desc, "trace-derived vs " + ExecName + " memory traffic",
                 "stats {" + statsSummary(SerialStats) + "} trace {" +
                     statsSummary(TraceStats) + "}"});
          }
        }
      }
      std::remove(TracePath.c_str());
    }

    // The scalar-vs-vector parity leg: re-apply the genome, demote its
    // vectorized loops to serial (splits intact — same iteration space),
    // and re-lower. The vectorized primary run must reproduce the
    // scalarized output bit for bit (zero tolerance even for floats:
    // lane-parallel execution performs exactly the per-element
    // operations) and issue exactly the same per-buffer load/store
    // traffic. Last leg in the loop because it rewrites the applied
    // schedules; the next iteration's apply() resets them anyway.
    Space.apply(G);
    if (scalarizeVectorLoops(A.Output.function())) {
      LoweredPipeline PS = Pipe.lowerPipeline();
      std::shared_ptr<void> KeepScalar;
      RawBuffer OutScalar = makeAppOutput(A, W, H, &KeepScalar);
      ParamBindings PB = Inputs;
      PB.bind(A.Output.name(), OutScalar);
      ExecutionStats ScalarStats;
      int Rc = runOnBackend(Exec, PS, PB, &ScalarStats, 1);
      std::string Detail;
      if (Rc != 0)
        R.Mismatches.push_back(
            {Desc, "scalarized " + ExecName + " exit code",
             "pipeline returned " + std::to_string(Rc)});
      else if (!buffersMatch(OutExec, OutScalar, 0.0, 0, &Detail))
        R.Mismatches.push_back(
            {Desc, "vector vs scalar " + ExecName, Detail});
      else if (ScalarStats.LoadsPerBuffer != SerialStats.LoadsPerBuffer ||
               ScalarStats.StoresPerBuffer != SerialStats.StoresPerBuffer)
        R.Mismatches.push_back(
            {Desc, "vector vs scalar " + ExecName + " memory traffic",
             "vector {" + statsSummary(SerialStats) + "} scalar {" +
                 statsSummary(ScalarStats) + "}"});
    }
    ++R.SchedulesRun;
    ++ScheduleIndex;
  }

  // The concurrent-serving leg: every retained executable runs serially
  // again as an async job, all in flight at once on the shared task
  // scheduler with mixed priorities — the serving runtime's
  // configuration. Each frame must
  // reproduce its sequential run bit for bit (zero tolerance) with
  // identical merged ExecutionStats: concurrency must be invisible in the
  // results.
  if (Cases.size() > 1) {
    struct Frame {
      std::shared_ptr<void> Keep;
      RawBuffer Out;
      ExecutionStats Stats;
      int Rc = 0;
    };
    std::vector<Frame> Frames(Cases.size());
    std::vector<ParamBindings> Bindings(Cases.size());
    for (size_t I = 0; I < Cases.size(); ++I) {
      Frames[I].Out = makeAppOutput(A, W, H, &Frames[I].Keep);
      Bindings[I] = Inputs;
      Bindings[I].bind(A.Output.name(), Frames[I].Out);
    }
    std::vector<AsyncJob> Jobs;
    for (size_t I = 0; I < Cases.size(); ++I) {
      const Executable *Exe = Cases[I].Exe.get();
      const ParamBindings *PB = &Bindings[I];
      Frame *F = &Frames[I];
      Jobs.push_back(
          submitAsyncJob(
              [Exe, PB, F] { F->Rc = Exe->run(*PB, &F->Stats, 1); },
              /*Priority=*/int(I % 3)));
    }
    for (const AsyncJob &J : Jobs)
      J.wait();
    for (size_t I = 0; I < Cases.size(); ++I) {
      const ConcurrentCase &CC = Cases[I];
      const Frame &F = Frames[I];
      std::string Detail;
      if (F.Rc != 0)
        R.Mismatches.push_back(
            {CC.Desc, "concurrent " + ExecName + " exit code",
             "pipeline returned " + std::to_string(F.Rc)});
      else if (!buffersMatch(CC.SerialOut, F.Out, 0.0, 0, &Detail))
        R.Mismatches.push_back(
            {CC.Desc, "concurrent vs sequential " + ExecName, Detail});
      else if (F.Stats != CC.SerialStats)
        R.Mismatches.push_back(
            {CC.Desc, "concurrent vs sequential " + ExecName + " stats",
             "sequential {" + statsSummary(CC.SerialStats) +
                 "} concurrent {" + statsSummary(F.Stats) + "}"});
    }
  }
  return R;
}
