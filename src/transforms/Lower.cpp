//===-- transforms/Lower.cpp ----------------------------------------------------=//

#include "transforms/Lower.h"
#include "analysis/CallGraph.h"
#include "ir/IRMutator.h"
#include "ir/IROperators.h"
#include "ir/IRVisitor.h"
#include "observe/TraceRecorder.h"
#include "runtime/Buffer.h"
#include "transforms/BoundsInference.h"
#include "transforms/CSE.h"
#include "transforms/Inline.h"
#include "transforms/PartitionLoops.h"
#include "transforms/ScheduleFunctions.h"
#include "transforms/Simplify.h"
#include "transforms/SlidingWindow.h"
#include "transforms/StorageFlattening.h"
#include "transforms/StorageFolding.h"
#include "transforms/UnrollLoops.h"
#include "transforms/VectorizeLoops.h"

#include <algorithm>
#include <set>

using namespace halide;

namespace {

/// Collects input image references (name -> type and rank) from the
/// pre-flattening statement, and scalar parameters from anywhere.
class CollectArgs : public IRVisitor {
public:
  std::map<std::string, std::pair<Type, int>> Images;
  std::map<std::string, Type> ScalarParams;

  void visit(const Call *Op) override {
    IRVisitor::visit(Op);
    if (Op->CallKind == CallType::Image)
      Images[Op->Name] = {Op->NodeType, int(Op->Args.size())};
  }

  void visit(const Variable *Op) override {
    if (Op->IsParam)
      ScalarParams[Op->Name] = Op->NodeType;
  }
};

/// Runs one lowering pass. While a trace is recording, the pass becomes a
/// "compile" span named after it that carries its output's IR node count;
/// the count is taken after the span ends, so it does not inflate the
/// pass's time.
template <typename PassFn> Stmt runPass(const char *Name, PassFn &&Pass) {
  if (!traceActive())
    return Pass();
  int64_t Start = traceNowNs();
  Stmt S = Pass();
  int64_t Dur = traceNowNs() - Start;
  traceComplete("compile", Name, Start, Dur,
                {TraceArg("ir_nodes", int64_t(countIRNodes(S)))});
  return S;
}

} // namespace

LoweredPipeline halide::lower(const Function &Output, const Target &T) {
  user_assert(Output.hasPureDefinition())
      << "cannot lower undefined function " << Output.name();

  // Names the passes mint count from zero in every call, so lowering the
  // same pipeline twice gives the same statement and the same C.
  UniqueNameScope Names;

  LoweredPipeline Result;
  Result.Name = Output.name();
  std::map<std::string, Function> Env = buildEnvironment(Output);
  std::vector<std::string> Order = realizationOrder(Output, Env);

  for (const auto &[Name, F] : Env) {
    user_assert(F.hasPureDefinition())
        << "function " << Name << " is called but never defined";
    if (!F.updates().empty())
      Result.UpdateCounts[Name] = F.updates().size();
  }

  // Section 4.1: loop synthesis and injection of realizations.
  Stmt S = runPass("scheduleFunctions", [&] {
    return scheduleFunctions(Output, Order, Env);
  });

  // Total fusion of inline-scheduled stages.
  S = runPass("inlineCalls", [&] { return inlineCalls(S, Env); });

  // Record input images and scalar parameters while calls are still visible.
  CollectArgs Args;
  S.accept(&Args);

  // Section 4.2: bounds inference. The output's own required region
  // variables ("out.min.d"/"out.extent.d") are intentionally left unbound:
  // they coincide with the output buffer's metadata parameters, so all
  // generated bounds depend only on the size of the output image. Each
  // stage's region is bound once, in its consumers' region variables (a
  // root stage's at the top of the statement), and reused bounds
  // subexpressions are shared rather than copied, which keeps lowering
  // polynomial in pipeline depth (linear for the pyramids). The input
  // coverage asserts follow the root regions.
  std::set<std::string> ImageNames;
  for (const auto &[Name, Info] : Args.Images)
    ImageNames.insert(Name);
  S = runPass("boundsInference",
              [&] { return boundsInference(S, Env, ImageNames); });

  // Section 4.3: reuse and memory optimizations. These run before global
  // simplification: they pattern-match the bounds-let preambles (including
  // the shared definitions above the min/extent chains) that
  // simplification would otherwise inline away or drop.
  if (!T.DisableSlidingWindow)
    S = runPass("slidingWindow",
                [&] { return slidingWindow(S, Env); });
  if (!T.DisableStorageFolding)
    S = runPass("storageFolding",
                [&] { return storageFolding(S, Env); });
  S = runPass("simplify", [&] { return simplify(S); });

  // Section 4.4: flattening to one-dimensional buffers.
  S = runPass("storageFlattening", [&] {
    return storageFlattening(S, Output.name(), ImageNames, Env);
  });
  S = runPass("simplify", [&] { return simplify(S); });

  // Section 4.5: vectorization and unrolling.
  S = runPass("vectorizeLoops", [&] { return vectorizeLoops(S); });
  S = runPass("unrollLoops", [&] { return unrollLoops(S); });
  S = runPass("simplify", [&] { return simplify(S); });

  // Boundary clamps: split scalar innermost loops around their
  // clamp-free steady state.
  S = runPass("partitionLoops", [&] { return partitionLoops(S); });
  S = runPass("cse", [&] { return cse(S); });

  // Guard the round-up of split output dimensions: the loops write
  // [min, min + writtenExtent), which must not exceed the output buffer.
  // When the schedule pins the dimension's extent with bound(), the check
  // is decidable here, so a bad vectorize/split combination is rejected at
  // lowering time (naming the stage) instead of aborting at run time.
  std::vector<Stmt> Preamble;
  for (int D = 0; D < Output.dimensions(); ++D) {
    const std::string &DimVar = Output.args()[size_t(D)];
    for (const BoundConstraint &BC : Output.schedule().Bounds) {
      int64_t BoundExtent, WrittenConst;
      if (BC.Var != DimVar || !BC.Extent.defined() ||
          !asConstInt(simplify(BC.Extent), &BoundExtent))
        continue;
      Expr Written = simplify(
          writtenExtent(Output, D, IntImm::make(Int(32), BoundExtent)));
      if (asConstInt(Written, &WrittenConst) && WrittenConst != BoundExtent)
        user_error << "in schedule for output stage " << Output.name()
                   << ": dimension " << DimVar << " is bounded to extent "
                   << BoundExtent << " but its splits round the written "
                   << "extent up to " << WrittenConst
                   << "; the extent must be a multiple of the split "
                   << "factors (pad the bound or drop the non-dividing "
                   << "split/vectorize factor)";
    }
    Expr Extent = Variable::make(
        Int(32), bufferExtentName(Output.name(), D), /*IsParam=*/true);
    Expr Written = simplify(writtenExtent(Output, D, Extent));
    Expr Ok = simplify(Written == Extent);
    if (!isConstOne(Ok))
      Preamble.push_back(AssertStmt::make(
          Ok, "output extent of dimension " + std::to_string(D) + " of " +
                  Output.name() +
                  " must be a multiple of the split factors in its "
                  "schedule"));
  }
  if (!Preamble.empty()) {
    Preamble.push_back(S);
    S = Block::make(Preamble);
  }

  Result.Body = S;
  // A parameter only a schedule reads (a bound, a split factor) enters the
  // statement with bounds inference, after the first collection.
  S.accept(&Args);

  // Argument signature: output buffer, input images (name order), scalars
  // (name order, excluding the buffers' metadata).
  Result.Buffers.push_back(
      {Output.name(), Output.outputType(), Output.dimensions(), true});
  for (const auto &[Name, Info] : Args.Images)
    Result.Buffers.push_back({Name, Info.first, Info.second, false});
  const std::map<std::string, ArgSlot> Metadata = Result.argumentSlots();
  for (const auto &[Name, T] : Args.ScalarParams)
    if (!Metadata.count(Name))
      Result.Scalars.push_back({Name, T});
  return Result;
}

int LoweredPipeline::metadataSlot(size_t Buffer, int D) {
  return int(Buffer * MaxBufferDims + size_t(D)) * 3;
}

std::vector<ArgSlot> LoweredPipeline::scalarSlots() const {
  int NextInt = metadataSlot(Buffers.size(), 0), NextFloat = 0;
  std::vector<ArgSlot> Slots;
  for (const ScalarArg &S : Scalars)
    Slots.push_back(S.ArgType.isFloat() ? ArgSlot{true, NextFloat++}
                                        : ArgSlot{false, NextInt++});
  return Slots;
}

std::map<std::string, ArgSlot> LoweredPipeline::argumentSlots() const {
  std::map<std::string, ArgSlot> Slots;
  for (size_t B = 0; B < Buffers.size(); ++B)
    for (int D = 0; D < MaxBufferDims; ++D) {
      const int Min = metadataSlot(B, D);
      Slots[bufferMinName(Buffers[B].Name, D)] = {false, Min};
      Slots[bufferExtentName(Buffers[B].Name, D)] = {false, Min + 1};
      Slots[bufferStrideName(Buffers[B].Name, D)] = {false, Min + 2};
    }
  const std::vector<ArgSlot> ScalarSlots = scalarSlots();
  for (size_t I = 0; I < Scalars.size(); ++I)
    Slots[Scalars[I].Name] = ScalarSlots[I];
  return Slots;
}
