//===-- transforms/Lower.cpp ----------------------------------------------------=//

#include "transforms/Lower.h"
#include "analysis/CallGraph.h"
#include "ir/IROperators.h"
#include "ir/IRVisitor.h"
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

/// True if \p Name is a buffer metadata parameter for one of \p Buffers.
bool isBufferMetadata(const std::string &Name,
                      const std::set<std::string> &Buffers) {
  for (const char *Suffix : {".min.", ".extent.", ".stride."}) {
    size_t Pos = Name.rfind(Suffix);
    if (Pos == std::string::npos)
      continue;
    if (Buffers.count(Name.substr(0, Pos)))
      return true;
  }
  return false;
}

} // namespace

LoweredPipeline halide::lower(const Function &Output, const Target &T) {
  user_assert(Output.hasPureDefinition())
      << "cannot lower undefined function " << Output.name();

  LoweredPipeline Result;
  Result.Name = Output.name();
  Result.Output = Output;
  Result.Env = buildEnvironment(Output);
  std::vector<std::string> Order = realizationOrder(Output, Result.Env);

  for (const auto &[Name, F] : Result.Env)
    user_assert(F.hasPureDefinition())
        << "function " << Name << " is called but never defined";

  // Section 4.1: loop synthesis and injection of realizations.
  Stmt S = scheduleFunctions(Output, Order, Result.Env);

  // Total fusion of inline-scheduled stages.
  S = inlineCalls(S, Result.Env);

  // Record input images and scalar parameters while calls are still visible.
  CollectArgs Args;
  S.accept(&Args);

  // Section 4.2: bounds inference. The output's own required region
  // variables ("out.min.d"/"out.extent.d") are intentionally left unbound:
  // they coincide with the output buffer's metadata parameters, so all
  // generated bounds depend only on the size of the output image. Each
  // stage's region is introduced once, as named lets above its produce
  // node — reused bounds subexpressions become shared definitions in that
  // preamble rather than copies at every use site, which keeps lowering
  // polynomial in pipeline depth (deep pyramids used to blow up here).
  S = boundsInference(S, Result.Env);

  // Section 4.3: reuse and memory optimizations. These run before global
  // simplification: they pattern-match the bounds-let preambles (including
  // the shared definitions above the min/extent chains) that
  // simplification would otherwise inline away or drop.
  if (!T.DisableSlidingWindow)
    S = slidingWindow(S, Result.Env);
  if (!T.DisableStorageFolding)
    S = storageFolding(S, Result.Env);
  S = simplify(S);

  // Section 4.4: flattening to one-dimensional buffers.
  std::set<std::string> ImageNames;
  for (const auto &[Name, Info] : Args.Images)
    ImageNames.insert(Name);
  S = storageFlattening(S, Output.name(), ImageNames, Result.Env);
  S = simplify(S);

  // Section 4.5: vectorization and unrolling.
  S = vectorizeLoops(S);
  S = unrollLoops(S);
  S = simplify(S);

  // Boundary clamps: split scalar innermost loops around their
  // clamp-free steady state.
  S = partitionLoops(S);
  S = cse(S);

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

  // Argument signature: output buffer, input images (name order), scalars
  // (name order, excluding buffer metadata).
  Result.Buffers.push_back(
      {Output.name(), Output.outputType(), Output.dimensions(), true});
  std::set<std::string> BufferNames = {Output.name()};
  for (const auto &[Name, Info] : Args.Images) {
    Result.Buffers.push_back({Name, Info.first, Info.second, false});
    BufferNames.insert(Name);
  }
  for (const auto &[Name, T] : Args.ScalarParams) {
    if (isBufferMetadata(Name, BufferNames))
      continue;
    Result.Scalars.push_back({Name, T});
  }
  return Result;
}
