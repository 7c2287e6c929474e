//===-- transforms/Instrument.cpp - Profiling and value tracing -----------===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "transforms/Instrument.h"

#include "ir/IRMutator.h"
#include "transforms/StorageFlattening.h"

#include <utility>
#include <vector>

namespace halide {

namespace {

/// A Call::Instrument of type \p T: {kind, stage, payload...}.
Expr event(Type T, TraceEventKind Kind, const std::string &Stage,
           std::vector<Expr> Payload) {
  std::vector<Expr> Args = {IntImm::make(Int(32), int64_t(Kind)),
                            StringImm::make(Stage)};
  for (Expr &E : Payload)
    Args.push_back(std::move(E));
  return Call::make(T, Call::Instrument, std::move(Args),
                    CallType::Intrinsic);
}

Stmt eventStmt(TraceEventKind Kind, const std::string &Stage,
               std::vector<Expr> Payload = {}) {
  return Evaluate::make(event(Int(32), Kind, Stage, std::move(Payload)));
}

/// Wraps \p Body in an \p Open event carrying \p Payload and a \p Close
/// event, both for \p Stage.
Stmt bracket(TraceEventKind Open, TraceEventKind Close,
             const std::string &Stage, Stmt Body,
             std::vector<Expr> Payload = {}) {
  return Block::make(eventStmt(Open, Stage, std::move(Payload)),
                     Block::make(std::move(Body), eventStmt(Close, Stage)));
}

/// Wraps \p Body in ProfEnter/ProfExit events for \p Stage.
Stmt bracketStage(const std::string &Stage, Stmt Body) {
  return bracket(TraceEventKind::ProfEnter, TraceEventKind::ProfExit, Stage,
                 std::move(Body));
}

/// True when \p Op's body runs as task-scheduler chunks that may land on
/// another thread: a parallel loop, or the innermost GPU block loop of a
/// directly nested chain (CodeGenC fuses the chain into one launch, so
/// nothing may sit between its loops).
bool runsAsChunks(const For *Op) {
  if (Op->Kind == ForType::Parallel)
    return true;
  const For *Inner = Op->Body.as<For>();
  return Op->Kind == ForType::GPUBlock &&
         !(Inner && Inner->Kind == ForType::GPUBlock);
}

class Instrument : public IRMutator {
public:
  Instrument(const LoweredPipeline &P, const Target &T)
      : UpdateCounts(P.UpdateCounts), Profile(T.Profile), Trace(T.Trace),
        Stage(P.Name) {}

private:
  const std::map<std::string, size_t> &UpdateCounts;
  const bool Profile, Trace;
  /// The innermost stage bracket around the node being mutated: a produce
  /// node, a "name.update(k)" sub-stage, or the whole-body output bracket.
  std::string Stage;

  Expr visit(const Load *Op) override {
    Expr E = IRMutator::visit(Op);
    if (!Trace)
      return E;
    return event(Op->NodeType, TraceEventKind::TraceLoad, Op->Name, {E});
  }

  Stmt visit(const Store *Op) override {
    Expr Value = mutate(Op->Value);
    Expr Index = mutate(Op->Index);
    if (Trace)
      return eventStmt(TraceEventKind::TraceStore, Op->Name,
                       {std::move(Value), std::move(Index)});
    if (Value.sameAs(Op->Value) && Index.sameAs(Op->Index))
      return Op;
    return Store::make(Op->Name, std::move(Value), std::move(Index));
  }

  Stmt visit(const Allocate *Op) override {
    Stmt Body = mutate(Op->Body);
    if (Profile) {
      std::vector<Expr> Size = {IntImm::make(Int(32), Op->ElemType.bytes())};
      Size.insert(Size.end(), Op->Extents.begin(), Op->Extents.end());
      Body = bracket(TraceEventKind::ProfAlloc, TraceEventKind::ProfFree,
                     Op->Name, std::move(Body), std::move(Size));
    }
    if (Trace)
      Body = bracket(TraceEventKind::TraceBegin, TraceEventKind::TraceEnd,
                     Op->Name, std::move(Body), Op->Extents);
    if (Body.sameAs(Op->Body))
      return Op;
    return Allocate::make(Op->Name, Op->ElemType, Op->Extents,
                          std::move(Body));
  }

  /// A chunk body may run on a worker thread, so it re-enters the stage
  /// around its loop as a chunk scope.
  Stmt visit(const For *Op) override {
    Stmt S = IRMutator::visit(Op);
    if (!Profile || !runsAsChunks(Op))
      return S;
    const For *F = S.as<For>();
    return For::make(F->Name, F->MinExpr, F->Extent, F->Kind,
                     bracket(TraceEventKind::ProfChunk,
                             TraceEventKind::ProfExit, Stage, F->Body));
  }

  /// Peels the LetStmt preamble of a produce body and flattens the Block
  /// chain underneath into \p Chain; returns the peeled wrappers
  /// outermost-first so the caller can rebuild.
  static void peel(const Stmt &S, std::vector<Stmt> &Wrappers,
                   std::vector<Stmt> &Chain) {
    Stmt Cur = S;
    while (const LetStmt *L = Cur.as<LetStmt>()) {
      Wrappers.push_back(Cur);
      Cur = L->Body;
    }
    const Stmt *Walk = &Cur;
    while (const Block *B = Walk->as<Block>()) {
      Chain.push_back(B->First);
      Walk = &B->Rest;
    }
    Chain.push_back(*Walk);
  }

  Stmt visit(const ProducerConsumer *Op) override {
    // Consume bodies need no marker of their own: with a stage stack, the
    // producer's exit event *is* the consume transition (the enclosing
    // stage resumes accumulating self time).
    if (!Profile || !Op->IsProducer)
      return IRMutator::visit(Op);
    return ProducerConsumer::make(
        Op->Name, true, bracketStage(Op->Name, bracketUpdates(Op)));
  }

  /// Mutates \p S inside the stage bracket \p Name.
  Stmt mutateInStage(const std::string &Name, const Stmt &S) {
    std::string Outer = std::exchange(Stage, Name);
    Stmt Result = mutate(S);
    Stage = std::move(Outer);
    return Result;
  }

  /// Mutates \p Op's produce body, with best-effort per-update
  /// sub-stages: when the body's top Block chain (under its LetStmt
  /// preamble) has exactly 1 + #updates statements, statements 1..N are
  /// the update stages in definition order; bracket each as
  /// "name.update(k)". Anything else (folded storage, fused loops) keeps
  /// whole-stage attribution only.
  Stmt bracketUpdates(const ProducerConsumer *Op) {
    auto It = UpdateCounts.find(Op->Name);
    size_t NumUpdates = It == UpdateCounts.end() ? 0 : It->second;
    std::vector<Stmt> Wrappers, Chain;
    peel(Op->Body, Wrappers, Chain);
    if (NumUpdates == 0 || Chain.size() != 1 + NumUpdates)
      return mutateInStage(Op->Name, Op->Body);
    Chain[0] = mutateInStage(Op->Name, Chain[0]);
    for (size_t K = 0; K < NumUpdates; ++K) {
      std::string Update = Op->Name + ".update(" + std::to_string(K) + ")";
      Chain[1 + K] = bracketStage(Update, mutateInStage(Update, Chain[1 + K]));
    }
    Stmt Rebuilt = Block::make(Chain);
    for (auto W = Wrappers.rbegin(); W != Wrappers.rend(); ++W) {
      const LetStmt *L = W->as<LetStmt>();
      Rebuilt = LetStmt::make(L->Name, mutate(L->Value), Rebuilt);
    }
    return Rebuilt;
  }
};

} // namespace

LoweredPipeline instrument(const LoweredPipeline &P, const Target &T) {
  LoweredPipeline Out = P;
  if (!(T.Profile || T.Trace) || !P.Body.defined())
    return Out;
  Instrument M(P, T);
  Out.Body = M.mutate(P.Body);
  // The whole pipeline body is the output stage's production: bracket it
  // so time outside any inner producer (the output's own loops) is
  // attributed to the output stage rather than lost.
  const std::string &OutputName = P.Name;
  const ProducerConsumer *PC = P.Body.as<ProducerConsumer>();
  if (T.Profile && !(PC && PC->IsProducer && PC->Name == OutputName))
    Out.Body = bracketStage(OutputName, std::move(Out.Body));
  // The output buffer is caller-allocated (no Allocate node); bracket the
  // whole pipeline with its realization using the buffer's extent
  // metadata parameters, which every backend can resolve.
  if (T.Trace) {
    std::vector<Expr> Extents;
    for (int D = 0; D < P.Buffers[0].Dimensions; ++D)
      Extents.push_back(Variable::make(
          Int(32), bufferExtentName(OutputName, D), /*IsParam=*/true));
    Out.Body = bracket(TraceEventKind::TraceBegin, TraceEventKind::TraceEnd,
                       OutputName, std::move(Out.Body), std::move(Extents));
  }
  return Out;
}

TraceEventKind instrumentKind(const Call *Op) {
  const IntImm *Kind = Op->Args.at(0).as<IntImm>();
  internal_assert(Kind) << "malformed " << Op->Name << " call";
  return TraceEventKind(Kind->Value);
}

const std::string &instrumentStage(const Call *Op) {
  const StringImm *Stage = Op->Args.at(1).as<StringImm>();
  internal_assert(Stage) << "malformed " << Op->Name << " call";
  return Stage->Value;
}

} // namespace halide
