//===-- transforms/Instrument.cpp - Profiling and value tracing -----------===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "transforms/Instrument.h"

#include "ir/IRMutator.h"
#include "lang/Function.h"
#include "transforms/StorageFlattening.h"

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

/// Wraps \p Body in ProfEnter/ProfExit events for \p Stage.
Stmt bracketStage(const std::string &Stage, Stmt Body) {
  return Block::make(
      eventStmt(TraceEventKind::ProfEnter, Stage),
      Block::make(std::move(Body), eventStmt(TraceEventKind::ProfExit, Stage)));
}

/// Wraps \p Body in TraceBegin(extents...)/TraceEnd events for \p Buf.
Stmt bracketRealization(const std::string &Buf, std::vector<Expr> Extents,
                        Stmt Body) {
  return Block::make(
      eventStmt(TraceEventKind::TraceBegin, Buf, std::move(Extents)),
      Block::make(std::move(Body), eventStmt(TraceEventKind::TraceEnd, Buf)));
}

class Instrument : public IRMutator {
public:
  Instrument(const std::map<std::string, Function> &Env, const Target &T)
      : Env(Env), Profile(T.Profile), Trace(T.Trace) {}

private:
  const std::map<std::string, Function> &Env;
  const bool Profile, Trace;

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
    if (Trace)
      Body = bracketRealization(Op->Name, Op->Extents, std::move(Body));
    if (Body.sameAs(Op->Body))
      return Op;
    return Allocate::make(Op->Name, Op->ElemType, Op->Extents,
                          std::move(Body), Op->InSharedMemory);
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
    Stmt Body = bracketUpdates(Op->Name, mutate(Op->Body));
    return ProducerConsumer::make(Op->Name, true,
                                  bracketStage(Op->Name, std::move(Body)));
  }

  /// Best-effort per-update sub-stages: when the produce body's top Block
  /// chain (under its LetStmt preamble) has exactly 1 + #updates
  /// statements, statements 1..N are the update stages in definition
  /// order; bracket each as "name.update(k)". Anything else (folded
  /// storage, fused loops) keeps whole-stage attribution only.
  Stmt bracketUpdates(const std::string &Name, Stmt Body) {
    auto It = Env.find(Name);
    if (It == Env.end() || It->second.updates().empty())
      return Body;
    size_t NumUpdates = It->second.updates().size();
    std::vector<Stmt> Wrappers, Chain;
    peel(Body, Wrappers, Chain);
    if (Chain.size() != 1 + NumUpdates)
      return Body;
    for (size_t K = 0; K < NumUpdates; ++K)
      Chain[1 + K] = bracketStage(Name + ".update(" + std::to_string(K) + ")",
                                  Chain[1 + K]);
    Stmt Rebuilt = Block::make(Chain);
    for (auto W = Wrappers.rbegin(); W != Wrappers.rend(); ++W) {
      const LetStmt *L = W->as<LetStmt>();
      Rebuilt = LetStmt::make(L->Name, L->Value, Rebuilt);
    }
    return Rebuilt;
  }
};

} // namespace

LoweredPipeline instrument(const LoweredPipeline &P, const Target &T) {
  LoweredPipeline Out = P;
  if (!(T.Profile || T.Trace) || !P.Body.defined())
    return Out;
  Instrument M(P.Env, T);
  Out.Body = M.mutate(P.Body);
  // The whole pipeline body is the output stage's production: bracket it
  // so time outside any inner producer (the output's own loops) is
  // attributed to the output stage rather than lost.
  const std::string &OutputName = P.Output.name();
  const ProducerConsumer *PC = P.Body.as<ProducerConsumer>();
  if (T.Profile && !(PC && PC->IsProducer && PC->Name == OutputName))
    Out.Body = bracketStage(OutputName, std::move(Out.Body));
  // The output buffer is caller-allocated (no Allocate node); bracket the
  // whole pipeline with its realization using the buffer's extent
  // metadata parameters, which every backend can resolve.
  if (T.Trace) {
    std::vector<Expr> Extents;
    for (int D = 0; D < P.Output.dimensions(); ++D)
      Extents.push_back(Variable::make(
          Int(32), bufferExtentName(OutputName, D), /*IsParam=*/true));
    Out.Body = bracketRealization(OutputName, std::move(Extents),
                                  std::move(Out.Body));
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
