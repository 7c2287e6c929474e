//===-- ir/IRMutator.cpp ---------------------------------------------------=//

#include "ir/IRMutator.h"

using namespace halide;

IRMutator::~IRMutator() = default;

Expr IRMutator::mutate(const Expr &E) {
  if (!E.defined())
    return E;
  switch (E->Kind) {
  case IRNodeKind::IntImm:
    return visit(E.as<IntImm>());
  case IRNodeKind::UIntImm:
    return visit(E.as<UIntImm>());
  case IRNodeKind::FloatImm:
    return visit(E.as<FloatImm>());
  case IRNodeKind::StringImm:
    return visit(E.as<StringImm>());
  case IRNodeKind::Cast:
    return visit(E.as<Cast>());
  case IRNodeKind::Variable:
    return visit(E.as<Variable>());
  case IRNodeKind::Add:
    return visit(E.as<Add>());
  case IRNodeKind::Sub:
    return visit(E.as<Sub>());
  case IRNodeKind::Mul:
    return visit(E.as<Mul>());
  case IRNodeKind::Div:
    return visit(E.as<Div>());
  case IRNodeKind::Mod:
    return visit(E.as<Mod>());
  case IRNodeKind::Min:
    return visit(E.as<Min>());
  case IRNodeKind::Max:
    return visit(E.as<Max>());
  case IRNodeKind::EQ:
    return visit(E.as<EQ>());
  case IRNodeKind::NE:
    return visit(E.as<NE>());
  case IRNodeKind::LT:
    return visit(E.as<LT>());
  case IRNodeKind::LE:
    return visit(E.as<LE>());
  case IRNodeKind::GT:
    return visit(E.as<GT>());
  case IRNodeKind::GE:
    return visit(E.as<GE>());
  case IRNodeKind::And:
    return visit(E.as<And>());
  case IRNodeKind::Or:
    return visit(E.as<Or>());
  case IRNodeKind::Not:
    return visit(E.as<Not>());
  case IRNodeKind::Select:
    return visit(E.as<Select>());
  case IRNodeKind::Load:
    return visit(E.as<Load>());
  case IRNodeKind::Ramp:
    return visit(E.as<Ramp>());
  case IRNodeKind::Broadcast:
    return visit(E.as<Broadcast>());
  case IRNodeKind::Call:
    return visit(E.as<Call>());
  case IRNodeKind::Let:
    return visit(E.as<Let>());
  default:
    internal_error << "expression mutate() hit statement kind";
    return Expr();
  }
}

Stmt IRMutator::mutate(const Stmt &S) {
  if (!S.defined())
    return S;
  switch (S->Kind) {
  case IRNodeKind::LetStmt:
    return visit(S.as<LetStmt>());
  case IRNodeKind::AssertStmt:
    return visit(S.as<AssertStmt>());
  case IRNodeKind::ProducerConsumer:
    return visit(S.as<ProducerConsumer>());
  case IRNodeKind::For:
    return visit(S.as<For>());
  case IRNodeKind::Store:
    return visit(S.as<Store>());
  case IRNodeKind::Provide:
    return visit(S.as<Provide>());
  case IRNodeKind::Allocate:
    return visit(S.as<Allocate>());
  case IRNodeKind::Realize:
    return visit(S.as<Realize>());
  case IRNodeKind::Block:
    return visit(S.as<Block>());
  case IRNodeKind::IfThenElse:
    return visit(S.as<IfThenElse>());
  case IRNodeKind::Evaluate:
    return visit(S.as<Evaluate>());
  default:
    internal_error << "statement mutate() hit expression kind";
    return Stmt();
  }
}

Expr IRMutator::visit(const IntImm *Op) { return Op; }
Expr IRMutator::visit(const UIntImm *Op) { return Op; }
Expr IRMutator::visit(const FloatImm *Op) { return Op; }
Expr IRMutator::visit(const StringImm *Op) { return Op; }
Expr IRMutator::visit(const Variable *Op) { return Op; }

Expr IRMutator::visit(const Cast *Op) {
  Expr Value = mutate(Op->Value);
  if (Value.sameAs(Op->Value))
    return Op;
  return Cast::make(Op->NodeType, Value);
}

namespace {
template <typename T>
Expr mutateBinary(IRMutator *M, const T *Op) {
  Expr A = M->mutate(Op->A);
  Expr B = M->mutate(Op->B);
  if (A.sameAs(Op->A) && B.sameAs(Op->B))
    return Op;
  return T::make(A, B);
}
} // namespace

Expr IRMutator::visit(const Add *Op) { return mutateBinary(this, Op); }
Expr IRMutator::visit(const Sub *Op) { return mutateBinary(this, Op); }
Expr IRMutator::visit(const Mul *Op) { return mutateBinary(this, Op); }
Expr IRMutator::visit(const Div *Op) { return mutateBinary(this, Op); }
Expr IRMutator::visit(const Mod *Op) { return mutateBinary(this, Op); }
Expr IRMutator::visit(const Min *Op) { return mutateBinary(this, Op); }
Expr IRMutator::visit(const Max *Op) { return mutateBinary(this, Op); }
Expr IRMutator::visit(const EQ *Op) { return mutateBinary(this, Op); }
Expr IRMutator::visit(const NE *Op) { return mutateBinary(this, Op); }
Expr IRMutator::visit(const LT *Op) { return mutateBinary(this, Op); }
Expr IRMutator::visit(const LE *Op) { return mutateBinary(this, Op); }
Expr IRMutator::visit(const GT *Op) { return mutateBinary(this, Op); }
Expr IRMutator::visit(const GE *Op) { return mutateBinary(this, Op); }
Expr IRMutator::visit(const And *Op) { return mutateBinary(this, Op); }
Expr IRMutator::visit(const Or *Op) { return mutateBinary(this, Op); }

Expr IRMutator::visit(const Not *Op) {
  Expr A = mutate(Op->A);
  if (A.sameAs(Op->A))
    return Op;
  return Not::make(A);
}

Expr IRMutator::visit(const Select *Op) {
  Expr Condition = mutate(Op->Condition);
  Expr TrueValue = mutate(Op->TrueValue);
  Expr FalseValue = mutate(Op->FalseValue);
  if (Condition.sameAs(Op->Condition) && TrueValue.sameAs(Op->TrueValue) &&
      FalseValue.sameAs(Op->FalseValue))
    return Op;
  return Select::make(Condition, TrueValue, FalseValue);
}

Expr IRMutator::visit(const Load *Op) {
  Expr Index = mutate(Op->Index);
  if (Index.sameAs(Op->Index))
    return Op;
  return Load::make(Op->NodeType.withLanes(Index.type().Lanes), Op->Name,
                    Index);
}

Expr IRMutator::visit(const Ramp *Op) {
  Expr Base = mutate(Op->Base);
  Expr Stride = mutate(Op->Stride);
  if (Base.sameAs(Op->Base) && Stride.sameAs(Op->Stride))
    return Op;
  return Ramp::make(Base, Stride, Op->Lanes);
}

Expr IRMutator::visit(const Broadcast *Op) {
  Expr Value = mutate(Op->Value);
  if (Value.sameAs(Op->Value))
    return Op;
  return Broadcast::make(Value, Op->Lanes);
}

Expr IRMutator::visit(const Call *Op) {
  std::vector<Expr> NewArgs(Op->Args.size());
  bool Changed = false;
  for (size_t I = 0; I < Op->Args.size(); ++I) {
    NewArgs[I] = mutate(Op->Args[I]);
    Changed |= !NewArgs[I].sameAs(Op->Args[I]);
  }
  if (!Changed)
    return Op;
  return Call::make(Op->NodeType, Op->Name, std::move(NewArgs), Op->CallKind,
                    Op->Callee, Op->Param);
}

Expr IRMutator::visit(const Let *Op) {
  Expr Value = mutate(Op->Value);
  Expr Body = mutate(Op->Body);
  if (Value.sameAs(Op->Value) && Body.sameAs(Op->Body))
    return Op;
  return Let::make(Op->Name, Value, Body);
}

Stmt IRMutator::visit(const LetStmt *Op) {
  Expr Value = mutate(Op->Value);
  Stmt Body = mutate(Op->Body);
  if (Value.sameAs(Op->Value) && Body.sameAs(Op->Body))
    return Op;
  return LetStmt::make(Op->Name, Value, Body);
}

Stmt IRMutator::visit(const AssertStmt *Op) {
  Expr Condition = mutate(Op->Condition);
  if (Condition.sameAs(Op->Condition))
    return Op;
  return AssertStmt::make(Condition, Op->Message);
}

Stmt IRMutator::visit(const ProducerConsumer *Op) {
  Stmt Body = mutate(Op->Body);
  if (Body.sameAs(Op->Body))
    return Op;
  return ProducerConsumer::make(Op->Name, Op->IsProducer, Body);
}

Stmt IRMutator::visit(const For *Op) {
  Expr MinExpr = mutate(Op->MinExpr);
  Expr Extent = mutate(Op->Extent);
  Stmt Body = mutate(Op->Body);
  if (MinExpr.sameAs(Op->MinExpr) && Extent.sameAs(Op->Extent) &&
      Body.sameAs(Op->Body))
    return Op;
  return For::make(Op->Name, MinExpr, Extent, Op->Kind, Body);
}

Stmt IRMutator::visit(const Store *Op) {
  Expr Value = mutate(Op->Value);
  Expr Index = mutate(Op->Index);
  if (Value.sameAs(Op->Value) && Index.sameAs(Op->Index))
    return Op;
  return Store::make(Op->Name, Value, Index);
}

Stmt IRMutator::visit(const Provide *Op) {
  Expr Value = mutate(Op->Value);
  std::vector<Expr> NewArgs(Op->Args.size());
  bool Changed = !Value.sameAs(Op->Value);
  for (size_t I = 0; I < Op->Args.size(); ++I) {
    NewArgs[I] = mutate(Op->Args[I]);
    Changed |= !NewArgs[I].sameAs(Op->Args[I]);
  }
  if (!Changed)
    return Op;
  return Provide::make(Op->Name, Value, std::move(NewArgs));
}

Stmt IRMutator::visit(const Allocate *Op) {
  std::vector<Expr> NewExtents(Op->Extents.size());
  bool Changed = false;
  for (size_t I = 0; I < Op->Extents.size(); ++I) {
    NewExtents[I] = mutate(Op->Extents[I]);
    Changed |= !NewExtents[I].sameAs(Op->Extents[I]);
  }
  Stmt Body = mutate(Op->Body);
  Changed |= !Body.sameAs(Op->Body);
  if (!Changed)
    return Op;
  return Allocate::make(Op->Name, Op->ElemType, std::move(NewExtents), Body);
}

Stmt IRMutator::visit(const Realize *Op) {
  Region NewBounds(Op->Bounds.size());
  bool Changed = false;
  for (size_t I = 0; I < Op->Bounds.size(); ++I) {
    NewBounds[I].Min = mutate(Op->Bounds[I].Min);
    NewBounds[I].Extent = mutate(Op->Bounds[I].Extent);
    Changed |= !NewBounds[I].Min.sameAs(Op->Bounds[I].Min) ||
               !NewBounds[I].Extent.sameAs(Op->Bounds[I].Extent);
  }
  Stmt Body = mutate(Op->Body);
  Changed |= !Body.sameAs(Op->Body);
  if (!Changed)
    return Op;
  return Realize::make(Op->Name, Op->ElemType, std::move(NewBounds), Body);
}

Stmt IRMutator::visit(const Block *Op) {
  Stmt First = mutate(Op->First);
  Stmt Rest = mutate(Op->Rest);
  if (First.sameAs(Op->First) && Rest.sameAs(Op->Rest))
    return Op;
  return Block::make(First, Rest);
}

Stmt IRMutator::visit(const IfThenElse *Op) {
  Expr Condition = mutate(Op->Condition);
  Stmt ThenCase = mutate(Op->ThenCase);
  Stmt ElseCase = mutate(Op->ElseCase);
  if (Condition.sameAs(Op->Condition) && ThenCase.sameAs(Op->ThenCase) &&
      ElseCase.sameAs(Op->ElseCase))
    return Op;
  return IfThenElse::make(Condition, ThenCase, ElseCase);
}

Stmt IRMutator::visit(const Evaluate *Op) {
  Expr Value = mutate(Op->Value);
  if (Value.sameAs(Op->Value))
    return Op;
  return Evaluate::make(Value);
}
