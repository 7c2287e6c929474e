//===-- ir/Expr.cpp - IR node constructors and accept() ------------------===//

#include "ir/Expr.h"
#include "ir/IRVisitor.h"

using namespace halide;

Expr::Expr(int Value) : Expr(IntImm::make(Int(32), Value)) {}
Expr::Expr(float Value) : Expr(FloatImm::make(Float(32), Value)) {}
// Double literals become Float(32) when exactly representable (which covers
// the constants appearing in image pipelines, e.g. 0.25); otherwise they
// keep full width. This mirrors how the Halide front end coerces literals.
Expr::Expr(double Value)
    : Expr(FloatImm::make(double(float(Value)) == Value ? Float(32)
                                                        : Float(64),
                          Value)) {}

Expr IntImm::make(Type T, int64_t Value) {
  internal_assert(T.isInt() && T.isScalar()) << "IntImm of type " << T.str();
  internal_assert(T.canRepresent(Value))
      << "IntImm value " << Value << " does not fit in " << T.str();
  IntImm *Node = new IntImm;
  Node->NodeType = T;
  Node->Value = Value;
  return Node;
}

Expr UIntImm::make(Type T, uint64_t Value) {
  internal_assert(T.isUInt() && T.isScalar()) << "UIntImm of type " << T.str();
  internal_assert(T.Bits == 64 || Value <= T.uintMax())
      << "UIntImm value " << Value << " does not fit in " << T.str();
  UIntImm *Node = new UIntImm;
  Node->NodeType = T;
  Node->Value = Value;
  return Node;
}

Expr FloatImm::make(Type T, double Value) {
  internal_assert(T.isFloat() && T.isScalar()) << "FloatImm of type "
                                               << T.str();
  FloatImm *Node = new FloatImm;
  Node->NodeType = T;
  Node->Value = Value;
  return Node;
}

Expr StringImm::make(const std::string &Value) {
  StringImm *Node = new StringImm;
  Node->NodeType = Handle();
  Node->Value = Value;
  return Node;
}

Expr Cast::make(Type T, Expr Value) {
  internal_assert(Value.defined()) << "Cast of undefined Expr";
  internal_assert(T.Lanes == Value.type().Lanes)
      << "Cast may not change lane count: " << T.str() << " from "
      << Value.type().str();
  Cast *Node = new Cast;
  Node->NodeType = T;
  Node->Value = Value;
  return Node;
}

Expr Variable::make(Type T, const std::string &Name, bool IsParam,
                    ParameterPtr Param) {
  internal_assert(!Name.empty()) << "Variable with empty name";
  Variable *Node = new Variable;
  Node->NodeType = T;
  Node->Name = Name;
  Node->IsParam = IsParam;
  Node->Param = std::move(Param);
  return Node;
}

Expr Variable::makeReduction(const std::string &Name, Expr Min,
                             Expr Extent) {
  internal_assert(!Name.empty() && Min.defined() && Extent.defined())
      << "reduction variable " << Name << " without a name or domain";
  Variable *Node = new Variable;
  Node->NodeType = Int(32);
  Node->Name = Name;
  Node->ReductionMin = std::move(Min);
  Node->ReductionExtent = std::move(Extent);
  return Node;
}

Expr Not::make(Expr A) {
  internal_assert(A.defined() && A.type().isBool()) << "Not of non-boolean";
  Not *Node = new Not;
  Node->NodeType = A.type();
  Node->A = A;
  return Node;
}

Expr Select::make(Expr Condition, Expr TrueValue, Expr FalseValue) {
  internal_assert(Condition.defined() && TrueValue.defined() &&
                  FalseValue.defined())
      << "Select with undefined operand";
  internal_assert(Condition.type().isBool()) << "Select condition not boolean";
  internal_assert(TrueValue.type() == FalseValue.type())
      << "Select branches of mismatched type";
  internal_assert(Condition.type().Lanes == TrueValue.type().Lanes)
      << "Select condition lane count mismatch";
  Select *Node = new Select;
  Node->NodeType = TrueValue.type();
  Node->Condition = Condition;
  Node->TrueValue = TrueValue;
  Node->FalseValue = FalseValue;
  return Node;
}

Expr Load::make(Type T, const std::string &Name, Expr Index) {
  internal_assert(Index.defined()) << "Load with undefined index";
  internal_assert(T.Lanes == Index.type().Lanes)
      << "Load lane count mismatch for " << Name;
  Load *Node = new Load;
  Node->NodeType = T;
  Node->Name = Name;
  Node->Index = Index;
  return Node;
}

Expr Ramp::make(Expr Base, Expr Stride, int Lanes) {
  internal_assert(Base.defined() && Stride.defined()) << "Ramp of undef";
  internal_assert(Base.type().isScalar() && Stride.type().isScalar())
      << "Ramp of vector base or stride";
  internal_assert(Base.type() == Stride.type())
      << "Ramp base/stride type mismatch";
  internal_assert(Lanes > 1) << "Ramp with fewer than 2 lanes";
  Ramp *Node = new Ramp;
  Node->NodeType = Base.type().withLanes(Lanes);
  Node->Base = Base;
  Node->Stride = Stride;
  Node->Lanes = Lanes;
  return Node;
}

Expr Broadcast::make(Expr Value, int Lanes) {
  internal_assert(Value.defined() && Value.type().isScalar())
      << "Broadcast of non-scalar";
  internal_assert(Lanes > 1) << "Broadcast with fewer than 2 lanes";
  Broadcast *Node = new Broadcast;
  Node->NodeType = Value.type().withLanes(Lanes);
  Node->Value = Value;
  Node->Lanes = Lanes;
  return Node;
}

const char *const Call::Instrument = "instrument";

Expr Call::make(Type T, const std::string &Name, std::vector<Expr> Args,
                CallType CallKind, FunctionPtr Callee, ParameterPtr Param) {
  internal_assert(!Callee.defined() || CallKind == CallType::Halide)
      << "only calls to stages hold a callee: " << Name;
  internal_assert(!Param.defined() || CallKind == CallType::Image)
      << "only image calls hold a parameter: " << Name;
  for (const Expr &Arg : Args)
    internal_assert(Arg.defined()) << "Call to " << Name << " with undef arg";
  if (CallKind == CallType::Halide || CallKind == CallType::Image) {
    for (const Expr &Arg : Args) {
      internal_assert(Arg.type().isInt() || Arg.type().isUInt())
          << "Coordinate argument of call to " << Name << " is not integer";
    }
  }
  Call *Node = new Call;
  Node->NodeType = T;
  Node->Name = Name;
  Node->Args = std::move(Args);
  Node->CallKind = CallKind;
  Node->Callee = std::move(Callee);
  Node->Param = std::move(Param);
  return Node;
}

Expr Let::make(const std::string &Name, Expr Value, Expr Body) {
  internal_assert(Value.defined() && Body.defined()) << "Let of undef";
  Let *Node = new Let;
  Node->NodeType = Body.type();
  Node->Name = Name;
  Node->Value = Value;
  Node->Body = Body;
  return Node;
}

Stmt LetStmt::make(const std::string &Name, Expr Value, Stmt Body) {
  internal_assert(Value.defined() && Body.defined()) << "LetStmt of undef";
  LetStmt *Node = new LetStmt;
  Node->Name = Name;
  Node->Value = Value;
  Node->Body = Body;
  return Node;
}

Stmt AssertStmt::make(Expr Condition, const std::string &Message) {
  internal_assert(Condition.defined()) << "AssertStmt of undef";
  AssertStmt *Node = new AssertStmt;
  Node->Condition = Condition;
  Node->Message = Message;
  return Node;
}

Stmt ProducerConsumer::make(const std::string &Name, bool IsProducer,
                            Stmt Body) {
  internal_assert(Body.defined()) << "ProducerConsumer of undef body";
  ProducerConsumer *Node = new ProducerConsumer;
  Node->Name = Name;
  Node->IsProducer = IsProducer;
  Node->Body = Body;
  return Node;
}

const char *halide::forTypeName(ForType T) {
  switch (T) {
  case ForType::Serial:
    return "for";
  case ForType::Parallel:
    return "parallel for";
  case ForType::Vectorized:
    return "vectorized for";
  case ForType::Unrolled:
    return "unrolled for";
  case ForType::GPUBlock:
    return "gpu_block for";
  case ForType::GPUThread:
    return "gpu_thread for";
  }
  internal_error << "unknown ForType";
  return "";
}

Stmt For::make(const std::string &Name, Expr MinExpr, Expr Extent,
               ForType Kind, Stmt Body) {
  internal_assert(MinExpr.defined() && Extent.defined() && Body.defined())
      << "For with undefined parts";
  internal_assert(MinExpr.type().isScalar() && Extent.type().isScalar())
      << "For with vector bounds";
  For *Node = new For;
  Node->Name = Name;
  Node->MinExpr = MinExpr;
  Node->Extent = Extent;
  Node->Kind = Kind;
  Node->Body = Body;
  return Node;
}

Stmt Store::make(const std::string &Name, Expr Value, Expr Index) {
  internal_assert(Value.defined() && Index.defined()) << "Store of undef";
  internal_assert(Value.type().Lanes == Index.type().Lanes)
      << "Store lane count mismatch for " << Name;
  Store *Node = new Store;
  Node->Name = Name;
  Node->Value = Value;
  Node->Index = Index;
  return Node;
}

Stmt Provide::make(const std::string &Name, Expr Value,
                   std::vector<Expr> Args) {
  internal_assert(Value.defined()) << "Provide of undef value";
  for (const Expr &Arg : Args)
    internal_assert(Arg.defined()) << "Provide with undef arg";
  Provide *Node = new Provide;
  Node->Name = Name;
  Node->Value = Value;
  Node->Args = std::move(Args);
  return Node;
}

Stmt Allocate::make(const std::string &Name, Type ElemType,
                    std::vector<Expr> Extents, Stmt Body) {
  internal_assert(Body.defined()) << "Allocate of undef body";
  for (const Expr &E : Extents)
    internal_assert(E.defined() && E.type().isScalar())
        << "Allocate with bad extent";
  Allocate *Node = new Allocate;
  Node->Name = Name;
  Node->ElemType = ElemType;
  Node->Extents = std::move(Extents);
  Node->Body = Body;
  return Node;
}

Stmt Realize::make(const std::string &Name, Type ElemType, Region Bounds,
                   Stmt Body) {
  internal_assert(Body.defined()) << "Realize of undef body";
  for (const Range &R : Bounds)
    internal_assert(R.Min.defined() && R.Extent.defined())
        << "Realize with undefined bounds";
  Realize *Node = new Realize;
  Node->Name = Name;
  Node->ElemType = ElemType;
  Node->Bounds = std::move(Bounds);
  Node->Body = Body;
  return Node;
}

Stmt Block::make(Stmt First, Stmt Rest) {
  internal_assert(First.defined() && Rest.defined()) << "Block of undef";
  Block *Node = new Block;
  Node->First = First;
  Node->Rest = Rest;
  return Node;
}

Stmt Block::make(const std::vector<Stmt> &Stmts) {
  internal_assert(!Stmts.empty()) << "Block of empty statement list";
  Stmt Result = Stmts.back();
  for (size_t I = Stmts.size() - 1; I-- > 0;)
    Result = Block::make(Stmts[I], Result);
  return Result;
}

Stmt IfThenElse::make(Expr Condition, Stmt ThenCase, Stmt ElseCase) {
  internal_assert(Condition.defined() && ThenCase.defined())
      << "IfThenElse of undef";
  IfThenElse *Node = new IfThenElse;
  Node->Condition = Condition;
  Node->ThenCase = ThenCase;
  Node->ElseCase = ElseCase;
  return Node;
}

Stmt Evaluate::make(Expr Value) {
  internal_assert(Value.defined()) << "Evaluate of undef";
  Evaluate *Node = new Evaluate;
  Node->Value = Value;
  return Node;
}

namespace halide {

template <typename DerivedT> void ExprNode<DerivedT>::accept(
    IRVisitor *Visitor) const {
  Visitor->visit(static_cast<const DerivedT *>(this));
}
template <typename DerivedT> void StmtNode<DerivedT>::accept(
    IRVisitor *Visitor) const {
  Visitor->visit(static_cast<const DerivedT *>(this));
}

// Anchor the accept methods here, one explicit instantiation per node type.
template struct ExprNode<IntImm>;
template struct ExprNode<UIntImm>;
template struct ExprNode<FloatImm>;
template struct ExprNode<StringImm>;
template struct ExprNode<Cast>;
template struct ExprNode<Variable>;
template struct ExprNode<Add>;
template struct ExprNode<Sub>;
template struct ExprNode<Mul>;
template struct ExprNode<Div>;
template struct ExprNode<Mod>;
template struct ExprNode<Min>;
template struct ExprNode<Max>;
template struct ExprNode<EQ>;
template struct ExprNode<NE>;
template struct ExprNode<LT>;
template struct ExprNode<LE>;
template struct ExprNode<GT>;
template struct ExprNode<GE>;
template struct ExprNode<And>;
template struct ExprNode<Or>;
template struct ExprNode<Not>;
template struct ExprNode<Select>;
template struct ExprNode<Load>;
template struct ExprNode<Ramp>;
template struct ExprNode<Broadcast>;
template struct ExprNode<Call>;
template struct ExprNode<Let>;
template struct StmtNode<LetStmt>;
template struct StmtNode<AssertStmt>;
template struct StmtNode<ProducerConsumer>;
template struct StmtNode<For>;
template struct StmtNode<Store>;
template struct StmtNode<Provide>;
template struct StmtNode<Allocate>;
template struct StmtNode<Realize>;
template struct StmtNode<Block>;
template struct StmtNode<IfThenElse>;
template struct StmtNode<Evaluate>;

} // namespace halide
