//===-- codegen/Interpreter.cpp --------------------------------------------------=//

#include "codegen/Interpreter.h"
#include "analysis/Scope.h"
#include "ir/IROperators.h"
#include "ir/IRPrinter.h"
#include "observe/Profiler.h"
#include "transforms/Instrument.h"

#include <cmath>
#include <cstring>

using namespace halide;

namespace {

/// A runtime value: one slot per vector lane. Integers (and booleans) live
/// in I with their type's wrapping applied; floats live in F.
struct Value {
  Type T;
  std::vector<int64_t> I;
  std::vector<double> F;

  int lanes() const { return T.Lanes; }
  bool isFloat() const { return T.isFloat(); }

  static Value intVal(Type T, int64_t V) {
    Value Result;
    Result.T = T;
    Result.I.assign(size_t(T.Lanes), wrapToType(V, T.element()));
    return Result;
  }
  static Value floatVal(Type T, double V) {
    Value Result;
    Result.T = T;
    Result.F.assign(size_t(T.Lanes), V);
    return Result;
  }

  int64_t scalarInt() const {
    internal_assert(T.isScalar() && !isFloat());
    return I[0];
  }
};

/// An executable buffer: pipeline boundary buffers alias caller storage;
/// internal allocations own their storage.
struct BufferSlot {
  void *Data = nullptr;
  Type ElemType;
  int64_t SizeElems = 0; // for bounds checking; 0 = unknown (skip check)
  bool Owned = false;
};

class Interp {
public:
  Interp(const LoweredPipeline &P, const ParamBindings &Params)
      : P(P), Params(Params) {}

  ExecutionStats run() {
    // Bind boundary buffers.
    for (const BufferArg &Arg : P.Buffers) {
      const RawBuffer &Raw = Params.buffer(Arg.Name);
      BufferSlot Slot;
      Slot.SizeElems = checkBoundaryBuffer(Arg.Name, Raw, Arg.ElemType);
      Slot.Data = Raw.Host;
      Slot.ElemType = Raw.ElemType;
      Buffers.push(Arg.Name, Slot);
    }
    exec(P.Body);
    return Stats;
  }

private:
  //===------------------------------------------------------------------===//
  // Expression evaluation
  //===------------------------------------------------------------------===//

  Value eval(const Expr &E) {
    switch (E->Kind) {
    case IRNodeKind::IntImm:
      return Value::intVal(E.type(), E.as<IntImm>()->Value);
    case IRNodeKind::UIntImm:
      return Value::intVal(E.type(), int64_t(E.as<UIntImm>()->Value));
    case IRNodeKind::FloatImm:
      return Value::floatVal(E.type(), E.as<FloatImm>()->Value);
    case IRNodeKind::StringImm:
      internal_error << "cannot evaluate string immediate";
      return Value();
    case IRNodeKind::Cast:
      return evalCast(E.as<Cast>());
    case IRNodeKind::Variable:
      return evalVariable(E.as<Variable>());
    case IRNodeKind::Add:
      return evalBinary(E.as<Add>()->A, E.as<Add>()->B, OpKind::Add);
    case IRNodeKind::Sub:
      return evalBinary(E.as<Sub>()->A, E.as<Sub>()->B, OpKind::Sub);
    case IRNodeKind::Mul:
      return evalBinary(E.as<Mul>()->A, E.as<Mul>()->B, OpKind::Mul);
    case IRNodeKind::Div:
      return evalBinary(E.as<Div>()->A, E.as<Div>()->B, OpKind::Div);
    case IRNodeKind::Mod:
      return evalBinary(E.as<Mod>()->A, E.as<Mod>()->B, OpKind::Mod);
    case IRNodeKind::Min:
      return evalBinary(E.as<Min>()->A, E.as<Min>()->B, OpKind::Min);
    case IRNodeKind::Max:
      return evalBinary(E.as<Max>()->A, E.as<Max>()->B, OpKind::Max);
    case IRNodeKind::EQ:
      return evalCompare(E.as<EQ>()->A, E.as<EQ>()->B, OpKind::EQ);
    case IRNodeKind::NE:
      return evalCompare(E.as<NE>()->A, E.as<NE>()->B, OpKind::NE);
    case IRNodeKind::LT:
      return evalCompare(E.as<LT>()->A, E.as<LT>()->B, OpKind::LT);
    case IRNodeKind::LE:
      return evalCompare(E.as<LE>()->A, E.as<LE>()->B, OpKind::LE);
    case IRNodeKind::GT:
      return evalCompare(E.as<GT>()->A, E.as<GT>()->B, OpKind::GT);
    case IRNodeKind::GE:
      return evalCompare(E.as<GE>()->A, E.as<GE>()->B, OpKind::GE);
    case IRNodeKind::And:
      return evalCompare(E.as<And>()->A, E.as<And>()->B, OpKind::And);
    case IRNodeKind::Or:
      return evalCompare(E.as<Or>()->A, E.as<Or>()->B, OpKind::Or);
    case IRNodeKind::Not: {
      Value A = eval(E.as<Not>()->A);
      for (int64_t &L : A.I)
        L = !L;
      return A;
    }
    case IRNodeKind::Select:
      return evalSelect(E.as<Select>());
    case IRNodeKind::Load:
      return evalLoad(E.as<Load>());
    case IRNodeKind::Ramp:
      return evalRamp(E.as<Ramp>());
    case IRNodeKind::Broadcast:
      return evalBroadcast(E.as<Broadcast>());
    case IRNodeKind::Call:
      return evalCall(E.as<Call>());
    case IRNodeKind::Let: {
      const Let *L = E.as<Let>();
      ScopedBinding<Value> Bind(Vars, L->Name, eval(L->Value));
      return eval(L->Body);
    }
    default:
      internal_error << "interpreter: statement kind in expression position";
      return Value();
    }
  }

  enum class OpKind { Add, Sub, Mul, Div, Mod, Min, Max, EQ, NE, LT, LE,
                      GT, GE, And, Or };

  Value evalBinary(const Expr &AE, const Expr &BE, OpKind Op) {
    Value A = eval(AE), B = eval(BE);
    internal_assert(A.T == B.T) << "interpreter: binary type mismatch";
    Value R;
    R.T = A.T;
    if (A.isFloat()) {
      R.F.resize(A.F.size());
      for (size_t L = 0; L < A.F.size(); ++L) {
        double X = A.F[L], Y = B.F[L];
        double Z = 0;
        switch (Op) {
        case OpKind::Add:
          Z = X + Y;
          break;
        case OpKind::Sub:
          Z = X - Y;
          break;
        case OpKind::Mul:
          Z = X * Y;
          break;
        case OpKind::Div:
          Z = X / Y;
          break;
        case OpKind::Mod:
          Z = X - std::floor(X / Y) * Y;
          break;
        case OpKind::Min:
          Z = X < Y ? X : Y;
          break;
        case OpKind::Max:
          Z = X > Y ? X : Y;
          break;
        default:
          internal_error << "float compare routed to evalBinary";
        }
        // Arithmetic on Float(32) rounds through single precision, matching
        // compiled code.
        R.F[L] = A.T.Bits == 32 ? double(float(Z)) : Z;
      }
      return R;
    }
    R.I.resize(A.I.size());
    Type Elem = A.T.element();
    for (size_t L = 0; L < A.I.size(); ++L) {
      int64_t X = A.I[L], Y = B.I[L];
      int64_t Z = 0;
      switch (Op) {
      case OpKind::Add:
        Z = X + Y;
        break;
      case OpKind::Sub:
        Z = X - Y;
        break;
      case OpKind::Mul:
        Z = X * Y;
        break;
      case OpKind::Div:
        Z = Elem.isUInt() ? (Y == 0 ? 0 : int64_t(uint64_t(X) / uint64_t(Y)))
                          : floorDiv(X, Y);
        break;
      case OpKind::Mod:
        Z = Elem.isUInt() ? (Y == 0 ? 0 : int64_t(uint64_t(X) % uint64_t(Y)))
                          : floorMod(X, Y);
        break;
      case OpKind::Min:
        Z = Elem.isUInt() ? int64_t(std::min(uint64_t(X), uint64_t(Y)))
                          : std::min(X, Y);
        break;
      case OpKind::Max:
        Z = Elem.isUInt() ? int64_t(std::max(uint64_t(X), uint64_t(Y)))
                          : std::max(X, Y);
        break;
      default:
        internal_error << "compare routed to evalBinary";
      }
      R.I[L] = wrapToType(Z, Elem);
    }
    return R;
  }

  Value evalCompare(const Expr &AE, const Expr &BE, OpKind Op) {
    Value A = eval(AE), B = eval(BE);
    Value R;
    R.T = Bool(A.T.Lanes);
    size_t N = A.isFloat() ? A.F.size() : A.I.size();
    R.I.resize(N);
    for (size_t L = 0; L < N; ++L) {
      bool Z = false;
      if (A.isFloat()) {
        double X = A.F[L], Y = B.F[L];
        switch (Op) {
        case OpKind::EQ:
          Z = X == Y;
          break;
        case OpKind::NE:
          Z = X != Y;
          break;
        case OpKind::LT:
          Z = X < Y;
          break;
        case OpKind::LE:
          Z = X <= Y;
          break;
        case OpKind::GT:
          Z = X > Y;
          break;
        case OpKind::GE:
          Z = X >= Y;
          break;
        default:
          internal_error << "non-compare in evalCompare";
        }
      } else {
        bool IsUnsigned = A.T.isUInt() && !A.T.isBool();
        int64_t X = A.I[L], Y = B.I[L];
        switch (Op) {
        case OpKind::EQ:
          Z = X == Y;
          break;
        case OpKind::NE:
          Z = X != Y;
          break;
        case OpKind::LT:
          Z = IsUnsigned ? uint64_t(X) < uint64_t(Y) : X < Y;
          break;
        case OpKind::LE:
          Z = IsUnsigned ? uint64_t(X) <= uint64_t(Y) : X <= Y;
          break;
        case OpKind::GT:
          Z = IsUnsigned ? uint64_t(X) > uint64_t(Y) : X > Y;
          break;
        case OpKind::GE:
          Z = IsUnsigned ? uint64_t(X) >= uint64_t(Y) : X >= Y;
          break;
        case OpKind::And:
          Z = X && Y;
          break;
        case OpKind::Or:
          Z = X || Y;
          break;
        default:
          internal_error << "non-compare in evalCompare";
        }
      }
      R.I[L] = Z ? 1 : 0;
    }
    return R;
  }

  Value evalCast(const Cast *Op) {
    Value A = eval(Op->Value);
    Type To = Op->NodeType;
    Value R;
    R.T = To;
    int N = To.Lanes;
    if (To.isFloat()) {
      R.F.resize(size_t(N));
      for (int L = 0; L < N; ++L) {
        double V = A.isFloat() ? A.F[size_t(L)]
                   : A.T.isUInt() ? double(uint64_t(A.I[size_t(L)]))
                                  : double(A.I[size_t(L)]);
        R.F[size_t(L)] = To.Bits == 32 ? double(float(V)) : V;
      }
      return R;
    }
    R.I.resize(size_t(N));
    for (int L = 0; L < N; ++L) {
      int64_t V;
      if (A.isFloat())
        V = int64_t(A.F[size_t(L)]); // C truncation semantics
      else
        V = A.I[size_t(L)];
      R.I[size_t(L)] = wrapToType(V, To.element());
    }
    return R;
  }

  Value evalVariable(const Variable *Op) {
    if (Vars.contains(Op->Name))
      return Vars.get(Op->Name);
    double FloatScalar = 0;
    if (Op->NodeType.isFloat() && Params.lookupFloat(Op->Name, &FloatScalar))
      return Value::floatVal(Op->NodeType, FloatScalar);
    int64_t IntScalar = 0;
    if (!Op->NodeType.isFloat() && Params.lookupInt(Op->Name, &IntScalar))
      return Value::intVal(Op->NodeType, IntScalar);
    internal_error << "interpreter: unbound variable " << Op->Name;
    return Value();
  }

  Value evalSelect(const Select *Op) {
    Value C = eval(Op->Condition);
    Value T = eval(Op->TrueValue);
    Value F = eval(Op->FalseValue);
    Value R;
    R.T = T.T;
    if (T.isFloat()) {
      R.F.resize(T.F.size());
      for (size_t L = 0; L < T.F.size(); ++L)
        R.F[L] = C.I[L] ? T.F[L] : F.F[L];
    } else {
      R.I.resize(T.I.size());
      for (size_t L = 0; L < T.I.size(); ++L)
        R.I[L] = C.I[L] ? T.I[L] : F.I[L];
    }
    return R;
  }

  Value evalRamp(const Ramp *Op) {
    Value Base = eval(Op->Base);
    Value Stride = eval(Op->Stride);
    Value R;
    R.T = Op->NodeType;
    R.I.resize(size_t(Op->Lanes));
    for (int L = 0; L < Op->Lanes; ++L)
      R.I[size_t(L)] =
          wrapToType(Base.I[0] + int64_t(L) * Stride.I[0], R.T.element());
    return R;
  }

  Value evalBroadcast(const Broadcast *Op) {
    Value V = eval(Op->Value);
    Value R;
    R.T = Op->NodeType;
    if (V.isFloat())
      R.F.assign(size_t(Op->Lanes), V.F[0]);
    else
      R.I.assign(size_t(Op->Lanes), V.I[0]);
    return R;
  }

  Value evalCall(const Call *Op) {
    if (Op->CallKind == CallType::Intrinsic) {
      if (Op->Name == Call::Instrument)
        return evalInstrument(Op);
      internal_error << "interpreter: unknown intrinsic " << Op->Name;
    }
    internal_assert(Op->CallKind == CallType::PureExtern)
        << "interpreter: unlowered call to " << Op->Name;
    std::vector<Value> Args;
    Args.reserve(Op->Args.size());
    for (const Expr &Arg : Op->Args)
      Args.push_back(eval(Arg));
    Value R;
    R.T = Op->NodeType;
    int N = R.T.Lanes;
    R.F.resize(size_t(N));
    bool Single = R.T.element().Bits == 32;
    auto Arg0 = [&](int L) { return Args[0].F[size_t(L)]; };
    for (int L = 0; L < N; ++L) {
      double V = 0;
      // Compute through the same precision path as the compiled code.
      if (Op->Name == "sqrt")
        V = Single ? std::sqrt(float(Arg0(L))) : std::sqrt(Arg0(L));
      else if (Op->Name == "sin")
        V = Single ? std::sin(float(Arg0(L))) : std::sin(Arg0(L));
      else if (Op->Name == "cos")
        V = Single ? std::cos(float(Arg0(L))) : std::cos(Arg0(L));
      else if (Op->Name == "exp")
        V = Single ? std::exp(float(Arg0(L))) : std::exp(Arg0(L));
      else if (Op->Name == "log")
        V = Single ? std::log(float(Arg0(L))) : std::log(Arg0(L));
      else if (Op->Name == "floor")
        V = std::floor(Arg0(L));
      else if (Op->Name == "ceil")
        V = std::ceil(Arg0(L));
      else if (Op->Name == "round")
        V = std::nearbyint(Arg0(L));
      else if (Op->Name == "pow")
        V = Single ? std::pow(float(Arg0(L)), float(Args[1].F[size_t(L)]))
                   : std::pow(Arg0(L), Args[1].F[size_t(L)]);
      else
        internal_error << "interpreter: unknown extern " << Op->Name;
      R.F[size_t(L)] = Single ? double(float(V)) : V;
    }
    return R;
  }

  /// The one handler for Call::Instrument (transforms/Instrument.h). The
  /// reference path re-interns the stage name per event; the VM and the
  /// JIT resolve ids at compile time.
  Value evalInstrument(const Call *Op) {
    const TraceEventKind Kind = instrumentKind(Op);
    const std::string &Stage = instrumentStage(Op);
    if (Kind == TraceEventKind::TraceLoad) {
      // The index is evaluated once and shared by the load and the event.
      const Load *L = Op->Args.at(2).as<Load>();
      internal_assert(L) << "malformed traced load of " << Stage;
      Value Index = eval(L->Index);
      Value R = evalLoadWithIndex(L, Index);
      emitAccessEvent(Kind, Stage, R, Index);
      return R;
    }
    if (Kind == TraceEventKind::TraceStore) {
      // Same evaluation order as an untraced Store: value, then index.
      Value V = eval(Op->Args.at(2));
      Value Index = eval(Op->Args.at(3));
      doStore(Stage, V, Index);
      emitAccessEvent(Kind, Stage, V, Index);
      return Value::intVal(Int(32), 0);
    }
    std::vector<int32_t> Extents; // TraceBegin's or ProfAlloc's payload
    for (size_t I = 2; I < Op->Args.size(); ++I)
      Extents.push_back(int32_t(eval(Op->Args[I]).scalarInt()));
    observeEvent(Kind, profilerStageId(Stage), 0, 0, Extents.data(),
                 int(Extents.size()), nullptr);
    return Value::intVal(Int(32), 0);
  }

  //===------------------------------------------------------------------===//
  // Memory access
  //===------------------------------------------------------------------===//

  Value evalLoad(const Load *Op) {
    Value Index = eval(Op->Index);
    return evalLoadWithIndex(Op, Index);
  }

  Value evalLoadWithIndex(const Load *Op, const Value &Index) {
    const BufferSlot &Slot = Buffers.get(Op->Name);
    Value R;
    R.T = Op->NodeType;
    int N = R.T.Lanes;
    Stats.LoadsPerBuffer[Op->Name] += N;
    if (R.T.isFloat())
      R.F.resize(size_t(N));
    else
      R.I.resize(size_t(N));
    for (int L = 0; L < N; ++L) {
      int64_t Idx = Index.I[size_t(L)];
      checkBounds(Op->Name, Slot, Idx);
      loadElem(Slot, Idx, R, L);
    }
    return R;
  }

  void loadElem(const BufferSlot &Slot, int64_t Idx, Value &R, int L) {
    const void *Base = Slot.Data;
    Type T = Slot.ElemType;
    switch (T.Bits) {
    case 1:
    case 8:
      if (T.isUInt())
        R.I[size_t(L)] = static_cast<const uint8_t *>(Base)[Idx];
      else
        R.I[size_t(L)] = static_cast<const int8_t *>(Base)[Idx];
      return;
    case 16:
      if (T.isUInt())
        R.I[size_t(L)] = static_cast<const uint16_t *>(Base)[Idx];
      else
        R.I[size_t(L)] = static_cast<const int16_t *>(Base)[Idx];
      return;
    case 32:
      if (T.isFloat())
        R.F[size_t(L)] = double(static_cast<const float *>(Base)[Idx]);
      else if (T.isUInt())
        R.I[size_t(L)] = static_cast<const uint32_t *>(Base)[Idx];
      else
        R.I[size_t(L)] = static_cast<const int32_t *>(Base)[Idx];
      return;
    case 64:
      if (T.isFloat())
        R.F[size_t(L)] = static_cast<const double *>(Base)[Idx];
      else
        R.I[size_t(L)] = static_cast<const int64_t *>(Base)[Idx];
      return;
    default:
      internal_error << "interpreter: unsupported element width " << T.Bits;
    }
  }

  void storeElem(const BufferSlot &Slot, int64_t Idx, const Value &V,
                 int L) {
    void *Base = Slot.Data;
    Type T = Slot.ElemType;
    switch (T.Bits) {
    case 1:
    case 8:
      static_cast<uint8_t *>(Base)[Idx] = uint8_t(V.I[size_t(L)]);
      return;
    case 16:
      static_cast<uint16_t *>(Base)[Idx] = uint16_t(V.I[size_t(L)]);
      return;
    case 32:
      if (T.isFloat())
        static_cast<float *>(Base)[Idx] = float(V.F[size_t(L)]);
      else
        static_cast<uint32_t *>(Base)[Idx] = uint32_t(V.I[size_t(L)]);
      return;
    case 64:
      if (T.isFloat())
        static_cast<double *>(Base)[Idx] = V.F[size_t(L)];
      else
        static_cast<uint64_t *>(Base)[Idx] = uint64_t(V.I[size_t(L)]);
      return;
    default:
      internal_error << "interpreter: unsupported element width " << T.Bits;
    }
  }

  void checkBounds(const std::string &Name, const BufferSlot &Slot,
                   int64_t Idx) {
    internal_assert(Idx >= 0 && (Slot.SizeElems == 0 || Idx < Slot.SizeElems))
        << "interpreter: access to " << Name << " at flat index " << Idx
        << " outside [0, " << Slot.SizeElems << ")";
  }

  /// The store path shared by Store statements and traced stores (value
  /// and index already evaluated, in that order).
  void doStore(const std::string &Name, const Value &V, const Value &Index) {
    const BufferSlot &Slot = Buffers.get(Name);
    int N = V.T.Lanes;
    Stats.StoresPerBuffer[Name] += N;
    for (int L = 0; L < N; ++L) {
      int64_t Idx = Index.I[size_t(L)];
      checkBounds(Name, Slot, Idx);
      storeElem(Slot, Idx, V, L);
    }
  }

  /// Emits one load/store trace event: one flat coordinate and one
  /// normalized value word per lane (see TraceStream.h).
  void emitAccessEvent(TraceEventKind Kind, const std::string &Buf,
                       const Value &V, const Value &Index) {
    if (!traceStreamActive())
      return;
    int N = V.T.Lanes;
    std::vector<int32_t> Coords(size_t(N), 0);
    std::vector<uint64_t> Bits(size_t(N), 0);
    for (int L = 0; L < N; ++L) {
      Coords[size_t(L)] = int32_t(Index.I[size_t(L)]);
      Bits[size_t(L)] = V.isFloat() ? traceBitsOfDouble(V.F[size_t(L)])
                                    : traceBitsOfInt(V.I[size_t(L)]);
    }
    observeEvent(Kind, profilerStageId(Buf), traceTypeCode(V.T), N,
                 Coords.data(), N, Bits.data());
  }

  //===------------------------------------------------------------------===//
  // Statement execution
  //===------------------------------------------------------------------===//

  void exec(const Stmt &S) {
    switch (S->Kind) {
    case IRNodeKind::LetStmt: {
      const LetStmt *Op = S.as<LetStmt>();
      ScopedBinding<Value> Bind(Vars, Op->Name, eval(Op->Value));
      exec(Op->Body);
      return;
    }
    case IRNodeKind::AssertStmt: {
      const AssertStmt *Op = S.as<AssertStmt>();
      Value C = eval(Op->Condition);
      user_assert(C.I[0]) << "pipeline assertion failed: " << Op->Message;
      return;
    }
    case IRNodeKind::ProducerConsumer:
      exec(S.as<ProducerConsumer>()->Body);
      return;
    case IRNodeKind::For:
      execFor(S.as<For>());
      return;
    case IRNodeKind::Store: {
      const Store *Op = S.as<Store>();
      Value V = eval(Op->Value);
      Value Index = eval(Op->Index);
      doStore(Op->Name, V, Index);
      return;
    }
    case IRNodeKind::Allocate:
      execAllocate(S.as<Allocate>());
      return;
    case IRNodeKind::Block:
      exec(S.as<Block>()->First);
      exec(S.as<Block>()->Rest);
      return;
    case IRNodeKind::IfThenElse: {
      const IfThenElse *Op = S.as<IfThenElse>();
      Value C = eval(Op->Condition);
      if (C.I[0])
        exec(Op->ThenCase);
      else if (Op->ElseCase.defined())
        exec(Op->ElseCase);
      return;
    }
    case IRNodeKind::Evaluate:
      eval(S.as<Evaluate>()->Value);
      return;
    case IRNodeKind::Provide:
    case IRNodeKind::Realize:
      internal_error << "interpreter: unflattened "
                     << (S->Kind == IRNodeKind::Provide ? "Provide"
                                                        : "Realize");
      return;
    default:
      internal_error << "interpreter: expression kind in statement position";
    }
  }

  void execFor(const For *Op) {
    Value MinV = eval(Op->MinExpr);
    Value ExtentV = eval(Op->Extent);
    int64_t Min = MinV.scalarInt();
    int64_t Extent = ExtentV.scalarInt();
    internal_assert(Op->Kind != ForType::Vectorized &&
                    Op->Kind != ForType::Unrolled)
        << "interpreter: unlowered " << forTypeName(Op->Kind) << " loop";
    if (isParallelForType(Op->Kind))
      Stats.ParallelIterations += Extent;
    for (int64_t I = 0; I < Extent; ++I) {
      ScopedBinding<Value> Bind(Vars, Op->Name,
                                Value::intVal(Int(32), Min + I));
      exec(Op->Body);
    }
  }

  void execAllocate(const Allocate *Op) {
    int64_t Elems = 1;
    for (const Expr &E : Op->Extents)
      Elems *= eval(E).scalarInt();
    internal_assert(Elems >= 0) << "negative allocation size for "
                                << Op->Name;
    int64_t Bytes = Elems * Op->ElemType.bytes();
    BufferSlot Slot;
    Slot.Data = halideMalloc(Bytes);
    internal_assert(Slot.Data) << "allocation of " << Bytes
                               << " bytes failed for " << Op->Name;
    Slot.ElemType = Op->ElemType;
    Slot.SizeElems = Elems;
    Slot.Owned = true;
    Stats.noteAllocation(Bytes);
    Buffers.push(Op->Name, Slot);
    exec(Op->Body);
    Buffers.pop(Op->Name);
    Stats.noteFree(Bytes);
    halideFree(Slot.Data);
  }

  const LoweredPipeline &P;
  const ParamBindings &Params;
  Scope<Value> Vars;
  Scope<BufferSlot> Buffers;
  ExecutionStats Stats;
};

} // namespace

ExecutionStats halide::interpret(const LoweredPipeline &P,
                                 const ParamBindings &Params) {
  Interp I(P, Params);
  return I.run();
}
