//===-- vm/VmCompiler.cpp -------------------------------------------------===//

#include "vm/VmCompiler.h"

#include "analysis/Scope.h"
#include "ir/Expr.h"
#include "ir/IROperators.h"
#include "transforms/Instrument.h"

#include <map>

using namespace halide;

namespace {

class Compiler {
public:
  explicit Compiler(const LoweredPipeline &P) : P(P) {}

  VmProgram compile() {
    // Boundary buffers occupy the first buffer-table slots; internal
    // Allocate sites are appended as they are encountered.
    for (const BufferArg &Arg : P.Buffers) {
      VmBufferDesc Desc;
      Desc.Name = Arg.Name;
      Desc.ElemType = Arg.ElemType;
      Desc.IsBoundary = true;
      Desc.IsOutput = Arg.IsOutput;
      BufScope.push(Arg.Name, int32_t(Prog.Buffers.size()));
      Prog.Buffers.push_back(std::move(Desc));
    }
    compileStmt(P.Body);
    emit({VmOp::Halt, 0, 0, 1, 0, 0, 0, 0, 0});
    Prog.InitialRegs.assign(size_t(RegCount), VmSlot{0});
    for (const auto &[Slot, Value] : ConstInits)
      Prog.InitialRegs[Slot] = Value;
    return std::move(Prog);
  }

private:
  //===------------------------------------------------------------------===//
  // Registers and emission
  //===------------------------------------------------------------------===//

  uint32_t allocReg(int Lanes) {
    uint32_t Slot = RegCount;
    RegCount += uint32_t(Lanes);
    return Slot;
  }

  size_t emit(VmInstr In) {
    Prog.Code.push_back(In);
    return Prog.Code.size() - 1;
  }

  /// Index of \p Name in the program's stage-name pool (appending it on
  /// first use). Every event of one stage or buffer shares an entry.
  int32_t internStageName(const std::string &Name) {
    for (size_t I = 0; I < Prog.StageNames.size(); ++I)
      if (Prog.StageNames[I] == Name)
        return int32_t(I);
    Prog.StageNames.push_back(Name);
    return int32_t(Prog.StageNames.size() - 1);
  }

  /// A register pre-loaded with a scalar integer constant (deduplicated).
  uint32_t constInt(int64_t Value) {
    auto It = IntConsts.find(Value);
    if (It != IntConsts.end())
      return It->second;
    uint32_t Slot = allocReg(1);
    VmSlot S;
    S.I = Value;
    ConstInits.emplace_back(Slot, S);
    IntConsts[Value] = Slot;
    return Slot;
  }

  /// A register pre-loaded with a scalar double constant (deduplicated by
  /// bit pattern so -0.0 and 0.0 stay distinct).
  uint32_t constFloat(double Value) {
    VmSlot S;
    S.F = Value;
    auto It = FloatConsts.find(S.I);
    if (It != FloatConsts.end())
      return It->second;
    uint32_t Slot = allocReg(1);
    ConstInits.emplace_back(Slot, S);
    FloatConsts[S.I] = Slot;
    return Slot;
  }

  /// The register holding the scalar parameter \p Name, creating its
  /// per-run initialization record on first use.
  uint32_t paramReg(const std::string &Name, Type T) {
    auto It = ParamSlots.find(Name);
    if (It != ParamSlots.end())
      return It->second;
    VmParamInit Init;
    Init.Name = Name;
    Init.Slot = allocReg(1);
    Init.IsFloat = T.isFloat();
    Init.Bits = uint8_t(T.Bits);
    Init.SignedWrap = T.isInt();
    Prog.Params.push_back(Init);
    ParamSlots[Name] = Init.Slot;
    return Init.Slot;
  }

  /// Fills the shared layout of an elementwise instruction.
  VmInstr elemwise(VmOp Op, Type T, uint32_t Dst, uint32_t A, uint32_t B = 0,
                   uint32_t C = 0) {
    VmInstr In;
    In.Op = Op;
    In.Bits = uint8_t(T.Bits);
    In.SignedWrap = T.isInt();
    In.Lanes = uint16_t(T.Lanes);
    In.Dst = Dst;
    In.A = A;
    In.B = B;
    In.C = C;
    return In;
  }

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  uint32_t compileExpr(const Expr &E) {
    switch (E->Kind) {
    case IRNodeKind::IntImm:
      return constInt(wrapToType(E.as<IntImm>()->Value, E.type().element()));
    case IRNodeKind::UIntImm:
      return constInt(
          wrapToType(int64_t(E.as<UIntImm>()->Value), E.type().element()));
    case IRNodeKind::FloatImm:
      return constFloat(E.as<FloatImm>()->Value);
    case IRNodeKind::StringImm:
      internal_error << "vm: cannot evaluate string immediate";
      return 0;
    case IRNodeKind::Cast:
      return compileCast(E.as<Cast>());
    case IRNodeKind::Variable: {
      const Variable *Op = E.as<Variable>();
      if (Vars.contains(Op->Name))
        return Vars.get(Op->Name);
      return paramReg(Op->Name, Op->NodeType);
    }
    case IRNodeKind::Add:
      return compileBinary(E, E.as<Add>()->A, E.as<Add>()->B, VmOp::AddI,
                           VmOp::AddI, VmOp::AddF);
    case IRNodeKind::Sub:
      return compileBinary(E, E.as<Sub>()->A, E.as<Sub>()->B, VmOp::SubI,
                           VmOp::SubI, VmOp::SubF);
    case IRNodeKind::Mul:
      return compileBinary(E, E.as<Mul>()->A, E.as<Mul>()->B, VmOp::MulI,
                           VmOp::MulI, VmOp::MulF);
    case IRNodeKind::Div:
      return compileBinary(E, E.as<Div>()->A, E.as<Div>()->B, VmOp::DivI,
                           VmOp::DivU, VmOp::DivF);
    case IRNodeKind::Mod:
      return compileBinary(E, E.as<Mod>()->A, E.as<Mod>()->B, VmOp::ModI,
                           VmOp::ModU, VmOp::ModF);
    case IRNodeKind::Min:
      return compileBinary(E, E.as<Min>()->A, E.as<Min>()->B, VmOp::MinI,
                           VmOp::MinU, VmOp::MinF);
    case IRNodeKind::Max:
      return compileBinary(E, E.as<Max>()->A, E.as<Max>()->B, VmOp::MaxI,
                           VmOp::MaxU, VmOp::MaxF);
    case IRNodeKind::EQ:
      return compileCompare(E, E.as<EQ>()->A, E.as<EQ>()->B, VmOp::EqI,
                            VmOp::EqI, VmOp::EqF);
    case IRNodeKind::NE:
      return compileCompare(E, E.as<NE>()->A, E.as<NE>()->B, VmOp::NeI,
                            VmOp::NeI, VmOp::NeF);
    case IRNodeKind::LT:
      return compileCompare(E, E.as<LT>()->A, E.as<LT>()->B, VmOp::LtI,
                            VmOp::LtU, VmOp::LtF);
    case IRNodeKind::LE:
      return compileCompare(E, E.as<LE>()->A, E.as<LE>()->B, VmOp::LeI,
                            VmOp::LeU, VmOp::LeF);
    case IRNodeKind::GT:
      // a > b compiles as b < a (and likewise for >=) — same operand
      // ordering trick keeps the opcode count down.
      return compileCompare(E, E.as<GT>()->B, E.as<GT>()->A, VmOp::LtI,
                            VmOp::LtU, VmOp::LtF);
    case IRNodeKind::GE:
      return compileCompare(E, E.as<GE>()->B, E.as<GE>()->A, VmOp::LeI,
                            VmOp::LeU, VmOp::LeF);
    case IRNodeKind::And:
      return compileCompare(E, E.as<And>()->A, E.as<And>()->B, VmOp::AndB,
                            VmOp::AndB, VmOp::AndB);
    case IRNodeKind::Or:
      return compileCompare(E, E.as<Or>()->A, E.as<Or>()->B, VmOp::OrB,
                            VmOp::OrB, VmOp::OrB);
    case IRNodeKind::Not: {
      uint32_t A = compileExpr(E.as<Not>()->A);
      uint32_t Dst = allocReg(E.type().Lanes);
      emit(elemwise(VmOp::NotB, E.type(), Dst, A));
      return Dst;
    }
    case IRNodeKind::Select:
      return compileSelect(E.as<Select>());
    case IRNodeKind::Load: {
      const Load *Op = E.as<Load>();
      return compileAccess(Op->Name, Op->NodeType, Op->Index, nullptr).Dst;
    }
    case IRNodeKind::Ramp: {
      const Ramp *Op = E.as<Ramp>();
      uint32_t Base = compileExpr(Op->Base);
      uint32_t Stride = compileExpr(Op->Stride);
      uint32_t Dst = allocReg(Op->Lanes);
      emit(elemwise(VmOp::Ramp, E.type(), Dst, Base, Stride));
      return Dst;
    }
    case IRNodeKind::Broadcast: {
      const Broadcast *Op = E.as<Broadcast>();
      uint32_t A = compileExpr(Op->Value);
      uint32_t Dst = allocReg(Op->Lanes);
      emit(elemwise(VmOp::BroadcastSlot, E.type(), Dst, A));
      return Dst;
    }
    case IRNodeKind::Call:
      return compileCall(E.as<Call>());
    case IRNodeKind::Let: {
      const Let *Op = E.as<Let>();
      uint32_t Val = compileExpr(Op->Value);
      ScopedBinding<uint32_t> Bind(Vars, Op->Name, Val);
      return compileExpr(Op->Body);
    }
    default:
      internal_error << "vm: statement kind in expression position";
      return 0;
    }
  }

  uint32_t compileBinary(const Expr &E, const Expr &AE, const Expr &BE,
                         VmOp IntOp, VmOp UIntOp, VmOp FloatOp) {
    Type T = E.type();
    uint32_t A = compileExpr(AE);
    uint32_t B = compileExpr(BE);
    uint32_t Dst = allocReg(T.Lanes);
    Type OpT = AE.type();
    VmOp Op = OpT.isFloat() ? FloatOp
              : OpT.isUInt() && !OpT.isBool() ? UIntOp
                                              : IntOp;
    emit(elemwise(Op, OpT, Dst, A, B));
    return Dst;
  }

  uint32_t compileCompare(const Expr &E, const Expr &AE, const Expr &BE,
                          VmOp IntOp, VmOp UIntOp, VmOp FloatOp) {
    // Same emission as compileBinary but the operand type (not the bool
    // result type) picks the opcode, and the result never wraps.
    return compileBinary(E, AE, BE, IntOp, UIntOp, FloatOp);
  }

  uint32_t compileCast(const Cast *Op) {
    Type To = Op->NodeType;
    Type From = Op->Value.type();
    uint32_t A = compileExpr(Op->Value);
    uint32_t Dst = allocReg(To.Lanes);
    VmOp O;
    if (To.isFloat())
      O = From.isFloat()  ? VmOp::CastFToF
          : From.isUInt() ? VmOp::CastUIntToF
                          : VmOp::CastIntToF;
    else
      O = From.isFloat() ? VmOp::CastFToInt : VmOp::CastIntWrap;
    emit(elemwise(O, To, Dst, A));
    return Dst;
  }

  uint32_t compileSelect(const Select *Op) {
    uint32_t C = compileExpr(Op->Condition);
    uint32_t A = compileExpr(Op->TrueValue);
    uint32_t B = compileExpr(Op->FalseValue);
    Type T = Op->NodeType;
    uint32_t Dst = allocReg(T.Lanes);
    emit(elemwise(VmOp::Select, T, Dst, A, B, C));
    return Dst;
  }

  /// An Event instruction of \p Kind for stage or buffer \p Stage. The
  /// operand layout is documented at VmOp::Event.
  VmInstr event(TraceEventKind Kind, const std::string &Stage,
                uint32_t A = 0, uint16_t Lanes = 0) {
    VmInstr In;
    In.Op = VmOp::Event;
    In.C = uint32_t(Kind);
    In.Aux = internStageName(Stage);
    In.A = A;
    In.Lanes = Lanes;
    return In;
  }

  /// Unit-stride ramp index: the dense vector access shape. Such loads
  /// and stores compile only the scalar base and move the whole lane
  /// group per dispatch (LoadDense/StoreDense).
  static const Ramp *asDenseRamp(const Expr &Index) {
    const Ramp *R = Index.as<Ramp>();
    int64_t Stride;
    if (R && R->Lanes > 1 && asConstInt(R->Stride, &Stride) && Stride == 1)
      return R;
    return nullptr;
  }

  /// Every load and store compiles here: a store of \p StoredValue of
  /// type \p T to \p Buf at \p Index, or a load when it is null. The
  /// value comes before the index, matching the interpreter's evaluation
  /// order, and a unit-stride ramp index compiles only its scalar base
  /// (the dense form). Returns the emitted instruction: a load's value
  /// register is its Dst and its index A; a store's value is A, its
  /// index B.
  VmInstr compileAccess(const std::string &Buf, Type T, const Expr &Index,
                        const Expr *StoredValue) {
    const uint32_t Val = StoredValue ? compileExpr(*StoredValue) : 0;
    const Ramp *R = asDenseRamp(Index);
    const uint32_t IdxReg = compileExpr(R ? R->Base : Index);
    VmInstr In =
        StoredValue
            ? elemwise(R ? VmOp::StoreDense : VmOp::Store, T, 0, Val, IdxReg)
            : elemwise(R ? VmOp::LoadDense : VmOp::Load, T,
                       allocReg(T.Lanes), IdxReg);
    In.Aux = BufScope.get(Buf);
    emit(In);
    return In;
  }

  /// A traced memory access: compileAccess's load or store, followed by a
  /// TraceLoad or TraceStore event reading the same index and value
  /// registers. Returns the value register. SignedWrap carries the dense
  /// flag, Bits the value's trace type code.
  uint32_t compileTracedAccess(TraceEventKind Kind, const std::string &Buf,
                               Type T, const Expr &Index,
                               const Expr *StoredValue) {
    const VmInstr Access = compileAccess(Buf, T, Index, StoredValue);
    const uint32_t Val = StoredValue ? Access.A : Access.Dst;
    VmInstr Ev = event(Kind, Buf, StoredValue ? Access.B : Access.A,
                       uint16_t(T.Lanes));
    Ev.B = Val;
    Ev.SignedWrap =
        Access.Op == VmOp::LoadDense || Access.Op == VmOp::StoreDense;
    Ev.Bits = traceTypeCode(T.element());
    emit(Ev);
    return Val;
  }

  uint32_t compileCall(const Call *Op) {
    if (Op->CallKind == CallType::Intrinsic) {
      if (Op->Name == Call::Instrument) {
        // The only event in expression position is a traced load.
        const Load *L = Op->Args.at(2).as<Load>();
        internal_assert(instrumentKind(Op) == TraceEventKind::TraceLoad && L)
            << "vm: malformed traced load";
        return compileTracedAccess(TraceEventKind::TraceLoad, L->Name,
                                   L->NodeType, L->Index, nullptr);
      }
      internal_error << "vm: unknown intrinsic " << Op->Name;
    }
    internal_assert(Op->CallKind == CallType::PureExtern)
        << "vm: unlowered call to " << Op->Name;
    VmExtern Fn;
    if (Op->Name == "sqrt")
      Fn = VmExtern::Sqrt;
    else if (Op->Name == "sin")
      Fn = VmExtern::Sin;
    else if (Op->Name == "cos")
      Fn = VmExtern::Cos;
    else if (Op->Name == "exp")
      Fn = VmExtern::Exp;
    else if (Op->Name == "log")
      Fn = VmExtern::Log;
    else if (Op->Name == "floor")
      Fn = VmExtern::Floor;
    else if (Op->Name == "ceil")
      Fn = VmExtern::Ceil;
    else if (Op->Name == "round")
      Fn = VmExtern::Round;
    else if (Op->Name == "pow")
      Fn = VmExtern::Pow;
    else {
      internal_error << "vm: unknown extern " << Op->Name;
      return 0;
    }
    internal_assert(Op->Args.size() == (Fn == VmExtern::Pow ? 2u : 1u))
        << "vm: bad arity for extern " << Op->Name;
    uint32_t A = compileExpr(Op->Args[0]);
    uint32_t B = Op->Args.size() > 1 ? compileExpr(Op->Args[1]) : 0;
    Type T = Op->NodeType;
    uint32_t Dst = allocReg(T.Lanes);
    VmInstr In = elemwise(VmOp::CallExtern, T, Dst, A, B);
    In.Aux = int32_t(Fn);
    emit(In);
    return Dst;
  }

  //===------------------------------------------------------------------===//
  // Statements
  //===------------------------------------------------------------------===//

  void compileStmt(const Stmt &S) {
    switch (S->Kind) {
    case IRNodeKind::LetStmt: {
      const LetStmt *Op = S.as<LetStmt>();
      uint32_t Val = compileExpr(Op->Value);
      ScopedBinding<uint32_t> Bind(Vars, Op->Name, Val);
      compileStmt(Op->Body);
      return;
    }
    case IRNodeKind::AssertStmt: {
      const AssertStmt *Op = S.as<AssertStmt>();
      uint32_t C = compileExpr(Op->Condition);
      VmInstr In;
      In.Op = VmOp::AssertCond;
      In.A = C;
      In.Aux = int32_t(Prog.Messages.size());
      Prog.Messages.push_back(Op->Message);
      emit(In);
      return;
    }
    case IRNodeKind::ProducerConsumer:
      compileStmt(S.as<ProducerConsumer>()->Body);
      return;
    case IRNodeKind::For:
      compileFor(S.as<For>());
      return;
    case IRNodeKind::Store: {
      const Store *Op = S.as<Store>();
      compileAccess(Op->Name, Op->Value.type(), Op->Index, &Op->Value);
      return;
    }
    case IRNodeKind::Allocate:
      compileAllocate(S.as<Allocate>());
      return;
    case IRNodeKind::Block:
      compileStmt(S.as<Block>()->First);
      compileStmt(S.as<Block>()->Rest);
      return;
    case IRNodeKind::IfThenElse: {
      const IfThenElse *Op = S.as<IfThenElse>();
      uint32_t C = compileExpr(Op->Condition);
      VmInstr Br;
      Br.Op = VmOp::JumpIfFalse;
      Br.A = C;
      size_t BrAt = emit(Br);
      compileStmt(Op->ThenCase);
      if (Op->ElseCase.defined()) {
        VmInstr J;
        J.Op = VmOp::Jump;
        size_t JAt = emit(J);
        Prog.Code[BrAt].Aux = int32_t(Prog.Code.size());
        compileStmt(Op->ElseCase);
        Prog.Code[JAt].Aux = int32_t(Prog.Code.size());
      } else {
        Prog.Code[BrAt].Aux = int32_t(Prog.Code.size());
      }
      return;
    }
    case IRNodeKind::Evaluate: {
      const Evaluate *Op = S.as<Evaluate>();
      // Instrumentation events compile to Event ops with the stage name
      // interned in the program's StageNames pool (the executable
      // resolves names to process-wide ids once, at load).
      const Call *C = Op->Value.as<Call>();
      if (C && C->CallKind == CallType::Intrinsic &&
          C->Name == Call::Instrument) {
        compileEvent(C);
        return;
      }
      compileExpr(Op->Value);
      return;
    }
    case IRNodeKind::Provide:
    case IRNodeKind::Realize:
      internal_error << "vm: unflattened "
                     << (S->Kind == IRNodeKind::Provide ? "Provide"
                                                        : "Realize");
      return;
    default:
      internal_error << "vm: expression kind in statement position";
    }
  }

  /// An Evaluate'd Call::Instrument: every kind but TraceLoad.
  void compileEvent(const Call *C) {
    const TraceEventKind Kind = instrumentKind(C);
    const std::string &Stage = instrumentStage(C);
    if (Kind == TraceEventKind::TraceStore) {
      internal_assert(C->Args.size() == 4) << "vm: malformed traced store";
      compileTracedAccess(Kind, Stage, C->Args[2].type(), C->Args[3],
                          &C->Args[2]);
      return;
    }
    // A payload (TraceBegin's extents, ProfAlloc's size) moves into a
    // contiguous scalar register block so the event can read it as one
    // range.
    const int Dims = int(C->Args.size()) - 2;
    uint32_t Base = 0;
    if (Dims > 0) {
      Base = allocReg(Dims);
      for (int I = 0; I < Dims; ++I) {
        uint32_t E = compileExpr(C->Args[size_t(I) + 2]);
        emit(elemwise(VmOp::Mov, Int(32), Base + uint32_t(I), E));
      }
    }
    emit(event(Kind, Stage, Base, uint16_t(Dims)));
  }

  void compileFor(const For *Op) {
    internal_assert(Op->Kind != ForType::Vectorized &&
                    Op->Kind != ForType::Unrolled)
        << "vm: unlowered " << forTypeName(Op->Kind) << " loop";
    uint32_t MinR = compileExpr(Op->MinExpr);
    uint32_t ExtR = compileExpr(Op->Extent);
    internal_assert(Op->MinExpr.type().isScalar() &&
                    Op->Extent.type().isScalar())
        << "vm: vector loop bounds";

    if (isParallelForType(Op->Kind)) {
      // The extent feeds the span statistic whether or not the loop is
      // actually threaded.
      VmInstr In;
      In.Op = VmOp::CountParallel;
      In.A = ExtR;
      emit(In);
    }

    if (Op->Kind == ForType::Parallel) {
      // Extract the body into a parallel task entry point: the dispatch
      // loop hands [min, min+extent) to the task scheduler (or runs it
      // inline for single-threaded targets), and each chunk starts from a
      // copy of the spawner's registers. GPU loop types stay serial
      // here: the VM has no device; JIT executables launch those loops on
      // the simulated one (runtime/GpuSim.h).
      compileParallelFor(Op, MinR, ExtR);
      return;
    }

    // counter = min; limit = min + extent (64-bit, so the back-edge
    // comparison cannot wrap); skip the loop entirely when extent <= 0.
    uint32_t Counter = allocReg(1);
    uint32_t Limit = allocReg(1);
    uint32_t Guard = allocReg(1);
    emit(elemwise(VmOp::Mov, Int(32), Counter, MinR));
    emit(elemwise(VmOp::AddI, Int(64), Limit, MinR, ExtR));
    emit(elemwise(VmOp::LtI, Int(64), Guard, Counter, Limit));
    VmInstr Br;
    Br.Op = VmOp::JumpIfFalse;
    Br.A = Guard;
    size_t BrAt = emit(Br);

    size_t BodyStart = Prog.Code.size();
    {
      ScopedBinding<uint32_t> Bind(Vars, Op->Name, Counter);
      compileStmt(Op->Body);
    }
    VmInstr Next;
    Next.Op = VmOp::LoopNext;
    Next.A = Counter;
    Next.B = Limit;
    Next.Aux = int32_t(BodyStart);
    emit(Next);
    Prog.Code[BrAt].Aux = int32_t(Prog.Code.size());
  }

  void compileParallelFor(const For *Op, uint32_t MinR, uint32_t ExtR) {
    uint32_t Counter = allocReg(1);
    // Reserve the task slot before compiling the body: nested parallel
    // loops inside it allocate their own slots while this one is open.
    const size_t TaskIndex = Prog.Tasks.size();
    Prog.Tasks.emplace_back();
    VmInstr PF;
    PF.Op = VmOp::ParFor;
    PF.Dst = uint32_t(TaskIndex);
    PF.A = MinR;
    PF.B = ExtR;
    size_t PFAt = emit(PF);

    VmTaskDesc Task;
    Task.CounterReg = Counter;
    Task.BodyStart = uint32_t(Prog.Code.size());
    {
      ScopedBinding<uint32_t> Bind(Vars, Op->Name, Counter);
      compileStmt(Op->Body);
    }
    VmInstr Ret;
    Ret.Op = VmOp::TaskRet;
    Task.BodyEnd = uint32_t(emit(Ret));
    Prog.Code[PFAt].Aux = int32_t(Prog.Code.size());
    Prog.Tasks[TaskIndex] = Task;
  }

  void compileAllocate(const Allocate *Op) {
    VmBufferDesc Desc;
    Desc.Name = Op->Name;
    Desc.ElemType = Op->ElemType.element();
    int32_t Buf = int32_t(Prog.Buffers.size());
    Prog.Buffers.push_back(std::move(Desc));

    // elems = product of the extents, accumulated in 64 bits like the
    // interpreter (each extent is a wrapped int32; the product is not
    // re-wrapped).
    uint32_t Elems = constInt(1);
    for (const Expr &E : Op->Extents) {
      uint32_t Ext = compileExpr(E);
      uint32_t Next = allocReg(1);
      emit(elemwise(VmOp::MulI, Int(64), Next, Elems, Ext));
      Elems = Next;
    }
    VmInstr In;
    In.Op = VmOp::Alloc;
    In.A = Elems;
    In.Aux = Buf;
    emit(In);

    {
      ScopedBinding<int32_t> Bind(BufScope, Op->Name, Buf);
      compileStmt(Op->Body);
    }
    VmInstr Fr;
    Fr.Op = VmOp::FreeOp;
    Fr.Aux = Buf;
    emit(Fr);
  }

  const LoweredPipeline &P;
  VmProgram Prog;
  uint32_t RegCount = 0;
  Scope<uint32_t> Vars;     ///< let/loop variable -> register slot
  Scope<int32_t> BufScope;  ///< buffer name -> buffer-table index
  std::map<std::string, uint32_t> ParamSlots;
  std::map<int64_t, uint32_t> IntConsts;
  std::map<int64_t, uint32_t> FloatConsts; ///< keyed by bit pattern
  std::vector<std::pair<uint32_t, VmSlot>> ConstInits;
};

} // namespace

VmProgram halide::compileToBytecode(const LoweredPipeline &P) {
  Compiler C(P);
  return C.compile();
}
