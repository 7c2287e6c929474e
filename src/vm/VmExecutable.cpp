//===-- vm/VmExecutable.cpp - The bytecode dispatch loop ------------------===//

#include "vm/VmExecutable.h"

#include "observe/Profiler.h"
#include "observe/TraceStream.h"
#include "runtime/TaskScheduler.h"
#include "vm/VmCompiler.h"

#include <algorithm>
#include <cmath>
#include <memory>

using namespace halide;

namespace {

/// Local copy of IROperators' wrapToType, reduced to the two fields the
/// bytecode carries, so the hot loop can inline it.
inline int64_t wrapBits(int64_t Value, int Bits, bool Signed) {
  if (Bits >= 64)
    return Value;
  uint64_t Mask = (uint64_t(1) << Bits) - 1;
  uint64_t U = uint64_t(Value) & Mask;
  if (Signed && (U >> (Bits - 1)))
    return int64_t(U) - (int64_t(1) << Bits);
  return int64_t(U);
}

inline int64_t vmFloorDiv(int64_t A, int64_t B) {
  if (B == 0)
    return 0;
  // INT64_MIN / -1 wraps to INT64_MIN, which is INT64_MIN / 1.
  if (B == -1 && A == INT64_MIN)
    B = 1;
  int64_t Q = A / B;
  if ((A % B != 0) && ((A < 0) != (B < 0)))
    --Q;
  return Q;
}

inline int64_t vmFloorMod(int64_t A, int64_t B) {
  if (B == 0 || B == -1)
    return 0;
  // The truncated remainder moved to the divisor's sign; unlike
  // A - floorDiv(A, B) * B, nothing here overflows near INT64_MIN/MAX.
  int64_t R = A % B;
  if (R != 0 && ((R < 0) != (B < 0)))
    R += B;
  return R;
}

/// Float arithmetic computes in double and, for 32-bit elements, rounds
/// every result through single precision — the same path as the
/// interpreter and the compiled C, so results are bit-identical.
inline double roundF(double V, int Bits) {
  return Bits == 32 ? double(float(V)) : V;
}

/// How the dispatch loop reads/writes a buffer element.
enum class ElemKind : uint8_t { I8, U8, I16, U16, I32, U32, I64, F32, F64 };

ElemKind elemKindOf(Type T) {
  if (T.isFloat())
    return T.Bits == 32 ? ElemKind::F32 : ElemKind::F64;
  switch (T.Bits) {
  case 1:
  case 8:
    return T.isUInt() ? ElemKind::U8 : ElemKind::I8;
  case 16:
    return T.isUInt() ? ElemKind::U16 : ElemKind::I16;
  case 32:
    return T.isUInt() ? ElemKind::U32 : ElemKind::I32;
  case 64:
    return ElemKind::I64; // signed and unsigned share the bit pattern
  default:
    internal_error << "vm: unsupported element width " << T.Bits;
    return ElemKind::I64;
  }
}

/// A buffer slot at run time: boundary buffers alias caller storage,
/// internal allocations own theirs for the extent of their scope.
struct RtBuf {
  void *Data = nullptr;
  int64_t SizeElems = 0; ///< 0 = unknown (skip the bounds check)
  int64_t Bytes = 0;     ///< owned allocations only
};

/// One execution context's share of the run statistics. Every context —
/// the root, and one per task chunk — counts only the work it executed
/// itself; shards merge bottom-up in chunk order, which makes the merged
/// totals independent of how iterations interleaved across workers:
/// loads/stores/span are sums, and the peak-allocation recurrence
/// Peak = max(Peak, CurrentAtSpawn + ChildPeak) reproduces exactly the
/// serial execution's high-water mark because every chunk allocates and
/// frees only scopes nested inside its own iterations (a chunk's net
/// allocation is zero by construction).
struct StatsShard {
  std::vector<int64_t> Loads, Stores; ///< indexed by buffer-table slot
  int64_t CurAlloc = 0, PeakAlloc = 0;
  int64_t ParallelIters = 0;

  void init(size_t NumBufs) {
    Loads.assign(NumBufs, 0);
    Stores.assign(NumBufs, 0);
    CurAlloc = PeakAlloc = ParallelIters = 0;
  }
  void noteAlloc(int64_t Bytes) {
    CurAlloc += Bytes;
    if (CurAlloc > PeakAlloc)
      PeakAlloc = CurAlloc;
  }
  void noteFree(int64_t Bytes) { CurAlloc -= Bytes; }
  void merge(const StatsShard &Child) {
    for (size_t I = 0; I < Loads.size(); ++I) {
      Loads[I] += Child.Loads[I];
      Stores[I] += Child.Stores[I];
    }
    PeakAlloc = std::max(PeakAlloc, CurAlloc + Child.PeakAlloc);
    CurAlloc += Child.CurAlloc;
    ParallelIters += Child.ParallelIters;
  }
};

/// Everything one thread needs to execute a region of the program: a
/// register file, the buffer table (inherited by value at task spawn, so
/// allocations inside a task body stay private to it), and a stats shard.
struct VmContext {
  std::vector<VmSlot> Regs;
  std::vector<RtBuf> Bufs;
  StatsShard Shard;
};

/// Per-worker context freelist: task chunks (and whole frames) on the
/// same thread reuse the same backing storage instead of reallocating
/// register files per chunk or per frame.
thread_local std::vector<std::unique_ptr<VmContext>> ContextPool;

std::unique_ptr<VmContext> acquireContext() {
  if (!ContextPool.empty()) {
    std::unique_ptr<VmContext> C = std::move(ContextPool.back());
    ContextPool.pop_back();
    return C;
  }
  return std::make_unique<VmContext>();
}

void releaseContext(std::unique_ptr<VmContext> C) {
  if (ContextPool.size() < 8)
    ContextPool.push_back(std::move(C));
}

/// One program execution. Owns nothing; borrows the program and fans task
/// chunks out to the task scheduler.
class Runner {
public:
  Runner(const VmProgram &Prog, const std::vector<uint8_t> &Kinds,
         const std::vector<int> &StageIds, int MaxTasks)
      : Prog(Prog), Kinds(Kinds), StageIds(StageIds), MaxTasks(MaxTasks) {}

  /// Executes from \p StartPC until Halt or TaskRet.
  void exec(VmContext &C, size_t PC) const;

  /// Runs iterations [Begin, End) of \p TD in a fresh worker context
  /// seeded from \p Parent, depositing the chunk's stats in \p Out.
  void runChunk(const VmContext &Parent, const VmTaskDesc &TD,
                int64_t Begin, int64_t End, StatsShard *Out) const;

private:
  void dispatchParallel(VmContext &C, const VmTaskDesc &TD, int64_t Min,
                        int64_t Extent) const;

  const VmProgram &Prog;
  const std::vector<uint8_t> &Kinds; ///< ElemKind per buffer slot
  const std::vector<int> &StageIds;  ///< stage id per StageNames entry
  const int MaxTasks; ///< the run's chunk budget (taskChunkBudget)
};

void Runner::exec(VmContext &C, size_t PC) const {
  VmSlot *R = C.Regs.data();
  const VmInstr *Code = Prog.Code.data();

  // Scratch for event payloads; only the Event case touches these, and
  // default-constructed vectors cost nothing here.
  std::vector<int32_t> TraceCoords;
  std::vector<uint64_t> TraceBits;

  auto checkBounds = [&](const RtBuf &B, size_t BI, int64_t Idx) {
    internal_assert(Idx >= 0 && (B.SizeElems == 0 || Idx < B.SizeElems))
        << "vm: access to " << Prog.Buffers[BI].Name << " at flat index "
        << Idx << " outside [0, " << B.SizeElems << ")";
  };

  for (;;) {
    const VmInstr &In = Code[PC];
    const int L = In.Lanes;
    switch (In.Op) {
    case VmOp::Mov:
      for (int I = 0; I < L; ++I)
        R[In.Dst + I] = R[In.A + I];
      break;

#define VM_INT_BINOP(OPNAME, EXPRESSION)                                       \
  case VmOp::OPNAME:                                                           \
    for (int I = 0; I < L; ++I) {                                              \
      int64_t X = R[In.A + I].I, Y = R[In.B + I].I;                            \
      (void)X;                                                                 \
      (void)Y;                                                                 \
      R[In.Dst + I].I = (EXPRESSION);                                          \
    }                                                                          \
    break;

    VM_INT_BINOP(AddI, wrapBits(X + Y, In.Bits, In.SignedWrap))
    VM_INT_BINOP(SubI, wrapBits(X - Y, In.Bits, In.SignedWrap))
    VM_INT_BINOP(MulI, wrapBits(X * Y, In.Bits, In.SignedWrap))
    VM_INT_BINOP(DivI, wrapBits(vmFloorDiv(X, Y), In.Bits, true))
    VM_INT_BINOP(ModI, wrapBits(vmFloorMod(X, Y), In.Bits, true))
    VM_INT_BINOP(MinI, X < Y ? X : Y)
    VM_INT_BINOP(MaxI, X > Y ? X : Y)
    VM_INT_BINOP(DivU, Y == 0 ? 0 : int64_t(uint64_t(X) / uint64_t(Y)))
    VM_INT_BINOP(ModU, Y == 0 ? 0 : int64_t(uint64_t(X) % uint64_t(Y)))
    VM_INT_BINOP(MinU, uint64_t(X) < uint64_t(Y) ? X : Y)
    VM_INT_BINOP(MaxU, uint64_t(X) > uint64_t(Y) ? X : Y)
    VM_INT_BINOP(EqI, X == Y ? 1 : 0)
    VM_INT_BINOP(NeI, X != Y ? 1 : 0)
    VM_INT_BINOP(LtI, X < Y ? 1 : 0)
    VM_INT_BINOP(LeI, X <= Y ? 1 : 0)
    VM_INT_BINOP(LtU, uint64_t(X) < uint64_t(Y) ? 1 : 0)
    VM_INT_BINOP(LeU, uint64_t(X) <= uint64_t(Y) ? 1 : 0)
    VM_INT_BINOP(AndB, (X && Y) ? 1 : 0)
    VM_INT_BINOP(OrB, (X || Y) ? 1 : 0)
#undef VM_INT_BINOP

#define VM_FLOAT_BINOP(OPNAME, EXPRESSION)                                     \
  case VmOp::OPNAME:                                                           \
    for (int I = 0; I < L; ++I) {                                              \
      double X = R[In.A + I].F, Y = R[In.B + I].F;                             \
      (void)Y;                                                                 \
      R[In.Dst + I].F = roundF((EXPRESSION), In.Bits);                         \
    }                                                                          \
    break;

    VM_FLOAT_BINOP(AddF, X + Y)
    VM_FLOAT_BINOP(SubF, X - Y)
    VM_FLOAT_BINOP(MulF, X *Y)
    VM_FLOAT_BINOP(DivF, X / Y)
    VM_FLOAT_BINOP(ModF, X - std::floor(X / Y) * Y)
    VM_FLOAT_BINOP(MinF, X < Y ? X : Y)
    VM_FLOAT_BINOP(MaxF, X > Y ? X : Y)
#undef VM_FLOAT_BINOP

#define VM_FLOAT_CMP(OPNAME, EXPRESSION)                                       \
  case VmOp::OPNAME:                                                           \
    for (int I = 0; I < L; ++I) {                                              \
      double X = R[In.A + I].F, Y = R[In.B + I].F;                             \
      R[In.Dst + I].I = (EXPRESSION) ? 1 : 0;                                  \
    }                                                                          \
    break;

    VM_FLOAT_CMP(EqF, X == Y)
    VM_FLOAT_CMP(NeF, X != Y)
    VM_FLOAT_CMP(LtF, X < Y)
    VM_FLOAT_CMP(LeF, X <= Y)
#undef VM_FLOAT_CMP

    case VmOp::NotB:
      for (int I = 0; I < L; ++I)
        R[In.Dst + I].I = R[In.A + I].I ? 0 : 1;
      break;

    case VmOp::Select:
      for (int I = 0; I < L; ++I)
        R[In.Dst + I] = R[In.C + I].I ? R[In.A + I] : R[In.B + I];
      break;

    case VmOp::CastIntWrap:
      for (int I = 0; I < L; ++I)
        R[In.Dst + I].I = wrapBits(R[In.A + I].I, In.Bits, In.SignedWrap);
      break;
    case VmOp::CastIntToF:
      for (int I = 0; I < L; ++I)
        R[In.Dst + I].F = roundF(double(R[In.A + I].I), In.Bits);
      break;
    case VmOp::CastUIntToF:
      for (int I = 0; I < L; ++I)
        R[In.Dst + I].F = roundF(double(uint64_t(R[In.A + I].I)), In.Bits);
      break;
    case VmOp::CastFToInt:
      for (int I = 0; I < L; ++I)
        R[In.Dst + I].I =
            wrapBits(int64_t(R[In.A + I].F), In.Bits, In.SignedWrap);
      break;
    case VmOp::CastFToF:
      for (int I = 0; I < L; ++I)
        R[In.Dst + I].F = roundF(R[In.A + I].F, In.Bits);
      break;

    case VmOp::Ramp: {
      int64_t Base = R[In.A].I, Stride = R[In.B].I;
      for (int I = 0; I < L; ++I)
        R[In.Dst + I].I =
            wrapBits(Base + int64_t(I) * Stride, In.Bits, In.SignedWrap);
      break;
    }
    case VmOp::BroadcastSlot:
      for (int I = 0; I < L; ++I)
        R[In.Dst + I] = R[In.A];
      break;

    case VmOp::Load: {
      RtBuf &B = C.Bufs[size_t(In.Aux)];
      C.Shard.Loads[size_t(In.Aux)] += L;
      const void *Base = B.Data;
      switch (ElemKind(Kinds[size_t(In.Aux)])) {
#define VM_LOAD(KIND, CTYPE, FIELD, CONV)                                      \
  case ElemKind::KIND:                                                         \
    for (int I = 0; I < L; ++I) {                                              \
      int64_t Idx = R[In.A + I].I;                                             \
      checkBounds(B, size_t(In.Aux), Idx);                                     \
      R[In.Dst + I].FIELD = CONV(static_cast<const CTYPE *>(Base)[Idx]);       \
    }                                                                          \
    break;
        VM_LOAD(I8, int8_t, I, int64_t)
        VM_LOAD(U8, uint8_t, I, int64_t)
        VM_LOAD(I16, int16_t, I, int64_t)
        VM_LOAD(U16, uint16_t, I, int64_t)
        VM_LOAD(I32, int32_t, I, int64_t)
        VM_LOAD(U32, uint32_t, I, int64_t)
        VM_LOAD(I64, int64_t, I, int64_t)
        VM_LOAD(F32, float, F, double)
        VM_LOAD(F64, double, F, double)
#undef VM_LOAD
      }
      break;
    }

    case VmOp::LoadDense: {
      // Dense lane-group load: one range check for the whole group, then
      // a tight per-kind copy from buffer[base .. base+L).
      RtBuf &B = C.Bufs[size_t(In.Aux)];
      C.Shard.Loads[size_t(In.Aux)] += L;
      int64_t Base0 = R[In.A].I;
      checkBounds(B, size_t(In.Aux), Base0);
      checkBounds(B, size_t(In.Aux), Base0 + L - 1);
      const void *Base = B.Data;
      switch (ElemKind(Kinds[size_t(In.Aux)])) {
#define VM_LOAD_DENSE(KIND, CTYPE, FIELD, CONV)                                \
  case ElemKind::KIND: {                                                       \
    const CTYPE *P = static_cast<const CTYPE *>(Base) + Base0;                 \
    for (int I = 0; I < L; ++I)                                                \
      R[In.Dst + I].FIELD = CONV(P[I]);                                        \
  } break;
        VM_LOAD_DENSE(I8, int8_t, I, int64_t)
        VM_LOAD_DENSE(U8, uint8_t, I, int64_t)
        VM_LOAD_DENSE(I16, int16_t, I, int64_t)
        VM_LOAD_DENSE(U16, uint16_t, I, int64_t)
        VM_LOAD_DENSE(I32, int32_t, I, int64_t)
        VM_LOAD_DENSE(U32, uint32_t, I, int64_t)
        VM_LOAD_DENSE(I64, int64_t, I, int64_t)
        VM_LOAD_DENSE(F32, float, F, double)
        VM_LOAD_DENSE(F64, double, F, double)
#undef VM_LOAD_DENSE
      }
      break;
    }

    case VmOp::Store: {
      RtBuf &B = C.Bufs[size_t(In.Aux)];
      C.Shard.Stores[size_t(In.Aux)] += L;
      void *Base = B.Data;
      switch (ElemKind(Kinds[size_t(In.Aux)])) {
#define VM_STORE(KIND, CTYPE, FIELD)                                           \
  case ElemKind::KIND:                                                         \
    for (int I = 0; I < L; ++I) {                                              \
      int64_t Idx = R[In.B + I].I;                                             \
      checkBounds(B, size_t(In.Aux), Idx);                                     \
      static_cast<CTYPE *>(Base)[Idx] = CTYPE(R[In.A + I].FIELD);              \
    }                                                                          \
    break;
        VM_STORE(I8, int8_t, I)
        VM_STORE(U8, uint8_t, I)
        VM_STORE(I16, int16_t, I)
        VM_STORE(U16, uint16_t, I)
        VM_STORE(I32, int32_t, I)
        VM_STORE(U32, uint32_t, I)
        VM_STORE(I64, int64_t, I)
        VM_STORE(F32, float, F)
        VM_STORE(F64, double, F)
#undef VM_STORE
      }
      break;
    }

    case VmOp::StoreDense: {
      // Dense lane-group store: mirror of LoadDense.
      RtBuf &B = C.Bufs[size_t(In.Aux)];
      C.Shard.Stores[size_t(In.Aux)] += L;
      int64_t Base0 = R[In.B].I;
      checkBounds(B, size_t(In.Aux), Base0);
      checkBounds(B, size_t(In.Aux), Base0 + L - 1);
      void *Base = B.Data;
      switch (ElemKind(Kinds[size_t(In.Aux)])) {
#define VM_STORE_DENSE(KIND, CTYPE, FIELD)                                     \
  case ElemKind::KIND: {                                                       \
    CTYPE *P = static_cast<CTYPE *>(Base) + Base0;                             \
    for (int I = 0; I < L; ++I)                                                \
      P[I] = CTYPE(R[In.A + I].FIELD);                                         \
  } break;
        VM_STORE_DENSE(I8, int8_t, I)
        VM_STORE_DENSE(U8, uint8_t, I)
        VM_STORE_DENSE(I16, int16_t, I)
        VM_STORE_DENSE(U16, uint16_t, I)
        VM_STORE_DENSE(I32, int32_t, I)
        VM_STORE_DENSE(U32, uint32_t, I)
        VM_STORE_DENSE(I64, int64_t, I)
        VM_STORE_DENSE(F32, float, F)
        VM_STORE_DENSE(F64, double, F)
#undef VM_STORE_DENSE
      }
      break;
    }

    case VmOp::Alloc: {
      RtBuf &B = C.Bufs[size_t(In.Aux)];
      int64_t Elems = R[In.A].I;
      internal_assert(Elems >= 0)
          << "negative allocation size for " << Prog.Buffers[size_t(In.Aux)].Name;
      B.Bytes = Elems * Prog.Buffers[size_t(In.Aux)].ElemType.bytes();
      B.Data = halideMalloc(B.Bytes);
      internal_assert(B.Data)
          << "allocation of " << B.Bytes << " bytes failed for "
          << Prog.Buffers[size_t(In.Aux)].Name;
      B.SizeElems = Elems;
      C.Shard.noteAlloc(B.Bytes);
      break;
    }
    case VmOp::FreeOp: {
      RtBuf &B = C.Bufs[size_t(In.Aux)];
      C.Shard.noteFree(B.Bytes);
      halideFree(B.Data);
      B.Data = nullptr;
      B.Bytes = 0;
      B.SizeElems = 0;
      break;
    }

    case VmOp::Jump:
      PC = size_t(In.Aux);
      continue;
    case VmOp::JumpIfFalse:
      if (!R[In.A].I) {
        PC = size_t(In.Aux);
        continue;
      }
      break;
    case VmOp::LoopNext:
      if (++R[In.A].I < R[In.B].I) {
        PC = size_t(In.Aux);
        continue;
      }
      break;

    case VmOp::ParFor: {
      const VmTaskDesc &TD = Prog.Tasks[size_t(In.Dst)];
      int64_t Min = R[In.A].I, Extent = R[In.B].I;
      if (Extent > 0) {
        if (MaxTasks == 1 || Extent == 1) {
          // Serial fallback runs the body regions inline in this
          // context — the execution order, and therefore every counter,
          // is identical to the pre-threading serial loop.
          for (int64_t I = Min; I < Min + Extent; ++I) {
            R[TD.CounterReg].I = I;
            exec(C, TD.BodyStart);
          }
        } else {
          dispatchParallel(C, TD, Min, Extent);
        }
      }
      PC = size_t(In.Aux);
      continue;
    }
    case VmOp::TaskRet:
      return;

    case VmOp::AssertCond:
      user_assert(R[In.A].I)
          << "pipeline assertion failed: " << Prog.Messages[size_t(In.Aux)];
      break;

    case VmOp::CallExtern: {
      const bool Single = In.Bits == 32;
      for (int I = 0; I < L; ++I) {
        double X = R[In.A + I].F;
        double V = 0;
        switch (VmExtern(In.Aux)) {
        case VmExtern::Sqrt:
          V = Single ? std::sqrt(float(X)) : std::sqrt(X);
          break;
        case VmExtern::Sin:
          V = Single ? std::sin(float(X)) : std::sin(X);
          break;
        case VmExtern::Cos:
          V = Single ? std::cos(float(X)) : std::cos(X);
          break;
        case VmExtern::Exp:
          V = Single ? std::exp(float(X)) : std::exp(X);
          break;
        case VmExtern::Log:
          V = Single ? std::log(float(X)) : std::log(X);
          break;
        case VmExtern::Floor:
          V = std::floor(X);
          break;
        case VmExtern::Ceil:
          V = std::ceil(X);
          break;
        case VmExtern::Round:
          V = std::nearbyint(X);
          break;
        case VmExtern::Pow: {
          double Y = R[In.B + I].F;
          V = Single ? std::pow(float(X), float(Y)) : std::pow(X, Y);
          break;
        }
        }
        R[In.Dst + I].F = roundF(V, In.Bits);
      }
      break;
    }

    case VmOp::CountParallel:
      C.Shard.ParallelIters += R[In.A].I;
      break;

    case VmOp::Event: {
      const TraceEventKind Kind = TraceEventKind(In.C);
      const int Stage = StageIds[size_t(In.Aux)];
      if (Kind != TraceEventKind::TraceLoad &&
          Kind != TraceEventKind::TraceStore) {
        // The kind's payload: TraceBegin's extents, ProfAlloc's size.
        TraceCoords.resize(size_t(L));
        for (int I = 0; I < L; ++I)
          TraceCoords[size_t(I)] = int32_t(R[In.A + I].I);
        observeEvent(Kind, Stage, 0, 0, TraceCoords.data(), L, nullptr);
        break;
      }
      if (!traceStreamActive())
        break; // one relaxed atomic load when no stream is open
      const bool Dense = In.SignedWrap != 0;
      const bool IsFloat = (In.Bits >> 4) == 2; // traceTypeCode's float
      TraceCoords.resize(size_t(L));
      TraceBits.resize(size_t(L));
      for (int I = 0; I < L; ++I) {
        TraceCoords[size_t(I)] =
            int32_t(Dense ? R[In.A].I + I : R[In.A + I].I);
        TraceBits[size_t(I)] = IsFloat ? traceBitsOfDouble(R[In.B + I].F)
                                       : traceBitsOfInt(R[In.B + I].I);
      }
      observeEvent(Kind, Stage, In.Bits, L, TraceCoords.data(), L,
                   TraceBits.data());
      break;
    }

    case VmOp::Halt:
      return;
    }
    ++PC;
  }
}

/// The scheduler-facing closure for one parallel loop dispatch.
struct ParClosure {
  const Runner *TheRunner;
  const VmContext *Parent;
  const VmTaskDesc *Task;
  StatsShard *Shards; ///< one per chunk the budget allows
};

void vmRunParChunk(int64_t Begin, int64_t End, int Chunk, void *Closure);

void Runner::dispatchParallel(VmContext &C, const VmTaskDesc &TD,
                              int64_t Min, int64_t Extent) const {
  // One shard per chunk the budget allows; the scheduler reports how many
  // it cut, and chunk indices are dense from 0.
  std::vector<StatsShard> Shards(static_cast<size_t>(MaxTasks));
  ParClosure PC{this, &C, &TD, Shards.data()};
  const int Chunks =
      parallelForChunks(Min, Extent, MaxTasks, vmRunParChunk, &PC);
  // Chunk-order merge: the totals come out identical to the serial
  // execution no matter which workers ran which chunks when.
  for (int I = 0; I < Chunks; ++I)
    C.Shard.merge(Shards[size_t(I)]);
}

void Runner::runChunk(const VmContext &Parent, const VmTaskDesc &TD,
                      int64_t Begin, int64_t End, StatsShard *Out) const {
  // A worker context: a copy of the spawner's registers and buffer table
  // and a fresh stats shard. Copying the whole register file is the
  // closure: whatever the body reads that it did not write itself (let
  // values, loop bounds, params, constants) is there, whatever opcode
  // reads it. The spawner is blocked in this dispatch, so its context
  // does not change underneath the copy. Contexts are pooled per worker
  // thread so consecutive chunks reuse their storage.
  std::unique_ptr<VmContext> Ctx = acquireContext();
  Ctx->Regs = Parent.Regs;
  Ctx->Bufs = Parent.Bufs;
  Ctx->Shard.init(Prog.Buffers.size());

  for (int64_t I = Begin; I < End; ++I) {
    Ctx->Regs[TD.CounterReg].I = I;
    exec(*Ctx, TD.BodyStart);
  }

  *Out = std::move(Ctx->Shard);
  releaseContext(std::move(Ctx));
}

void vmRunParChunk(int64_t Begin, int64_t End, int Chunk, void *Closure) {
  const ParClosure *PC = static_cast<const ParClosure *>(Closure);
  PC->TheRunner->runChunk(*PC->Parent, *PC->Task, Begin, End,
                          &PC->Shards[size_t(Chunk)]);
}

} // namespace

VmExecutable::VmExecutable(LoweredPipeline LP) : Executable(std::move(LP)) {
  Prog = compileToBytecode(P);
  BufKinds.reserve(Prog.Buffers.size());
  for (const VmBufferDesc &Desc : Prog.Buffers)
    BufKinds.push_back(uint8_t(elemKindOf(Desc.ElemType)));
  StageIds.reserve(Prog.StageNames.size());
  for (const std::string &Name : Prog.StageNames)
    StageIds.push_back(profilerStageId(Name));
}

std::shared_ptr<const VmExecutable>
halide::vmCompile(const LoweredPipeline &P) {
  return std::make_shared<VmExecutable>(P);
}

int VmExecutable::execute(const BoundArgs &Args, int MaxTasks,
                          ExecutionStats *Stats) const {
  // Root context: the register file starts from the compiled template
  // (constants pre-materialized), then takes the packed arguments. Contexts
  // come from the per-thread pool, so a steady-state frame loop reuses the
  // same register file and buffer table instead of reallocating them.
  std::unique_ptr<VmContext> RootPtr = acquireContext();
  VmContext &Root = *RootPtr;
  Root.Regs = Prog.InitialRegs;

  const size_t NumBufs = Prog.Buffers.size();
  Root.Bufs.assign(NumBufs, RtBuf{});
  for (size_t BI = 0; BI < Args.Bufs.size(); ++BI) {
    Root.Bufs[BI].Data = Args.Bufs[BI];
    Root.Bufs[BI].SizeElems = Args.BufElems[BI];
  }

  for (const VmParamInit &PI : Prog.Params) {
    VmSlot &Slot = Root.Regs[PI.Slot];
    if (PI.Arg.IsFloat)
      Slot.F = Args.FloatArgs[size_t(PI.Arg.Index)];
    else
      Slot.I = wrapBits(Args.IntArgs[size_t(PI.Arg.Index)], PI.Bits,
                        PI.SignedWrap);
  }

  Root.Shard.init(NumBufs);

  Runner R(Prog, BufKinds, StageIds, MaxTasks);
  R.exec(Root, 0);

  if (Stats) {
    ExecutionStats S;
    S.ParallelIterations = Root.Shard.ParallelIters;
    S.PeakAllocationBytes = Root.Shard.PeakAlloc;
    S.CurrentAllocationBytes = Root.Shard.CurAlloc;
    for (size_t BI = 0; BI < NumBufs; ++BI) {
      if (Root.Shard.Loads[BI])
        S.LoadsPerBuffer[Prog.Buffers[BI].Name] += Root.Shard.Loads[BI];
      if (Root.Shard.Stores[BI])
        S.StoresPerBuffer[Prog.Buffers[BI].Name] += Root.Shard.Stores[BI];
    }
    *Stats = std::move(S);
  }
  releaseContext(std::move(RootPtr));
  return 0;
}
