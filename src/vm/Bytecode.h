//===-- vm/Bytecode.h - Register-based bytecode for lowered IR --*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction set of the bytecode VM backend. VmCompiler walks a
/// lowered pipeline statement once and emits a flat stream of these
/// instructions over virtual registers; VmExecutable's dispatch loop then
/// executes the stream with none of the tree-walking interpreter's
/// per-node costs (virtual dispatch, name lookups, per-value vector
/// allocations). Registers are ranges of 8-byte slots in a flat register
/// file — a scalar value is one slot, a vector value is Lanes consecutive
/// slots — so instruction operands are plain offsets resolved at compile
/// time. Buffers, extern functions, and assert messages are likewise
/// referenced by pre-resolved table indices, never by name.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_VM_BYTECODE_H
#define HALIDE_VM_BYTECODE_H

#include "ir/Type.h"

#include <cstdint>
#include <string>
#include <vector>

namespace halide {

/// Bytecode operations. Arithmetic/compare ops are typed by suffix: I =
/// signed integer, U = unsigned integer, F = floating point (computed in
/// double, rounded through float when the instruction's Bits is 32,
/// matching the interpreter and compiled C bit for bit). All elementwise
/// ops process Lanes consecutive slots.
enum class VmOp : uint8_t {
  // Moves.
  Mov, ///< dst[l] = a[l] (raw slot copy)

  // Integer arithmetic; results wrap to (Bits, signedness).
  AddI, SubI, MulI,
  DivI, ModI, MinI, MaxI, ///< signed: floor division / floor remainder
  DivU, ModU, MinU, MaxU, ///< unsigned; x/0 and x%0 are 0

  // Float arithmetic (Mod is the floor-remainder the interpreter computes).
  AddF, SubF, MulF, DivF, ModF, MinF, MaxF,

  // Comparisons: dst[l] = a[l] op b[l] as 0/1.
  EqI, NeI, LtI, LeI, ///< signed integer (Eq/Ne shared with unsigned)
  LtU, LeU,           ///< unsigned integer
  EqF, NeF, LtF, LeF, ///< floating point

  // Boolean logic on 0/1 integer values.
  AndB, OrB, NotB,

  /// dst[l] = c[l] ? a[l] : b[l]; the slot kind (int/float) is opaque.
  Select,

  // Conversions. Src lanes == dst lanes.
  CastIntWrap, ///< dst[l] = wrap(a[l]) to (Bits, signedness)
  CastIntToF,  ///< dst[l] = double(int64 a[l]), rounded if Bits == 32
  CastUIntToF, ///< dst[l] = double(uint64 a[l]), rounded if Bits == 32
  CastFToInt,  ///< dst[l] = wrap(int64(a[l])) — C truncation semantics
  CastFToF,    ///< dst[l] = a[l], rounded through float if Bits == 32

  /// dst[l] = wrap(a[0] + l * b[0]) for l in [0, Lanes).
  Ramp,
  /// dst[l] = a[0] (slot copy, kind-agnostic).
  BroadcastSlot,

  // Memory. Aux is the buffer-table index; the element kind comes from
  // the buffer descriptor, not the instruction.
  Load,  ///< dst[l] = buffer[a[l]] (a = index register, int64 elements)
  Store, ///< buffer[b[l]] = a[l]   (a = value register, b = index register)

  // Dense (unit-stride ramp) vector memory. The index is a single scalar
  // base register instead of a lane-wide index vector, so the whole lane
  // group moves with one range-checked contiguous copy per dispatch —
  // this is what makes vectorize() pay off on the VM.
  LoadDense,  ///< dst[l] = buffer[a[0] + l]
  StoreDense, ///< buffer[b[0] + l] = a[l] (a = value register, b = base)

  // Allocation. Aux is the buffer-table index.
  Alloc, ///< allocate a[0] (int64) elements for buffer slot Aux
  FreeOp, ///< free buffer slot Aux

  // Control flow. Jump targets are absolute instruction indices in Aux.
  Jump,        ///< pc = Aux
  JumpIfFalse, ///< if (!a[0]) pc = Aux
  /// Fused loop back-edge: ++a[0]; if (a[0] < b[0]) pc = Aux. Counter
  /// arithmetic is 64-bit so the bound check cannot wrap.
  LoopNext,

  /// Dispatch the parallel task Tasks[Dst] over iterations
  /// [a[0], a[0]+b[0]): each chunk of iterations runs the task's body
  /// region in an execution context copied from the spawner's, with the
  /// task's counter register set to the iteration index. Chunks may run
  /// concurrently on the task scheduler (or the loop runs inline,
  /// serially, for single-threaded targets). Execution resumes at Aux
  /// afterwards.
  ParFor,
  /// End of a parallel task's body region: return to the dispatcher.
  TaskRet,

  /// if (!a[0]) abort with message Messages[Aux] (failed pipeline assert).
  AssertCond,

  /// dst[l] = extern fn Aux (a[l] [, b[l]]); see VmExtern.
  CallExtern,

  /// Stats.ParallelIterations += a[0] (entering a parallel/GPU loop).
  CountParallel,

  /// An instrumentation event (present only in Target::Profile and
  /// Target::Trace programs; see transforms/Instrument.h), reported through
  /// observeEvent. C is the TraceEventKind and Aux indexes
  /// VmProgram::StageNames, which the executable pre-resolves to
  /// process-wide stage ids. TraceLoad/TraceStore follow the matching
  /// memory op: A is its index register (the scalar base register when
  /// SignedWrap is 1, i.e. the dense form), B the value register, Lanes
  /// the lane count and Bits the value's packed trace type code.
  /// Every other kind reads its Lanes payload words (TraceBegin's extents,
  /// ProfAlloc's element size and extents; none for the rest) from
  /// consecutive scalar registers starting at A.
  Event,

  Halt, ///< end of program
};

const char *vmOpName(VmOp Op);

/// Pure extern math functions callable from bytecode (CallExtern's Aux).
enum class VmExtern : uint8_t {
  Sqrt, Sin, Cos, Exp, Log, Floor, Ceil, Round, Pow,
};

const char *vmExternName(VmExtern Fn);

/// One instruction. Dst/A/B/C are register-file slot offsets; Lanes is the
/// elementwise width; Bits + SignedWrap describe the element type where an
/// op needs to wrap or round; Aux is the op-specific table index or jump
/// target.
struct VmInstr {
  VmOp Op = VmOp::Halt;
  uint8_t Bits = 32;       ///< element bit width (wrapping / f32 rounding)
  uint8_t SignedWrap = 0;  ///< wrap as signed (Int) rather than unsigned
  uint16_t Lanes = 1;
  uint32_t Dst = 0, A = 0, B = 0, C = 0;
  int32_t Aux = 0;
};

/// A register-file slot: one scalar lane, integer or floating.
union VmSlot {
  int64_t I;
  double F;
};

/// A buffer referenced by the program: a pipeline boundary buffer (bound
/// from the ParamBindings each run) or an internal allocation site.
struct VmBufferDesc {
  std::string Name;
  Type ElemType;          ///< scalar element type
  bool IsBoundary = false;
  bool IsOutput = false;
};

/// A parallel task: the body of one parallel For loop, extracted into an
/// entry point a worker thread can execute in its own context. The
/// closure is the spawner's whole context: each task chunk starts from a
/// copy of the spawning context's register file (captured let values and
/// loop bounds, constants, param registers), sets CounterReg to each
/// iteration index in turn, and executes from BodyStart until TaskRet.
/// Buffer-table state is inherited by value the same way: boundary and
/// already-allocated buffers alias the spawner's storage, while Allocs
/// inside the body stay private to the chunk's context.
struct VmTaskDesc {
  uint32_t BodyStart = 0;  ///< first instruction of the body region
  uint32_t BodyEnd = 0;    ///< the body's TaskRet (region is [start, end])
  uint32_t CounterReg = 0; ///< receives the iteration index
};

/// A register initialized from the caller's scalar parameters before each
/// run (user scalars and "<buf>.min.<d>"-style buffer metadata).
struct VmParamInit {
  std::string Name;
  uint32_t Slot = 0;
  bool IsFloat = false;
  /// Integer params are wrapped to this width/signedness on binding (the
  /// interpreter does the same when materializing a parameter Value).
  uint8_t Bits = 32;
  bool SignedWrap = true;
};

/// A compiled program: the instruction stream plus every pre-resolved
/// table the dispatch loop needs.
struct VmProgram {
  std::vector<VmInstr> Code;
  /// Register-file template: constants pre-materialized, the rest zero.
  /// run() copies this once per execution.
  std::vector<VmSlot> InitialRegs;
  std::vector<VmBufferDesc> Buffers;
  std::vector<VmParamInit> Params;
  /// AssertCond message pool.
  std::vector<std::string> Messages;
  /// Parallel task entry points (ParFor's Dst indexes this).
  std::vector<VmTaskDesc> Tasks;
  /// Stage-name pool for Event ops (Aux indexes this): profiled stages
  /// and traced buffers. Empty in uninstrumented programs.
  std::vector<std::string> StageNames;

  /// Human-readable listing of the whole program (tests, debugging).
  std::string disassemble() const;
};

} // namespace halide

#endif // HALIDE_VM_BYTECODE_H
