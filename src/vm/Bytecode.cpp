//===-- vm/Bytecode.cpp ---------------------------------------------------===//

#include "vm/Bytecode.h"

#include "observe/TraceStream.h"

#include <sstream>

using namespace halide;

const char *halide::vmOpName(VmOp Op) {
  switch (Op) {
  case VmOp::Mov: return "mov";
  case VmOp::AddI: return "add.i";
  case VmOp::SubI: return "sub.i";
  case VmOp::MulI: return "mul.i";
  case VmOp::DivI: return "div.i";
  case VmOp::ModI: return "mod.i";
  case VmOp::MinI: return "min.i";
  case VmOp::MaxI: return "max.i";
  case VmOp::DivU: return "div.u";
  case VmOp::ModU: return "mod.u";
  case VmOp::MinU: return "min.u";
  case VmOp::MaxU: return "max.u";
  case VmOp::AddF: return "add.f";
  case VmOp::SubF: return "sub.f";
  case VmOp::MulF: return "mul.f";
  case VmOp::DivF: return "div.f";
  case VmOp::ModF: return "mod.f";
  case VmOp::MinF: return "min.f";
  case VmOp::MaxF: return "max.f";
  case VmOp::EqI: return "eq.i";
  case VmOp::NeI: return "ne.i";
  case VmOp::LtI: return "lt.i";
  case VmOp::LeI: return "le.i";
  case VmOp::LtU: return "lt.u";
  case VmOp::LeU: return "le.u";
  case VmOp::EqF: return "eq.f";
  case VmOp::NeF: return "ne.f";
  case VmOp::LtF: return "lt.f";
  case VmOp::LeF: return "le.f";
  case VmOp::AndB: return "and.b";
  case VmOp::OrB: return "or.b";
  case VmOp::NotB: return "not.b";
  case VmOp::Select: return "select";
  case VmOp::CastIntWrap: return "cast.ii";
  case VmOp::CastIntToF: return "cast.if";
  case VmOp::CastUIntToF: return "cast.uf";
  case VmOp::CastFToInt: return "cast.fi";
  case VmOp::CastFToF: return "cast.ff";
  case VmOp::Ramp: return "ramp";
  case VmOp::BroadcastSlot: return "broadcast";
  case VmOp::Load: return "load";
  case VmOp::Store: return "store";
  case VmOp::LoadDense: return "load.dense";
  case VmOp::StoreDense: return "store.dense";
  case VmOp::Alloc: return "alloc";
  case VmOp::FreeOp: return "free";
  case VmOp::Jump: return "jump";
  case VmOp::JumpIfFalse: return "jump_if_false";
  case VmOp::LoopNext: return "loop_next";
  case VmOp::ParFor: return "par_for";
  case VmOp::TaskRet: return "task_ret";
  case VmOp::AssertCond: return "assert";
  case VmOp::CallExtern: return "call";
  case VmOp::CountParallel: return "count_parallel";
  case VmOp::Event: return "event";
  case VmOp::Halt: return "halt";
  }
  return "unknown";
}

const char *halide::vmExternName(VmExtern Fn) {
  switch (Fn) {
  case VmExtern::Sqrt: return "sqrt";
  case VmExtern::Sin: return "sin";
  case VmExtern::Cos: return "cos";
  case VmExtern::Exp: return "exp";
  case VmExtern::Log: return "log";
  case VmExtern::Floor: return "floor";
  case VmExtern::Ceil: return "ceil";
  case VmExtern::Round: return "round";
  case VmExtern::Pow: return "pow";
  }
  return "unknown";
}

namespace {

/// Disassembly mnemonic of an Event op, per kind.
const char *eventName(TraceEventKind Kind) {
  switch (Kind) {
  case TraceEventKind::ProfEnter: return "prof_enter";
  case TraceEventKind::ProfExit: return "prof_exit";
  case TraceEventKind::ProfChunk: return "prof_chunk";
  case TraceEventKind::ProfAlloc: return "prof_alloc";
  case TraceEventKind::ProfFree: return "prof_free";
  case TraceEventKind::TraceLoad: return "trace.load";
  case TraceEventKind::TraceStore: return "trace.store";
  case TraceEventKind::TraceBegin: return "trace.begin";
  case TraceEventKind::TraceEnd: return "trace.end";
  case TraceEventKind::TraceName: break;
  }
  return "event";
}

} // namespace

std::string VmProgram::disassemble() const {
  std::ostringstream OS;
  OS << "; " << Code.size() << " instructions, " << InitialRegs.size()
     << " register slots, " << Buffers.size() << " buffers, "
     << Params.size() << " params, " << Tasks.size() << " parallel tasks\n";
  for (size_t I = 0; I < Buffers.size(); ++I)
    OS << "; buf " << I << ": " << Buffers[I].Name << " ("
       << Buffers[I].ElemType.str()
       << (Buffers[I].IsBoundary ? Buffers[I].IsOutput ? ", output"
                                                       : ", input"
                                 : ", internal")
       << ")\n";
  for (const VmParamInit &P : Params)
    OS << "; param r" << P.Slot << " = " << P.Name << "\n";
  for (size_t I = 0; I < Code.size(); ++I) {
    const VmInstr &In = Code[I];
    OS << I << ":\t"
       << (In.Op == VmOp::Event ? eventName(TraceEventKind(In.C))
                                : vmOpName(In.Op));
    if (In.Lanes > 1)
      OS << " x" << In.Lanes;
    switch (In.Op) {
    case VmOp::Jump:
      OS << " -> " << In.Aux;
      break;
    case VmOp::JumpIfFalse:
      OS << " r" << In.A << " -> " << In.Aux;
      break;
    case VmOp::LoopNext:
      OS << " r" << In.A << " < r" << In.B << " -> " << In.Aux;
      break;
    case VmOp::Load:
      OS << " r" << In.Dst << ", buf" << In.Aux << "[r" << In.A << "]";
      break;
    case VmOp::Store:
      OS << " buf" << In.Aux << "[r" << In.B << "], r" << In.A;
      break;
    case VmOp::LoadDense:
      OS << " r" << In.Dst << ", buf" << In.Aux << "[r" << In.A << " ..]";
      break;
    case VmOp::StoreDense:
      OS << " buf" << In.Aux << "[r" << In.B << " ..], r" << In.A;
      break;
    case VmOp::Alloc:
      OS << " buf" << In.Aux << ", elems=r" << In.A;
      break;
    case VmOp::FreeOp:
      OS << " buf" << In.Aux;
      break;
    case VmOp::AssertCond:
      OS << " r" << In.A << ", \"" << Messages[size_t(In.Aux)] << "\"";
      break;
    case VmOp::CallExtern:
      OS << " r" << In.Dst << ", " << vmExternName(VmExtern(In.Aux))
         << "(r" << In.A;
      if (VmExtern(In.Aux) == VmExtern::Pow)
        OS << ", r" << In.B;
      OS << ")";
      break;
    case VmOp::CountParallel:
      OS << " r" << In.A;
      break;
    case VmOp::Event: {
      const TraceEventKind Kind = TraceEventKind(In.C);
      OS << " \"" << StageNames[size_t(In.Aux)] << "\"";
      if (Kind == TraceEventKind::TraceLoad ||
          Kind == TraceEventKind::TraceStore)
        OS << "[r" << In.A << (In.SignedWrap ? " ..]" : "]") << ", r" << In.B;
      else if (Kind == TraceEventKind::TraceBegin)
        OS << " extents=r" << In.A;
      else if (Kind == TraceEventKind::ProfAlloc)
        OS << " size=r" << In.A;
      break;
    }
    case VmOp::ParFor: {
      const VmTaskDesc &T = Tasks[size_t(In.Dst)];
      OS << " task" << In.Dst << " min=r" << In.A << " extent=r" << In.B
         << " counter=r" << T.CounterReg << " body=" << T.BodyStart
         << " -> " << In.Aux;
      break;
    }
    case VmOp::TaskRet:
    case VmOp::Halt:
      break;
    case VmOp::Select:
      OS << " r" << In.Dst << ", r" << In.C << " ? r" << In.A << " : r"
         << In.B;
      break;
    case VmOp::NotB:
    case VmOp::Mov:
    case VmOp::BroadcastSlot:
    case VmOp::CastIntWrap:
    case VmOp::CastIntToF:
    case VmOp::CastUIntToF:
    case VmOp::CastFToInt:
    case VmOp::CastFToF:
      OS << " r" << In.Dst << ", r" << In.A;
      break;
    default:
      OS << " r" << In.Dst << ", r" << In.A << ", r" << In.B;
      break;
    }
    OS << "\n";
  }
  return OS.str();
}
