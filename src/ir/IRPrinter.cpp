//===-- ir/IRPrinter.cpp ----------------------------------------------------=//

#include "ir/IRPrinter.h"

#include <ostream>
#include <sstream>

using namespace halide;

std::string halide::exprToString(const Expr &E) {
  std::ostringstream OS;
  OS << E;
  return OS.str();
}

std::string halide::stmtToString(const Stmt &S) {
  std::ostringstream OS;
  OS << S;
  return OS.str();
}

std::ostream &halide::operator<<(std::ostream &OS, const Expr &E) {
  if (!E.defined()) {
    OS << "(undefined)";
    return OS;
  }
  IRPrinter Printer(OS);
  Printer.print(E);
  return OS;
}

std::ostream &halide::operator<<(std::ostream &OS, const Stmt &S) {
  if (!S.defined()) {
    OS << "(undefined stmt)\n";
    return OS;
  }
  IRPrinter Printer(OS);
  Printer.print(S);
  return OS;
}

void IRPrinter::print(const Expr &E) { E.accept(this); }
void IRPrinter::print(const Stmt &S) { S.accept(this); }

void IRPrinter::indent() {
  for (int I = 0; I < IndentLevel; ++I)
    OS << "  ";
}

void IRPrinter::visit(const IntImm *Op) {
  if (Op->NodeType == Int(32)) {
    OS << Op->Value;
    return;
  }
  OS << "(" << Op->NodeType.str() << ")" << Op->Value;
}

void IRPrinter::visit(const UIntImm *Op) {
  if (Op->NodeType.isBool()) {
    OS << (Op->Value ? "true" : "false");
    return;
  }
  OS << "(" << Op->NodeType.str() << ")" << Op->Value;
}

void IRPrinter::visit(const FloatImm *Op) {
  OS << Op->Value << "f";
  if (Op->NodeType.Bits != 32)
    OS << Op->NodeType.Bits;
}

void IRPrinter::visit(const StringImm *Op) { OS << '"' << Op->Value << '"'; }

void IRPrinter::visit(const Cast *Op) {
  OS << Op->NodeType.str() << "(";
  print(Op->Value);
  OS << ")";
}

void IRPrinter::visit(const Variable *Op) { OS << Op->Name; }

template <typename T>
void IRPrinter::printBinary(const T *Op, const char *Symbol) {
  OS << "(";
  print(Op->A);
  OS << " " << Symbol << " ";
  print(Op->B);
  OS << ")";
}

void IRPrinter::visit(const Add *Op) { printBinary(Op, "+"); }
void IRPrinter::visit(const Sub *Op) { printBinary(Op, "-"); }
void IRPrinter::visit(const Mul *Op) { printBinary(Op, "*"); }
void IRPrinter::visit(const Div *Op) { printBinary(Op, "/"); }
void IRPrinter::visit(const Mod *Op) { printBinary(Op, "%"); }
void IRPrinter::visit(const EQ *Op) { printBinary(Op, "=="); }
void IRPrinter::visit(const NE *Op) { printBinary(Op, "!="); }
void IRPrinter::visit(const LT *Op) { printBinary(Op, "<"); }
void IRPrinter::visit(const LE *Op) { printBinary(Op, "<="); }
void IRPrinter::visit(const GT *Op) { printBinary(Op, ">"); }
void IRPrinter::visit(const GE *Op) { printBinary(Op, ">="); }
void IRPrinter::visit(const And *Op) { printBinary(Op, "&&"); }
void IRPrinter::visit(const Or *Op) { printBinary(Op, "||"); }

void IRPrinter::visit(const Min *Op) {
  OS << "min(";
  print(Op->A);
  OS << ", ";
  print(Op->B);
  OS << ")";
}

void IRPrinter::visit(const Max *Op) {
  OS << "max(";
  print(Op->A);
  OS << ", ";
  print(Op->B);
  OS << ")";
}

void IRPrinter::visit(const Not *Op) {
  OS << "!";
  print(Op->A);
}

void IRPrinter::visit(const Select *Op) {
  OS << "select(";
  print(Op->Condition);
  OS << ", ";
  print(Op->TrueValue);
  OS << ", ";
  print(Op->FalseValue);
  OS << ")";
}

void IRPrinter::visit(const Load *Op) {
  OS << Op->Name << "[";
  print(Op->Index);
  OS << "]";
}

void IRPrinter::visit(const Ramp *Op) {
  OS << "ramp(";
  print(Op->Base);
  OS << ", ";
  print(Op->Stride);
  OS << ", " << Op->Lanes << ")";
}

void IRPrinter::visit(const Broadcast *Op) {
  OS << "x" << Op->Lanes << "(";
  print(Op->Value);
  OS << ")";
}

void IRPrinter::visit(const Call *Op) {
  OS << Op->Name << "(";
  for (size_t I = 0; I < Op->Args.size(); ++I) {
    if (I > 0)
      OS << ", ";
    print(Op->Args[I]);
  }
  OS << ")";
}

void IRPrinter::visit(const Let *Op) {
  OS << "(let " << Op->Name << " = ";
  print(Op->Value);
  OS << " in ";
  print(Op->Body);
  OS << ")";
}

void IRPrinter::visit(const LetStmt *Op) {
  indent();
  OS << "let " << Op->Name << " = ";
  print(Op->Value);
  OS << "\n";
  print(Op->Body);
}

void IRPrinter::visit(const AssertStmt *Op) {
  indent();
  OS << "assert(";
  print(Op->Condition);
  OS << ", \"" << Op->Message << "\")\n";
}

void IRPrinter::visit(const ProducerConsumer *Op) {
  indent();
  OS << (Op->IsProducer ? "produce " : "consume ") << Op->Name << " {\n";
  ++IndentLevel;
  print(Op->Body);
  --IndentLevel;
  indent();
  OS << "}\n";
}

void IRPrinter::visit(const For *Op) {
  indent();
  OS << forTypeName(Op->Kind) << " (" << Op->Name << ", ";
  print(Op->MinExpr);
  OS << ", ";
  print(Op->Extent);
  OS << ") {\n";
  ++IndentLevel;
  print(Op->Body);
  --IndentLevel;
  indent();
  OS << "}\n";
}

void IRPrinter::visit(const Store *Op) {
  indent();
  OS << Op->Name << "[";
  print(Op->Index);
  OS << "] = ";
  print(Op->Value);
  OS << "\n";
}

void IRPrinter::visit(const Provide *Op) {
  indent();
  OS << Op->Name << "(";
  for (size_t I = 0; I < Op->Args.size(); ++I) {
    if (I > 0)
      OS << ", ";
    print(Op->Args[I]);
  }
  OS << ") = ";
  print(Op->Value);
  OS << "\n";
}

void IRPrinter::visit(const Allocate *Op) {
  indent();
  OS << "allocate " << Op->Name << "[" << Op->ElemType.str();
  for (const Expr &E : Op->Extents) {
    OS << " * ";
    print(E);
  }
  OS << "]\n";
  print(Op->Body);
}

void IRPrinter::visit(const Realize *Op) {
  indent();
  OS << "realize " << Op->Name << "(";
  for (size_t I = 0; I < Op->Bounds.size(); ++I) {
    if (I > 0)
      OS << ", ";
    OS << "[";
    print(Op->Bounds[I].Min);
    OS << ", ";
    print(Op->Bounds[I].Extent);
    OS << "]";
  }
  OS << ") {\n";
  ++IndentLevel;
  print(Op->Body);
  --IndentLevel;
  indent();
  OS << "}\n";
}

void IRPrinter::visit(const Block *Op) {
  print(Op->First);
  print(Op->Rest);
}

void IRPrinter::visit(const IfThenElse *Op) {
  indent();
  OS << "if (";
  print(Op->Condition);
  OS << ") {\n";
  ++IndentLevel;
  print(Op->ThenCase);
  --IndentLevel;
  if (Op->ElseCase.defined()) {
    indent();
    OS << "} else {\n";
    ++IndentLevel;
    print(Op->ElseCase);
    --IndentLevel;
  }
  indent();
  OS << "}\n";
}

void IRPrinter::visit(const Evaluate *Op) {
  indent();
  print(Op->Value);
  OS << "\n";
}
