//===-- codegen/CodeGenC.cpp -----------------------------------------------------=//

#include "codegen/CodeGenC.h"
#include "analysis/Scope.h"
#include "ir/IROperators.h"
#include "ir/IRVisitor.h"
#include "observe/Profiler.h"
#include "observe/TraceStream.h"
#include "runtime/Buffer.h"
#include "transforms/Instrument.h"

#include <map>
#include <set>
#include <sstream>

using namespace halide;

namespace {

/// C type of a scalar IR type.
std::string scalarCType(Type T) {
  if (T.isFloat())
    return T.Bits == 32 ? "float" : "double";
  if (T.isHandle())
    return "void*";
  if (T.isBool())
    return "uint8_t";
  return std::string(T.isUInt() ? "u" : "") + "int" +
         std::to_string(T.Bits) + "_t";
}

/// The prelude's macro naming a signed integer type's minimum.
std::string intMinMacro(Type T) {
  return "INT" + std::to_string(T.Bits) + "_MIN";
}

/// All the generated code uses of <stdint.h>, <math.h> and <string.h>,
/// declared through macros GCC and clang predefine: reading those
/// headers took more than a third of a one-function compile. The math
/// functions are the ones scalarMathName and float floor-mod emit. The
/// object is linked without libc (codegen/Jit.cpp), so memcpy and libm
/// resolve against the host process when it is loaded.
constexpr const char *Prelude =
    "typedef __INT8_TYPE__ int8_t;\n"
    "typedef __INT16_TYPE__ int16_t;\n"
    "typedef __INT32_TYPE__ int32_t;\n"
    "typedef __INT64_TYPE__ int64_t;\n"
    "typedef __UINT8_TYPE__ uint8_t;\n"
    "typedef __UINT16_TYPE__ uint16_t;\n"
    "typedef __UINT32_TYPE__ uint32_t;\n"
    "typedef __UINT64_TYPE__ uint64_t;\n"
    "#define INT8_MIN (-__INT8_MAX__ - 1)\n"
    "#define INT16_MIN (-__INT16_MAX__ - 1)\n"
    "#define INT32_MIN (-__INT32_MAX__ - 1)\n"
    "#define INT64_MIN (-__INT64_MAX__ - 1)\n"
    "void *memcpy(void *restrict, const void *restrict, __SIZE_TYPE__);\n"
    "float sqrtf(float); double sqrt(double);\n"
    "float sinf(float); double sin(double);\n"
    "float cosf(float); double cos(double);\n"
    "float expf(float); double exp(double);\n"
    "float logf(float); double log(double);\n"
    "float powf(float, float); double pow(double, double);\n"
    "float floorf(float); double floor(double);\n"
    "float ceilf(float); double ceil(double);\n"
    "float nearbyintf(float); double nearbyint(double);\n";

/// Short mangled tag of a scalar type ("i32", "u8", "f32", "b").
std::string typeTag(Type T) {
  if (T.isBool())
    return "b";
  if (T.isFloat())
    return "f" + std::to_string(T.Bits);
  return std::string(T.isUInt() ? "u" : "i") + std::to_string(T.Bits);
}

/// Name of the struct for a vector type ("hl_i32x8").
std::string vecCType(Type T) {
  internal_assert(T.isVector());
  return "hl_" + typeTag(T.element()) + "x" + std::to_string(T.Lanes);
}

std::string cTypeOf(Type T) {
  return T.isVector() ? vecCType(T) : scalarCType(T);
}

/// True when this vector type can be represented as a GCC/Clang native
/// vector (__attribute__((vector_size(N)))). GCC requires a power-of-two
/// lane count; everything vectorize() produces in practice (4/8/16) is.
/// Other lane counts keep the portable struct-of-lanes fallback.
bool nativeVectorOk(Type T) {
  if (!T.isVector() || T.isHandle())
    return false;
  int L = T.Lanes;
  return L >= 2 && (L & (L - 1)) == 0;
}

/// Integer vector type used for mask algebra and shuffle masks of T:
/// signed, same element width, same lane count. Vector compares on T
/// produce exactly this shape, and same-size vector casts reinterpret.
Type vecMaskType(Type T) {
  return Int(T.isBool() ? 8 : T.element().Bits, T.Lanes);
}

/// How a vector operation lowers onto native vectors. One row per IR op:
/// new vector ops land in the table below and are picked up by
/// CodeGen::vectorOpHelper without touching the per-op emitters.
enum class VecShape {
  Infix,     ///< lanewise infix arithmetic: a <op> b
  BoolLogic, ///< bitwise logic on 0/1 boolean vectors: a <op> b
  Compare,   ///< a <op> b, narrowed to a 0/1 boolean vector
  MinMax,    ///< native compare + mask blend
  FloorDiv,  ///< branch-free floor division with x/0 == 0
  FloorMod,  ///< branch-free floor remainder with x%0 == 0
};

struct VecOpRule {
  const char *Name; ///< helper suffix ("add", "lt", ...)
  const char *COp;  ///< C infix operator used in the body
  VecShape Shape;
};

const VecOpRule *vecOpRule(const std::string &Name) {
  static const VecOpRule Table[] = {
      // Dense arithmetic ("div" is the float-only true division; integer
      // division routes through the FloorDiv/FloorMod rows).
      {"add", "+", VecShape::Infix},
      {"sub", "-", VecShape::Infix},
      {"mul", "*", VecShape::Infix},
      {"div", "/", VecShape::Infix},
      // Comparisons, narrowed to 0/1 boolean vectors.
      {"eq", "==", VecShape::Compare},
      {"ne", "!=", VecShape::Compare},
      {"lt", "<", VecShape::Compare},
      {"le", "<=", VecShape::Compare},
      {"gt", ">", VecShape::Compare},
      {"ge", ">=", VecShape::Compare},
      // Logic on boolean vectors (lanes hold 0/1, so bitwise == logical).
      {"and", "&", VecShape::BoolLogic},
      {"or", "|", VecShape::BoolLogic},
      {"xor1", "^", VecShape::BoolLogic},
      // Compare + blend.
      {"min", "<", VecShape::MinMax},
      {"max", ">", VecShape::MinMax},
      // Euclidean-style floor division (matches the interpreter and VM).
      {"fdiv", "/", VecShape::FloorDiv},
      {"mod", "%", VecShape::FloorMod},
  };
  for (const VecOpRule &R : Table)
    if (Name == R.Name)
      return &R;
  return nullptr;
}

/// Sanitizes an IR name into a C identifier fragment.
std::string sanitize(const std::string &Name) {
  std::string Out;
  for (char C : Name) {
    if ((C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
        (C >= '0' && C <= '9'))
      Out += C;
    else
      Out += '_';
  }
  if (Out.empty() || (Out[0] >= '0' && Out[0] <= '9'))
    Out = "v" + Out;
  return Out;
}

/// Collects free variable names and referenced buffer names of a statement
/// (respecting Let/LetStmt/For/Allocate shadowing). Used to build closures
/// for parallel loop bodies.
class CollectCapture : public IRVisitor {
public:
  std::set<std::string> FreeVariables;
  std::set<std::string> BufferNames;

  void visit(const Variable *Op) override {
    if (!Shadowed.contains(Op->Name))
      FreeVariables.insert(Op->Name);
  }
  void visit(const Load *Op) override {
    if (!ShadowedBufs.contains(Op->Name))
      BufferNames.insert(Op->Name);
    IRVisitor::visit(Op);
  }
  void visit(const Store *Op) override {
    if (!ShadowedBufs.contains(Op->Name))
      BufferNames.insert(Op->Name);
    IRVisitor::visit(Op);
  }
  void visit(const Call *Op) override {
    // A traced store replaces the Store node outright, so the stored-to
    // buffer is named only by the event's stage argument here.
    if (Op->CallKind == CallType::Intrinsic && Op->Name == Call::Instrument &&
        instrumentKind(Op) == TraceEventKind::TraceStore &&
        !ShadowedBufs.contains(instrumentStage(Op)))
      BufferNames.insert(instrumentStage(Op));
    IRVisitor::visit(Op);
  }
  void visit(const Let *Op) override {
    Op->Value.accept(this);
    ScopedBinding<int> Bind(Shadowed, Op->Name, 0);
    Op->Body.accept(this);
  }
  void visit(const LetStmt *Op) override {
    Op->Value.accept(this);
    ScopedBinding<int> Bind(Shadowed, Op->Name, 0);
    Op->Body.accept(this);
  }
  void visit(const For *Op) override {
    Op->MinExpr.accept(this);
    Op->Extent.accept(this);
    ScopedBinding<int> Bind(Shadowed, Op->Name, 0);
    Op->Body.accept(this);
  }
  void visit(const Allocate *Op) override {
    for (const Expr &E : Op->Extents)
      E.accept(this);
    ScopedBinding<int> Bind(ShadowedBufs, Op->Name, 0);
    Op->Body.accept(this);
  }

private:
  Scope<int> Shadowed, ShadowedBufs;
};

/// State of one C-emission.
class CodeGen {
public:
  CodeGen(const LoweredPipeline &P, const std::string &FnName)
      : P(P), FnName(FnName) {}

  std::string run() {
    emitMain();
    std::ostringstream Out;
    Out << "/* Generated by the halide-pldi13-repro compiler. Do not edit. "
           "*/\n"
        << Prelude << "\n"
        << "typedef struct hl_vtable {\n"
        << "  void *(*Malloc)(int64_t);\n  void (*Free)(void *);\n"
        << "  int (*ParFor)(int64_t, int64_t, int, "
           "void (*)(int64_t, int64_t, int, void *), void *);\n"
        << "  void (*GpuLaunch)(const struct hl_vtable *, int32_t, "
           "void (*)(int64_t, int64_t, int, void *), void *);\n"
        << "  void (*Abort)(const char *);\n"
        << "  void (*Event)(int32_t, int32_t, int32_t, int32_t, "
           "const int32_t *, int32_t, const uint64_t *);\n"
        << "  void *GpuRun;\n"
        << "  int MaxTasks;\n"
        << "} hl_vtable;\n\n"
        << TypedefText.str() << "\n"
        << HelperText.str() << "\n"
        << FunctionText.str() << "\n"
        << MainText.str();
    return Out.str();
  }

private:
  //===------------------------------------------------------------------===//
  // Helper/typedef emission (on demand)
  //===------------------------------------------------------------------===//

  void needVectorType(Type T) {
    internal_assert(T.isVector());
    std::string Name = vecCType(T);
    if (!EmittedHelpers.insert("type:" + Name).second)
      return;
    if (nativeVectorOk(T)) {
      int ElemBytes = T.isBool() ? 1 : T.element().Bits / 8;
      TypedefText << "typedef " << scalarCType(T.element()) << " " << Name
                  << " __attribute__((vector_size(" << T.Lanes * ElemBytes
                  << ")));\n";
    } else {
      TypedefText << "typedef struct " << Name << " { "
                  << scalarCType(T.element()) << " v[" << T.Lanes
                  << "]; } " << Name << ";\n";
    }
  }

  /// Lane accessor valid in generated helpers: native vectors subscript
  /// directly, the struct fallback goes through its array member.
  static std::string laneRef(Type T, const std::string &V,
                             const std::string &I) {
    return V + (nativeVectorOk(T) ? "[" : ".v[") + I + "]";
  }

  /// Compound-literal lane list "{f(0), f(1), ...}" for native vectors.
  template <typename Fn> static std::string laneList(int Lanes, Fn F) {
    std::string Out = "{";
    for (int L = 0; L < Lanes; ++L)
      Out += (L ? ", " : "") + F(L);
    return Out + "}";
  }

  /// Emits a helper definition once; Key identifies it, Definition is the
  /// full text.
  void needHelper(const std::string &Key, const std::string &Definition) {
    if (!EmittedHelpers.insert(Key).second)
      return;
    HelperText << Definition << "\n";
  }

  std::string laneLoop(int Lanes, const std::string &Body) {
    std::ostringstream OS;
    OS << "  for (int l = 0; l < " << Lanes << "; ++l) " << Body << "\n";
    return OS.str();
  }

  /// Scalar floor-division / floor-mod helpers for signed ints; guarded
  /// division for unsigned (x/0 == 0 in the IR's semantics).
  std::string scalarDivHelper(Type T, bool IsMod) {
    std::string CT = scalarCType(T);
    std::string Tag = typeTag(T);
    std::string Name = std::string("hl_") + (IsMod ? "mod" : "div") + "_" +
                       Tag;
    std::ostringstream Def;
    Def << "static inline " << CT << " " << Name << "(" << CT << " a, "
        << CT << " b) {\n  if (b == 0) return 0;\n";
    if (T.isInt()) {
      // The minimum over -1 divides by 1 instead: the minimum is its
      // wrapped quotient and 0 its remainder, where a / b would trap.
      Def << "  if (b == -1 && a == " << intMinMacro(T) << ") b = 1;\n"
          << "  " << CT << " q = a / b;\n  " << CT << " r = a - q * b;\n"
          << "  if (r != 0 && ((r < 0) != (b < 0))) { q -= 1; r += b; }\n"
          << "  return " << (IsMod ? "r" : "q") << ";\n}";
    } else {
      Def << "  return a " << (IsMod ? "%" : "/") << " b;\n}";
    }
    needHelper(Name, Def.str());
    return Name;
  }

  std::string scalarMinMaxHelper(Type T, bool IsMax) {
    std::string CT = scalarCType(T);
    std::string Name = std::string("hl_") + (IsMax ? "max" : "min") + "_" +
                       typeTag(T);
    needHelper(Name, "static inline " + CT + " " + Name + "(" + CT + " a, " +
                         CT + " b) { return " +
                         (IsMax ? "a > b ? a : b" : "a < b ? a : b") +
                         "; }");
    return Name;
  }

  /// Emits (once) and names the helper implementing vector op OpName on
  /// operand type T, consulting the op table above. Power-of-two lane
  /// counts get native-vector bodies (single SIMD expressions, mask
  /// algebra for blends since C lacks a vector ?:); other lane counts get
  /// the portable struct lane loop. T is the operand type; Compare-shaped
  /// ops return the matching boolean vector.
  std::string vectorOpHelper(Type T, const std::string &OpName) {
    const VecOpRule *Rule = vecOpRule(OpName);
    internal_assert(Rule) << "codegen: no vector op rule for " << OpName;
    needVectorType(T);
    std::string VT = vecCType(T);
    std::string Name = VT + "_" + OpName;
    if (EmittedHelpers.count(Name))
      return Name;

    std::string RetVT = VT;
    if (Rule->Shape == VecShape::Compare) {
      needVectorType(Bool(T.Lanes));
      RetVT = vecCType(Bool(T.Lanes));
    }
    std::string COp = Rule->COp;
    std::ostringstream Def;
    Def << "static inline " << RetVT << " " << Name << "(" << VT << " a, "
        << VT << " b) {\n";

    if (!nativeVectorOk(T)) {
      // Portable lane-loop fallback (non-power-of-two lane counts).
      switch (Rule->Shape) {
      case VecShape::Infix:
      case VecShape::BoolLogic:
        Def << "  " << VT << " r;\n"
            << laneLoop(T.Lanes, "r.v[l] = a.v[l] " + COp + " b.v[l];")
            << "  return r;\n}";
        break;
      case VecShape::Compare:
        Def << "  " << RetVT << " r;\n"
            << laneLoop(T.Lanes,
                        "r.v[l] = a.v[l] " + COp + " b.v[l] ? 1 : 0;")
            << "  return r;\n}";
        break;
      case VecShape::MinMax: {
        std::string Scalar = scalarMinMaxHelper(T.element(), OpName == "max");
        Def << "  " << VT << " r;\n"
            << laneLoop(T.Lanes, "r.v[l] = " + Scalar + "(a.v[l], b.v[l]);")
            << "  return r;\n}";
        break;
      }
      case VecShape::FloorDiv:
      case VecShape::FloorMod: {
        std::string Scalar = scalarDivHelper(
            T.element(), Rule->Shape == VecShape::FloorMod);
        Def << "  " << VT << " r;\n"
            << laneLoop(T.Lanes, "r.v[l] = " + Scalar + "(a.v[l], b.v[l]);")
            << "  return r;\n}";
        break;
      }
      }
      needHelper(Name, Def.str());
      return Name;
    }

    Type MaskT = vecMaskType(T);
    needVectorType(MaskT);
    std::string MT = vecCType(MaskT);
    switch (Rule->Shape) {
    case VecShape::Infix:
    case VecShape::BoolLogic:
      Def << "  return a " << COp << " b;\n}";
      break;
    case VecShape::Compare:
      // Vector compares yield full-width 0/-1 masks; narrow to the 0/1
      // boolean vector the IR expects.
      Def << "  return __builtin_convertvector((a " << COp << " b) & 1, "
          << RetVT << ");\n}";
      break;
    case VecShape::MinMax:
      // Blend through the same-width integer mask: C has no vector ?:.
      Def << "  " << MT << " m = a " << COp << " b;\n"
          << "  return (" << VT << ")(((" << MT << ")a & m) | ((" << MT
          << ")b & ~m));\n}";
      break;
    case VecShape::FloorDiv:
    case VecShape::FloorMod: {
      bool IsMod = Rule->Shape == VecShape::FloorMod;
      // Branch-free: substitute 1 for zero divisors, divide, then zero the
      // affected lanes; signed types additionally substitute 1 for -1
      // under the minimum (as in the scalar helper) and floor-adjust lanes
      // whose remainder sign differs from the divisor's.
      Def << "  " << VT << " bz = (" << VT << ")(b == 0);\n";
      if (T.element().isInt()) {
        Def << "  " << VT << " bm = (" << VT << ")((a == "
            << intMinMacro(T.element()) << ") & (b == -1));\n"
            << "  " << VT << " bs = (b & ~bm) | ((bz | bm) & 1);\n"
            << "  " << VT << " q = a / bs;\n"
            << "  " << VT << " r = a - q * bs;\n"
            << "  " << VT << " adj = (" << VT
            << ")((r != 0) & ((r ^ bs) < 0));\n";
        if (IsMod)
          Def << "  r += bs & adj;\n  return r & ~bz;\n}";
        else
          Def << "  q += adj;\n  return q & ~bz;\n}";
      } else {
        Def << "  " << VT << " bs = b | (bz & 1);\n"
            << "  return (a " << (IsMod ? "%" : "/") << " bs) & ~bz;\n}";
      }
      break;
    }
    }
    needHelper(Name, Def.str());
    return Name;
  }

  std::string vectorSplatHelper(Type T) {
    needVectorType(T);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string Name = VT + "_splat";
    std::string Body;
    if (nativeVectorOk(T))
      Body = "  return (" + VT + ")" +
             laneList(T.Lanes, [](int) { return std::string("x"); }) + ";\n}";
    else
      Body = "  " + VT + " r;\n" + laneLoop(T.Lanes, "r.v[l] = x;") +
             "  return r;\n}";
    needHelper(Name, "static inline " + VT + " " + Name + "(" + CT +
                         " x) {\n" + Body);
    return Name;
  }

  std::string vectorRampHelper(Type T) {
    needVectorType(T);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string Name = VT + "_ramp";
    std::string Body;
    if (nativeVectorOk(T))
      // One broadcast-add over the iota constant; folds to a single
      // vector op after constant propagation.
      Body = "  return base + (" + VT + ")" +
             laneList(T.Lanes,
                      [&](int L) { return "(" + CT + ")" + std::to_string(L); }) +
             " * stride;\n}";
    else
      Body = "  " + VT + " r;\n" +
             laneLoop(T.Lanes, "r.v[l] = base + (" + CT + ")l * stride;") +
             "  return r;\n}";
    needHelper(Name, "static inline " + VT + " " + Name + "(" + CT +
                         " base, " + CT + " stride) {\n" + Body);
    return Name;
  }

  std::string vectorSelectHelper(Type T) {
    needVectorType(T);
    Type BT = Bool(T.Lanes);
    needVectorType(BT);
    std::string VT = vecCType(T), BVT = vecCType(BT);
    std::string Name = VT + "_select";
    std::string Body;
    if (nativeVectorOk(T)) {
      // Widen the 0/1 byte mask to element width, turn it into a 0/-1
      // mask, then blend bitwise (C has no vector ?:). Float payloads
      // round-trip through the same-size integer vector.
      Type MaskT = vecMaskType(T);
      needVectorType(MaskT);
      std::string MT = vecCType(MaskT);
      Body = "  " + MT + " w = __builtin_convertvector(m, " + MT +
             ") != 0;\n  return (" + VT + ")(((" + MT + ")a & w) | ((" + MT +
             ")b & ~w));\n}";
    } else {
      Body = "  " + VT + " r;\n" +
             laneLoop(T.Lanes, "r.v[l] = m.v[l] ? a.v[l] : b.v[l];") +
             "  return r;\n}";
    }
    needHelper(Name, "static inline " + VT + " " + Name + "(" + BVT +
                         " m, " + VT + " a, " + VT + " b) {\n" + Body);
    return Name;
  }

  std::string vectorLoadHelper(Type T) {
    needVectorType(T);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string Name = VT + "_load";
    needHelper(Name, "static inline " + VT + " " + Name + "(const " + CT +
                         " *p) {\n  " + VT +
                         " r;\n  memcpy(&r, p, sizeof(r));\n  return r;\n}");
    return Name;
  }

  std::string vectorStoreHelper(Type T) {
    needVectorType(T);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string Name = VT + "_store";
    needHelper(Name, "static inline void " + Name + "(" + CT + " *p, " + VT +
                         " x) {\n  memcpy(p, &x, sizeof(x));\n}");
    return Name;
  }

  /// Dense load of the Lanes preceding-and-including *p in reverse order:
  /// the vector equivalent of a stride -1 ramp (e.g. mirrored boundaries).
  /// One contiguous load + lane reverse instead of Lanes scalar gathers.
  std::string vectorReverseLoadHelper(Type T) {
    needVectorType(T);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string Name = VT + "_load_rev";
    std::string Body;
    if (nativeVectorOk(T)) {
      Type MaskT = vecMaskType(T);
      needVectorType(MaskT);
      Body = "  " + VT + " r;\n  memcpy(&r, p, sizeof(r));\n  return "
             "__builtin_shuffle(r, (" + vecCType(MaskT) + ")" +
             laneList(T.Lanes,
                      [&](int L) { return std::to_string(T.Lanes - 1 - L); }) +
             ");\n}";
    } else {
      Body = "  " + VT + " r;\n" +
             laneLoop(T.Lanes,
                      "r.v[l] = p[" + std::to_string(T.Lanes - 1) + " - l];") +
             "  return r;\n}";
    }
    needHelper(Name, "static inline " + VT + " " + Name + "(const " + CT +
                         " *p) {\n" + Body);
    return Name;
  }

  /// Dense store of x's lanes in reverse order starting at *p; the store
  /// counterpart of vectorReverseLoadHelper.
  std::string vectorReverseStoreHelper(Type T) {
    needVectorType(T);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string Name = VT + "_store_rev";
    std::string Body;
    if (nativeVectorOk(T)) {
      Type MaskT = vecMaskType(T);
      needVectorType(MaskT);
      Body = "  x = __builtin_shuffle(x, (" + vecCType(MaskT) + ")" +
             laneList(T.Lanes,
                      [&](int L) { return std::to_string(T.Lanes - 1 - L); }) +
             ");\n  memcpy(p, &x, sizeof(x));\n}";
    } else {
      Body = laneLoop(T.Lanes,
                      "p[" + std::to_string(T.Lanes - 1) + " - l] = x.v[l];") +
             "}";
    }
    needHelper(Name, "static inline void " + Name + "(" + CT + " *p, " + VT +
                         " x) {\n" + Body);
    return Name;
  }

  /// A vector load index of the form Off + clamp(ramp(Base, 1, L), Lo,
  /// Hi) — the shape every clamped-boundary stencil tap lowers to. All
  /// four pieces are scalar expressions; Off may be undefined (zero).
  struct ClampedRampIndex {
    Expr Off;
    Expr Base;
    Expr Lo, Hi;
  };

  static bool matchClampedRampIndex(const Expr &Index,
                                    ClampedRampIndex *Out) {
    auto UnitRamp = [](const Expr &E) -> const Ramp * {
      const Ramp *R = E.as<Ramp>();
      int64_t Stride;
      return R && asConstInt(R->Stride, &Stride) && Stride == 1 ? R
                                                                : nullptr;
    };
    // The clamp core, in either nesting order (the simplifier does not
    // canonicalize min-of-max vs max-of-min) and with the broadcast on
    // either side of each node.
    if (const Max *M = Index.as<Max>()) {
      const Min *Inner = M->A.as<Min>() ? M->A.as<Min>() : M->B.as<Min>();
      const Broadcast *Lo =
          M->A.as<Min>() ? M->B.as<Broadcast>() : M->A.as<Broadcast>();
      if (Inner && Lo) {
        const Ramp *R = UnitRamp(Inner->A) ? UnitRamp(Inner->A)
                                           : UnitRamp(Inner->B);
        const Broadcast *Hi = UnitRamp(Inner->A)
                                  ? Inner->B.as<Broadcast>()
                                  : Inner->A.as<Broadcast>();
        if (R && Hi) {
          Out->Base = R->Base;
          Out->Lo = Lo->Value;
          Out->Hi = Hi->Value;
          return true;
        }
      }
    }
    if (const Min *M = Index.as<Min>()) {
      const Max *Inner = M->A.as<Max>() ? M->A.as<Max>() : M->B.as<Max>();
      const Broadcast *Hi =
          M->A.as<Max>() ? M->B.as<Broadcast>() : M->A.as<Broadcast>();
      if (Inner && Hi) {
        const Ramp *R = UnitRamp(Inner->A) ? UnitRamp(Inner->A)
                                           : UnitRamp(Inner->B);
        const Broadcast *Lo = UnitRamp(Inner->A)
                                  ? Inner->B.as<Broadcast>()
                                  : Inner->A.as<Broadcast>();
        if (R && Lo) {
          Out->Base = R->Base;
          Out->Lo = Lo->Value;
          Out->Hi = Hi->Value;
          return true;
        }
      }
    }
    // Affine wrappers: a broadcast added to / subtracted from the clamp
    // folds into the scalar byte offset.
    auto AddOff = [Out](const Expr &E, bool Negate) {
      Expr Term = Negate ? Sub::make(makeZero(E.type()), E) : E;
      Out->Off = Out->Off.defined() ? Add::make(Out->Off, Term) : Term;
    };
    if (const Add *A = Index.as<Add>()) {
      if (const Broadcast *B = A->B.as<Broadcast>())
        if (matchClampedRampIndex(A->A, Out)) {
          AddOff(B->Value, false);
          return true;
        }
      if (const Broadcast *B = A->A.as<Broadcast>())
        if (matchClampedRampIndex(A->B, Out)) {
          AddOff(B->Value, false);
          return true;
        }
    }
    if (const Sub *S = Index.as<Sub>())
      if (const Broadcast *B = S->B.as<Broadcast>())
        if (matchClampedRampIndex(S->A, Out)) {
          AddOff(B->Value, true);
          return true;
        }
    return false;
  }

  /// Load of Lanes elements at clamp(base + l, lo, hi) + off: a dense
  /// contiguous load whenever the whole lane range sits inside [lo, hi]
  /// (the interior of a clamped-boundary stencil — almost every
  /// iteration), a per-lane clamping gather on the boundary columns.
  std::string vectorClampedLoadHelper(Type T) {
    needVectorType(T);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string Name = VT + "_load_clamped";
    std::string Body =
        "  " + VT + " r;\n  if (lo <= base && base + " +
        std::to_string(T.Lanes - 1) +
        " <= hi) {\n    memcpy(&r, p + off + base, sizeof(r));\n    "
        "return r;\n  }\n" +
        laneLoop(T.Lanes, "{ int32_t i = base + l; i = i < lo ? lo : i; "
                          "i = i > hi ? hi : i; " +
                              laneRef(T, "r", "l") + " = p[off + i]; }") +
        "  return r;\n}";
    needHelper(Name, "static inline " + VT + " " + Name + "(const " + CT +
                         " *p, int32_t off, int32_t base, int32_t lo, "
                         "int32_t hi) {\n" +
                         Body);
    return Name;
  }

  std::string vectorStridedLoadHelper(Type T) {
    needVectorType(T);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string Name = VT + "_load_strided";
    needHelper(Name,
               "static inline " + VT + " " + Name + "(const " + CT +
                   " *p, int32_t s) {\n  " + VT + " r;\n" +
                   laneLoop(T.Lanes,
                            laneRef(T, "r", "l") + " = p[(int64_t)l * s];") +
                   "  return r;\n}");
    return Name;
  }

  std::string vectorGatherHelper(Type T, Type IndexT) {
    needVectorType(T);
    needVectorType(IndexT);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string IVT = vecCType(IndexT);
    std::string Name = VT + "_gather_" + typeTag(IndexT.element());
    needHelper(Name,
               "static inline " + VT + " " + Name + "(const " + CT +
                   " *p, " + IVT + " idx) {\n  " + VT + " r;\n" +
                   laneLoop(T.Lanes, laneRef(T, "r", "l") + " = p[" +
                                         laneRef(IndexT, "idx", "l") + "];") +
                   "  return r;\n}");
    return Name;
  }

  std::string vectorScatterHelper(Type T, Type IndexT) {
    needVectorType(T);
    needVectorType(IndexT);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string IVT = vecCType(IndexT);
    std::string Name = VT + "_scatter_" + typeTag(IndexT.element());
    needHelper(Name,
               "static inline void " + Name + "(" + CT + " *p, " + IVT +
                   " idx, " + VT + " x) {\n" +
                   laneLoop(T.Lanes, "p[" + laneRef(IndexT, "idx", "l") +
                                         "] = " + laneRef(T, "x", "l") +
                                         ";") +
                   "}");
    return Name;
  }

  std::string vectorCastHelper(Type From, Type To) {
    needVectorType(From);
    needVectorType(To);
    std::string Name = "hl_cast_" + typeTag(From.element()) + "x" +
                       std::to_string(From.Lanes) + "_" +
                       typeTag(To.element());
    std::string Body;
    if (nativeVectorOk(From) && nativeVectorOk(To))
      // __builtin_convertvector has C cast semantics per lane.
      Body = "  return __builtin_convertvector(a, " + vecCType(To) + ");\n}";
    else
      Body = "  " + vecCType(To) + " r;\n" +
             laneLoop(To.Lanes, laneRef(To, "r", "l") + " = (" +
                                    scalarCType(To.element()) + ")" +
                                    laneRef(From, "a", "l") + ";") +
             "  return r;\n}";
    needHelper(Name, "static inline " + vecCType(To) + " " + Name + "(" +
                         vecCType(From) + " a) {\n" + Body);
    return Name;
  }

  std::string vectorMathHelper(Type T, const std::string &Fn, int Arity) {
    needVectorType(T);
    std::string VT = vecCType(T);
    std::string CFn = scalarMathName(Fn, T.element());
    std::string Name = VT + "_" + Fn;
    std::string Params = VT + " a" + (Arity == 2 ? ", " + VT + " b" : "");
    // Math calls stay lane loops: libm has no vector entry points here.
    std::string Call =
        Arity == 2 ? CFn + "(" + laneRef(T, "a", "l") + ", " +
                         laneRef(T, "b", "l") + ")"
                   : CFn + "(" + laneRef(T, "a", "l") + ")";
    needHelper(Name,
               "static inline " + VT + " " + Name + "(" + Params +
                   ") {\n  " + VT + " r;\n" +
                   laneLoop(T.Lanes, laneRef(T, "r", "l") + " = " + Call +
                                         ";") +
                   "  return r;\n}");
    return Name;
  }

  /// The libm function for math call \p Fn on \p Elem. Every name it can
  /// return must be declared in Prelude.
  static std::string scalarMathName(const std::string &Fn, Type Elem) {
    std::string Base = Fn == "round" ? "nearbyint" : Fn;
    return Elem.Bits == 32 ? Base + "f" : Base;
  }

  //===------------------------------------------------------------------===//
  // Expression emission
  //===------------------------------------------------------------------===//

  std::string freshName(const std::string &Base) {
    return sanitize(Base) + "_" + std::to_string(NameCounter++);
  }

  std::string emit(const Expr &E) {
    switch (E->Kind) {
    case IRNodeKind::IntImm: {
      const IntImm *Op = E.as<IntImm>();
      std::ostringstream OS;
      if (Op->NodeType.Bits == 64)
        OS << "(int64_t)" << Op->Value << "LL";
      else
        OS << "(" << scalarCType(Op->NodeType) << ")" << Op->Value;
      return OS.str();
    }
    case IRNodeKind::UIntImm: {
      const UIntImm *Op = E.as<UIntImm>();
      std::ostringstream OS;
      OS << "(" << scalarCType(Op->NodeType) << ")" << Op->Value << "ULL";
      return OS.str();
    }
    case IRNodeKind::FloatImm: {
      const FloatImm *Op = E.as<FloatImm>();
      std::ostringstream OS;
      OS.precision(17);
      OS << "(" << scalarCType(Op->NodeType) << ")(" << std::scientific
         << Op->Value << ")";
      return OS.str();
    }
    case IRNodeKind::StringImm:
      internal_error << "codegen: string immediate in expression";
      return "";
    case IRNodeKind::Cast:
      return emitCast(E.as<Cast>());
    case IRNodeKind::Variable:
      return emitVariable(E.as<Variable>());
    case IRNodeKind::Add:
      return emitBinary(E, E.as<Add>()->A, E.as<Add>()->B, "add", "+");
    case IRNodeKind::Sub:
      return emitBinary(E, E.as<Sub>()->A, E.as<Sub>()->B, "sub", "-");
    case IRNodeKind::Mul:
      return emitBinary(E, E.as<Mul>()->A, E.as<Mul>()->B, "mul", "*");
    case IRNodeKind::Div:
      return emitDivMod(E, false);
    case IRNodeKind::Mod:
      return emitDivMod(E, true);
    case IRNodeKind::Min:
      return emitMinMax(E, false);
    case IRNodeKind::Max:
      return emitMinMax(E, true);
    case IRNodeKind::EQ:
      return emitCompare(E, E.as<EQ>()->A, E.as<EQ>()->B, "eq", "==");
    case IRNodeKind::NE:
      return emitCompare(E, E.as<NE>()->A, E.as<NE>()->B, "ne", "!=");
    case IRNodeKind::LT:
      return emitCompare(E, E.as<LT>()->A, E.as<LT>()->B, "lt", "<");
    case IRNodeKind::LE:
      return emitCompare(E, E.as<LE>()->A, E.as<LE>()->B, "le", "<=");
    case IRNodeKind::GT:
      return emitCompare(E, E.as<GT>()->A, E.as<GT>()->B, "gt", ">");
    case IRNodeKind::GE:
      return emitCompare(E, E.as<GE>()->A, E.as<GE>()->B, "ge", ">=");
    case IRNodeKind::And:
      return emitCompare(E, E.as<And>()->A, E.as<And>()->B, "and", "&&");
    case IRNodeKind::Or:
      return emitCompare(E, E.as<Or>()->A, E.as<Or>()->B, "or", "||");
    case IRNodeKind::Not: {
      const Not *Op = E.as<Not>();
      std::string A = emit(Op->A);
      if (E.type().isScalar())
        return "(!" + A + ")";
      std::string Helper = vectorOpHelper(E.type(), "xor1");
      std::string Splat = vectorSplatHelper(E.type());
      return Helper + "(" + A + ", " + Splat + "(1))";
    }
    case IRNodeKind::Select:
      return emitSelect(E.as<Select>());
    case IRNodeKind::Load:
      return emitLoad(E.as<Load>());
    case IRNodeKind::Ramp: {
      const Ramp *Op = E.as<Ramp>();
      std::string Helper = vectorRampHelper(Op->NodeType);
      return Helper + "(" + emit(Op->Base) + ", " + emit(Op->Stride) + ")";
    }
    case IRNodeKind::Broadcast: {
      const Broadcast *Op = E.as<Broadcast>();
      std::string Helper = vectorSplatHelper(Op->NodeType);
      return Helper + "(" + emit(Op->Value) + ")";
    }
    case IRNodeKind::Call:
      return emitCall(E.as<Call>());
    case IRNodeKind::Let: {
      const Let *Op = E.as<Let>();
      std::string Value = emit(Op->Value);
      std::string CName = freshName(Op->Name);
      line("const " + cTypeOf(Op->Value.type()) + " " + CName + " = " +
           Value + ";");
      ScopedBinding<std::string> Bind(VarNames, Op->Name, CName);
      ScopedBinding<std::string> BindType(VarTypes, Op->Name,
                                          cTypeOf(Op->Value.type()));
      return emit(Op->Body);
    }
    default:
      internal_error << "codegen: statement kind in expression position";
      return "";
    }
  }

  std::string emitVariable(const Variable *Op) {
    internal_assert(VarNames.contains(Op->Name))
        << "codegen: unbound variable " << Op->Name;
    return VarNames.get(Op->Name);
  }

  std::string emitCast(const Cast *Op) {
    std::string V = emit(Op->Value);
    if (Op->NodeType.isScalar())
      return "((" + scalarCType(Op->NodeType) + ")(" + V + "))";
    std::string Helper = vectorCastHelper(Op->Value.type(), Op->NodeType);
    return Helper + "(" + V + ")";
  }

  std::string emitBinary(const Expr &E, const Expr &A, const Expr &B,
                         const char *Name, const char *COp) {
    std::string SA = emit(A), SB = emit(B);
    if (E.type().isScalar())
      return "(" + SA + " " + COp + " " + SB + ")";
    std::string Helper = vectorOpHelper(E.type(), Name);
    return Helper + "(" + SA + ", " + SB + ")";
  }

  std::string emitDivMod(const Expr &E, bool IsMod) {
    const Expr &A = IsMod ? Expr(E.as<Mod>()->A) : Expr(E.as<Div>()->A);
    const Expr &B = IsMod ? Expr(E.as<Mod>()->B) : Expr(E.as<Div>()->B);
    Type T = E.type();
    // A positive power-of-two divisor 2^k (on native vectors, a splat of
    // one) is an arithmetic shift and a mask: both are floor division and
    // floor modulo on two's-complement integers (GCC and clang shift
    // signed values arithmetically, lane by lane on vectors).
    int64_t Divisor;
    if (!T.isFloat() && (T.isScalar() || nativeVectorOk(T)) &&
        asConstInt(B, &Divisor) && Divisor > 0 &&
        (Divisor & (Divisor - 1)) == 0) {
      std::string SA = emit(A);
      std::string CT = scalarCType(T.element());
      if (IsMod)
        return "((" + cTypeOf(T) + ")(" + SA + " & (" + CT + ")" +
               std::to_string(Divisor - 1) + (T.Bits == 64 ? "LL" : "") +
               "))";
      return "((" + cTypeOf(T) + ")(" + SA + " >> " +
             std::to_string(__builtin_ctzll(uint64_t(Divisor))) + "))";
    }
    std::string SA = emit(A), SB = emit(B);
    if (T.isFloat()) {
      if (IsMod) {
        // Floor-mod on floats: a - floor(a/b)*b.
        if (T.isScalar()) {
          std::string FloorFn = T.Bits == 32 ? "floorf" : "floor";
          return "(" + SA + " - " + FloorFn + "(" + SA + " / " + SB +
                 ") * " + SB + ")";
        }
        // Dedicated helper for float vector mod: floor() keeps it a lane
        // loop in both vector representations.
        needVectorType(T);
        std::string VT = vecCType(T);
        std::string FloorFn = T.element().Bits == 32 ? "floorf" : "floor";
        needHelper(VT + "_fmod2",
                   "static inline " + VT + " " + VT + "_fmod2(" + VT +
                       " a, " + VT + " b) {\n  " + VT + " r;\n" +
                       laneLoop(T.Lanes,
                                laneRef(T, "r", "l") + " = " +
                                    laneRef(T, "a", "l") + " - " + FloorFn +
                                    "(" + laneRef(T, "a", "l") + " / " +
                                    laneRef(T, "b", "l") + ") * " +
                                    laneRef(T, "b", "l") + ";") +
                       "  return r;\n}");
        return VT + "_fmod2(" + SA + ", " + SB + ")";
      }
      if (T.isScalar())
        return "(" + SA + " / " + SB + ")";
      return vectorOpHelper(T, "div") + "(" + SA + ", " + SB + ")";
    }
    if (T.isScalar())
      return scalarDivHelper(T, IsMod) + "(" + SA + ", " + SB + ")";
    std::string Helper = vectorOpHelper(T, IsMod ? "mod" : "fdiv");
    return Helper + "(" + SA + ", " + SB + ")";
  }

  std::string emitMinMax(const Expr &E, bool IsMax) {
    const Expr &A = IsMax ? Expr(E.as<Max>()->A) : Expr(E.as<Min>()->A);
    const Expr &B = IsMax ? Expr(E.as<Max>()->B) : Expr(E.as<Min>()->B);
    std::string SA = emit(A), SB = emit(B);
    Type T = E.type();
    if (T.isScalar())
      return scalarMinMaxHelper(T, IsMax) + "(" + SA + ", " + SB + ")";
    std::string Helper = vectorOpHelper(T, IsMax ? "max" : "min");
    return Helper + "(" + SA + ", " + SB + ")";
  }

  std::string emitCompare(const Expr &E, const Expr &A, const Expr &B,
                          const char *Name, const char *COp) {
    std::string SA = emit(A), SB = emit(B);
    if (E.type().isScalar())
      return "((uint8_t)(" + SA + " " + COp + " " + SB + "))";
    std::string Helper = vectorOpHelper(A.type(), Name);
    return Helper + "(" + SA + ", " + SB + ")";
  }

  std::string emitSelect(const Select *Op) {
    std::string C = emit(Op->Condition);
    std::string T = emit(Op->TrueValue);
    std::string F = emit(Op->FalseValue);
    if (Op->NodeType.isScalar())
      return "(" + C + " ? " + T + " : " + F + ")";
    std::string Helper = vectorSelectHelper(Op->NodeType);
    return Helper + "(" + C + ", " + T + ", " + F + ")";
  }

  std::string emitLoad(const Load *Op) {
    std::string Buf = bufferName(Op->Name);
    if (Op->NodeType.isScalar())
      return Buf + "[" + emit(Op->Index) + "]";
    // Classify the vector access (paper section 4.5): dense ramp loads and
    // stores become contiguous; constant-strided ramps become strided;
    // everything else is a gather.
    if (const Ramp *R = Op->Index.as<Ramp>()) {
      int64_t Stride;
      if (asConstInt(R->Stride, &Stride)) {
        if (Stride == 1)
          return vectorLoadHelper(Op->NodeType) + "(&" + Buf + "[" +
                 emit(R->Base) + "])";
        // Stride -1 (reversed ramp, e.g. mirrored boundaries) is still a
        // dense access: one contiguous load ending at base + lane reverse.
        if (Stride == -1)
          return vectorReverseLoadHelper(Op->NodeType) + "(&" + Buf + "[(" +
                 emit(R->Base) + ") - " +
                 std::to_string(Op->NodeType.Lanes - 1) + "])";
      }
      return vectorStridedLoadHelper(Op->NodeType) + "(&" + Buf + "[" +
             emit(R->Base) + "], " + emit(R->Stride) + ")";
    }
    // A clamped unit ramp (boundary-condition stencil tap) is dense over
    // the whole interior; only boundary columns pay the per-lane clamp.
    ClampedRampIndex CR;
    if (matchClampedRampIndex(Op->Index, &CR))
      return vectorClampedLoadHelper(Op->NodeType) + "(" + Buf + ", " +
             (CR.Off.defined() ? emit(CR.Off) : "0") + ", " +
             emit(CR.Base) + ", " + emit(CR.Lo) + ", " + emit(CR.Hi) + ")";
    return vectorGatherHelper(Op->NodeType, Op->Index.type()) + "(" + Buf +
           ", " + emit(Op->Index) + ")";
  }

  //===------------------------------------------------------------------===//
  // Instrumentation (Target::Profile / Target::Trace only; see
  // transforms/Instrument.h)
  //===------------------------------------------------------------------===//

  /// C expression for one lane's normalized 64-bit value word (the bit
  /// normalization documented in observe/TraceStream.h, mirrored in
  /// generated code so every engine writes identical records).
  std::string traceBitsExpr(Type Elem, const std::string &X) {
    if (Elem.isFloat()) {
      needHelper("hl_trace_bits_f",
                 "static inline uint64_t hl_trace_bits_f(double x) {\n"
                 "  uint64_t r;\n  memcpy(&r, &x, 8);\n  return r;\n}");
      return "hl_trace_bits_f((double)" + X + ")";
    }
    if (Elem.isUInt() || Elem.isBool())
      return "(uint64_t)" + X;
    return "(uint64_t)(int64_t)" + X;
  }

  /// One call through the vtable's Event slot, with the event kind, the
  /// process-wide stage id and the type code baked in at codegen time.
  /// \p Coords and \p Bits name arrays, or "0" for none.
  void emitEventCall(TraceEventKind Kind, const std::string &Stage,
                     int TypeCode, int Lanes, const std::string &Coords,
                     int NumCoords, const std::string &Bits) {
    line("rt->Event(" + std::to_string(int(Kind)) + ", " +
         std::to_string(profilerStageId(Stage)) + ", " +
         std::to_string(TypeCode) + ", " + std::to_string(Lanes) + ", " +
         Coords + ", " + std::to_string(NumCoords) + ", " + Bits +
         "); /* " + Stage + " */");
  }

  /// Fills coords/bits arrays from an index temp and a value temp, then
  /// reports a TraceLoad/TraceStore event.
  void emitTraceAccess(TraceEventKind Kind, const std::string &StageName,
                       Type T, const std::string &Val, Type IdxT,
                       const std::string &Idx) {
    int Lanes = T.Lanes;
    std::string Coords = freshName(StageName + "_tc");
    std::string Bits = freshName(StageName + "_tb");
    line("int32_t " + Coords + "[" + std::to_string(Lanes) + "];");
    line("uint64_t " + Bits + "[" + std::to_string(Lanes) + "];");
    if (T.isScalar()) {
      line(Coords + "[0] = (int32_t)" + Idx + ";");
      line(Bits + "[0] = " + traceBitsExpr(T, Val) + ";");
    } else {
      line("for (int32_t __l = 0; __l < " + std::to_string(Lanes) +
           "; ++__l) {");
      ++Indent;
      line(Coords + "[__l] = (int32_t)" + laneRef(IdxT, Idx, "__l") + ";");
      line(Bits + "[__l] = " +
           traceBitsExpr(T.element(), laneRef(T, Val, "__l")) + ";");
      --Indent;
      line("}");
    }
    emitEventCall(Kind, StageName, traceTypeCode(T.element()), Lanes, Coords,
                  Lanes, Bits);
  }

  /// A traced load: the wrapped Load, evaluated through hoisted index and
  /// value temps. Hoisting keeps nested trace events inside the index
  /// firing exactly once and pins the event order to the IR's
  /// left-to-right evaluation order, which C operand order would not. The
  /// value goes through the per-lane gather helper regardless of index
  /// shape — losing the dense-load optimization under trace-on is the
  /// accepted cost of observing every lane's flat index.
  std::string emitTraceLoad(const Call *Op) {
    const Load *L = Op->Args.at(2).as<Load>();
    internal_assert(instrumentKind(Op) == TraceEventKind::TraceLoad && L)
        << "codegen: malformed traced load";
    Type T = L->NodeType;
    std::string Idx = freshName(L->Name + "_tidx");
    line("const " + cTypeOf(L->Index.type()) + " " + Idx + " = " +
         emit(L->Index) + ";");
    std::string Val = freshName(L->Name + "_tval");
    std::string Buf = bufferName(L->Name);
    if (T.isScalar())
      line("const " + cTypeOf(T) + " " + Val + " = " + Buf + "[" + Idx +
           "];");
    else
      line("const " + cTypeOf(T) + " " + Val + " = " +
           vectorGatherHelper(T, L->Index.type()) + "(" + Buf + ", " + Idx +
           ");");
    emitTraceAccess(TraceEventKind::TraceLoad, L->Name, T, Val,
                    L->Index.type(), Idx);
    return Val;
  }

  /// A statement-position Call::Instrument. A traced store replaces the
  /// Store node: value, then index, then the store itself, then the event
  /// — the same order the interpreter and the VM execute.
  void emitEventStmt(const Call *Op) {
    const TraceEventKind Kind = instrumentKind(Op);
    const std::string &Stage = instrumentStage(Op);
    if (Kind == TraceEventKind::TraceStore) {
      const Expr &Value = Op->Args.at(2);
      const Expr &Index = Op->Args.at(3);
      Type T = Value.type();
      std::string Val = freshName(Stage + "_tval");
      line("const " + cTypeOf(T) + " " + Val + " = " + emit(Value) + ";");
      std::string Idx = freshName(Stage + "_tidx");
      line("const " + cTypeOf(Index.type()) + " " + Idx + " = " +
           emit(Index) + ";");
      std::string Buf = bufferName(Stage);
      if (T.isScalar())
        line(Buf + "[" + Idx + "] = " + Val + ";");
      else
        line(vectorScatterHelper(T, Index.type()) + "(" + Buf + ", " + Idx +
             ", " + Val + ");");
      emitTraceAccess(Kind, Stage, T, Val, Index.type(), Idx);
      return;
    }
    // The kind's payload: TraceBegin's extents, ProfAlloc's size.
    const int Dims = int(Op->Args.size()) - 2;
    std::string Arr = "0";
    if (Dims > 0) {
      Arr = freshName(Stage + "_text");
      line("int32_t " + Arr + "[" + std::to_string(Dims) + "];");
      for (int D = 0; D < Dims; ++D)
        line(Arr + "[" + std::to_string(D) + "] = (int32_t)(" +
             emit(Op->Args.at(size_t(D) + 2)) + ");");
    }
    emitEventCall(Kind, Stage, 0, 0, Arr, Dims, "0");
  }

  std::string emitCall(const Call *Op) {
    if (Op->CallKind == CallType::Intrinsic) {
      if (Op->Name == Call::Instrument)
        return emitTraceLoad(Op);
      internal_error << "codegen: unknown intrinsic " << Op->Name;
    }
    internal_assert(Op->CallKind == CallType::PureExtern)
        << "codegen: unlowered call to " << Op->Name;
    std::vector<std::string> Args;
    for (const Expr &Arg : Op->Args)
      Args.push_back(emit(Arg));
    Type T = Op->NodeType;
    if (T.isScalar()) {
      std::string Fn = scalarMathName(Op->Name, T);
      std::string Result = Fn + "(" + Args[0];
      for (size_t I = 1; I < Args.size(); ++I)
        Result += ", " + Args[I];
      return Result + ")";
    }
    std::string Helper = vectorMathHelper(T, Op->Name, int(Args.size()));
    std::string Result = Helper + "(" + Args[0];
    for (size_t I = 1; I < Args.size(); ++I)
      Result += ", " + Args[I];
    return Result + ")";
  }

  //===------------------------------------------------------------------===//
  // Statement emission
  //===------------------------------------------------------------------===//

  void line(const std::string &Text) {
    for (int I = 0; I < Indent; ++I)
      *Body << "  ";
    *Body << Text << "\n";
  }

  void emitStmt(const Stmt &S) {
    switch (S->Kind) {
    case IRNodeKind::LetStmt: {
      const LetStmt *Op = S.as<LetStmt>();
      std::string Value = emit(Op->Value);
      std::string CName = freshName(Op->Name);
      line("const " + cTypeOf(Op->Value.type()) + " " + CName + " = " +
           Value + ";");
      ScopedBinding<std::string> Bind(VarNames, Op->Name, CName);
      ScopedBinding<std::string> BindType(VarTypes, Op->Name,
                                          cTypeOf(Op->Value.type()));
      emitStmt(Op->Body);
      return;
    }
    case IRNodeKind::AssertStmt: {
      const AssertStmt *Op = S.as<AssertStmt>();
      line("if (!(" + emit(Op->Condition) + ")) rt->Abort(\"" +
           Op->Message + "\");");
      return;
    }
    case IRNodeKind::ProducerConsumer:
      emitStmt(S.as<ProducerConsumer>()->Body);
      return;
    case IRNodeKind::For:
      emitFor(S.as<For>());
      return;
    case IRNodeKind::Store:
      emitStore(S.as<Store>());
      return;
    case IRNodeKind::Allocate:
      emitAllocate(S.as<Allocate>());
      return;
    case IRNodeKind::Block:
      emitStmt(S.as<Block>()->First);
      emitStmt(S.as<Block>()->Rest);
      return;
    case IRNodeKind::IfThenElse: {
      const IfThenElse *Op = S.as<IfThenElse>();
      line("if (" + emit(Op->Condition) + ") {");
      ++Indent;
      emitStmt(Op->ThenCase);
      --Indent;
      if (Op->ElseCase.defined()) {
        line("} else {");
        ++Indent;
        emitStmt(Op->ElseCase);
        --Indent;
      }
      line("}");
      return;
    }
    case IRNodeKind::Evaluate: {
      // Instrumentation events become direct vtable calls; everything
      // else evaluates for side effects.
      const Call *C = S.as<Evaluate>()->Value.as<Call>();
      if (C && C->CallKind == CallType::Intrinsic &&
          C->Name == Call::Instrument) {
        emitEventStmt(C);
        return;
      }
      line("(void)(" + emit(S.as<Evaluate>()->Value) + ");");
      return;
    }
    default:
      internal_error << "codegen: unexpected statement kind";
    }
  }

  void emitStore(const Store *Op) {
    std::string Buf = bufferName(Op->Name);
    std::string Value = emit(Op->Value);
    if (Op->Value.type().isScalar()) {
      line(Buf + "[" + emit(Op->Index) + "] = " + Value + ";");
      return;
    }
    if (const Ramp *R = Op->Index.as<Ramp>()) {
      int64_t Stride;
      if (asConstInt(R->Stride, &Stride)) {
        if (Stride == 1) {
          line(vectorStoreHelper(Op->Value.type()) + "(&" + Buf + "[" +
               emit(R->Base) + "], " + Value + ");");
          return;
        }
        // Reversed dense store: shuffle lanes, then one contiguous store.
        if (Stride == -1) {
          line(vectorReverseStoreHelper(Op->Value.type()) + "(&" + Buf +
               "[(" + emit(R->Base) + ") - " +
               std::to_string(Op->Value.type().Lanes - 1) + "], " + Value +
               ");");
          return;
        }
      }
    }
    line(vectorScatterHelper(Op->Value.type(), Op->Index.type()) + "(" +
         Buf + ", " + emit(Op->Index) + ", " + Value + ");");
  }

  void emitFor(const For *Op) {
    if (Op->Kind == ForType::Parallel) {
      emitParallelFor(Op, /*Gpu=*/false);
      return;
    }
    if (Op->Kind == ForType::GPUBlock) {
      emitParallelFor(Op, /*Gpu=*/true);
      return;
    }
    internal_assert(Op->Kind == ForType::Serial ||
                    Op->Kind == ForType::GPUThread)
        << "codegen: unlowered " << forTypeName(Op->Kind) << " loop";
    // GPUThread loops run as serial loops within the simulated block body.
    std::string MinName = freshName(Op->Name + "_min");
    std::string ExtName = freshName(Op->Name + "_ext");
    line("const int32_t " + MinName + " = " + emit(Op->MinExpr) + ";");
    line("const int32_t " + ExtName + " = " + emit(Op->Extent) + ";");
    std::string CName = freshName(Op->Name);
    line("for (int32_t " + CName + " = " + MinName + "; " + CName + " < " +
         MinName + " + " + ExtName + "; ++" + CName + ") {");
    ++Indent;
    {
      ScopedBinding<std::string> Bind(VarNames, Op->Name, CName);
      ScopedBinding<std::string> BindType(VarTypes, Op->Name, "int32_t");
      emitStmt(Op->Body);
    }
    --Indent;
    line("}");
  }

  /// Emits a parallel (or simulated-GPU block) loop: a closure struct, a
  /// body function, and a runtime dispatch call (paper section 4.6). The
  /// body is a TaskChunkFn: it unpacks the closure once, then runs every
  /// iteration of its chunk [__begin, __end). For GPU launches, a chain of
  /// directly nested GPUBlock loops is fused into one launch over the
  /// flattened block range.
  void emitParallelFor(const For *Op, bool Gpu) {
    std::vector<const For *> Chain = {Op};
    if (Gpu) {
      const For *Cursor = Op;
      while (const For *Inner = Cursor->Body.as<For>()) {
        if (Inner->Kind != ForType::GPUBlock)
          break;
        Chain.push_back(Inner);
        Cursor = Inner;
      }
    }
    const Stmt &InnerBody = Chain.back()->Body;

    // What the body needs from the enclosing scope.
    CollectCapture Capture;
    InnerBody.accept(&Capture);
    for (const For *Loop : Chain)
      Capture.FreeVariables.erase(Loop->Name);

    struct Field {
      std::string IRName, CName, CType;
      bool IsBuffer;
    };
    std::vector<Field> Fields;
    for (const std::string &Name : Capture.FreeVariables) {
      if (VarNames.contains(Name)) {
        Fields.push_back({Name, VarNames.get(Name),
                          VarTypes.get(Name), false});
      }
      // Names not in scope would be parameters already materialized as
      // locals in the main preamble, so this branch is exhaustive; anything
      // missing is a bug caught when the body references it.
    }
    for (const std::string &Name : Capture.BufferNames) {
      internal_assert(BufferPointers.contains(Name))
          << "codegen: captured unknown buffer " << Name;
      Fields.push_back({Name, BufferPointers.get(Name),
                        BufferTypes.get(Name) + " *", true});
    }

    int Id = ClosureCounter++;
    std::string StructName = "hl_closure_" + std::to_string(Id);
    std::string FnNameC =
        std::string(Gpu ? "hl_kernel_" : "hl_par_") + std::to_string(Id);

    // Mins/extents of the chain are evaluated at the launch site and
    // passed through the closure.
    std::vector<std::string> MinNames, ExtNames;
    for (size_t I = 0; I < Chain.size(); ++I) {
      MinNames.push_back("__min" + std::to_string(I));
      ExtNames.push_back("__ext" + std::to_string(I));
    }

    std::ostringstream StructDef;
    StructDef << "typedef struct " << StructName << " {\n";
    for (const Field &F : Fields)
      StructDef << "  " << F.CType << " " << F.CName << ";\n";
    for (size_t I = 0; I < Chain.size(); ++I)
      StructDef << "  int32_t " << MinNames[I] << ";\n  int32_t "
                << ExtNames[I] << ";\n";
    StructDef << "  const hl_vtable *rt;\n} " << StructName << ";\n";

    // Emit the body function into its own buffer.
    std::ostringstream FnBody;
    std::ostringstream *SavedBody = Body;
    int SavedIndent = Indent;
    Body = &FnBody;
    Indent = 1;

    {
      // Bind captured names inside the function.
      std::vector<std::unique_ptr<ScopedBinding<std::string>>> Binds;
      std::vector<std::unique_ptr<ScopedBinding<std::string>>> TypeBinds;
      std::vector<std::unique_ptr<ScopedBinding<std::string>>> BufBinds;
      for (const Field &F : Fields) {
        // Buffer pointers are distinct allocations; telling the C compiler
        // so (restrict) is what lets it keep vector temporaries in
        // registers across the dense load/store helpers.
        line(F.CType + (F.IsBuffer ? "restrict " : " ") + F.CName +
             " = __c->" + F.CName + ";");
        if (!F.IsBuffer) {
          Binds.push_back(std::make_unique<ScopedBinding<std::string>>(
              VarNames, F.IRName, F.CName));
          TypeBinds.push_back(std::make_unique<ScopedBinding<std::string>>(
              VarTypes, F.IRName, F.CType));
        }
      }
      // The chunk loop. Each iteration decodes its loop indices from the
      // flattened iteration number: ParFor chunks cover absolute indices
      // (min..min+extent); GPU launches cover flattened block numbers in
      // [0, total).
      line("for (int64_t __i = __begin; __i < __end; ++__i) {");
      ++Indent;
      std::vector<std::string> IdxNames;
      if (!Gpu) {
        line("int32_t " + sanitize(Chain[0]->Name) + "__idx = __i;");
        IdxNames.push_back(sanitize(Chain[0]->Name) + "__idx");
      } else {
        for (size_t I = 0; I < Chain.size(); ++I) {
          std::string Idx = "__b" + std::to_string(I);
          IdxNames.push_back(Idx);
          std::string Divisor = "1";
          for (size_t J = I + 1; J < Chain.size(); ++J)
            Divisor += " * __c->" + ExtNames[J];
          line("int32_t " + Idx + " = (__i / (" + Divisor +
               ")) % __c->" + ExtNames[I] + " + __c->" + MinNames[I] + ";");
        }
      }
      std::vector<std::unique_ptr<ScopedBinding<std::string>>> LoopBinds;
      std::vector<std::unique_ptr<ScopedBinding<std::string>>> LoopTypeBinds;
      for (size_t I = 0; I < Chain.size(); ++I) {
        LoopBinds.push_back(std::make_unique<ScopedBinding<std::string>>(
            VarNames, Chain[I]->Name, IdxNames[I]));
        LoopTypeBinds.push_back(
            std::make_unique<ScopedBinding<std::string>>(
                VarTypes, Chain[I]->Name, "int32_t"));
      }
      emitStmt(InnerBody);
      --Indent;
      line("}");
    }

    Body = SavedBody;
    Indent = SavedIndent;

    FunctionText << StructDef.str();
    FunctionText << "static void " << FnNameC
                 << "(int64_t __begin, int64_t __end, int __chunk, "
                    "void *__p) {\n  "
                 << StructName << " *__c = (" << StructName
                 << " *)__p;\n  const hl_vtable *rt = __c->rt;\n  (void)rt;\n"
                 << FnBody.str() << "}\n\n";

    // Launch site.
    std::string Obj = "__cl_" + std::to_string(Id);
    line("{");
    ++Indent;
    line(StructName + " " + Obj + ";");
    for (const Field &F : Fields)
      line(Obj + "." + F.CName + " = " + F.CName + ";");
    for (size_t I = 0; I < Chain.size(); ++I) {
      line(Obj + "." + MinNames[I] + " = " + emit(Chain[I]->MinExpr) + ";");
      line(Obj + "." + ExtNames[I] + " = " + emit(Chain[I]->Extent) + ";");
    }
    line(Obj + ".rt = rt;");
    std::string Total = Obj + "." + ExtNames[0];
    for (size_t I = 1; I < Chain.size(); ++I)
      Total += " * " + Obj + "." + ExtNames[I];
    if (Gpu) {
      line("rt->GpuLaunch(rt, " + Total + ", " + FnNameC + ", &" + Obj +
           ");");
    } else {
      line("rt->ParFor(" + Obj + "." + MinNames[0] + ", " + Total +
           ", rt->MaxTasks, " + FnNameC + ", &" + Obj + ");");
    }
    --Indent;
    line("}");
  }

  void emitAllocate(const Allocate *Op) {
    std::string CT = scalarCType(Op->ElemType);
    std::string CName = freshName(Op->Name);
    std::string Size = "(int64_t)sizeof(" + CT + ")";
    for (const Expr &E : Op->Extents)
      Size += " * (int64_t)(" + emit(E) + ")";
    line("{");
    ++Indent;
    line(CT + " *restrict " + CName + " = (" + CT + " *)rt->Malloc(" + Size +
         ");");
    {
      ScopedBinding<std::string> BindPtr(BufferPointers, Op->Name, CName);
      ScopedBinding<std::string> BindType(BufferTypes, Op->Name, CT);
      emitStmt(Op->Body);
    }
    line("rt->Free(" + CName + ");");
    --Indent;
    line("}");
  }

  std::string bufferName(const std::string &Name) {
    internal_assert(BufferPointers.contains(Name))
        << "codegen: access to unknown buffer " << Name;
    return BufferPointers.get(Name);
  }

  //===------------------------------------------------------------------===//
  // Main function
  //===------------------------------------------------------------------===//

  void emitMain() {
    std::ostringstream MainBody;
    Body = &MainBody;
    Indent = 1;

    std::vector<std::unique_ptr<ScopedBinding<std::string>>> Binds;
    auto bindVar = [&](const std::string &IRName, const std::string &CName,
                       const std::string &CType) {
      Binds.push_back(std::make_unique<ScopedBinding<std::string>>(
          VarNames, IRName, CName));
      Binds.push_back(std::make_unique<ScopedBinding<std::string>>(
          VarTypes, IRName, CType));
    };

    // The packed arguments, in LoweredPipeline's layout: each buffer and
    // its metadata, then the scalar parameters.
    for (size_t I = 0; I < P.Buffers.size(); ++I) {
      const BufferArg &Arg = P.Buffers[I];
      std::string CT = scalarCType(Arg.ElemType);
      std::string CName = freshName(Arg.Name);
      line(CT + " *restrict " + CName + " = (" + CT + " *)bufs[" +
           std::to_string(I) + "];");
      Binds.push_back(std::make_unique<ScopedBinding<std::string>>(
          BufferPointers, Arg.Name, CName));
      Binds.push_back(std::make_unique<ScopedBinding<std::string>>(
          BufferTypes, Arg.Name, CT));
      for (int D = 0; D < MaxBufferDims; ++D) {
        const char *Kinds[3] = {"min", "extent", "stride"};
        for (int K = 0; K < 3; ++K) {
          std::string IRName =
              Arg.Name + "." + Kinds[K] + "." + std::to_string(D);
          std::string MName = freshName(IRName);
          line("const int32_t " + MName + " = (int32_t)iargs[" +
               std::to_string(LoweredPipeline::metadataSlot(I, D) + K) +
               "];");
          bindVar(IRName, MName, "int32_t");
        }
      }
    }
    const std::vector<ArgSlot> Slots = P.scalarSlots();
    for (size_t I = 0; I < P.Scalars.size(); ++I) {
      const ScalarArg &Arg = P.Scalars[I];
      std::string CT = scalarCType(Arg.ArgType);
      std::string CName = freshName(Arg.Name);
      line("const " + CT + " " + CName + " = (" + CT + ")" +
           (Slots[I].IsFloat ? "fargs[" : "iargs[") +
           std::to_string(Slots[I].Index) + "];");
      bindVar(Arg.Name, CName, CT);
    }

    emitStmt(P.Body);

    MainText << "int32_t " << FnName
             << "(const hl_vtable *rt, void **bufs, const int64_t *iargs, "
                "const double *fargs) {\n  (void)bufs; (void)iargs; "
                "(void)fargs;\n"
             << MainBody.str() << "  return 0;\n}\n";
  }

  const LoweredPipeline &P;
  std::string FnName;

  std::ostringstream TypedefText, HelperText, FunctionText, MainText;
  std::ostringstream *Body = nullptr;
  int Indent = 0;
  int NameCounter = 0;
  int ClosureCounter = 0;
  std::set<std::string> EmittedHelpers;

  Scope<std::string> VarNames;  // IR name -> C local name
  Scope<std::string> VarTypes;  // IR name -> C type (for closures)
  Scope<std::string> BufferPointers;
  Scope<std::string> BufferTypes;
};

} // namespace

std::string halide::codegenC(const LoweredPipeline &P,
                             const std::string &FnName) {
  CodeGen CG(P, FnName);
  return CG.run();
}
