//===-- codegen/CodeGenC.cpp -----------------------------------------------------=//

#include "codegen/CodeGenC.h"
#include "analysis/Scope.h"
#include "ir/IROperators.h"
#include "ir/IRVisitor.h"
#include "observe/Profiler.h"
#include "observe/TraceStream.h"
#include "runtime/Buffer.h"
#include "transforms/Instrument.h"

#include <algorithm>
#include <cctype>
#include <cstring>
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

/// C name of a vector type ("hl_i32x8").
std::string vecCType(Type T) {
  internal_assert(T.isVector());
  return "hl_" + typeTag(T.element()) + "x" + std::to_string(T.Lanes);
}

std::string cTypeOf(Type T) {
  return T.isVector() ? vecCType(T) : scalarCType(T);
}

/// Lanes of the GCC/Clang native vector (__attribute__((vector_size(N))))
/// that holds a vector of T: T's lane count rounded up to a power of two,
/// as GCC requires, the way LLVM widens an odd vector to a native one.
/// Lanewise operators run on every lane; loads, stores, gathers and trace
/// events touch only T's own lanes.
int nativeLanes(Type T) {
  int P = 1;
  while (P < T.Lanes)
    P *= 2;
  return P;
}

/// Bytes of one lane of T.
int elemBytes(Type T) { return T.isBool() ? 1 : T.element().Bits / 8; }

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
    TypedefText << "typedef " << scalarCType(T.element()) << " " << Name
                << " __attribute__((vector_size("
                << nativeLanes(T) * elemBytes(T) << ")));\n";
  }

  /// Bytes of T's own lanes, as a memcpy length in a helper whose element
  /// pointer is p: a padded vector's extra lanes are never moved.
  static std::string laneBytes(Type T) {
    return std::to_string(T.Lanes) + " * sizeof(*p)";
  }

  /// \p X, a variable of vector type From, converted lane by lane to To
  /// with C cast semantics. From a vector narrower than 128 bits this is
  /// a lane-list constructor: GCC 12 splits __builtin_convertvector from
  /// one into two halves and an unpack.
  static std::string convertLanes(Type From, Type To, const std::string &X) {
    if (nativeLanes(From) * elemBytes(From) >= 16)
      return "__builtin_convertvector(" + X + ", " + vecCType(To) + ")";
    std::string CT = scalarCType(To.element());
    return "(" + vecCType(To) + ")" + laneList(nativeLanes(To), [&](int L) {
             return "(" + CT + ")" + X + "[" + std::to_string(L) + "]";
           });
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
  /// operand type T, consulting the op table above: single SIMD
  /// expressions, with mask algebra for blends since C lacks a vector ?:.
  /// T is the operand type; Compare-shaped ops return the matching
  /// boolean vector.
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
      Def << "  " << MT << " m = (a " << COp << " b) & 1;\n  return "
          << convertLanes(MaskT, Bool(T.Lanes), "m") << ";\n}";
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
    needHelper(Name, "static inline " + VT + " " + Name + "(" + CT +
                         " x) {\n  return (" + VT + ")" +
                         laneList(nativeLanes(T),
                                  [](int) { return std::string("x"); }) +
                         ";\n}");
    return Name;
  }

  std::string vectorRampHelper(Type T) {
    needVectorType(T);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string Name = VT + "_ramp";
    // One broadcast-add over the iota constant; folds to a single vector
    // op after constant propagation.
    needHelper(Name, "static inline " + VT + " " + Name + "(" + CT +
                         " base, " + CT + " stride) {\n  return base + (" +
                         VT + ")" + laneList(nativeLanes(T), [&](int L) {
                           return "(" + CT + ")" + std::to_string(L);
                         }) + " * stride;\n}");
    return Name;
  }

  std::string vectorSelectHelper(Type T) {
    needVectorType(T);
    Type BT = Bool(T.Lanes);
    needVectorType(BT);
    std::string VT = vecCType(T), BVT = vecCType(BT);
    std::string Name = VT + "_select";
    // Widen the 0/1 byte mask to element width, turn it into a 0/-1 mask,
    // then blend bitwise (C has no vector ?:). Float payloads round-trip
    // through the same-size integer vector.
    Type MaskT = vecMaskType(T);
    needVectorType(MaskT);
    std::string MT = vecCType(MaskT);
    needHelper(Name, "static inline " + VT + " " + Name + "(" + BVT +
                         " m, " + VT + " a, " + VT + " b) {\n  " + MT +
                         " w = " + convertLanes(BT, MaskT, "m") +
                         " != 0;\n  return (" + VT + ")(((" + MT +
                         ")a & w) | ((" + MT + ")b & ~w));\n}");
    return Name;
  }

  /// Name suffix of a load shape of stride ±1 or ±2: "" (dense), "_rev",
  /// "_s2", "_rev_s2".
  static std::string strideSuffix(int Stride) {
    return std::string(Stride < 0 ? "_rev" : "") +
           (Stride == 2 || Stride == -2 ? "_s2" : "");
  }

  /// Offset from the first lane's element to the lowest one a ramp of
  /// \p Stride over \p Lanes reads (0, or Stride * (Lanes - 1) if that is
  /// negative): the shaped loads take a pointer to the lowest element.
  static int lowestOffset(int Stride, int Lanes) {
    return Stride < 0 ? Stride * (Lanes - 1) : 0;
  }

  /// Load of the lanes of a ramp of stride ±1 or ±2 from p, its lowest
  /// element, into a zeroed vector. Stride 1 is one dense load, stride -1
  /// one dense load and a lane reverse. Stride ±2 is two overlapping dense
  /// loads, the second starting at lane L - 1 so that nothing past the
  /// highest lane's element is read, and one shuffle picking the even
  /// elements.
  std::string vectorLoadHelper(Type T, int Stride) {
    needVectorType(T);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string Name = VT + "_load" + strideSuffix(Stride);
    const int L = T.Lanes, P = nativeLanes(T);
    const int Step = Stride < 0 ? -Stride : Stride;
    // Lane l reads p[Elem(l)].
    auto Elem = [&](int Lane) {
      return Step * (Stride > 0 ? Lane : L - 1 - Lane);
    };
    std::string Body;
    if (Stride == 1) {
      Body = "  " + VT + " r = {0};\n  memcpy(&r, p, " + laneBytes(T) +
             ");\n  return r;\n}";
    } else {
      // In the shuffle, b's lane j is p[L - 1 + j], at index P + j; the
      // indices of the padding lanes are arbitrary.
      Body = "  " + VT + " a = {0}" + (Step == 2 ? ", b = {0}" : "") +
             ";\n  memcpy(&a, p, " + laneBytes(T) + ");\n" +
             (Step == 2 ? "  memcpy(&b, p + " + std::to_string(L - 1) + ", " +
                              laneBytes(T) + ");\n"
                        : "") +
             "  return __builtin_shufflevector(a, " + (Step == 2 ? "b" : "a");
      for (int Lane = 0; Lane < P; ++Lane) {
        const int E = Lane < L ? Elem(Lane) : 0;
        Body += ", " + std::to_string(E < L ? E : P + E - (L - 1));
      }
      Body += ");\n}";
    }
    needHelper(Name, "static inline " + VT + " " + Name + "(const " + CT +
                         " *p) {\n" + Body);
    return Name;
  }

  /// Store of x's lanes as a ramp of stride 1 or -1 to p, its lowest
  /// element: one dense store, after a lane reverse for stride -1.
  std::string vectorStoreHelper(Type T, int Stride) {
    needVectorType(T);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string Name = VT + "_store" + strideSuffix(Stride);
    std::string Reverse;
    if (Stride < 0) {
      Type MaskT = vecMaskType(T);
      needVectorType(MaskT);
      const int L = T.Lanes;
      Reverse = "  x = __builtin_shuffle(x, (" + vecCType(MaskT) + ")" +
                laneList(nativeLanes(T),
                         [&](int Lane) {
                           return std::to_string(Lane < L ? L - 1 - Lane
                                                          : Lane);
                         }) +
                ");\n";
    }
    needHelper(Name, "static inline void " + Name + "(" + CT + " *p, " + VT +
                         " x) {\n" + Reverse + "  memcpy(p, &x, " +
                         laneBytes(T) + ");\n}");
    return Name;
  }

  /// A vector index clamp(ramp(Base, Stride, L), Lo, Hi) with Stride ±1
  /// or ±2: the shape a stencil tap under a clamped boundary lowers to.
  /// clamp() builds max(min(x, Hi), Lo), but the simplifier keeps either
  /// nesting; a min-outer min(max(x, Lo), Hi) equals max(min(x, Hi),
  /// min(Lo, Hi)), so its tap passes min(Lo, Hi) as lo (maxOuterLo).
  struct ClampedRamp {
    Expr Base, Lo, Hi;
    int Stride = 0;
    bool MinOuter = false;
  };

  static bool isShapedStride(int64_t Stride) {
    return Stride == 1 || Stride == -1 || Stride == 2 || Stride == -2;
  }

  /// Matches Outer(Inner(ramp, x(InnerBound)), x(OuterBound)), with each
  /// broadcast on either side of its node.
  template <typename OuterT, typename InnerT>
  static bool matchClampCore(const Expr &E, ClampedRamp *Out, Expr *InnerBound,
                             Expr *OuterBound) {
    const OuterT *O = E.as<OuterT>();
    if (!O)
      return false;
    for (const auto &[InnerE, OuterE] :
         {std::pair{O->A, O->B}, std::pair{O->B, O->A}}) {
      const InnerT *I = InnerE.template as<InnerT>();
      const Broadcast *OB = OuterE.template as<Broadcast>();
      if (!I || !OB)
        continue;
      for (const auto &[RampE, BoundE] :
           {std::pair{I->A, I->B}, std::pair{I->B, I->A}}) {
        const Ramp *R = RampE.template as<Ramp>();
        const Broadcast *IB = BoundE.template as<Broadcast>();
        int64_t Stride;
        if (R && IB && asConstInt(R->Stride, &Stride) &&
            isShapedStride(Stride)) {
          Out->Base = R->Base;
          Out->Stride = int(Stride);
          *InnerBound = IB->Value;
          *OuterBound = OB->Value;
          return true;
        }
      }
    }
    return false;
  }

  static bool matchClampedRamp(const Expr &E, ClampedRamp *Out) {
    if (E.type().element() != Int(32))
      return false;
    if (matchClampCore<Max, Min>(E, Out, &Out->Hi, &Out->Lo))
      return true;
    Out->MinOuter = matchClampCore<Min, Max>(E, Out, &Out->Lo, &Out->Hi);
    return Out->MinOuter;
  }

  /// A clamped ramp's scalar parts as C expressions, Lo already in the
  /// max-outer form the clamped load helpers implement.
  struct ClampedTap {
    std::string Base, Lo, Hi;
    int Stride = 0; ///< 0: the let this describes is no clamped ramp
  };

  /// min(Lo, Hi): the Lo of a min-outer clamp's max-outer form.
  std::string maxOuterLo(const std::string &Lo, const std::string &Hi) {
    return scalarMinMaxHelper(Int(32), false) + "(" + Lo + ", " + Hi + ")";
  }

  /// Matches Off + tap, where Off sums the broadcasts added to or
  /// subtracted from the tap, and the tap is a clamped ramp or a vector
  /// let bound to one. On success, *Off is that sum (undefined for none).
  bool matchClampedTap(const Expr &Index, Expr *Off, ClampedTap *Out) {
    auto AddOff = [Off](const Expr &E, bool Negate) {
      Expr Term = Negate ? Sub::make(makeZero(E.type()), E) : E;
      *Off = Off->defined() ? Add::make(*Off, Term) : Term;
    };
    if (const Add *A = Index.as<Add>()) {
      if (const Broadcast *B = A->B.as<Broadcast>())
        if (matchClampedTap(A->A, Off, Out)) {
          AddOff(B->Value, false);
          return true;
        }
      if (const Broadcast *B = A->A.as<Broadcast>())
        if (matchClampedTap(A->B, Off, Out)) {
          AddOff(B->Value, false);
          return true;
        }
    }
    if (const Sub *S = Index.as<Sub>())
      if (const Broadcast *B = S->B.as<Broadcast>())
        if (matchClampedTap(S->A, Off, Out)) {
          AddOff(B->Value, true);
          return true;
        }
    if (const Variable *V = Index.as<Variable>()) {
      if (!ClampedLets.contains(V->Name) || !ClampedLets.get(V->Name).Stride)
        return false;
      *Out = ClampedLets.get(V->Name);
      return true;
    }
    ClampedRamp CR;
    if (!matchClampedRamp(Index, &CR))
      return false;
    *Out = {emit(CR.Base), emit(CR.Lo), emit(CR.Hi), CR.Stride};
    if (CR.MinOuter)
      Out->Lo = maxOuterLo(Out->Lo, Out->Hi);
    return true;
  }

  /// Load of p's first n elements, n clamped to [0, P] for a native vector
  /// of P lanes, into a zeroed vector, reading nothing past them. With
  /// AVX-512BW and VL, a vector of at most 64 bytes is one fault-suppressing
  /// masked load (a vector narrower than 16 bytes loads through a 16-byte
  /// one); otherwise, and for a wider vector, it is a memcpy of the n
  /// elements.
  std::string vectorSpanLoadHelper(Type T) {
    needVectorType(T);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string Name = VT + "_load_span";
    if (EmittedHelpers.count(Name))
      return Name;
    const int P = nativeLanes(T), E = elemBytes(T), Bytes = P * E;
    std::string Load =
        "  " + VT + " r = {0};\n  memcpy(&r, p, n * sizeof(*p));\n";
    if (Bytes <= 64) {
      // The integer masked load of the element's width serves every
      // element type; its bits are copied into r.
      const int W = std::max(Bytes, 16);
      const std::string Tag = E == 1   ? "qi"
                              : E == 2 ? "hi"
                              : E == 4 ? "si"
                                       : "di";
      const std::string Elem = E == 1   ? "char"
                               : E == 2 ? "short"
                               : E == 4 ? "int"
                                        : "long long";
      const std::string WT =
          Elem + " __attribute__((vector_size(" + std::to_string(W) + ")))";
      // A shift by 64 is undefined, so a 64-lane load tests for it.
      std::string Mask = "(1ULL << n) - 1";
      if (W / E == 64)
        Mask = "n < 64 ? " + Mask + " : ~0ULL";
      Load = "#if defined(__AVX512BW__) && defined(__AVX512VL__)\n  " + VT +
             " r;\n  " + WT + " w = __builtin_ia32_loaddqu" + Tag +
             std::to_string(W * 8) + "_mask((const " + Elem + " *)p, (" + WT +
             "){0}, " + Mask + ");\n  memcpy(&r, &w, " +
             std::to_string(Bytes) + ");\n#else\n" + Load + "#endif\n";
    }
    needHelper(Name, "static inline " + VT + " " + Name + "(const " + CT +
                         " *p, int32_t n) {\n  n = n < 0 ? 0 : n > " +
                         std::to_string(P) + " ? " + std::to_string(P) +
                         " : n;\n" + Load + "  return r;\n}");
    return Name;
  }

  /// Load of the lanes at max(min(base + l * Stride, hi), lo) + off. The
  /// inline helper tests, in 64 bits, whether every lane lies inside [lo,
  /// hi] (the interior of a clamped-boundary stencil: almost every lane
  /// group) and then reads through the dense or stride-2 load. The edge
  /// groups call one noinline, cold function per type and stride, which
  /// keeps the hot loop's body small. Clamping is monotone, so every lane
  /// reads inside [a, b], the clamps of its lowest and highest lanes, and
  /// lane l reads element clamp(base + Stride * l - a, 0, b - a) of that
  /// span: the edge function loads exactly the span (for stride ±2 into
  /// two vectors) and places the lanes with one variable shuffle. A padded
  /// vector's extra lanes pick span elements too, and no lane operation
  /// carries them into a real lane.
  std::string vectorClampedLoadHelper(Type T, int Stride) {
    needVectorType(T);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string Suffix = strideSuffix(Stride);
    std::string Name = VT + "_load_clamped" + Suffix;
    if (EmittedHelpers.count(Name))
      return Name;
    const std::string Params = "(const " + CT +
                               " *p, int32_t off, int32_t base, int32_t lo, "
                               "int32_t hi) {\n";
    const int Low = lowestOffset(Stride, T.Lanes);
    const int High = Stride * (T.Lanes - 1) - Low;
    auto Plus = [](int Offset) {
      return Offset ? (Offset > 0 ? " + " : " - ") +
                          std::to_string(Offset > 0 ? Offset : -Offset)
                    : std::string();
    };
    const int P = nativeLanes(T), Step = Stride < 0 ? -Stride : Stride;
    // Lane l's offset in the span is clamp(d + Stride * l, 0, n - 1), d =
    // base - a, and clamping d to [-2R, 2R], R = High - Low, changes no
    // real lane's offset. The unclamped sums then reach 3 * Step * (P - 1)
    // on the padding lanes, so they are computed at 16 bits where the
    // shuffle's 8-bit mask cannot hold that.
    Type MaskT = vecMaskType(T);
    Type IdxT = MaskT.Bits == 8 && 3 * Step * (P - 1) > 127
                    ? Int(16, T.Lanes)
                    : MaskT;
    needVectorType(IdxT);
    const std::string ICT = scalarCType(IdxT.element());
    const std::string Reach = std::to_string(2 * (High - Low));
    auto Clamp = [](const std::string &X, const std::string &Lo,
                    const std::string &Hi) {
      return "  " + X + " = " + X + " > " + Hi + " ? " + Hi + " : " + X +
             ";\n  " + X + " = " + X + " < " + Lo + " ? " + Lo + " : " + X +
             ";\n";
    };
    std::string Body = "  int64_t a = (int64_t)base" + Plus(Low) +
                       ", b = (int64_t)base" + Plus(High) + ";\n" +
                       Clamp("a", "lo", "hi") + Clamp("b", "lo", "hi") +
                       "  int64_t d = (int64_t)base - a;\n" +
                       Clamp("d", "-" + Reach, Reach) + "  const " + CT +
                       " *s = p + (off + a);\n"
                       "  const int32_t n = (int32_t)(b - a + 1);\n";
    Body += "  const " + vecCType(IdxT) + " i = " +
            vectorOpHelper(IdxT, "max") + "(" + vectorOpHelper(IdxT, "min") +
            "(" + vectorRampHelper(IdxT) + "((" + ICT + ")d, (" + ICT + ")" +
            std::to_string(Stride) + "), " + vectorSplatHelper(IdxT) + "((" +
            ICT + ")(n - 1))), " + vectorSplatHelper(IdxT) + "((" + ICT +
            ")0));\n";
    std::string Mask = "i";
    if (IdxT != MaskT) {
      needVectorType(MaskT);
      Mask = "m";
      Body += "  const " + vecCType(MaskT) + " m = " +
              convertLanes(IdxT, MaskT, "i") + ";\n";
    }
    const std::string Span = vectorSpanLoadHelper(T);
    Body += "  return __builtin_shuffle(" + Span + "(s, n), " +
            (Step == 2 ? Span + "(s + " + std::to_string(P) + ", n - " +
                             std::to_string(P) + "), "
                       : "") +
            Mask + ");\n}";
    std::string Edge = VT + "_clamp_edge" + Suffix;
    needHelper(Edge, "static __attribute__((noinline, cold)) " + VT + " " +
                         Edge + Params + Body);
    needHelper(Name, "static inline " + VT + " " + Name + Params +
                         "  if ((int64_t)lo <= (int64_t)base" + Plus(Low) +
                         " && (int64_t)base" + Plus(High) + " <= hi)\n" +
                         "    return " + vectorLoadHelper(T, Stride) +
                         "(p + (off + base" + Plus(Low) + "));\n" +
                         "  return " + Edge + "(p, off, base, lo, hi);\n}");
    return Name;
  }

  /// Lanes read one element each, p[Index(l)], as a lane-list constructor
  /// (a lane loop writing r[l] made the compiler keep r on the stack). A
  /// padded vector's extra lanes are left zero.
  template <typename Fn> std::string laneReads(Type T, Fn Index) {
    return "  return (" + vecCType(T) + ")" + laneList(T.Lanes, [&](int L) {
             return "p[" + Index(std::to_string(L)) + "]";
           }) + ";\n";
  }

  std::string vectorStridedLoadHelper(Type T) {
    needVectorType(T);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string Name = VT + "_load_strided";
    needHelper(Name, "static inline " + VT + " " + Name + "(const " + CT +
                         " *p, int32_t s) {\n" +
                         laneReads(T, [](const std::string &L) {
                           return "(int64_t)" + L + " * s";
                         }) + "}");
    return Name;
  }

  /// Lanes read p[idx[l]]. A gather of 32-bit elements by 32-bit indices
  /// into a native vector of 4 or 8 lanes is the AVX2 gather instruction,
  /// masked to the vector's own lanes so a padded vector's extra lanes
  /// read nothing; every other gather, and every gather on a host without
  /// AVX2, is a lane-list constructor.
  std::string vectorGatherHelper(Type T, Type IndexT) {
    needVectorType(T);
    needVectorType(IndexT);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string IVT = vecCType(IndexT);
    std::string Name = VT + "_gather_" + typeTag(IndexT.element());
    std::string Body = laneReads(T, [](const std::string &L) {
      return "idx[" + L + "]";
    });
    const int L = T.Lanes, P = nativeLanes(T);
    if (T.element().Bits == 32 && IndexT.element() == Int(32) &&
        (P == 4 || P == 8)) {
      const bool Float = T.element().isFloat();
      // The builtins take float vectors for f32 and int ones otherwise;
      // the index and mask vectors are int vectors of the same lanes.
      const std::string Src = "(" + (Float ? VT : IVT) + "){0}";
      std::string Mask = "(" + IVT + ")" + laneList(P, [&](int Lane) {
                           return std::string(Lane < L ? "-1" : "0");
                         });
      if (Float)
        Mask = "(" + VT + ")" + Mask;
      Body = "#if defined(__AVX2__)\n  return (" + VT +
             ")__builtin_ia32_gathersiv" + std::to_string(P) +
             (Float ? "sf" : "si") + "(" + Src + ", (const " +
             (Float ? "float" : "int") + " *)p, idx, " + Mask +
             ", 4);\n#else\n" + Body + "#endif\n";
    }
    needHelper(Name, "static inline " + VT + " " + Name + "(const " + CT +
                         " *p, " + IVT + " idx) {\n" + Body + "}");
    return Name;
  }

  std::string vectorScatterHelper(Type T, Type IndexT) {
    needVectorType(T);
    needVectorType(IndexT);
    std::string VT = vecCType(T), CT = scalarCType(T.element());
    std::string IVT = vecCType(IndexT);
    std::string Name = VT + "_scatter_" + typeTag(IndexT.element());
    needHelper(Name, "static inline void " + Name + "(" + CT + " *p, " + IVT +
                         " idx, " + VT + " x) {\n" +
                         laneLoop(T.Lanes, "p[idx[l]] = x[l];") + "}");
    return Name;
  }

  std::string vectorCastHelper(Type From, Type To) {
    needVectorType(From);
    needVectorType(To);
    std::string Name = "hl_cast_" + typeTag(From.element()) + "x" +
                       std::to_string(From.Lanes) + "_" +
                       typeTag(To.element());
    needHelper(Name, "static inline " + vecCType(To) + " " + Name + "(" +
                         vecCType(From) + " a) {\n  return " +
                         convertLanes(From, To, "a") + ";\n}");
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
        Arity == 2 ? CFn + "(a[l], b[l])" : CFn + "(a[l])";
    needHelper(Name, "static inline " + VT + " " + Name + "(" + Params +
                         ") {\n  " + VT + " r;\n" +
                         laneLoop(nativeLanes(T), "r[l] = " + Call + ";") +
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
      ClampedTap Tap;
      std::string CName = emitLet(Op->Name, Op->Value, &Tap);
      ScopedBinding<CLocal> Bind(Vars, Op->Name,
                                 {CName, cTypeOf(Op->Value.type())});
      ScopedBinding<ClampedTap> BindTap(ClampedLets, Op->Name, Tap);
      return emit(Op->Body);
    }
    default:
      internal_error << "codegen: statement kind in expression position";
      return "";
    }
  }

  std::string emitVariable(const Variable *Op) {
    internal_assert(Vars.contains(Op->Name))
        << "codegen: unbound variable " << Op->Name;
    return Vars.get(Op->Name).Name;
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
    // A positive power-of-two divisor 2^k (on vectors, a splat of one) is
    // an arithmetic shift and a mask: both are floor division and floor
    // modulo on two's-complement integers (GCC and clang shift signed
    // values arithmetically, lane by lane on vectors).
    int64_t Divisor;
    if (!T.isFloat() && asConstInt(B, &Divisor) && Divisor > 0 &&
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
        // loop.
        needVectorType(T);
        std::string VT = vecCType(T);
        std::string FloorFn = T.element().Bits == 32 ? "floorf" : "floor";
        needHelper(VT + "_fmod2",
                   "static inline " + VT + " " + VT + "_fmod2(" + VT +
                       " a, " + VT + " b) {\n  " + VT + " r;\n" +
                       laneLoop(nativeLanes(T), "r[l] = a[l] - " + FloorFn +
                                                    "(a[l] / b[l]) * b[l];") +
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

  /// The index of the lowest element a ramp of constant stride \p Stride
  /// reaches: the pointer the shaped load and store helpers take.
  std::string lowestIndex(const Ramp *R, int Stride) {
    int Low = lowestOffset(Stride, R->Lanes);
    return Low ? "(" + emit(R->Base) + ") - " + std::to_string(-Low)
               : emit(R->Base);
  }

  /// A vector load, by the shape of its index (paper section 4.5): a ramp
  /// of stride ±1 or ±2 is a dense or shuffled load, any other ramp a
  /// strided one, a clamped ramp of stride ±1 or ±2 plus broadcast
  /// offsets a clamped load, and everything else a gather.
  std::string emitLoad(const Load *Op) {
    std::string Buf = bufferName(Op->Name);
    Type T = Op->NodeType;
    if (T.isScalar())
      return Buf + "[" + emit(Op->Index) + "]";
    if (const Ramp *R = Op->Index.as<Ramp>()) {
      int64_t Stride;
      if (asConstInt(R->Stride, &Stride) && isShapedStride(Stride))
        return vectorLoadHelper(T, int(Stride)) + "(&" + Buf + "[" +
               lowestIndex(R, int(Stride)) + "])";
      return vectorStridedLoadHelper(T) + "(&" + Buf + "[" + emit(R->Base) +
             "], " + emit(R->Stride) + ")";
    }
    Expr Off;
    ClampedTap Tap;
    if (matchClampedTap(Op->Index, &Off, &Tap))
      return vectorClampedLoadHelper(T, Tap.Stride) + "(" + Buf + ", " +
             (Off.defined() ? emit(Off) : "0") + ", " + Tap.Base + ", " +
             Tap.Lo + ", " + Tap.Hi + ")";
    return vectorGatherHelper(T, Op->Index.type()) + "(" + Buf + ", " +
           emit(Op->Index) + ")";
  }

  /// Emits a let's value as a C constant and returns its name. A vector
  /// let bound to a clamped ramp first captures the ramp's base and bounds
  /// in scalar constants, returned in *Tap, so a load whose index names
  /// the let reads them as they were here, even where a name they use has
  /// been rebound since. *Tap has stride 0 for any other let, which hides
  /// an outer clamped let of the same name.
  std::string emitLet(const std::string &Name, const Expr &Value,
                      ClampedTap *Tap) {
    std::string CValue;
    ClampedRamp CR;
    if (Value.type().isVector() && matchClampedRamp(Value, &CR)) {
      auto Capture = [&](const Expr &E, const char *Suffix) {
        std::string V = emit(E), C = freshName(Name + Suffix);
        line("const int32_t " + C + " = " + V + ";");
        return C;
      };
      *Tap = {Capture(CR.Base, "_base"), Capture(CR.Lo, "_lo"),
              Capture(CR.Hi, "_hi"), CR.Stride};
      Type T = Value.type();
      auto Bound = [&](const char *Op, const std::string &Lanes,
                       const std::string &X) {
        return vectorOpHelper(T, Op) + "(" + Lanes + ", " +
               vectorSplatHelper(T) + "(" + X + "))";
      };
      std::string Lanes = vectorRampHelper(T) + "(" + Tap->Base + ", " +
                          emit(IntImm::make(Int(32), CR.Stride)) + ")";
      CValue = CR.MinOuter
                   ? Bound("min", Bound("max", Lanes, Tap->Lo), Tap->Hi)
                   : Bound("max", Bound("min", Lanes, Tap->Hi), Tap->Lo);
      if (CR.MinOuter)
        Tap->Lo = maxOuterLo(Tap->Lo, Tap->Hi);
    } else {
      CValue = emit(Value);
    }
    std::string CName = freshName(Name);
    line("const " + cTypeOf(Value.type()) + " " + CName + " = " + CValue +
         ";");
    return CName;
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
                       Type T, const std::string &Val, const std::string &Idx) {
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
      line(Coords + "[__l] = (int32_t)" + Idx + "[__l];");
      line(Bits + "[__l] = " + traceBitsExpr(T.element(), Val + "[__l]") +
           ";");
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
    emitTraceAccess(TraceEventKind::TraceLoad, L->Name, T, Val, Idx);
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
      emitTraceAccess(Kind, Stage, T, Val, Idx);
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
      ClampedTap Tap;
      std::string CName = emitLet(Op->Name, Op->Value, &Tap);
      ScopedBinding<CLocal> Bind(Vars, Op->Name,
                                 {CName, cTypeOf(Op->Value.type())});
      ScopedBinding<ClampedTap> BindTap(ClampedLets, Op->Name, Tap);
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
      if (asConstInt(R->Stride, &Stride) && (Stride == 1 || Stride == -1)) {
        line(vectorStoreHelper(Op->Value.type(), int(Stride)) + "(&" + Buf +
             "[" + lowestIndex(R, int(Stride)) + "], " + Value + ");");
        return;
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
      ScopedBinding<CLocal> Bind(Vars, Op->Name, {CName, "int32_t"});
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
      if (Vars.contains(Name))
        Fields.push_back({Name, Vars.get(Name).Name, Vars.get(Name).CType,
                          false});
      // Names not in scope would be parameters already materialized as
      // locals in the main preamble, so this branch is exhaustive; anything
      // missing is a bug caught when the body references it.
    }
    for (const std::string &Name : Capture.BufferNames) {
      internal_assert(Buffers.contains(Name))
          << "codegen: captured unknown buffer " << Name;
      Fields.push_back({Name, Buffers.get(Name).Name,
                        Buffers.get(Name).CType + " *", true});
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

    // Emit the body function into its own buffer. The launch site's
    // clamped-ramp constants are not captured, so in the body a load
    // through one of its vector lets is a gather.
    std::ostringstream FnBody;
    std::ostringstream *SavedBody = Body;
    int SavedIndent = Indent;
    Scope<ClampedTap> SavedLets = std::move(ClampedLets);
    ClampedLets = {};
    Body = &FnBody;
    Indent = 1;

    {
      // Bind captured names inside the function.
      std::vector<std::unique_ptr<ScopedBinding<CLocal>>> Binds;
      for (const Field &F : Fields) {
        // Buffer pointers are distinct allocations; telling the C compiler
        // so (restrict) is what lets it keep vector temporaries in
        // registers across the dense load/store helpers.
        line(F.CType + (F.IsBuffer ? "restrict " : " ") + F.CName +
             " = __c->" + F.CName + ";");
        if (!F.IsBuffer)
          Binds.push_back(std::make_unique<ScopedBinding<CLocal>>(
              Vars, F.IRName, CLocal{F.CName, F.CType}));
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
      for (size_t I = 0; I < Chain.size(); ++I)
        Binds.push_back(std::make_unique<ScopedBinding<CLocal>>(
            Vars, Chain[I]->Name, CLocal{IdxNames[I], "int32_t"}));
      emitStmt(InnerBody);
      --Indent;
      line("}");
    }

    Body = SavedBody;
    Indent = SavedIndent;
    ClampedLets = std::move(SavedLets);

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
      ScopedBinding<CLocal> Bind(Buffers, Op->Name, {CName, CT});
      emitStmt(Op->Body);
    }
    line("rt->Free(" + CName + ");");
    --Indent;
    line("}");
  }

  std::string bufferName(const std::string &Name) {
    internal_assert(Buffers.contains(Name))
        << "codegen: access to unknown buffer " << Name;
    return Buffers.get(Name).Name;
  }

  //===------------------------------------------------------------------===//
  // Main function
  //===------------------------------------------------------------------===//

  void emitMain() {
    std::ostringstream MainBody;
    Body = &MainBody;
    Indent = 1;

    std::vector<std::unique_ptr<ScopedBinding<CLocal>>> Binds;
    auto Bind = [&](Scope<CLocal> &Names, const std::string &IRName,
                    const std::string &CName, const std::string &CType) {
      Binds.push_back(std::make_unique<ScopedBinding<CLocal>>(
          Names, IRName, CLocal{CName, CType}));
    };

    // The packed arguments, in LoweredPipeline's layout: each buffer and
    // its metadata, then the scalar parameters.
    for (size_t I = 0; I < P.Buffers.size(); ++I) {
      const BufferArg &Arg = P.Buffers[I];
      std::string CT = scalarCType(Arg.ElemType);
      std::string CName = freshName(Arg.Name);
      line(CT + " *restrict " + CName + " = (" + CT + " *)bufs[" +
           std::to_string(I) + "];");
      Bind(Buffers, Arg.Name, CName, CT);
      for (int D = 0; D < MaxBufferDims; ++D) {
        const char *Kinds[3] = {"min", "extent", "stride"};
        for (int K = 0; K < 3; ++K) {
          std::string IRName =
              Arg.Name + "." + Kinds[K] + "." + std::to_string(D);
          std::string MName = freshName(IRName);
          line("const int32_t " + MName + " = (int32_t)iargs[" +
               std::to_string(LoweredPipeline::metadataSlot(I, D) + K) +
               "];");
          Bind(Vars, IRName, MName, "int32_t");
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
      Bind(Vars, Arg.Name, CName, CT);
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

  /// The C local that stands for an IR variable or buffer, and the C type
  /// a closure declares its copy with (for a buffer, the element type).
  struct CLocal {
    std::string Name, CType;
  };
  Scope<CLocal> Vars;    // IR variable -> C local
  Scope<CLocal> Buffers; // IR buffer -> C element pointer
  Scope<ClampedTap> ClampedLets; // let name -> its clamped ramp's C parts
};

} // namespace

std::string halide::codegenC(const LoweredPipeline &P,
                             const std::string &FnName) {
  CodeGen CG(P, FnName);
  return CG.run();
}

VectorLoadCounts halide::countVectorLoads(const std::string &Source) {
  // The calls start where the helpers end: at the first closure or at the
  // pipeline function.
  size_t At = std::min(Source.find("\ntypedef struct hl_closure_"),
                       Source.find("\nint32_t "));
  VectorLoadCounts Counts;
  while ((At = Source.find("hl_", At)) != std::string::npos) {
    size_t End = At;
    while (End < Source.size() &&
           (std::isalnum((unsigned char)Source[End]) || Source[End] == '_'))
      ++End;
    const std::string Name = Source.substr(At, End - At);
    At = End;
    auto EndsWith = [&](const char *Suffix) {
      size_t N = std::strlen(Suffix);
      return Name.size() >= N && Name.compare(Name.size() - N, N, Suffix) == 0;
    };
    if (End == Source.size() || Source[End] != '(')
      continue;
    if (Name.find("_gather_") != std::string::npos)
      ++Counts.Gathers;
    else if (Name.find("_load_clamped") != std::string::npos)
      ++Counts.Clamped;
    else if (EndsWith("_load_s2") || EndsWith("_load_rev_s2") ||
             EndsWith("_load_strided"))
      ++Counts.Strided;
  }
  return Counts;
}
