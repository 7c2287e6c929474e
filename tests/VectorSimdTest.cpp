//===-- tests/VectorSimdTest.cpp - SIMD execution + vector correctness ----===//
//
// Pins the SIMD execution layer introduced for vectorize():
//  - CodeGenC emits native GCC vector types and restrict buffer pointers.
//  - Reversed (stride -1) ramps classify as dense load/store + lane
//    reverse, not gathers/scatters.
//  - Clamped-boundary stencil loads (off + clamp(ramp, lo, hi), the shape
//    In(clamp(x+dx, 0, W-1), y) lowers to) classify as a clamped dense
//    load — memcpy in the interior, per-lane clamp at the edges — not a
//    gather, and execute correctly at both.
//  - The VM compiles unit-stride ramp accesses to the dense lane-group
//    memory opcodes.
//  - Vector floor div/mod semantics agree bit for bit across the
//    interpreter, the VM, and compiled C, including negative numerators
//    and denominators and division by zero inside Ramp'd expressions.
//  - Scalar division and remainder by a positive power-of-two constant
//    compile to a shift and a mask, with floor semantics over each
//    integer type's full range on jit_c at the default flags and at -O0.
//  - A signed type's minimum divided by -1 wraps to the minimum, with
//    remainder 0, scalar and vectorized, on the VM and on jit_c.
//  - Vectorizing a split whose extent is not divisible by the factor is
//    safe on internal (padded) funcs and rejected on outputs — at
//    lowering time when the bound is static, at run time otherwise.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGenC.h"
#include "codegen/Interpreter.h"
#include "codegen/Jit.h"
#include "lang/ImageParam.h"
#include "lang/Param.h"
#include "lang/Pipeline.h"
#include "transforms/Substitute.h"
#include "vm/VmCompiler.h"
#include "vm/VmExecutable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

using namespace halide;

TEST(VectorSimdTest, NativeVectorTypesAndRestrictPointers) {
  ImageParam In(Float(32), 2, "vs_in");
  Var x("x"), y("y");
  Func F("vs_simd");
  F(x, y) = In(clamp(x, 0, In.width() - 1), clamp(y, 0, In.height() - 1)) *
                2.0f +
            1.0f;
  F.vectorize(x, 8);
  std::string Source = codegenC(lower(F.function()), "test_fn");
  // 8 x f32 is a native 32-byte vector, not the struct fallback.
  EXPECT_NE(Source.find("typedef float hl_f32x8 "
                        "__attribute__((vector_size(32)))"),
            std::string::npos);
  EXPECT_EQ(Source.find("typedef struct hl_f32x8"), std::string::npos);
  // Buffer pointers carry restrict so the C compiler can keep vector
  // temporaries live across the dense load/store helpers.
  EXPECT_NE(Source.find("*restrict"), std::string::npos);
}

TEST(VectorSimdTest, NonPowerOfTwoLanesFallBackToStruct) {
  Var x("x");
  Func F("vs_odd");
  F(x) = x * 2 + 1;
  F.bound(x, 0, 12).vectorize(x, 6); // 6 lanes: no native GCC vector
  std::string Source = codegenC(lower(F.function()), "test_fn");
  EXPECT_NE(Source.find("typedef struct hl_i32x6"), std::string::npos);
  EXPECT_EQ(Source.find("hl_i32x6 __attribute__"), std::string::npos);
}

TEST(VectorSimdTest, ReversedRampIsDenseLoadPlusLaneReverse) {
  Var x("x");
  Func Src("vr_src"), F("vr_out");
  Src(x) = x * 3 + 1;
  Src.computeRoot();
  // "127 - x" is a mirrored index: Broadcast - Ramp folds to a stride -1
  // ramp, which must take the dense-reversed path, not a gather.
  F(x) = Src(127 - Expr(x)) + Src(x);
  F.vectorize(x, 8);
  std::string Source = codegenC(lower(F.function()), "test_fn");
  EXPECT_NE(Source.find("_load_rev(&"), std::string::npos);
  EXPECT_EQ(Source.find("_gather"), std::string::npos);
  EXPECT_EQ(Source.find("_load_strided"), std::string::npos);
}

TEST(VectorSimdTest, ReversedRampExecutesCorrectlyOnAllBackends) {
  const int N = 128;
  Var x("x");
  Func Src("vrx_src"), F("vrx_out");
  Src(x) = x * 3 + 1;
  Src.computeRoot();
  F(x) = Src(127 - Expr(x)) + Src(x);
  F.vectorize(x, 8);
  LoweredPipeline LP = lower(F.function());

  Buffer<int32_t> FromInterp(N), FromVm(N), FromJit(N);
  {
    ParamBindings P;
    P.bind(F.name(), FromInterp);
    interpret(LP, P);
  }
  {
    ParamBindings P;
    P.bind(F.name(), FromVm);
    ASSERT_EQ(vmCompile(LP)->run(P), 0);
  }
  {
    ParamBindings P;
    P.bind(F.name(), FromJit);
    ASSERT_EQ(jitCompile(LP)->run(P), 0);
  }
  for (int X = 0; X < N; ++X) {
    int32_t Want = ((127 - X) * 3 + 1) + (X * 3 + 1);
    ASSERT_EQ(FromInterp(X), Want) << "interp at " << X;
    ASSERT_EQ(FromVm(X), Want) << "vm at " << X;
    ASSERT_EQ(FromJit(X), Want) << "jit at " << X;
  }
}

TEST(VectorSimdTest, ReversedRampStoreEmitsDenseReverseHelper) {
  // No scheduling path produces a reversed store from a pure definition
  // (pure LHS indices are always forward), so drive the emitter directly:
  // a Store whose index is a stride -1 ramp must use the dense reversed
  // store helper rather than a scatter.
  LoweredPipeline LP;
  LP.Name = "revstore";
  LP.Buffers.push_back({"out", Int(32), 1, true});
  Expr Value = Ramp::make(IntImm::make(Int(32), 0), IntImm::make(Int(32), 2),
                          8);
  Expr Index = Ramp::make(IntImm::make(Int(32), 7), IntImm::make(Int(32), -1),
                          8);
  LP.Body = Store::make("out", Value, Index);
  std::string Source = codegenC(LP, "test_fn");
  EXPECT_NE(Source.find("_store_rev(&"), std::string::npos);
  EXPECT_EQ(Source.find("_scatter"), std::string::npos);
}

TEST(VectorSimdTest, ClampedRampStencilIsDenseClampedLoadNotGather) {
  ImageParam In(UInt(8), 2, "vcl_in");
  Var x("x"), y("y");
  Func F("vcl_out");
  // The standard clamped-boundary stencil: each tap's x index lowers to
  // off + clamp(ramp(base, 1, 8), 0, W-1). That must classify as the
  // clamped dense load (memcpy when the whole lane group is interior),
  // never a per-lane gather.
  auto InC = [&](Expr X) {
    return cast(Int(32), In(clamp(X, 0, In.width() - 1), y));
  };
  F(x, y) = InC(x - 1) + InC(x) * 2 + InC(x + 1);
  F.vectorize(x, 8);
  std::string Source = codegenC(lower(F.function()), "test_fn");
  EXPECT_NE(Source.find("_load_clamped("), std::string::npos);
  EXPECT_EQ(Source.find("_gather"), std::string::npos);
}

TEST(VectorSimdTest, ClampedRampExecutesCorrectlyAtBoundaries) {
  // W = 64 is a multiple of the lane count, so the first and last lane
  // groups hold clamped (slow-path) lanes while every interior group
  // takes the dense memcpy fast path; both must match the interpreter.
  const int W = 64, H = 4;
  ImageParam In(UInt(8), 2, "vclx_in");
  Var x("x"), y("y");
  Func F("vclx_out");
  auto InC = [&](Expr X) {
    return cast(Int(32), In(clamp(X, 0, In.width() - 1), y));
  };
  F(x, y) = InC(x - 1) + InC(x) * 2 + InC(x + 1);
  F.vectorize(x, 8);
  LoweredPipeline LP = lower(F.function());

  Buffer<uint8_t> Input(W, H);
  Input.fill([](int X, int Y) { return uint8_t((X * 7 + Y * 31) % 251); });
  ParamBindings Params;
  Params.bind("vclx_in", Input);

  Buffer<int32_t> FromInterp(W, H), FromVm(W, H), FromJit(W, H);
  {
    ParamBindings P = Params;
    P.bind(F.name(), FromInterp);
    interpret(LP, P);
  }
  {
    ParamBindings P = Params;
    P.bind(F.name(), FromVm);
    ASSERT_EQ(vmCompile(LP)->run(P), 0);
  }
  {
    ParamBindings P = Params;
    P.bind(F.name(), FromJit);
    ASSERT_EQ(jitCompile(LP)->run(P), 0);
  }
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X) {
      auto At = [&](int I) {
        return int32_t(Input(std::clamp(I, 0, W - 1), Y));
      };
      int32_t Want = At(X - 1) + At(X) * 2 + At(X + 1);
      ASSERT_EQ(FromInterp(X, Y), Want) << "interp at (" << X << "," << Y << ")";
      ASSERT_EQ(FromVm(X, Y), Want) << "vm at (" << X << "," << Y << ")";
      ASSERT_EQ(FromJit(X, Y), Want) << "jit at (" << X << "," << Y << ")";
    }
}

TEST(VectorSimdTest, VmCompilesUnitStrideRampsToDenseOps) {
  Var x("x");
  Func Src("vmdense_src"), F("vmdense_out");
  Src(x) = x + 7;
  Src.computeRoot().vectorize(x, 8);
  F(x) = Src(x) * 2;
  F.vectorize(x, 8);
  auto Exe = vmCompile(lower(F.function()));
  std::string Listing = Exe->program().disassemble();
  EXPECT_NE(Listing.find("load.dense"), std::string::npos);
  EXPECT_NE(Listing.find("store.dense"), std::string::npos);

  const int N = 64;
  Buffer<int32_t> FromVm(N), FromInterp(N);
  LoweredPipeline LP = lower(F.function());
  {
    ParamBindings P;
    P.bind(F.name(), FromVm);
    ASSERT_EQ(vmCompile(LP)->run(P), 0);
  }
  {
    ParamBindings P;
    P.bind(F.name(), FromInterp);
    interpret(LP, P);
  }
  for (int X = 0; X < N; ++X)
    ASSERT_EQ(FromVm(X), FromInterp(X)) << "at " << X;
}

TEST(VectorSimdTest, VectorDivModFloorSemanticsParity) {
  // Floor division and floor remainder inside Ramp'd vector expressions,
  // over negative numerators AND negative denominators, with division by
  // zero (defined as 0) in some lanes. All three backends must agree bit
  // for bit; any divergence is a backend bug.
  ImageParam In(Int(32), 2, "vdm_in");
  Var x("x"), y("y");
  Func F("vdm_out");
  Expr V = In(clamp(x, 0, In.width() - 1), clamp(y, 0, In.height() - 1));
  Expr Num = V - 37;                    // mixed signs, ramps along x
  Expr DenB = Expr(y) % 7 - 3;          // broadcast denominator, -3..3 (has 0)
  Expr DenR = (Expr(x) + Expr(y)) % 5 - 2; // ramp denominator, -2..2 (has 0)
  F(x, y) = Num / DenB + Num % DenB * 100 + Num / DenR * 10000 +
            Num % DenR * 1000000 +
            cast(Int(32), cast(Int(16), Num * 5) / cast(Int(16), DenR)) +
            cast(Int(32),
                 cast(UInt(32), Expr(x) + 1) / cast(UInt(32), Expr(y) % 4) +
                     cast(UInt(32), Expr(x) + 3) % cast(UInt(32), 6));
  F.vectorize(x, 8);

  const int W = 64, H = 16;
  Buffer<int32_t> Input(W, H);
  Input.fill([](int X, int Y) { return X * 7 + Y * 13 - 60; });
  ParamBindings Params;
  Params.bind("vdm_in", Input);

  LoweredPipeline LP = lower(F.function());
  Buffer<int32_t> FromInterp(W, H), FromVm(W, H), FromJit(W, H);
  {
    ParamBindings P = Params;
    P.bind(F.name(), FromInterp);
    interpret(LP, P);
  }
  {
    ParamBindings P = Params;
    P.bind(F.name(), FromVm);
    ASSERT_EQ(vmCompile(LP)->run(P), 0);
  }
  {
    ParamBindings P = Params;
    P.bind(F.name(), FromJit);
    ASSERT_EQ(jitCompile(LP)->run(P), 0);
  }
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X) {
      ASSERT_EQ(FromInterp(X, Y), FromVm(X, Y))
          << "interp vs vm at (" << X << "," << Y << ")";
      ASSERT_EQ(FromInterp(X, Y), FromJit(X, Y))
          << "interp vs jit at (" << X << "," << Y << ")";
    }
}

namespace {

/// Numerators spanning T's whole range, negatives included: every value
/// of an 8- or 16-bit type; for wider types both ends, the neighbourhood
/// of zero and of +-each divisor, and an even spread in between.
template <typename T>
std::vector<T> divModNumerators(const std::vector<int64_t> &Divisors) {
  const int64_t Min = int64_t(std::numeric_limits<T>::min());
  const int64_t Max = int64_t(std::numeric_limits<T>::max());
  std::vector<T> Values;
  if (sizeof(T) <= 2) {
    for (int64_t V = Min; V <= Max; ++V)
      Values.push_back(T(V));
    return Values;
  }
  auto Add = [&](int64_t V) {
    if (V >= Min && V <= Max)
      Values.push_back(T(V));
  };
  for (int64_t D = 0; D < 3; ++D) {
    Add(Min + D);
    Add(Max - D);
  }
  for (int64_t V = -20; V <= 20; ++V)
    Add(V);
  for (int64_t D : Divisors)
    for (int64_t M : {-2, -1, 1, 2})
      for (int64_t Off : {-1, 0, 1}) {
        int64_t V; // M * D + Off, skipped where int64_t overflows
        if (!__builtin_mul_overflow(M, D, &V) &&
            !__builtin_add_overflow(V, Off, &V))
          Add(V);
      }
  const uint64_t Step = (uint64_t(Max) - uint64_t(Min)) / 4096;
  for (uint64_t I = 0; I <= 4096; ++I)
    Values.push_back(T(int64_t(uint64_t(Min) + Step * I)));
  return Values;
}

/// Floor division (IsMod false) or floor remainder of A by a nonzero B.
int64_t floorDivMod(int64_t A, int64_t B, bool IsMod) {
  int64_t Q = A / B, R = A % B;
  if (R != 0 && ((R < 0) != (B < 0))) {
    Q -= 1;
    R += B;
  }
  return IsMod ? R : Q;
}

/// Row 2i of the output is In(x) / Divisors[i] and row 2i+1 is
/// In(x) % Divisors[i], vectorized over x by \p VectorLanes when nonzero
/// (the divisors are then splats). The divisors are Params while lowering
/// (so no simplification folds `/ 1` or `% 1` away) and become constants
/// of type T in the lowered statement, which is what codegen and the VM
/// see. Checks the emitted C for helper calls (\p ExpectHelpers), then
/// runs the program on the VM and on jit_c at the default flags and at
/// -O0: the VM must equal floor semantics and both jit_c builds must
/// equal the VM.
template <typename T>
void checkDivMod(const std::string &Tag, const std::vector<int64_t> &Divisors,
                 bool ExpectHelpers, int VectorLanes) {
  const Type Ty = typeOf<T>();
  SCOPED_TRACE(Tag + (ExpectHelpers ? " helper divisors" : " powers of two") +
               (VectorLanes ? " vectorized" : " scalar"));
  const std::string Prefix = "sdm_" + Tag +
                             (ExpectHelpers ? "_helper" : "_pow2") +
                             (VectorLanes ? "_vec" : "");
  ImageParam In(Ty, 1, Prefix + "_in");
  Var x("x"), j("j");
  std::map<std::string, Expr> Constants;
  Expr Value = makeZero(Ty);
  for (size_t I = Divisors.size(); I-- > 0;) {
    Param<T> D(Prefix + "_d" + std::to_string(I));
    ASSERT_TRUE(Ty.canRepresent(Divisors[I]));
    Constants[D.name()] = makeConst(Ty, Divisors[I]);
    Value = select(Expr(j) == int(2 * I), In(x) / D,
                   select(Expr(j) == int(2 * I + 1), In(x) % D, Value));
  }
  Func F(Prefix + "_out");
  F(x, j) = Value;
  if (VectorLanes)
    F.vectorize(x, VectorLanes);

  LoweredPipeline LP = lower(F.function());
  LP.Body = substitute(Constants, LP.Body);
  LP.Scalars.clear();

  std::string Source = codegenC(LP, "test_fn");
  // The floor helpers: hl_div_i32 / hl_mod_i32, or hl_i32x8_fdiv /
  // hl_i32x8_mod on vectors.
  const std::string Vec = "hl_" + Tag + "x" + std::to_string(VectorLanes);
  const std::string DivHelper =
      VectorLanes ? Vec + "_fdiv(" : "hl_div_" + Tag + "(";
  const std::string ModHelper =
      VectorLanes ? Vec + "_mod(" : "hl_mod_" + Tag + "(";
  if (ExpectHelpers) {
    EXPECT_NE(Source.find(DivHelper), std::string::npos);
    EXPECT_NE(Source.find(ModHelper), std::string::npos);
  } else {
    for (const char *Helper : {"hl_div_", "hl_mod_", "_fdiv(", "_mod("})
      EXPECT_EQ(Source.find(Helper), std::string::npos)
          << Helper << "\n" << Source;
  }

  std::vector<T> Nums = divModNumerators<T>(Divisors);
  // The output extent must be a multiple of the vector width.
  while (VectorLanes && Nums.size() % size_t(VectorLanes))
    Nums.push_back(Nums.back());
  const int N = int(Nums.size()), Rows = int(2 * Divisors.size());
  Buffer<T> Input(N);
  for (int X = 0; X < N; ++X)
    Input(X) = Nums[size_t(X)];
  auto Run = [&](const Executable &E, Buffer<T> &Out) {
    ParamBindings P;
    P.bind(In.name(), Input);
    P.bind(F.name(), Out);
    ASSERT_EQ(E.run(P), 0);
  };
  Buffer<T> FromVm(N, Rows), FromJit(N, Rows), FromJitO0(N, Rows);
  Run(*vmCompile(LP), FromVm);
  Run(*jitCompile(LP), FromJit);
  Run(*jitCompile(LP, Target::jit().withJitFlags("-O0")), FromJitO0);
  for (int Row = 0; Row < Rows; ++Row)
    for (int X = 0; X < N; ++X) {
      const int64_t D = Divisors[size_t(Row / 2)], A = int64_t(Nums[size_t(X)]);
      ASSERT_EQ(FromVm(X, Row), T(floorDivMod(A, D, Row % 2 == 1)))
          << "vm: " << A << (Row % 2 ? " % " : " / ") << D;
      ASSERT_EQ(FromJit(X, Row), FromVm(X, Row))
          << "jit_c: " << A << (Row % 2 ? " % " : " / ") << D;
      ASSERT_EQ(FromJitO0(X, Row), FromVm(X, Row))
          << "jit_c -O0: " << A << (Row % 2 ? " % " : " / ") << D;
    }
}

template <typename T>
void checkDivModForType(const std::string &Tag, int VectorLanes) {
  const Type Ty = typeOf<T>();
  std::vector<int64_t> PowersOfTwo;
  for (int64_t D : {int64_t(1), int64_t(2), int64_t(8), int64_t(1) << 30})
    if (Ty.canRepresent(D))
      PowersOfTwo.push_back(D);
  // The largest power of two T holds: the widest shift and mask.
  const int64_t Largest = int64_t(1) << (Ty.Bits - (Ty.isInt() ? 2 : 1));
  if (Largest != PowersOfTwo.back())
    PowersOfTwo.push_back(Largest);
  checkDivMod<T>(Tag, PowersOfTwo, /*ExpectHelpers=*/false, VectorLanes);
  // A negative power of two and a positive non-power keep the helper.
  std::vector<int64_t> Others = {6};
  if (Ty.isInt())
    Others.push_back(-8);
  checkDivMod<T>(Tag, Others, /*ExpectHelpers=*/true, VectorLanes);
}

/// Row 0 of the output is In(x) / D and row 1 is In(x) % D, with D a
/// Param bound to -1, so each engine divides at run time (scalar, or by a
/// splat when \p VectorLanes is nonzero). The minimum must wrap to itself
/// and every remainder be 0 on the VM and on jit_c.
template <typename T>
void checkMinimumOverMinusOne(const std::string &Tag, int VectorLanes) {
  const std::string Prefix =
      "mom_" + Tag + (VectorLanes ? "_vec" : "_scalar");
  SCOPED_TRACE(Prefix);
  constexpr T Min = std::numeric_limits<T>::min();
  constexpr T Max = std::numeric_limits<T>::max();
  const std::vector<T> Nums = {Min, T(Min + 1), T(-1), T(0), T(1), T(Max)};
  const int N = 16;
  ImageParam In(typeOf<T>(), 1, Prefix + "_in");
  Buffer<T> Input(N);
  for (int X = 0; X < N; ++X)
    Input(X) = Nums[size_t(X) % Nums.size()];
  In.set(Input);
  Param<T> D(Prefix + "_d", T(-1));
  Var x("x"), j("j");
  Func F(Prefix + "_out");
  F(x, j) = select(Expr(j) == 0, In(x) / D, In(x) % D);
  if (VectorLanes)
    F.vectorize(x, VectorLanes);
  for (const Target &Tgt : {Target::vm(), Target::jit()}) {
    Buffer<T> Out(N, 2);
    Pipeline(F).realize(Out, ParamBindings(), Tgt);
    for (int X = 0; X < N; ++X) {
      const T A = Input(X);
      const T Quotient = A == Min ? Min : T(-A);
      ASSERT_EQ(Out(X, 0), Quotient) << Tgt.str() << ": " << +A << " / -1";
      ASSERT_EQ(Out(X, 1), T(0)) << Tgt.str() << ": " << +A << " % -1";
    }
  }
}

} // namespace

TEST(VectorSimdTest, MinimumOverMinusOneWraps) {
  // Hardware division traps on the minimum over -1; every engine defines
  // it instead, as the wrapped quotient (the minimum) and remainder 0.
  for (int Lanes : {0, 8}) {
    checkMinimumOverMinusOne<int8_t>("i8", Lanes);
    checkMinimumOverMinusOne<int16_t>("i16", Lanes);
    checkMinimumOverMinusOne<int32_t>("i32", Lanes);
    checkMinimumOverMinusOne<int64_t>("i64", Lanes);
  }
}

TEST(VectorSimdTest, ScalarPowerOfTwoDivModIsShiftAndMask) {
  // A positive power-of-two divisor compiles to a shift and a mask
  // instead of the branchy floor helpers, and must keep floor semantics
  // over every type's full range, negative numerators included.
  checkDivModForType<int8_t>("i8", 0);
  checkDivModForType<int16_t>("i16", 0);
  checkDivModForType<int32_t>("i32", 0);
  checkDivModForType<int64_t>("i64", 0);
  checkDivModForType<uint8_t>("u8", 0);
  checkDivModForType<uint16_t>("u16", 0);
  checkDivModForType<uint32_t>("u32", 0);
}

TEST(VectorSimdTest, VectorPowerOfTwoDivModIsShiftAndMask) {
  // The same on native vectors: a splat of a positive power of two is a
  // lanewise shift and mask, and other splats keep the floor helpers.
  checkDivModForType<int8_t>("i8", 8);
  checkDivModForType<int16_t>("i16", 8);
  checkDivModForType<int32_t>("i32", 8);
  checkDivModForType<int64_t>("i64", 8);
  checkDivModForType<uint8_t>("u8", 8);
  checkDivModForType<uint16_t>("u16", 8);
  checkDivModForType<uint32_t>("u32", 8);
}

TEST(VectorSimdTest, NonDivisibleVectorizedInternalUpdateStageIsSafe) {
  // Histogram-style pipeline: the init stage of the histogram is
  // vectorized by 8 over extent 100 (rounds up to 104). The histogram is
  // an internal stage, so its allocation is padded to the rounded extent
  // and the update stage still walks exactly [0, 100) — every backend
  // must produce the exact counts.
  ImageParam In(UInt(8), 1, "nds_in");
  Var i("i");
  Func Hist("nds_hist"), Out("nds_out");
  RDom R(0, In.width(), "nds_r");
  Hist(i) = cast(UInt(32), 0);
  Hist(clamp(cast(Int(32), In(R.x)), 0, 99)) += cast(UInt(32), 1);
  Hist.computeRoot().bound(i, 0, 100).vectorize(i, 8);
  Out(i) = Hist(i) + cast(UInt(32), 1);

  const int N = 237;
  Buffer<uint8_t> Input(N);
  Input.fill([](int X) { return (X * 31 + 7) % 100; });
  std::vector<uint32_t> Want(100, 1);
  for (int X = 0; X < N; ++X)
    Want[size_t((X * 31 + 7) % 100)] += 1;

  LoweredPipeline LP = lower(Out.function());
  ParamBindings Params;
  Params.bind("nds_in", Input);

  Buffer<uint32_t> FromInterp(100), FromVm(100), FromJit(100);
  {
    ParamBindings P = Params;
    P.bind(Out.name(), FromInterp);
    interpret(LP, P);
  }
  {
    ParamBindings P = Params;
    P.bind(Out.name(), FromVm);
    ASSERT_EQ(vmCompile(LP)->run(P), 0);
  }
  {
    ParamBindings P = Params;
    P.bind(Out.name(), FromJit);
    ASSERT_EQ(jitCompile(LP)->run(P), 0);
  }
  for (int X = 0; X < 100; ++X) {
    ASSERT_EQ(FromInterp(X), Want[size_t(X)]) << "interp at " << X;
    ASSERT_EQ(FromVm(X), Want[size_t(X)]) << "vm at " << X;
    ASSERT_EQ(FromJit(X), Want[size_t(X)]) << "jit at " << X;
  }
}

TEST(VectorSimdTest, NonDivisibleVectorizedOutputRejectedAtLoweringTime) {
  // With a static bound the round-up is provable at lowering time, so the
  // schedule is rejected with an error naming the stage instead of
  // deferring to a runtime abort.
  Var x("x");
  Func F("ndr_out");
  F(x) = x * 2;
  F.bound(x, 0, 100).vectorize(x, 8);
  EXPECT_DEATH(lower(F.function()), "round the written extent up");
}

TEST(VectorSimdTest, NonDivisibleVectorizedOutputAbortsAtRunTime) {
  // Without a static bound the same schedule must still refuse to write
  // out of bounds when the realized extent is not a factor multiple.
  Var x("x");
  Func F("ndrt_out");
  F(x) = x * 2;
  F.vectorize(x, 8);
  auto CP = jitCompile(lower(F.function()));
  Buffer<int32_t> Out(100);
  ParamBindings P;
  P.bind(F.name(), Out);
  EXPECT_DEATH(CP->run(P), "must be a multiple of the split factors");
}
