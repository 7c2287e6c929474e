//===-- lang/Func.h - The user-facing pipeline stage handle -----*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Func is the public API for defining pipeline stages (paper section 2) and
/// scheduling them (section 3): the algorithm is written once as pure
/// definitions, and every execution-strategy choice is a separate, chainable
/// scheduling call that cannot change the program's meaning.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_LANG_FUNC_H
#define HALIDE_LANG_FUNC_H

#include "lang/Function.h"
#include "lang/RDom.h"
#include "lang/Var.h"

#include <string>
#include <vector>

namespace halide {

class Func;

/// The result of calling a Func with arguments. Converts to an Expr (a call
/// to the stage) or accepts assignment (a definition of the stage).
class FuncRef {
public:
  FuncRef(Function F, std::vector<Expr> Args)
      : F(std::move(F)), Args(std::move(Args)) {}

  /// Using the reference as a value: a Call to the Func.
  operator Expr() const;

  /// Defining the Func: pure definition if all args are distinct plain Vars
  /// and the Func is not yet defined; otherwise an update definition whose
  /// reduction domain is inferred from the RVars used.
  void operator=(Expr Value);
  void operator=(const FuncRef &Other);

  /// Sugar for common reductions.
  void operator+=(Expr Value);
  void operator-=(Expr Value);
  void operator*=(Expr Value);

private:
  void defineUpdateFromExpr(Expr Value);

  Function F;
  std::vector<Expr> Args;
};

/// Names and factors for a standard 2-D tiling, built fluently so call
/// sites stay readable instead of threading eight positional arguments:
///   F.tile(TileSpec(x, y).outer(xo, yo).inner(xi, yi).factors(64, 32));
/// Unset outer/inner names default to fresh Vars; factors are required.
struct TileSpec {
  TileSpec(Var X, Var Y) : X(std::move(X)), Y(std::move(Y)) {}

  TileSpec &outer(Var XO, Var YO) {
    XOuter = std::move(XO);
    YOuter = std::move(YO);
    return *this;
  }
  TileSpec &inner(Var XI, Var YI) {
    XInner = std::move(XI);
    YInner = std::move(YI);
    return *this;
  }
  TileSpec &factors(Expr XF, Expr YF) {
    XFactor = std::move(XF);
    YFactor = std::move(YF);
    return *this;
  }

  Var X, Y;
  Var XOuter, YOuter, XInner, YInner; ///< default: fresh unique names
  Expr XFactor, YFactor;
};

/// A handle to a pipeline stage with definition and scheduling APIs. Copies
/// alias the same stage.
class Func {
public:
  /// Creates an undefined Func with a fresh unique name.
  Func();
  /// Creates an undefined Func with the given base name (made unique if
  /// already taken).
  explicit Func(const std::string &Name);
  /// Wraps an existing internal Function.
  explicit Func(Function F) : F(std::move(F)) {}

  const std::string &name() const { return F.name(); }
  bool defined() const { return F.hasPureDefinition(); }
  int dimensions() const { return F.dimensions(); }
  const Function &function() const { return F; }
  Function &function() { return F; }

  /// Calling/defining with coordinates. Any mix of Vars, Exprs, and
  /// integer literals, of any arity.
  FuncRef operator()(std::vector<Expr> Args) const;
  template <typename... ArgTs> FuncRef operator()(ArgTs &&...TheArgs) const {
    return (*this)(std::vector<Expr>{Expr(std::forward<ArgTs>(TheArgs))...});
  }

  //===--------------------------------------------------------------------===//
  // Domain order directives (paper section 3.2, "The Domain Order").
  //===--------------------------------------------------------------------===//

  /// Splits dimension \p Old into \p Outer * Factor + \p Inner.
  Func &split(const Var &Old, const Var &Outer, const Var &Inner,
              Expr Factor);
  /// Reorders dimensions; arguments are innermost-first (Halide convention).
  Func &reorder(const std::vector<Var> &Vars);
  template <typename... VarTs>
  Func &reorder(const Var &First, const Var &Second, const VarTs &...Rest) {
    return reorder(std::vector<Var>{First, Second, Rest...});
  }
  /// Marks a dimension for parallel execution on the task scheduler.
  Func &parallel(const Var &V);
  /// Marks a (constant-extent) dimension as a SIMD vector dimension.
  Func &vectorize(const Var &V);
  /// Splits by \p Factor and vectorizes the new inner dimension.
  Func &vectorize(const Var &V, int Factor);
  /// Marks a (constant-extent) dimension for complete unrolling.
  Func &unroll(const Var &V);
  /// Splits by \p Factor and unrolls the new inner dimension.
  Func &unroll(const Var &V, int Factor);
  /// Standard 2-D tiling: splits x and y and reorders to tile order.
  Func &tile(const TileSpec &Spec);
  /// Positional sugar for tile(TileSpec).
  Func &tile(const Var &X, const Var &Y, const Var &XOuter,
             const Var &YOuter, const Var &XInner, const Var &YInner,
             Expr XFactor, Expr YFactor) {
    return tile(TileSpec(X, Y)
                    .outer(XOuter, YOuter)
                    .inner(XInner, YInner)
                    .factors(std::move(XFactor), std::move(YFactor)));
  }
  /// Declares bounds for a dimension (the paper's bounds annotation).
  Func &bound(const Var &V, Expr Min, Expr Extent);

  /// Maps a dimension onto the simulated-GPU block / thread grid.
  Func &gpuBlocks(const Var &V);
  Func &gpuThreads(const Var &V);
  /// Tiles and maps the tiles onto the GPU grid in one step.
  Func &gpuTile(const TileSpec &Spec);
  /// Positional sugar for gpuTile(TileSpec).
  Func &gpuTile(const Var &X, const Var &Y, const Var &BX, const Var &BY,
                const Var &TX, const Var &TY, Expr XSize, Expr YSize) {
    return gpuTile(TileSpec(X, Y)
                       .outer(BX, BY)
                       .inner(TX, TY)
                       .factors(std::move(XSize), std::move(YSize)));
  }

  //===--------------------------------------------------------------------===//
  // Call schedule directives (paper section 3.2, "The Call Schedule").
  //===--------------------------------------------------------------------===//

  /// Computes this stage at the root level (breadth-first granularity).
  Func &computeRoot();
  /// Computes this stage inside loop \p V of consumer \p Consumer.
  Func &computeAt(const Func &Consumer, const Var &V);
  /// Inlines this stage into every consumer (the default).
  Func &computeInline();
  /// Stores this stage's buffer at the root level.
  Func &storeRoot();
  /// Stores this stage's buffer at loop \p V of consumer \p Consumer.
  Func &storeAt(const Func &Consumer, const Var &V);

  //===--------------------------------------------------------------------===//
  // Update-stage scheduling (limited: reduction dimensions stay serial;
  // pure dimensions of updates may be reordered/parallelized).
  //===--------------------------------------------------------------------===//

  /// Marks a pure dimension of update \p Idx parallel.
  Func &updateParallel(int Idx, const Var &V);
  /// Marks a pure dimension of update \p Idx vectorized (whole dimension).
  Func &updateVectorize(int Idx, const Var &V);

  //===--------------------------------------------------------------------===//
  // Value tracing (observe/TraceStream.h). The flags only take effect when
  // the pipeline is compiled with Target::withTrace(); they select which
  // stages instrument() traces. With no per-stage flags set anywhere
  // in the pipeline, a traced target instruments every stage.
  //===--------------------------------------------------------------------===//

  /// Emits one trace event per load from this stage's buffer.
  Func &traceLoads();
  /// Emits one trace event per store to this stage's buffer.
  Func &traceStores();
  /// Emits begin/end trace events bracketing each realization of this
  /// stage's buffer, carrying its extents.
  Func &traceRealizations();

private:
  Function F;
};

} // namespace halide

#endif // HALIDE_LANG_FUNC_H
