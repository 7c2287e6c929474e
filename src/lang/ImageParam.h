//===-- lang/ImageParam.h - Pipeline inputs ---------------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime-bound input images: ImageParam (the paper's UniformImage). Like
/// a Param<T> (lang/Param.h), an ImageParam is a handle to one parameter,
/// which every load from it owns; set() binds the buffer the pipeline's
/// realizations read until the next set() or reset().
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_LANG_IMAGEPARAM_H
#define HALIDE_LANG_IMAGEPARAM_H

#include "lang/Param.h"

#include <string>
#include <vector>

namespace halide {

/// An input image of a given element type and dimensionality. Loads from it
/// appear in the IR as Call nodes with CallType::Image; its extents appear
/// as scalar parameters named "<name>.extent.<d>" / "<name>.min.<d>".
class ImageParam {
public:
  ImageParam() = default;
  ImageParam(Type ElemType, int Dimensions, const std::string &Name = "");

  const std::string &name() const { return P->Name; }
  Type type() const { return P->DeclaredType; }
  int dimensions() const { return P->Dimensions; }
  bool defined() const { return P.defined(); }

  /// Loads a pixel. Coordinates are cast to Int(32).
  Expr operator()(Expr X) const;
  Expr operator()(Expr X, Expr Y) const;
  Expr operator()(Expr X, Expr Y, Expr Z) const;
  Expr operator()(std::vector<Expr> Args) const;

  /// Symbolic extent/min of dimension \p D, bound at execution.
  Expr extent(int D) const;
  Expr minCoord(int D) const;
  Expr width() const { return extent(0); }
  Expr height() const { return extent(1); }
  Expr channels() const { return extent(2); }

  /// Binds the input image subsequent realizations read. The buffer must
  /// match the declared element type and dimensionality (user_error). The
  /// parameter keeps the buffer's storage alive while it is bound.
  void set(const RawBuffer &B);
  template <typename T> void set(const Buffer<T> &B) { set(B.raw()); }
  /// Clears any bound image; realize() then requires an explicit binding.
  void reset();

private:
  ParameterPtr P;
};

} // namespace halide

#endif // HALIDE_LANG_IMAGEPARAM_H
