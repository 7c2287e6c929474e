//===-- lang/Param.h - Typed scalar runtime parameters ----------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typed scalar runtime parameters (the paper's uniforms). A Param<T>, like
/// an ImageParam (lang/ImageParam.h), is a handle to one
/// ParameterContents: its name, type and dimensions, and the value its
/// last set() bound. The Variables and image Calls that read a parameter
/// own it (ParameterPtr, ir/Expr.h), so a pipeline finds its parameters in
/// its own definitions and no table keeps them by name. Pipeline::realize
/// binds every argument the caller did not bind explicitly from those
/// parameters' values; name->value ParamBindings remain the internal ABI
/// between Pipeline and the back ends.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_LANG_PARAM_H
#define HALIDE_LANG_PARAM_H

#include "ir/IROperators.h"
#include "runtime/Runtime.h"

#include <atomic>
#include <map>
#include <string>
#include <type_traits>

namespace halide {

/// The value bound to a parameter: a scalar in its declared type's
/// representation, or an image.
struct ParamValue {
  bool HasValue = false;
  int64_t IntValue = 0;  ///< integer scalars (unsigned ones as their bits)
  double FloatValue = 0; ///< float scalars
  RawBuffer Image;       ///< images (shares the caller's storage)
};

/// One pipeline parameter, owned by its Param<T> or ImageParam handles and
/// by every Variable and Call that reads it.
struct ParameterContents {
  /// Atomic: parameters are captured by in-flight async frames and
  /// copied across threads (see ContentsPtr in ir/Expr.h).
  mutable std::atomic<int> RefCount{0};

  std::string Name;
  Type DeclaredType; ///< a scalar's type, or an image's element type
  int Dimensions;    ///< an image's rank; 0 for a scalar
  /// Read and written only under one process-wide lock (Param.cpp), so
  /// the values bindParameterValues copies come from a single instant.
  ParamValue Value;

  ParameterContents(std::string Name, Type DeclaredType, int Dimensions)
      : Name(std::move(Name)), DeclaredType(DeclaredType),
        Dimensions(Dimensions) {}
  void set(ParamValue V);
  ParamValue get() const;
};

/// Adds the bound values of \p Params to \p Bindings, skipping names the
/// caller bound explicitly and parameters with no value. The values are
/// read under one acquisition of the parameter lock, so a frame sees them
/// as of a single instant even while other threads call set().
void bindParameterValues(const std::map<std::string, ParameterPtr> &Params,
                         ParamBindings *Bindings);

/// A scalar runtime parameter (the paper's uniforms). Symbolic in
/// definitions; set() binds the value used by subsequent realizations.
/// Copies alias one parameter.
template <typename T> class Param {
public:
  Param() : Param(uniqueName("p")) {}
  explicit Param(const std::string &Name)
      : P(new ParameterContents(Name, typeOf<T>(), 0)) {}
  /// Declares and immediately binds \p Initial.
  Param(const std::string &Name, T Initial) : Param(Name) { set(Initial); }

  const std::string &name() const { return P->Name; }
  Type type() const { return P->DeclaredType; }

  /// Binds the value subsequent realizations observe.
  void set(T Value) {
    P->set(std::is_floating_point_v<T>
               ? ParamValue{true, 0, double(Value), {}}
               : ParamValue{true, int64_t(Value), 0, {}});
  }
  /// Returns the bound value; aborts (user_error) if unbound.
  T get() const {
    ParamValue V = P->get();
    user_assert(V.HasValue) << "Param " << name() << " read before set()";
    return std::is_floating_point_v<T> ? T(V.FloatValue) : T(V.IntValue);
  }

  operator Expr() const { return Variable::make(type(), name(), true, P); }

private:
  ParameterPtr P;
};

} // namespace halide

#endif // HALIDE_LANG_PARAM_H
