//===-- lang/ImageParam.cpp ----------------------------------------------------=//

#include "lang/ImageParam.h"

using namespace halide;

ImageParam::ImageParam(Type ElemType, int Dimensions, const std::string &Name)
    : P(new ParameterContents(Name.empty() ? uniqueName("img") : Name,
                              ElemType, Dimensions)) {
  user_assert(Dimensions >= 1 && Dimensions <= 4)
      << "ImageParam must have 1-4 dimensions";
}

void ImageParam::set(const RawBuffer &B) {
  user_assert(defined()) << "set on an undefined ImageParam";
  user_assert(B.defined()) << "ImageParam " << name()
                           << " bound to an undefined buffer";
  user_assert(B.ElemType == type())
      << "ImageParam " << name() << " declared " << type().str()
      << " but bound to a " << B.ElemType.str() << " buffer";
  user_assert(B.Dimensions == dimensions())
      << "ImageParam " << name() << " declared " << dimensions()
      << "-dimensional but bound to a " << B.Dimensions
      << "-dimensional buffer";
  P->set(ParamValue{true, 0, 0, B});
}

void ImageParam::reset() {
  user_assert(defined()) << "reset on an undefined ImageParam";
  P->set(ParamValue());
}

Expr ImageParam::operator()(std::vector<Expr> Args) const {
  user_assert(defined()) << "use of undefined ImageParam";
  user_assert(int(Args.size()) == dimensions())
      << "ImageParam " << name() << " called with " << Args.size()
      << " coordinates, expected " << dimensions();
  std::vector<Expr> CallArgs;
  CallArgs.reserve(Args.size());
  for (Expr &Arg : Args)
    CallArgs.push_back(cast(Int(32), Arg));
  return Call::make(type(), name(), std::move(CallArgs), CallType::Image,
                    FunctionPtr(), P);
}

Expr ImageParam::operator()(Expr X) const {
  return (*this)(std::vector<Expr>{X});
}
Expr ImageParam::operator()(Expr X, Expr Y) const {
  return (*this)(std::vector<Expr>{X, Y});
}
Expr ImageParam::operator()(Expr X, Expr Y, Expr Z) const {
  return (*this)(std::vector<Expr>{X, Y, Z});
}

Expr ImageParam::extent(int D) const {
  user_assert(D >= 0 && D < dimensions()) << "extent dimension out of range";
  return Variable::make(Int(32), name() + ".extent." + std::to_string(D),
                        /*IsParam=*/true);
}

Expr ImageParam::minCoord(int D) const {
  user_assert(D >= 0 && D < dimensions()) << "min dimension out of range";
  return Variable::make(Int(32), name() + ".min." + std::to_string(D),
                        /*IsParam=*/true);
}
