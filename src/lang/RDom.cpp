//===-- lang/RDom.cpp ---------------------------------------------------------=//

#include "lang/RDom.h"
#include "ir/IROperators.h"
#include "support/Util.h"

using namespace halide;

RVar::operator Expr() const {
  internal_assert(!Dim.Name.empty()) << "use of undefined RVar";
  return Variable::makeReduction(Dim.Name, Dim.Min, Dim.Extent);
}

RDom::RDom(Expr Min, Expr Extent, const std::string &Name) {
  std::string Base = Name.empty() ? uniqueName("r") : Name;
  Dims.push_back({Base + "$x", cast(Int(32), Min), cast(Int(32), Extent)});
  initAccessors();
}

RDom::RDom(Expr MinX, Expr ExtentX, Expr MinY, Expr ExtentY,
           const std::string &Name) {
  std::string Base = Name.empty() ? uniqueName("r") : Name;
  Dims.push_back({Base + "$x", cast(Int(32), MinX), cast(Int(32), ExtentX)});
  Dims.push_back({Base + "$y", cast(Int(32), MinY), cast(Int(32), ExtentY)});
  initAccessors();
}

RDom::RDom(const std::vector<ReductionVariable> &InitDims) : Dims(InitDims) {
  initAccessors();
}

void RDom::initAccessors() {
  if (Dims.size() > 0)
    x = RVar(Dims[0]);
  if (Dims.size() > 1)
    y = RVar(Dims[1]);
  if (Dims.size() > 2)
    z = RVar(Dims[2]);
  if (Dims.size() > 3)
    w = RVar(Dims[3]);
}

RDom::operator Expr() const {
  internal_assert(Dims.size() == 1)
      << "only 1-D RDoms convert implicitly to Expr";
  return x;
}

RDom::operator RVar() const {
  internal_assert(Dims.size() == 1)
      << "only 1-D RDoms convert implicitly to RVar";
  return x;
}
