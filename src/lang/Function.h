//===-- lang/Function.h - Internal function representation ------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler-internal representation of one pipeline stage: a pure
/// definition (value at every point of an infinite integer domain, paper
/// section 2), optional update definitions recursing over reduction
/// domains, and the stage's Schedule. Func (lang/Func.h) is the user-facing
/// handle around this.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_LANG_FUNCTION_H
#define HALIDE_LANG_FUNCTION_H

#include "lang/RDom.h"
#include "schedule/Schedule.h"
#include "support/Util.h"

#include <string>
#include <vector>

namespace halide {

/// One update definition: Name(Args...) = Value, iterated over the RDom
/// dimensions in lexicographic order. Args may be arbitrary integer
/// expressions of free pure variables and RVars (scatters).
struct UpdateDefinition {
  std::vector<Expr> Args;
  Expr Value;
  std::vector<ReductionVariable> RVars;
  /// Loop order for this update stage, outermost first: free pure vars then
  /// reduction vars (which default to serial).
  std::vector<Dim> Dims;
};

/// Reference-counted payload of a Function. Owned by every Func handle to
/// the stage and by every Call to it (Call::Callee), so a pipeline's
/// output keeps alive each stage it depends on.
struct FunctionContents {
  /// Atomic: Func handles are captured by in-flight async frames and
  /// copied across threads (see FunctionPtr in ir/Expr.h).
  mutable std::atomic<int> RefCount{0};

  std::string Name;
  /// Process-unique serial number. Stages of different pipelines may share
  /// a name, so identity-sensitive consumers (the compile cache's schedule
  /// fingerprint) key on this id, never on the name alone.
  int64_t Id = 0;
  std::vector<std::string> Args;
  Expr Value;
  std::vector<UpdateDefinition> Updates;
  Schedule Sched;
};

/// A shared handle to a pipeline stage. Copies alias the same stage.
class Function {
public:
  Function() = default;
  /// Creates a new, undefined function named \p Name. The name is kept as
  /// given; only stages of one pipeline need distinct names.
  explicit Function(const std::string &Name);
  /// The stage a Halide Call holds (Call::Callee).
  explicit Function(FunctionPtr P) : C(std::move(P)) {}

  bool defined() const;
  bool hasPureDefinition() const;
  bool hasUpdateDefinition() const;

  const std::string &name() const;
  /// Process-unique serial number of this stage, never reused by another
  /// Function in the same process.
  int64_t id() const;
  /// The pure argument names, in definition order (x innermost by default).
  const std::vector<std::string> &args() const;
  int dimensions() const { return int(args().size()); }
  Type outputType() const;

  /// The pure definition's right-hand side.
  const Expr &value() const;
  const std::vector<UpdateDefinition> &updates() const;
  std::vector<UpdateDefinition> &updates();

  Schedule &schedule();
  const Schedule &schedule() const;

  /// Installs the pure definition and initializes the default schedule
  /// (row-major loop order over the pure args).
  void define(const std::vector<std::string> &Args, Expr Value);

  /// Restores the default schedule: no splits, row-major order, all serial,
  /// compute/store inlined (or root if the function has updates). Used by
  /// the autotuner between candidate schedules.
  void resetSchedule();
  /// Appends an update definition. Calls to this stage itself in \p Args,
  /// \p Value and the RVar bounds drop their callee reference, so the
  /// stage does not own itself.
  void defineUpdate(const std::vector<Expr> &Args, Expr Value,
                    const std::vector<ReductionVariable> &RVars);

  /// An owning reference to this stage, for the Calls that read it.
  const FunctionPtr &ptr() const { return C; }
  bool sameAs(const Function &Other) const { return C.get() == Other.C.get(); }

private:
  FunctionPtr C;
};

} // namespace halide

#endif // HALIDE_LANG_FUNCTION_H
