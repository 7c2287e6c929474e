//===-- support/Util.h - Common utilities and error handling ---*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small support utilities shared by every layer of the compiler: streaming
/// assertion macros (the project builds without exceptions in the spirit of
/// the LLVM coding standards), unique name generation for compiler-created
/// variables, and string helpers.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_SUPPORT_UTIL_H
#define HALIDE_SUPPORT_UTIL_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace halide {

/// Accumulates an error message via operator<< and aborts the process when
/// destroyed. Used through the internal_assert / user_assert macros below so
/// that error sites read like LLVM's `assert(X && "msg")` but can embed
/// dynamic values.
class ErrorReport {
public:
  ErrorReport(const char *File, int Line, const char *CondString, bool IsUser);
  [[noreturn]] ~ErrorReport();

  template <typename T> ErrorReport &operator<<(const T &Value) {
    Msg << Value;
    return *this;
  }

private:
  std::ostringstream Msg;
};

/// A do-nothing sink so that passing asserts compile away to a dead branch.
class ErrorSink {
public:
  template <typename T> ErrorSink &operator<<(const T &) { return *this; }
};

} // namespace halide

/// Check an invariant of the compiler itself. Failure indicates a bug in
/// this repository, not in user code.
#define internal_assert(c)                                                     \
  if (c)                                                                       \
    ;                                                                          \
  else                                                                         \
    ::halide::ErrorReport(__FILE__, __LINE__, #c, false)

/// Check a constraint on user input (malformed pipelines, bad schedules).
#define user_assert(c)                                                         \
  if (c)                                                                       \
    ;                                                                          \
  else                                                                         \
    ::halide::ErrorReport(__FILE__, __LINE__, #c, true)

/// Report an unconditional internal error.
#define internal_error ::halide::ErrorReport(__FILE__, __LINE__, nullptr, false)
/// Report an unconditional user-facing error.
#define user_error ::halide::ErrorReport(__FILE__, __LINE__, nullptr, true)

namespace halide {

/// Returns a process-unique name derived from \p Prefix, used for
/// compiler-generated variables and functions. Thread-safe: the counters
/// are lock-guarded so concurrent front-end construction (serving clients
/// declaring Params, tests building pipelines on worker threads) cannot
/// mint duplicate names.
std::string uniqueName(const std::string &Prefix);

/// Resets the unique-name counters. Only tests should call this, to make
/// golden-text comparisons deterministic.
void resetUniqueNameCounters();

/// The name counters of one compilation. While an instance is alive,
/// scopedUniqueName() on the thread that made it draws from these
/// counters instead of the process-wide ones, so compiling the same
/// pipeline twice mints the same names. Instances nest; the innermost
/// wins.
class UniqueNameScope {
public:
  UniqueNameScope();
  ~UniqueNameScope();
  UniqueNameScope(const UniqueNameScope &) = delete;
  UniqueNameScope &operator=(const UniqueNameScope &) = delete;

private:
  friend std::string scopedUniqueName(const std::string &Prefix);
  std::map<std::string, int> Counters;
  UniqueNameScope *Enclosing;
};

/// A name derived from \p Prefix that is unique within the innermost
/// UniqueNameScope alive on this thread, or process-unique (as
/// uniqueName()) when there is none. For compiler temporaries that never
/// leave the statement being compiled (shared bounds definitions, CSE
/// lets); front-end objects keep uniqueName().
std::string scopedUniqueName(const std::string &Prefix);

/// Returns true if \p Str starts with \p Prefix.
bool startsWith(const std::string &Str, const std::string &Prefix);

/// Returns true if \p Str ends with \p Suffix.
bool endsWith(const std::string &Str, const std::string &Suffix);

/// Splits \p Str on character \p Sep. An empty string yields no tokens.
std::vector<std::string> splitString(const std::string &Str, char Sep);

/// Replaces every occurrence of \p From in \p Str with \p To.
std::string replaceAll(std::string Str, const std::string &From,
                       const std::string &To);

/// Intrusively reference-counted smart pointer, in the style of
/// llvm::IntrusiveRefCntPtr. The pointee exposes a mutable
/// `std::atomic<int> RefCount`. Refcounting is atomic because handles to
/// shared IR cross threads in the serving runtime: concurrent realize()
/// calls copy LoweredPipeline (and the Func/Expr handles inside it), and
/// two backend compiles of the same Func walk lowered trees that share
/// subtrees with the original definition — a plain int count corrupts
/// under that interleaving. Structural *mutation* of IR is still
/// single-threaded-per-tree (lowering is serialized; executing pipelines
/// never mutate IR), so only the counts need atomicity, not the nodes.
template <typename T> class IntrusivePtr {
public:
  IntrusivePtr() = default;
  IntrusivePtr(T *P) : Ptr(P) { incref(); }
  IntrusivePtr(const IntrusivePtr &Other) : Ptr(Other.Ptr) { incref(); }
  IntrusivePtr(IntrusivePtr &&Other) noexcept : Ptr(Other.Ptr) {
    Other.Ptr = nullptr;
  }
  ~IntrusivePtr() { decref(); }

  IntrusivePtr &operator=(const IntrusivePtr &Other) {
    // Increment first so self-assignment is safe.
    T *OldPtr = Ptr;
    Ptr = Other.Ptr;
    incref();
    if (OldPtr &&
        OldPtr->RefCount.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete OldPtr;
    return *this;
  }

  IntrusivePtr &operator=(IntrusivePtr &&Other) noexcept {
    std::swap(Ptr, Other.Ptr);
    return *this;
  }

  T *get() const { return Ptr; }
  T *operator->() const { return Ptr; }
  T &operator*() const { return *Ptr; }
  explicit operator bool() const { return Ptr != nullptr; }

  bool sameAs(const IntrusivePtr &Other) const { return Ptr == Other.Ptr; }

private:
  void incref() {
    // Relaxed is enough for an increment: the thread already holds a live
    // reference (directly or through the handle it is copying from), so
    // the count cannot concurrently reach zero.
    if (Ptr)
      Ptr->RefCount.fetch_add(1, std::memory_order_relaxed);
  }
  // GCC 12 reports a spurious -Wuse-after-free here when decref is inlined
  // into loops over containers of IntrusivePtr (it conflates the pointer
  // freed in one iteration with the decrement in the next).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuse-after-free"
#endif
  void decref() {
    // Acquire/release so every access through a dying reference
    // happens-before the delete that another thread's final decrement may
    // perform.
    T *Dead = Ptr;
    Ptr = nullptr;
    if (Dead && Dead->RefCount.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete Dead;
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  T *Ptr = nullptr;
};

} // namespace halide

#endif // HALIDE_SUPPORT_UTIL_H
