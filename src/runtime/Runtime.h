//===-- runtime/Runtime.h - Execution-time support --------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime contract between compiled pipelines and the host: parameter
/// bindings (buffers and scalars), the function-pointer table passed to
/// JIT-compiled code (so generated code needs no link-time symbols), and
/// small allocation helpers.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_RUNTIME_RUNTIME_H
#define HALIDE_RUNTIME_RUNTIME_H

#include "runtime/Buffer.h"

#include <cstdint>
#include <map>
#include <string>

namespace halide {

/// Concrete values for a pipeline invocation: buffers by name (output and
/// input images) and scalar parameters by name.
class ParamBindings {
public:
  void bind(const std::string &Name, const RawBuffer &Buffer) {
    Buffers[Name] = Buffer;
  }
  template <typename T>
  void bind(const std::string &Name, const Buffer<T> &B) {
    Buffers[Name] = B.raw();
  }
  void bindInt(const std::string &Name, int64_t Value) {
    IntScalars[Name] = Value;
  }
  void bindFloat(const std::string &Name, double Value) {
    FloatScalars[Name] = Value;
  }

  bool hasBuffer(const std::string &Name) const {
    return Buffers.count(Name) > 0;
  }
  const RawBuffer &buffer(const std::string &Name) const {
    auto It = Buffers.find(Name);
    internal_assert(It != Buffers.end()) << "unbound buffer " << Name;
    return It->second;
  }

  /// Resolves a scalar parameter: either a user scalar or buffer metadata
  /// of the form "<buf>.min.<d>" / ".extent.<d>" / ".stride.<d>".
  bool lookupScalar(const std::string &Name, double *Out) const;

  const std::map<std::string, RawBuffer> &buffers() const { return Buffers; }
  const std::map<std::string, int64_t> &intScalars() const {
    return IntScalars;
  }
  const std::map<std::string, double> &floatScalars() const {
    return FloatScalars;
  }

private:
  std::map<std::string, RawBuffer> Buffers;
  std::map<std::string, int64_t> IntScalars;
  std::map<std::string, double> FloatScalars;
};

/// The vtable handed to JIT-compiled pipelines. Passing function pointers
/// explicitly (rather than relying on dynamic symbol resolution) keeps the
/// generated shared object fully self-contained.
struct RuntimeVTable {
  /// Heap allocation for internal buffers (16-byte aligned).
  void *(*Malloc)(int64_t Bytes);
  void (*Free)(void *Ptr);
  /// Closure-based parallel for: runs Body(I, Closure) for I in
  /// [Min, Min+Extent) on the work-stealing task scheduler (paper §4.6).
  void (*ParFor)(int32_t Min, int32_t Extent,
                 void (*Body)(int32_t, void *), void *Closure);
  /// Simulated-GPU kernel launch over a flattened block range; semantics
  /// match ParFor but route through the GPU simulator for accounting.
  void (*GpuLaunch)(int32_t Blocks, void (*Body)(int32_t, void *),
                    void *Closure);
  /// Aborts execution with a message (failed AssertStmt).
  void (*Abort)(const char *Message);
  /// Instrumentation events (transforms/Instrument.h), emitted by CodeGenC
  /// only for Target::Profile / Target::Trace executables and handed to
  /// observeEvent (observe/TraceStream.h). Kind is a TraceEventKind;
  /// StageId and TypeCode are baked in at codegen time. Coords holds one
  /// flat index per lane (loads/stores) or the realization extents
  /// (begin), Bits the normalized value bits per lane. Appended at the
  /// end of the struct so the generated hl_vtable typedef (CodeGenC.cpp)
  /// stays layout-compatible — keep both in lockstep.
  void (*Event)(int32_t Kind, int32_t StageId, int32_t TypeCode,
                int32_t Lanes, const int32_t *Coords, int32_t NumCoords,
                const uint64_t *Bits);
};

/// The global vtable instance (also used by the interpreter for parity).
const RuntimeVTable *runtimeVTable();

/// 64-byte-aligned heap allocation helpers. Backed by the process-wide
/// buffer pool (runtime/BufferPool.h), so steady-state frame loops reuse
/// blocks instead of hitting the system allocator.
void *halideMalloc(int64_t Bytes);
void halideFree(void *Ptr);

} // namespace halide

#endif // HALIDE_RUNTIME_RUNTIME_H
