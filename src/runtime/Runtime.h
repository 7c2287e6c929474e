//===-- runtime/Runtime.h - Execution-time support --------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime contract between compiled pipelines and the host: a run's
/// arguments by name (buffers and scalars; Executable::run packs them for
/// the engines), the function-pointer table passed to JIT-compiled code
/// (so generated code needs no link-time symbols), and small allocation
/// helpers.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_RUNTIME_RUNTIME_H
#define HALIDE_RUNTIME_RUNTIME_H

#include "runtime/Buffer.h"
#include "runtime/TaskScheduler.h"

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

  /// The buffer bound to \p Name, or null.
  const RawBuffer *buffer(const std::string &Name) const {
    auto It = Buffers.find(Name);
    return It == Buffers.end() ? nullptr : &It->second;
  }
  /// The scalar bound to \p Name with bindInt / bindFloat, or null.
  const int64_t *intScalar(const std::string &Name) const {
    auto It = IntScalars.find(Name);
    return It == IntScalars.end() ? nullptr : &It->second;
  }
  const double *floatScalar(const std::string &Name) const {
    auto It = FloatScalars.find(Name);
    return It == FloatScalars.end() ? nullptr : &It->second;
  }

private:
  std::map<std::string, RawBuffer> Buffers;
  std::map<std::string, int64_t> IntScalars;
  std::map<std::string, double> FloatScalars;
};

struct GpuCounters;

/// The vtable handed to JIT-compiled pipelines. Passing function pointers
/// explicitly (rather than relying on dynamic symbol resolution) keeps the
/// generated shared object fully self-contained.
struct RuntimeVTable {
  /// Heap allocation for internal buffers (16-byte aligned).
  void *(*Malloc)(int64_t Bytes);
  void (*Free)(void *Ptr);
  /// Closure-based parallel for (paper §4.6): parallelForChunks itself.
  /// Generated code passes its run's MaxTasks, and each chunk body loops
  /// over its own [Begin, End).
  int (*ParFor)(int64_t Min, int64_t Extent, int MaxTasks, TaskChunkFn Body,
                void *Closure);
  /// Simulated-GPU kernel launch over a flattened block range [0, Blocks),
  /// cut into chunks like ParFor but routed through the GPU simulator,
  /// which counts the launch process-wide and in \p Rt's GpuRun.
  /// Generated code passes its own `rt`, so the launch is credited to the
  /// run that made it and sized by that run's MaxTasks.
  void (*GpuLaunch)(const RuntimeVTable *Rt, int32_t Blocks,
                    TaskChunkFn Body, void *Closure);
  /// Aborts execution with a message (failed AssertStmt).
  void (*Abort)(const char *Message);
  /// Instrumentation events (transforms/Instrument.h), emitted by CodeGenC
  /// only for Target::Profile / Target::Trace executables and handed to
  /// observeEvent (observe/TraceStream.h). Kind is a TraceEventKind;
  /// StageId and TypeCode are baked in at codegen time. Coords holds one
  /// flat index per lane (loads/stores) or the kind's payload (the
  /// realization extents of a TraceBegin, the element size and extents of
  /// a ProfAlloc), Bits the normalized value bits per lane.
  void (*Event)(int32_t Kind, int32_t StageId, int32_t TypeCode,
                int32_t Lanes, const int32_t *Coords, int32_t NumCoords,
                const uint64_t *Bits);
  /// The GPU launch counters of the run this table was handed to: each
  /// JIT run passes its own copy of the table (Jit.cpp). Null in
  /// runtimeVTable(). Generated code only passes it back, through `rt`.
  GpuCounters *GpuRun;
  /// The run's chunk budget for parallel loops and GPU launches,
  /// taskChunkBudget(NumThreads of Executable::run), set in each run's
  /// copy. 0 (the pool default) in runtimeVTable().
  int MaxTasks;
  // The generated hl_vtable typedef (CodeGenC.cpp) mirrors this layout —
  // keep both in lockstep.
};

/// The process-wide vtable, with no run's GPU counters or budget attached.
const RuntimeVTable *runtimeVTable();

/// 64-byte-aligned heap allocation helpers. Backed by the process-wide
/// buffer pool (runtime/BufferPool.h), so steady-state frame loops reuse
/// blocks instead of hitting the system allocator.
void *halideMalloc(int64_t Bytes);
void halideFree(void *Ptr);

} // namespace halide

#endif // HALIDE_RUNTIME_RUNTIME_H
