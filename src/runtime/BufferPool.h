//===-- runtime/BufferPool.h - Pooled frame allocations ---------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving runtime's allocator: every halideMalloc/halideFree (internal
/// pipeline buffers on every engine — the VM's Alloc op, JIT-compiled code
/// through the runtime vtable, and the reference interpreter's Allocate
/// scopes) routes through a process-wide, size-bucketed free-list pool.
/// Pipelines allocate the same intermediate shapes frame after frame, so
/// once a pipeline's working set has been seen, steady-state serving
/// performs zero system mallocs per frame — the property bench_runner
/// --serve relies on and ServingTest asserts via the FreshAllocations
/// counter.
///
/// Blocks above the pool's held-bytes capacity are returned to the system
/// on free (oldest buckets are not aged out; eviction is whole-block at
/// free time, keeping the bookkeeping trivial). The pool frees its
/// inventory at process exit so leak-checked suites stay clean. The pool
/// knows nothing of stages: the profiler charges allocations from the
/// ProfAlloc/ProfFree events of profiled executables
/// (transforms/Instrument.h).
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_RUNTIME_BUFFERPOOL_H
#define HALIDE_RUNTIME_BUFFERPOOL_H

#include <cstdint>

namespace halide {

/// Observable pool behaviour, exposed so tests and benchmarks can assert
/// steady-state reuse (FreshAllocations stops growing once a serving loop
/// is warm).
struct BufferPoolStats {
  /// Allocations served by reusing a pooled block (no system malloc).
  int64_t PoolHits = 0;
  /// Allocations that went to the system because no pooled block of the
  /// size class was available.
  int64_t FreshAllocations = 0;
  /// Blocks returned to the system because the pool was at capacity.
  int64_t CapacityEvictions = 0;
  /// Bytes currently held in free lists, ready for reuse.
  int64_t BytesHeld = 0;
  /// Bytes currently live (handed out and not yet freed).
  int64_t BytesLive = 0;
};

/// A copy of the pool's counters, taken under the pool lock.
BufferPoolStats bufferPoolStats();

/// Pool-aware allocation entry points; halideMalloc/halideFree in
/// Runtime.h are aliases of these (see Runtime.cpp).
void *bufferPoolMalloc(int64_t Bytes);
void bufferPoolFree(void *Ptr);

} // namespace halide

#endif // HALIDE_RUNTIME_BUFFERPOOL_H
