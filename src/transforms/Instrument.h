//===-- transforms/Instrument.h - Profiling and value tracing ---*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumentation pass behind Target::Profile and Target::Trace. It
/// emits one intrinsic, Call::Instrument, whose first argument is the
/// event kind (observe/TraceStream.h's TraceEventKind). Every engine runs
/// it through one handler that reports to observeEvent: the interpreter
/// in evalCall, the VM through its Event op, and JIT-compiled C through
/// the runtime vtable's Event slot.
///
/// Profile brackets every stage's produce body with ProfEnter/ProfExit
/// events. With a per-thread stage stack this reproduces real Halide's
/// produce/update/consume attribution: entering a producer suspends the
/// enclosing stage's self time (the consume transition). When a produce
/// body's statement chain is recognizably "init ; update(0) ; ...", each
/// update is also bracketed as its own "name.update(k)" sub-stage.
///
/// Trace wraps the selected buffers' memory traffic:
///   - every Load becomes a TraceLoad event wrapping the load,
///   - every Store becomes a TraceStore event that performs the store,
///   - every Allocate's body is bracketed by TraceBegin(extents...) and
///     TraceEnd; the output buffer, which has no Allocate, is bracketed
///     around the whole pipeline body using its "<name>.extent.<d>"
///     metadata parameters.
/// Selection follows Func::traceLoads()/traceStores()/traceRealizations():
/// if no stage in the pipeline requests anything, every buffer is traced
/// (including input images, which have no Func to carry flags).
///
/// With both bits set, realization events sit outside the profile markers
/// they share a node with. The pass runs in makeExecutable(), on a copy of
/// the cached LoweredPipeline — never inside lower() — so neither bit
/// enters the lowering fingerprint, instrumented and plain targets share
/// one cached lowering, and an uninstrumented run executes bit-identical,
/// event-free code (the zero-cost-when-off guarantee ProfilerTest and
/// TracingTest assert).
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_TRANSFORMS_INSTRUMENT_H
#define HALIDE_TRANSFORMS_INSTRUMENT_H

#include "lang/Target.h"
#include "observe/TraceStream.h"
#include "transforms/Lower.h"

namespace halide {

/// Returns \p P instrumented for \p T's Profile and Trace bits; a copy of
/// \p P when neither is set. \p P itself is not modified.
LoweredPipeline instrument(const LoweredPipeline &P, const Target &T);

/// The event kind of a Call::Instrument (its first argument).
TraceEventKind instrumentKind(const Call *Op);

/// The stage or buffer a Call::Instrument reports under (its second
/// argument).
const std::string &instrumentStage(const Call *Op);

} // namespace halide

#endif // HALIDE_TRANSFORMS_INSTRUMENT_H
