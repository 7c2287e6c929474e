//===-- observe/TraceStream.h - Binary value-trace writer -------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sink for value-level trace events (every load, store and
/// realization of a Target::Trace executable, lowered by
/// transforms/Instrument.h into Call::Instrument intrinsics that every
/// engine executes), and the one entry point, observeEvent, through which
/// every engine reports both those events and the profiler's stage, chunk
/// and allocation scopes.
///
/// Binary format ("HLTRACE1", host-endian):
///
///   file   := magic(8 bytes "HLTRACE1") record*
///   record := u16 StageId   -- profilerStageId of the buffer (Profiler.h)
///             u8  Kind      -- 0 load, 1 store, 2 begin, 3 end, 4 name
///             u8  TypeCode  -- traceTypeCode() of the value type; 0 if n/a
///             u16 Lanes     -- value lanes (loads/stores); 0 otherwise
///             u16 NumCoords -- i32 words that follow
///             i32 Coords[NumCoords]
///             u64 Bits[Lanes]
///
/// Loads/stores carry one flat (post-storage-flattening) buffer index per
/// lane in Coords and the value bits per lane in Bits: integers are
/// sign-extended (unsigned zero-extended) to 64 bits, floats are stored as
/// the bits of the value converted to double (f32 rounds through float
/// first), so the same access produces the same record in every engine.
/// Begin records carry the realization's extents in Coords; End records
/// carry nothing. Name records (appended on traceStreamStop) map StageId to
/// a UTF-8 name packed NUL-padded into the Coords words.
///
/// Writer discipline: events append to per-thread buffers
/// (observe/ShardRegistry.h) that flush to the file under the registry
/// lock, so threaded runs interleave at flush granularity — readers must
/// treat a threaded trace as an event multiset. A byte budget
/// (HALIDE_TRACE_MAX_MB, default 1024) applies backpressure: once
/// reached, further events are counted in EventsDropped instead of
/// written. When no stream is active every emit returns after one relaxed
/// atomic load.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_OBSERVE_TRACESTREAM_H
#define HALIDE_OBSERVE_TRACESTREAM_H

#include "ir/Type.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace halide {

/// Instrumentation event kinds. Kinds 0-4 are the record's Kind byte in a
/// trace file; kinds 5 and up go to the profiler (observe/Profiler.h) and
/// never reach a file.
enum class TraceEventKind : uint8_t {
  TraceLoad = 0,
  TraceStore = 1,
  TraceBegin = 2,
  TraceEnd = 3,
  TraceName = 4,
  ProfEnter = 5,
  ProfExit = 6,
  ProfChunk = 7,
  ProfAlloc = 8,
  ProfFree = 9,
};

/// Packs a value type into one byte: (code << 4) | log2(bits), with code
/// 0 = int, 1 = uint, 2 = float (lane count travels in the record's Lanes
/// field, so only the element type is encoded).
uint8_t traceTypeCode(Type T);
/// Printable form of a packed type code, e.g. "f32", "u8", "i32".
std::string traceTypeCodeStr(uint8_t Code);

/// Value-bit normalization shared by the engines: integers sign-extend
/// through int64 (unsigned values arrive already zero-extended/wrapped
/// non-negative), floats store the bit pattern of the double value.
inline uint64_t traceBitsOfInt(int64_t V) { return (uint64_t)V; }
uint64_t traceBitsOfDouble(double V);

/// Counters for the current (or, after stop, the most recent) stream.
/// Mirrored into the metrics registry as trace.events_emitted /
/// trace.events_dropped / trace.bytes_written.
struct TraceStreamStats {
  int64_t EventsEmitted = 0;
  int64_t EventsDropped = 0;
  int64_t BytesWritten = 0;
};

/// Opens \p Path for writing, writes the magic, resets the counters, and
/// enables event collection. Returns false (stream stays inactive) if the
/// file cannot be opened or a stream is already active.
bool traceStreamStart(const std::string &Path);

/// Disables collection, flushes every thread's pending events, appends one
/// Name record per interned stage id, and closes the file.
void traceStreamStop();

/// One relaxed atomic load; the engines' only trace-off cost.
bool traceStreamActive();

TraceStreamStats traceStreamStats();

/// The one handler behind every engine's Call::Instrument and the runtime
/// vtable's Event slot. Kinds 5 and up go to profilerEvent with \p Coords
/// as their payload; every other kind appends one record to the stream,
/// and is a no-op beyond the relaxed Active load when no stream is
/// active. \p StageId is a profilerStageId. \p Bits may be null when
/// \p Lanes is 0 (every kind but loads and stores).
void observeEvent(TraceEventKind Kind, int StageId, uint8_t TypeCode,
                  int Lanes, const int32_t *Coords, int NumCoords,
                  const uint64_t *Bits);

//===----------------------------------------------------------------------===//
// Reader (bench/trace_analyzer, DiffTest parity leg, tests).
//===----------------------------------------------------------------------===//

/// One decoded record.
struct TraceEvent {
  uint16_t StageId = 0;
  TraceEventKind Kind = TraceEventKind::TraceLoad;
  uint8_t TypeCode = 0;
  std::vector<int32_t> Coords; ///< flat indices (load/store) or extents
  std::vector<uint64_t> Bits;  ///< one value word per lane
  std::string Name;            ///< Name records only

  bool operator==(const TraceEvent &O) const {
    return StageId == O.StageId && Kind == O.Kind && TypeCode == O.TypeCode &&
           Coords == O.Coords && Bits == O.Bits && Name == O.Name;
  }
};

/// Parses a trace file. Returns false and fills \p Error on a malformed
/// file (bad magic, truncated record).
bool readTraceFile(const std::string &Path, std::vector<TraceEvent> *Out,
                   std::string *Error);

} // namespace halide

#endif // HALIDE_OBSERVE_TRACESTREAM_H
