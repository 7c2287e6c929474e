//===-- observe/TraceStream.cpp - Binary value-trace writer ---------------===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "observe/TraceStream.h"
#include "observe/Profiler.h"
#include "observe/ShardRegistry.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace halide {

namespace {

constexpr char Magic[8] = {'H', 'L', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr size_t FlushThresholdBytes = 64 * 1024;

std::atomic<bool> Active{false};

// The stream's budget and counters, read on the emit path without a lock.
std::atomic<int64_t> MaxBytes{0};
std::atomic<int64_t> EventsEmitted{0};
std::atomic<int64_t> EventsDropped{0};
std::atomic<int64_t> BytesWritten{0};
/// Bytes admitted past the budget check (buffered or written). Checked
/// against MaxBytes at emit time so backpressure applies before the
/// buffers grow, not only at flush.
std::atomic<int64_t> BytesReserved{0};

/// The writer sink: the open file, guarded by the registry lock, and one
/// event buffer per thread.
struct Writer {
  FILE *File = nullptr;

  /// One thread's event buffer. Appends are uncontended (thread-local);
  /// the per-shard mutex only synchronizes against traceStreamStart/Stop
  /// touching a still-registered shard from another thread.
  struct Shard {
    std::mutex Mu;
    std::vector<uint8_t> Buf;

    /// Writes the buffer to \p File. Caller holds the registry lock.
    void flushLocked(FILE *File) {
      std::lock_guard<std::mutex> Lock(Mu);
      if (!Buf.empty() && File) {
        size_t N = fwrite(Buf.data(), 1, Buf.size(), File);
        BytesWritten.fetch_add((int64_t)N, std::memory_order_relaxed);
      }
      Buf.clear();
    }
  };

  /// An exiting thread's pending events still belong in the file.
  void retire(Shard &S) { S.flushLocked(File); }
};

using WriterRegistry = ShardRegistry<Writer>;

void append16(std::vector<uint8_t> &B, uint16_t V) {
  B.insert(B.end(), (const uint8_t *)&V, (const uint8_t *)&V + 2);
}

void append32(std::vector<uint8_t> &B, int32_t V) {
  B.insert(B.end(), (const uint8_t *)&V, (const uint8_t *)&V + 4);
}

void append64(std::vector<uint8_t> &B, uint64_t V) {
  B.insert(B.end(), (const uint8_t *)&V, (const uint8_t *)&V + 8);
}

void appendRecord(std::vector<uint8_t> &B, int StageId, TraceEventKind Kind,
                  uint8_t TypeCode, int Lanes, const int32_t *Coords,
                  int NumCoords, const uint64_t *Bits) {
  append16(B, (uint16_t)StageId);
  B.push_back((uint8_t)Kind);
  B.push_back(TypeCode);
  append16(B, (uint16_t)Lanes);
  append16(B, (uint16_t)NumCoords);
  for (int I = 0; I < NumCoords; ++I)
    append32(B, Coords[I]);
  for (int I = 0; I < Lanes; ++I)
    append64(B, Bits[I]);
}

int64_t maxBytesFromEnv() {
  const char *Env = std::getenv("HALIDE_TRACE_MAX_MB");
  int64_t Mb = 1024;
  if (Env && *Env) {
    int64_t V = std::atoll(Env);
    if (V > 0)
      Mb = V;
  }
  return Mb * 1024 * 1024;
}

} // namespace

uint8_t traceTypeCode(Type T) {
  int Log2 = 0;
  for (int B = T.Bits; B > 1; B >>= 1)
    ++Log2;
  int Code = T.isFloat() ? 2 : T.isUInt() ? 1 : 0;
  return (uint8_t)((Code << 4) | Log2);
}

std::string traceTypeCodeStr(uint8_t Code) {
  const char *Prefix[] = {"i", "u", "f", "?"};
  int Kind = (Code >> 4) & 3;
  int Bits = 1 << (Code & 15);
  return std::string(Prefix[Kind]) + std::to_string(Bits);
}

uint64_t traceBitsOfDouble(double V) {
  uint64_t B;
  memcpy(&B, &V, sizeof(B));
  return B;
}

bool traceStreamStart(const std::string &Path) {
  return WriterRegistry::locked([&](Writer &W, auto &Live) {
    if (W.File)
      return false; // a stream is already active
    FILE *F = fopen(Path.c_str(), "wb");
    if (!F)
      return false;
    if (fwrite(Magic, 1, sizeof(Magic), F) != sizeof(Magic)) {
      fclose(F);
      return false;
    }
    W.File = F;
    MaxBytes.store(maxBytesFromEnv(), std::memory_order_relaxed);
    EventsEmitted.store(0, std::memory_order_relaxed);
    EventsDropped.store(0, std::memory_order_relaxed);
    BytesWritten.store(0, std::memory_order_relaxed);
    BytesReserved.store(0, std::memory_order_relaxed);
    // Drop any events a racing emitter buffered after the previous stop.
    for (Writer::Shard *S : Live) {
      std::lock_guard<std::mutex> SLock(S->Mu);
      S->Buf.clear();
    }
    Active.store(true, std::memory_order_relaxed);
    return true;
  });
}

void traceStreamStop() {
  Active.store(false, std::memory_order_relaxed);
  WriterRegistry::locked([](Writer &W, auto &Live) {
    if (!W.File)
      return;
    for (Writer::Shard *S : Live)
      S->flushLocked(W.File);
    // Name records, so readers can resolve stage ids without the process's
    // intern table. Written directly: stop is single-threaded by contract.
    std::vector<uint8_t> B;
    int Count = profilerStageCount();
    for (int Id = 0; Id < Count; ++Id) {
      std::string Name = profilerStageName(Id);
      int Words = (int)((Name.size() + 4) / 4); // >=1 word, NUL-padded
      std::vector<int32_t> Packed(Words, 0);
      memcpy(Packed.data(), Name.data(), Name.size());
      appendRecord(B, Id, TraceEventKind::TraceName, 0, 0, Packed.data(),
                   Words, nullptr);
    }
    size_t N = fwrite(B.data(), 1, B.size(), W.File);
    BytesWritten.fetch_add((int64_t)N, std::memory_order_relaxed);
    fclose(W.File);
    W.File = nullptr;
  });
}

bool traceStreamActive() { return Active.load(std::memory_order_relaxed); }

TraceStreamStats traceStreamStats() {
  TraceStreamStats S;
  S.EventsEmitted = EventsEmitted.load(std::memory_order_relaxed);
  S.EventsDropped = EventsDropped.load(std::memory_order_relaxed);
  S.BytesWritten = BytesWritten.load(std::memory_order_relaxed);
  return S;
}

void observeEvent(TraceEventKind Kind, int StageId, uint8_t TypeCode,
                  int Lanes, const int32_t *Coords, int NumCoords,
                  const uint64_t *Bits) {
  if (Kind >= TraceEventKind::ProfEnter) {
    profilerEvent(Kind, StageId, Coords, NumCoords);
    return;
  }
  if (!traceStreamActive())
    return;
  int64_t RecordBytes = 8 + 4 * (int64_t)NumCoords + 8 * (int64_t)Lanes;
  if (BytesReserved.fetch_add(RecordBytes, std::memory_order_relaxed) +
          RecordBytes >
      MaxBytes.load(std::memory_order_relaxed)) {
    BytesReserved.fetch_sub(RecordBytes, std::memory_order_relaxed);
    EventsDropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Writer::Shard &S = WriterRegistry::local();
  bool NeedFlush = false;
  {
    std::lock_guard<std::mutex> SLock(S.Mu);
    appendRecord(S.Buf, StageId, Kind, TypeCode, Lanes, Coords, NumCoords,
                 Bits);
    NeedFlush = S.Buf.size() >= FlushThresholdBytes;
  }
  EventsEmitted.fetch_add(1, std::memory_order_relaxed);
  if (NeedFlush)
    WriterRegistry::locked([&](Writer &W, auto &) { S.flushLocked(W.File); });
}

bool readTraceFile(const std::string &Path, std::vector<TraceEvent> *Out,
                   std::string *Error) {
  Out->clear();
  FILE *F = fopen(Path.c_str(), "rb");
  if (!F) {
    if (Error)
      *Error = "cannot open " + Path;
    return false;
  }
  std::vector<uint8_t> Data;
  uint8_t Chunk[64 * 1024];
  size_t N;
  while ((N = fread(Chunk, 1, sizeof(Chunk), F)) > 0)
    Data.insert(Data.end(), Chunk, Chunk + N);
  fclose(F);
  if (Data.size() < sizeof(Magic) ||
      memcmp(Data.data(), Magic, sizeof(Magic)) != 0) {
    if (Error)
      *Error = Path + ": bad magic";
    return false;
  }
  size_t Pos = sizeof(Magic);
  while (Pos < Data.size()) {
    if (Data.size() - Pos < 8) {
      if (Error)
        *Error = Path + ": truncated record header";
      return false;
    }
    TraceEvent E;
    uint16_t U16;
    memcpy(&U16, &Data[Pos], 2);
    E.StageId = U16;
    E.Kind = (TraceEventKind)Data[Pos + 2];
    E.TypeCode = Data[Pos + 3];
    uint16_t Lanes, NumCoords;
    memcpy(&Lanes, &Data[Pos + 4], 2);
    memcpy(&NumCoords, &Data[Pos + 6], 2);
    Pos += 8;
    size_t Body = 4 * (size_t)NumCoords + 8 * (size_t)Lanes;
    if (Data.size() - Pos < Body) {
      if (Error)
        *Error = Path + ": truncated record body";
      return false;
    }
    // Empty vectors may have a null data(), which memcpy must not get.
    E.Coords.resize(NumCoords);
    if (NumCoords)
      memcpy(E.Coords.data(), &Data[Pos], 4 * (size_t)NumCoords);
    Pos += 4 * (size_t)NumCoords;
    E.Bits.resize(Lanes);
    if (Lanes)
      memcpy(E.Bits.data(), &Data[Pos], 8 * (size_t)Lanes);
    Pos += 8 * (size_t)Lanes;
    if (E.Kind == TraceEventKind::TraceName) {
      const char *Chars = (const char *)E.Coords.data();
      size_t MaxLen = E.Coords.size() * 4;
      size_t Len = 0;
      while (Len < MaxLen && Chars[Len])
        ++Len;
      E.Name.assign(Chars, Len);
      E.Coords.clear();
    }
    Out->push_back(std::move(E));
  }
  return true;
}

} // namespace halide
