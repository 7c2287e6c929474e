//===-- observe/TraceStream.cpp - Binary value-trace writer ---------------===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "observe/TraceStream.h"
#include "observe/Profiler.h"
#include "support/Util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace halide {

namespace {

constexpr char Magic[8] = {'H', 'L', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr size_t FlushThresholdBytes = 64 * 1024;

std::atomic<bool> Active{false};

struct Shard;

/// Global writer state. Intentionally leaked for the same reason as the
/// profiler registry: worker threads' thread_local shard destructors run
/// during static destruction and must find a live registry.
struct Writer {
  std::mutex Mu; // guards File, Live, and the counters' flush side
  FILE *File = nullptr;
  std::vector<Shard *> Live;
  int64_t MaxBytes = 0;

  std::atomic<int64_t> EventsEmitted{0};
  std::atomic<int64_t> EventsDropped{0};
  std::atomic<int64_t> BytesWritten{0};
  /// Bytes admitted past the budget check (buffered or written). Checked
  /// against MaxBytes at emit time so backpressure applies before the
  /// buffers grow, not only at flush.
  std::atomic<int64_t> BytesReserved{0};
};

Writer &writer() {
  static Writer *W = new Writer; // never destroyed, by design
  return *W;
}

/// One thread's event buffer. Appends are uncontended (thread-local); the
/// per-shard mutex only synchronizes against traceStreamStop flushing a
/// still-registered shard from another thread.
struct Shard {
  std::mutex Mu;
  std::vector<uint8_t> Buf;

  Shard() {
    Writer &W = writer();
    std::lock_guard<std::mutex> Lock(W.Mu);
    W.Live.push_back(this);
  }

  ~Shard() {
    Writer &W = writer();
    std::lock_guard<std::mutex> Lock(W.Mu);
    flushLocked(W);
    W.Live.erase(std::remove(W.Live.begin(), W.Live.end(), this),
                 W.Live.end());
  }

  /// Writes the buffer to the file. Caller holds W.Mu.
  void flushLocked(Writer &W) {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Buf.empty() && W.File) {
      size_t N = fwrite(Buf.data(), 1, Buf.size(), W.File);
      W.BytesWritten.fetch_add((int64_t)N, std::memory_order_relaxed);
    }
    Buf.clear();
  }
};

Shard &shard() {
  static thread_local Shard S;
  return S;
}

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

double traceDoubleOfBits(uint64_t Bits) {
  double V;
  memcpy(&V, &Bits, sizeof(V));
  return V;
}

bool traceStreamStart(const std::string &Path) {
  Writer &W = writer();
  std::lock_guard<std::mutex> Lock(W.Mu);
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
  W.MaxBytes = maxBytesFromEnv();
  W.EventsEmitted.store(0, std::memory_order_relaxed);
  W.EventsDropped.store(0, std::memory_order_relaxed);
  W.BytesWritten.store(0, std::memory_order_relaxed);
  W.BytesReserved.store(0, std::memory_order_relaxed);
  // Drop any events a racing emitter buffered after the previous stop.
  for (Shard *S : W.Live) {
    std::lock_guard<std::mutex> SLock(S->Mu);
    S->Buf.clear();
  }
  Active.store(true, std::memory_order_relaxed);
  return true;
}

void traceStreamStop() {
  Writer &W = writer();
  Active.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(W.Mu);
  if (!W.File)
    return;
  for (Shard *S : W.Live)
    S->flushLocked(W);
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
  W.BytesWritten.fetch_add((int64_t)N, std::memory_order_relaxed);
  fclose(W.File);
  W.File = nullptr;
}

bool traceStreamActive() { return Active.load(std::memory_order_relaxed); }

TraceStreamStats traceStreamStats() {
  Writer &W = writer();
  TraceStreamStats S;
  S.EventsEmitted = W.EventsEmitted.load(std::memory_order_relaxed);
  S.EventsDropped = W.EventsDropped.load(std::memory_order_relaxed);
  S.BytesWritten = W.BytesWritten.load(std::memory_order_relaxed);
  return S;
}

void observeEvent(TraceEventKind Kind, int StageId, uint8_t TypeCode,
                  int Lanes, const int32_t *Coords, int NumCoords,
                  const uint64_t *Bits) {
  if (Kind == TraceEventKind::ProfEnter) {
    profilerEnter(StageId);
    return;
  }
  if (Kind == TraceEventKind::ProfExit) {
    profilerExit(StageId);
    return;
  }
  if (!traceStreamActive())
    return;
  Writer &W = writer();
  int64_t RecordBytes = 8 + 4 * (int64_t)NumCoords + 8 * (int64_t)Lanes;
  if (W.BytesReserved.fetch_add(RecordBytes, std::memory_order_relaxed) +
          RecordBytes >
      W.MaxBytes) {
    W.BytesReserved.fetch_sub(RecordBytes, std::memory_order_relaxed);
    W.EventsDropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Shard &S = shard();
  bool NeedFlush = false;
  {
    std::lock_guard<std::mutex> SLock(S.Mu);
    appendRecord(S.Buf, StageId, Kind, TypeCode, Lanes, Coords, NumCoords,
                 Bits);
    NeedFlush = S.Buf.size() >= FlushThresholdBytes;
  }
  W.EventsEmitted.fetch_add(1, std::memory_order_relaxed);
  if (NeedFlush) {
    std::lock_guard<std::mutex> Lock(W.Mu);
    S.flushLocked(W);
  }
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
