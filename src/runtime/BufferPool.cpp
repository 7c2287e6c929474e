//===-- runtime/BufferPool.cpp --------------------------------------------===//

#include "runtime/BufferPool.h"

#include "observe/TraceRecorder.h"
#include "support/Util.h"

#include <cstdlib>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

using namespace halide;

namespace {

constexpr int64_t DefaultCapacityBytes = 256ll << 20;

/// Size-class granularity: requests round up to a multiple of the block
/// alignment, so a pipeline whose extents wobble by a few elements between
/// frames still lands in one bucket.
constexpr int64_t BlockAlign = 64;

int64_t roundToClass(int64_t Bytes) {
  if (Bytes <= 0)
    Bytes = 1;
  return (Bytes + BlockAlign - 1) / BlockAlign * BlockAlign;
}

class BufferPool {
public:
  static BufferPool &instance() {
    static BufferPool P;
    return P;
  }

  void *allocate(int64_t Bytes) {
    const int64_t Class = roundToClass(Bytes);
    {
      std::lock_guard<std::mutex> Lock(M);
      auto It = Free.find(Class);
      if (It != Free.end() && !It->second.empty()) {
        void *Ptr = It->second.back();
        It->second.pop_back();
        Held -= Class;
        Live[Ptr] = Class;
        ++Stats.PoolHits;
        Stats.BytesHeld = Held;
        Stats.BytesLive += Class;
        return Ptr;
      }
    }
    void *Ptr = nullptr;
    if (posix_memalign(&Ptr, size_t(BlockAlign), size_t(Class)) != 0)
      return nullptr;
    std::lock_guard<std::mutex> Lock(M);
    Live[Ptr] = Class;
    ++Stats.FreshAllocations;
    Stats.BytesLive += Class;
    return Ptr;
  }

  void release(void *Ptr) {
    if (!Ptr)
      return;
    int64_t Class = 0;
    {
      std::lock_guard<std::mutex> Lock(M);
      auto It = Live.find(Ptr);
      internal_assert(It != Live.end())
          << "bufferPoolFree of a pointer the pool did not allocate";
      Class = It->second;
      Live.erase(It);
      Stats.BytesLive -= Class;
      if (Held + Class <= Capacity) {
        Free[Class].push_back(Ptr);
        Held += Class;
        Stats.BytesHeld = Held;
        return;
      }
      ++Stats.CapacityEvictions;
    }
    free(Ptr);
  }

  BufferPoolStats stats() {
    std::lock_guard<std::mutex> Lock(M);
    return Stats;
  }

private:
  BufferPool() : Capacity(defaultCapacity()) {}

  /// Returns the held blocks to the system, so leak-checked suites stay
  /// clean.
  ~BufferPool() {
    for (auto &[Class, List] : Free)
      for (void *Ptr : List)
        free(Ptr);
  }

  static int64_t defaultCapacity() {
    if (const char *Env = std::getenv("HALIDE_BUFFER_POOL_MB")) {
      int64_t Mb = std::atoll(Env);
      if (Mb >= 0)
        return Mb << 20;
    }
    return DefaultCapacityBytes;
  }

  std::mutex M;
  std::map<int64_t, std::vector<void *>> Free; ///< size class -> blocks
  std::unordered_map<void *, int64_t> Live;    ///< handed out -> size class
  int64_t Held = 0;
  int64_t Capacity = 0;
  BufferPoolStats Stats;
};

} // namespace

BufferPoolStats halide::bufferPoolStats() {
  return BufferPool::instance().stats();
}

void *halide::bufferPoolMalloc(int64_t Bytes) {
  void *Ptr = BufferPool::instance().allocate(Bytes);
  // Sample the live-bytes counter into the trace so pool traffic is
  // visible as a chart; one relaxed atomic load when tracing is off.
  if (traceActive())
    traceCounter("pool_bytes_live", bufferPoolStats().BytesLive);
  return Ptr;
}

void halide::bufferPoolFree(void *Ptr) {
  BufferPool::instance().release(Ptr);
  if (traceActive())
    traceCounter("pool_bytes_live", bufferPoolStats().BytesLive);
}
