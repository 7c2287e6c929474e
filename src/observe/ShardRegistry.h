//===-- observe/ShardRegistry.h - Per-thread sink shards --------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-thread state of every observability sink (the profiler, the
/// Chrome trace recorder, the value-trace writer). A sink is a struct
/// holding its process-wide state, a nested Shard type holding one
/// thread's part, and `void retire(Shard &)`, which folds an exiting
/// thread's shard into the sink's state under the lock. The registry
/// never dies: TaskScheduler workers are joined during static
/// destruction, and their shards must still find it.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_OBSERVE_SHARDREGISTRY_H
#define HALIDE_OBSERVE_SHARDREGISTRY_H

#include <algorithm>
#include <mutex>
#include <vector>

namespace halide {

template <typename Sink> class ShardRegistry {
public:
  using Shard = typename Sink::Shard;

  /// The calling thread's shard; the first call on a thread registers it.
  static Shard &local() {
    static thread_local Owner O;
    return O.S;
  }

  /// Runs \p F(Sink &, std::vector<Shard *> &Live) under the registry lock
  /// and returns its result. \p F must not re-enter the registry.
  template <typename Fn> static decltype(auto) locked(Fn &&F) {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mu);
    return F(R.State, R.Live);
  }

private:
  struct Registry {
    std::mutex Mu;
    Sink State;
    std::vector<Shard *> Live;
  };

  static Registry &registry() {
    static Registry *R = new Registry; // never destroyed, by design
    return *R;
  }

  /// Registers its shard on construction; retires and unregisters it at
  /// thread exit.
  struct Owner {
    Shard S;
    Owner() {
      locked([&](Sink &, std::vector<Shard *> &Live) { Live.push_back(&S); });
    }
    ~Owner() {
      locked([&](Sink &State, std::vector<Shard *> &Live) {
        State.retire(S);
        Live.erase(std::find(Live.begin(), Live.end(), &S));
      });
    }
    Owner(const Owner &) = delete;
    Owner &operator=(const Owner &) = delete;
  };
};

} // namespace halide

#endif // HALIDE_OBSERVE_SHARDREGISTRY_H
