// Per-thread caches keyed by owner id, bounded by the owners' lifetimes.
//
// Models keep mutable caches (top-k patterns, hypergraph structures) in
// thread-local maps keyed by a per-instance id: Forward stays const,
// concurrent serving workers never share mutable state, and each warm
// worker keeps its own entries across the requests it serves.
//
// Thread-local entries must not outlive their owner: long-lived serving
// threads that touch many short-lived models (model zoo churn,
// per-request model construction in tests) would otherwise grow every
// map without bound. A process-wide live-id set plus a generation
// counter bounds this: Retire drops the id and bumps the generation, and
// each thread sweeps dead ids out of its map the next time it looks an
// entry up after the generation moved. Amortized O(1) per lookup.

#ifndef DYHSL_CORE_THREAD_REGISTRY_H_
#define DYHSL_CORE_THREAD_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace dyhsl::core {

/// \brief One registry per Value type (the per-thread maps are keyed by
/// type), reached through Instance().
template <typename Value>
class ThreadLocalRegistry {
 public:
  /// Leaked: serving threads may sweep during static destruction.
  static ThreadLocalRegistry& Instance() {
    static auto* registry = new ThreadLocalRegistry();
    return *registry;
  }

  /// \brief A fresh live owner id.
  uint64_t Register() {
    const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    live_.insert(id);
    return id;
  }

  /// \brief Retires an owner id: every thread drops its entry at its next
  /// lookup.
  void Retire(uint64_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    live_.erase(id);
    generation_.fetch_add(1, std::memory_order_release);
  }

  /// \brief The calling thread's entry for `id`, constructed from `args`
  /// on first use.
  template <typename... Args>
  Value& ForThread(uint64_t id, Args&&... args) {
    PerThread& local = Sweep();
    return local.entries.try_emplace(id, std::forward<Args>(args)...)
        .first->second;
  }

  /// \brief Live entries in the calling thread's map.
  int64_t SizeForThread() {
    return static_cast<int64_t>(Sweep().entries.size());
  }

 private:
  struct PerThread {
    std::unordered_map<uint64_t, Value> entries;
    uint64_t seen_generation = 0;
  };

  ThreadLocalRegistry() = default;

  /// The calling thread's map with every retired id swept out.
  PerThread& Sweep() {
    thread_local PerThread local;
    const uint64_t gen = generation_.load(std::memory_order_acquire);
    if (gen == local.seen_generation) return local;
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = local.entries.begin(); it != local.entries.end();) {
      it = live_.count(it->first) ? std::next(it) : local.entries.erase(it);
    }
    local.seen_generation = gen;
    return local;
  }

  std::mutex mu_;
  std::unordered_set<uint64_t> live_;
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> next_id_{0};
};

}  // namespace dyhsl::core

#endif  // DYHSL_CORE_THREAD_REGISTRY_H_
