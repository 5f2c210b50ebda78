// Content-addressed result cache of the KPM service (DESIGN.md §5g).
//
// Finished spectra are memoized under their full content key
// ("model:params:M<M>:R<R>:s<seed>:<kind>"), so a repeat request returns in
// O(1) without touching the matrix.  The cache is bounded: entries are kept
// in LRU order and evicted when the accounted byte footprint would exceed
// the budget, so a long-lived daemon cannot grow without limit.  All
// operations are internally locked; values are handed out as
// shared_ptr<const ...> so an entry evicted while a client still reads it
// stays alive until the last reader drops it.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/moments.hpp"

namespace kpm::service {

class ResultCache {
 public:
  /// `byte_budget` bounds the accounted footprint (entry payloads + keys).
  /// A budget of 0 disables caching entirely.
  explicit ResultCache(std::size_t byte_budget) : budget_(byte_budget) {}

  /// Returns the cached result and marks it most-recently-used; nullptr on
  /// miss.  Hits/misses are counted.
  [[nodiscard]] std::shared_ptr<const core::MomentsResult> find(
      const std::string& key);

  /// True if the key is resident; does NOT touch the LRU order (so tests
  /// can inspect eviction state without perturbing it).
  [[nodiscard]] bool contains(const std::string& key) const;

  /// Inserts (or replaces) an entry, evicting least-recently-used entries
  /// until the new footprint fits the budget.  A result larger than the
  /// whole budget is not inserted (and evicts nothing).
  void insert(const std::string& key,
              std::shared_ptr<const core::MomentsResult> result);

  /// Accounted footprint of one entry: moment payloads plus the key.
  [[nodiscard]] static std::size_t result_bytes(
      const core::MomentsResult& result, const std::string& key);

  struct Stats {
    long long hits = 0;
    long long misses = 0;
    long long insertions = 0;
    long long evictions = 0;
    long long oversize_rejects = 0;
    std::size_t bytes = 0;
    std::size_t budget = 0;
    std::size_t entries = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  void evict_until_fits(std::size_t incoming_bytes);

  struct Entry {
    std::shared_ptr<const core::MomentsResult> value;
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru_pos;
  };

  mutable std::mutex mutex_;
  std::size_t budget_ = 0;
  std::size_t bytes_ = 0;
  std::list<std::string> lru_;  ///< front = most recently used
  std::unordered_map<std::string, Entry> entries_;
  Stats counters_{};
};

}  // namespace kpm::service
