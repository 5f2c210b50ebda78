#include "runtime/partition.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace kpm::runtime {

RowPartition RowPartition::uniform(global_index n, int ranks) {
  require(ranks >= 1 && n >= 0, "uniform partition: invalid arguments");
  RowPartition p;
  p.offsets_.resize(static_cast<std::size_t>(ranks) + 1);
  for (int r = 0; r <= ranks; ++r) {
    p.offsets_[static_cast<std::size_t>(r)] =
        n * static_cast<global_index>(r) / ranks;
  }
  return p;
}

RowPartition RowPartition::weighted(global_index n,
                                    std::span<const double> weights,
                                    global_index min_rows) {
  require(!weights.empty(), "weighted partition: no weights");
  require(min_rows >= 0, "weighted partition: min_rows must be >= 0");
  double total = 0.0;
  for (const double w : weights) {
    require(w > 0.0, "weighted partition: weights must be positive");
    total += w;
  }
  const auto ranks = static_cast<global_index>(weights.size());
  // Degrade the floor gracefully when the problem is smaller than
  // min_rows * ranks rows (then not every rank can get min_rows).
  global_index floor_rows = min_rows;
  if (floor_rows * ranks > n) floor_rows = n / ranks;
  RowPartition p;
  p.offsets_.resize(weights.size() + 1, 0);
  double acc = 0.0;
  for (std::size_t r = 0; r < weights.size(); ++r) {
    acc += weights[r];
    p.offsets_[r + 1] = static_cast<global_index>(
        std::llround(static_cast<double>(n) * acc / total));
  }
  p.offsets_.back() = n;  // guard against rounding drift
  // Enforce monotonicity and the per-rank floor in one pass: each boundary
  // is clamped so the ranks before it hold at least floor_rows rows each and
  // the ranks after it can still claim theirs.  (The old max-only clamp let
  // llround drift silently starve a middle rank to zero rows under skewed
  // weights, which collective probes then deadlocked on.)
  for (std::size_t r = 1; r < weights.size(); ++r) {
    const global_index lo = p.offsets_[r - 1] + floor_rows;
    const global_index hi =
        n - (ranks - static_cast<global_index>(r)) * floor_rows;
    p.offsets_[r] = std::clamp(p.offsets_[r], lo, hi);
  }
  return p;
}

RowPartition RowPartition::from_offsets(std::vector<global_index> offsets) {
  require(offsets.size() >= 2 && offsets.front() == 0,
          "from_offsets: offsets must start at 0 and name >= 1 rank");
  for (std::size_t r = 1; r < offsets.size(); ++r) {
    require(offsets[r] >= offsets[r - 1],
            "from_offsets: offsets must be non-decreasing");
  }
  RowPartition p;
  p.offsets_ = std::move(offsets);
  return p;
}

global_index RowPartition::begin(int rank) const {
  require(rank >= 0 && rank < ranks(), "partition: rank out of range");
  return offsets_[static_cast<std::size_t>(rank)];
}

global_index RowPartition::end(int rank) const {
  require(rank >= 0 && rank < ranks(), "partition: rank out of range");
  return offsets_[static_cast<std::size_t>(rank) + 1];
}

int RowPartition::owner(global_index row) const {
  require(row >= 0 && row < total_rows(), "partition: row out of range");
  const auto it =
      std::upper_bound(offsets_.begin(), offsets_.end(), row);
  return static_cast<int>(it - offsets_.begin()) - 1;
}

}  // namespace kpm::runtime
