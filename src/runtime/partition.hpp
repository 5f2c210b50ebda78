// Weighted 1-D row-block partitioning.
//
// The paper's heterogeneous execution assigns each process (one per CPU
// socket or GPU) a contiguous block of matrix/vector rows proportional to a
// per-process weight (Sec. VI-A: "From this weight we compute the amount of
// matrix/vector rows that get assigned to it").
#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

namespace kpm::runtime {

class RowPartition {
 public:
  RowPartition() = default;

  /// Equal-sized blocks (up to rounding).
  [[nodiscard]] static RowPartition uniform(global_index n, int ranks);
  /// Blocks proportional to `weights` (e.g. device performance numbers).
  ///
  /// Every rank is guaranteed at least `min_rows` rows whenever the problem
  /// is large enough (`n >= min_rows * ranks`; otherwise the floor degrades
  /// to n / ranks).  The default floor of 1 protects skewed weights on many
  /// ranks from rounding a middle rank down to zero rows — collective
  /// probes and halo negotiation assume every rank participates.  Pass
  /// `min_rows = 0` to deliberately allow empty ranks.
  [[nodiscard]] static RowPartition weighted(global_index n,
                                             std::span<const double> weights,
                                             global_index min_rows = 1);
  /// Rebuilds a partition from explicit offsets (size ranks+1, ascending,
  /// offsets.front() == 0) — the replay path of a recorded repartition
  /// schedule (runtime::RepartitionEvent).
  [[nodiscard]] static RowPartition from_offsets(
      std::vector<global_index> offsets);

  [[nodiscard]] int ranks() const noexcept {
    return static_cast<int>(offsets_.size()) - 1;
  }
  [[nodiscard]] global_index total_rows() const noexcept {
    return offsets_.back();
  }
  [[nodiscard]] global_index begin(int rank) const;
  [[nodiscard]] global_index end(int rank) const;
  [[nodiscard]] global_index local_rows(int rank) const {
    return end(rank) - begin(rank);
  }
  /// Rank owning a global row (binary search).
  [[nodiscard]] int owner(global_index row) const;
  /// Block boundaries (size ranks+1, offsets().front() == 0); feed back into
  /// from_offsets() to replay a recorded partition exactly.
  [[nodiscard]] std::span<const global_index> offsets() const noexcept {
    return offsets_;
  }

 private:
  std::vector<global_index> offsets_;  // size ranks+1, offsets_[0] == 0
};

}  // namespace kpm::runtime
