// Automatic determination of heterogeneous process weights — the paper's
// first outlook item ("determine the process weights for heterogeneous
// execution automatically and take this burden away from the user").
//
// Strategy: every rank times sweeps of the fused block kernel on an
// equal-size row block (the equal-weight starting partition), and the
// weights follow the measured device speed
//   w_r  <-  sample_rows_r / best_time_r   (rows per second)
// where best_time_r is rank r's best sweep over the iterations so far.  The
// rows are equal, so a per-sweep cost that does not scale with rows (the
// fork/join of each rank's OpenMP team) cancels in the rate ratio instead of
// compounding from one partition into the next.  Each iteration measures the
// imbalance of the partition the weights build and stops once it is within
// the tolerance.
//
// The probe additionally selects the kernel body: it times the generic and
// the fixed-width variant of the width-dispatch layer (sparse::KernelVariant)
// on the initial partition, installs the faster one process-wide for the
// remaining probes and the production sweeps, and records the choice.
//
// Tile autotuner.  AutoTuner probes the cache-blocking knobs of the fused
// block kernel — {column-tile width} x {row-band height} x {NT stores
// on/off} (sparse::TileConfig) — installs the fastest configuration, and
// persists it in a small JSON cache file keyed by (matrix shape, format,
// threads, width, ranks, halo depth).  The format component of the key
// carries the full storage identity — "bsr4-f32-i16" distinguishes block
// dimension, value precision and index width; distributed probes under a
// depth-s halo plan carry a ":d<s>" component (cache schema v3; older
// files are rejected wholesale, forcing a clean re-probe).
// A later run with a warm cache applies the stored configuration without a
// single kernel timing run.  The cache file defaults to
// ".kpm_tune_cache.json" in the working directory; override with the
// KPM_TUNE_CACHE environment variable or the constructor argument, clear by
// deleting the file.  A corrupted or version-mismatched file is ignored (the
// tuner probes and rewrites it).
//
// Format probe.  tune_format() extends the probe space across storage
// formats (DESIGN §5f): it converts the CRS operator into each candidate
// block format, tile-tunes every one (individually cached), and reports the
// fastest — the storage-format analogue of the kernel-variant probe.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "runtime/comm.hpp"
#include "runtime/dist_matrix.hpp"
#include "runtime/partition.hpp"
#include "sparse/crs.hpp"
#include "sparse/kpm_kernels.hpp"
#include "sparse/sell.hpp"

namespace kpm::runtime {

/// Storage-identity tag used as the format component of cache keys and in
/// bench records: "crs", "sell", and e.g. "bsr4-f32-i16" for a 4x4 BSR with
/// float32 values and the 16-bit delta index stream.
[[nodiscard]] std::string format_tag(const sparse::CrsMatrix& m);
[[nodiscard]] std::string format_tag(const sparse::SellMatrix& m);
[[nodiscard]] std::string format_tag(const sparse::BsrMatrix& m);
[[nodiscard]] std::string format_tag(const sparse::SellBlockMatrix& m);
/// Matrix-free stencils carry the model kind: "stencil-ti", "stencil-anderson".
[[nodiscard]] std::string format_tag(const sparse::StencilOperator& m);

/// Candidate grid and probe budget of the tile autotuner.  The probe is
/// greedy two-stage: (1) tile width x NT stores with no banding, (2) the
/// stage-1 winner across the band heights — O(tiles * 2 + bands) timings
/// instead of the full cross product.
struct TileTuneParams {
  /// Column-tile sub-width candidates; -1 means "single untiled pass".
  std::vector<int> tile_widths{-1, 8, 16};
  /// Row-band height candidates; 0 means "whole per-thread range".
  std::vector<global_index> band_rows{0, 4096, 16384};
  /// Probe NT streaming stores (skipped when not compiled in).
  bool probe_nt_stores = true;
  int sweeps_per_probe = 2;
  /// Consult / update the persistent cache.
  bool use_cache = true;
  /// Install the winner process-wide via sparse::set_tile_config (otherwise
  /// the pre-probe configuration is restored).
  bool install = true;
};

struct TileTuneResult {
  sparse::TileConfig config{};  ///< winning configuration
  double seconds = 0.0;         ///< its measured (or cached) seconds/sweep
  int timed_probes = 0;         ///< kernel timing runs performed
  bool from_cache = false;      ///< true => timed_probes == 0, no probe ran
  std::string key;              ///< cache key used
};

/// Persistent tile autotuner (see file header).  Construction loads the
/// cache file; every probe result is persisted immediately.
///
/// Thread safety: one AutoTuner may be shared by concurrent in-process users
/// (the KPM service registers models from several workers).  The entry table
/// is guarded by a shared mutex — lookups take the shared side, store()
/// (which also rewrites the cache file) the exclusive side — and timed
/// probes serialize on a separate probe mutex with a double-checked lookup,
/// so two threads missing the same key run one probe, not two, and never
/// interleave their set_tile_config() timing runs.
class AutoTuner {
 public:
  /// `cache_path` empty: $KPM_TUNE_CACHE, or ".kpm_tune_cache.json".
  explicit AutoTuner(std::string cache_path = {});

  /// Probes (or recalls) the best tile configuration for the fused block
  /// kernel on `m` at block width `width` and installs it (p.install).
  TileTuneResult tune_tiles(const sparse::CrsMatrix& m, int width,
                            const TileTuneParams& p = {});
  TileTuneResult tune_tiles(const sparse::SellMatrix& m, int width,
                            const TileTuneParams& p = {});
  /// Block-format overloads; the cache key carries the full storage identity
  /// (block dimension, value precision, index width) via format_tag().
  TileTuneResult tune_tiles(const sparse::BsrMatrix& m, int width,
                            const TileTuneParams& p = {});
  TileTuneResult tune_tiles(const sparse::SellBlockMatrix& m, int width,
                            const TileTuneParams& p = {});
  /// Matrix-free stencil overload; the cache key is keyed by the stencil
  /// kind (format_tag), so "same lattice, different extents" re-probes.
  TileTuneResult tune_tiles(const sparse::StencilOperator& m, int width,
                            const TileTuneParams& p = {});

  /// Cache primitives (shared with the collective weight tuner below).
  /// `halo_depth` != 1 appends a ":d<depth>" component so depth-s and
  /// depth-1 distributed probes never share an entry (schema v3; v2 files
  /// predate the component and are rejected wholesale).
  [[nodiscard]] static std::string cache_key(const char* format,
                                             global_index nrows,
                                             global_index nnz, int threads,
                                             int width, int ranks = 1,
                                             int halo_depth = 1);
  [[nodiscard]] bool lookup(const std::string& key, sparse::TileConfig* config,
                            double* seconds) const;
  /// Inserts/overwrites one entry and rewrites the cache file.
  void store(const std::string& key, const sparse::TileConfig& config,
             double seconds);

  [[nodiscard]] const std::string& cache_path() const noexcept {
    return path_;
  }
  /// True when the cache file existed and parsed cleanly at construction.
  [[nodiscard]] bool cache_loaded() const noexcept { return loaded_ok_; }
  [[nodiscard]] std::size_t cache_entries() const;
  [[nodiscard]] static std::string default_cache_path();

  /// Serializes timed probes across threads sharing this tuner.  Probe code
  /// holds this while it re-checks the cache and times candidates — the
  /// tile/variant overrides it toggles are process-wide state.
  [[nodiscard]] std::unique_lock<std::mutex> acquire_probe_lock() {
    return std::unique_lock<std::mutex>(probe_mutex_);
  }

  struct FormatProbe {
    std::string format;           ///< format_tag() of the candidate
    double seconds = 0.0;         ///< best tile-tuned seconds/sweep
    sparse::TileConfig config{};  ///< its winning tile configuration
    bool from_cache = false;
  };

  /// Candidate space of the format probe.  Block formats are only probed
  /// when the shape is divisible by the block dimension and the detected
  /// block fill clears `min_block_fill` (streaming mostly explicit zeros
  /// cannot win, so skip the conversion and the timing).
  struct FormatTuneParams {
    TileTuneParams tile;              ///< tile grid probed per format
    std::vector<int> block_dims{4, 2};
    bool probe_sell = true;           ///< scalar SELL-C-sigma candidate
    int sell_chunk = 8;
    int sell_sigma = 32;
    int sell_block_chunk = 8;         ///< SELL-block chunk/window (block rows)
    int sell_block_sigma = 32;
    /// Also probe the f32-value mixed-precision variants of each block
    /// format (opt-in: it changes the numerics, see DESIGN §5f).
    bool probe_mixed_precision = false;
    double min_block_fill = 0.25;
  };

  struct FormatTuneResult {
    std::string format;               ///< winning format tag
    TileTuneResult tiles;             ///< winning tile configuration
    std::vector<FormatProbe> probed;  ///< every candidate, probe order
  };

  /// Probes the candidate storage formats of `m` (each tile-tuned through
  /// the cache) and re-installs the overall winner's tile configuration.
  /// The winner is advisory: the caller converts the operator to the
  /// reported format for production sweeps.
  FormatTuneResult tune_format(const sparse::CrsMatrix& m, int width,
                               const FormatTuneParams& p);
  FormatTuneResult tune_format(const sparse::CrsMatrix& m, int width);

 private:
  struct Entry {
    sparse::TileConfig config;
    double seconds = 0.0;
  };
  void load();
  void save() const;  ///< caller holds cache_mutex_

  std::string path_;
  mutable std::shared_mutex cache_mutex_;  ///< guards entries_ + cache file
  std::mutex probe_mutex_;                 ///< serializes timed probes
  std::map<std::string, Entry> entries_;
  bool loaded_ok_ = false;
};

/// Every probe times single sweeps the way runtime::LoadBalancer does
/// (DESIGN §5e): a barrier first, then thread CPU time, keeping the best
/// sweep — so a descheduled rank or one waiting on a peer is not mistaken
/// for a slow device.
struct AutoTuneParams {
  int block_width = 8;        ///< R used for the probe sweeps
  /// Timed sweeps per probe: per iteration, on the equal-size rate sample
  /// and on the partition built from it.
  int sweeps_per_probe = 2;
  int max_iterations = 8;     ///< rate samples at most
  /// Stop once the imbalance (max-min)/max of the built partition is below
  /// this.  A per-sweep cost that rows cannot balance may keep it above.
  double imbalance_tolerance = 0.05;
  /// Probe generic vs fixed-width kernel bodies and install the faster one
  /// (skipped when block_width has no fixed-width instantiation).
  bool tune_kernel_variant = true;
  /// Additionally probe tile configurations (collective, in lockstep like
  /// the variant probe) and install/persist the winner.
  bool tune_tiles = false;
  /// Cache file for the tile probe; empty = AutoTuner default.
  std::string tile_cache_path;
  /// Candidate grid for the tile probe.
  TileTuneParams tile;
  /// Artificial per-rank slowdown factors (testing / simulating slower
  /// devices); empty = none.
  std::vector<double> slowdown;
};

struct AutoTuneResult {
  std::vector<double> weights;       ///< normalized to sum 1
  RowPartition partition;            ///< partition built from the weights
  /// (max-min)/max of the per-rank sweep times measured on `partition`
  /// itself.  It can stay above the tolerance when a sweep has a fixed cost
  /// (thread fork/join) that moving rows cannot balance.
  double imbalance = 0.0;
  int iterations = 0;                ///< rate samples taken
  /// Kernel body selected by the variant probe (the process-wide variant is
  /// left set to this value so production sweeps use it).
  sparse::KernelVariant variant = sparse::KernelVariant::auto_dispatch;
  std::string kernel;                ///< e.g. "aug_spmmv[fixed,R=8]"
  double generic_seconds = 0.0;      ///< slowest-rank probe time, generic body
  double fixed_seconds = 0.0;        ///< slowest-rank probe time, fixed body
  /// Tile probe outcome (AutoTuneParams::tune_tiles; left default otherwise).
  /// Its `seconds`, like the two above, are slowest-rank thread-CPU seconds
  /// per sweep, the clock of every auto_tune_weights probe.
  TileTuneResult tiles;
};

/// Collective: measures the per-rank kernel speed on `global` and returns
/// weights proportional to it.  The speed of rank r is rows per second on
/// an equal-size row block, from its best thread-CPU sweep time behind a
/// barrier over all iterations run; `imbalance` is measured on the final
/// partition.  Deterministic across ranks (times are allreduced, so every
/// rank selects the same weights and the same kernel variant).
[[nodiscard]] AutoTuneResult auto_tune_weights(Communicator& comm,
                                               const sparse::CrsMatrix& global,
                                               const AutoTuneParams& p = {});

/// Collective tile probe for an already-built distributed operator: times
/// the fused block kernel on every rank's local() partition, judges each
/// candidate by the allreduced worst-rank time, and installs the winner
/// process-wide — so all ranks run the production sweeps with the same
/// configuration.  The cache entry is keyed by the *global* problem
/// ("crs-dist", total rows, total nnz, threads, width, ranks); every rank
/// performs the same lookup against the shared cache file, and on a miss
/// rank 0 alone persists the probed winner.  Collective: all ranks together.
TileTuneResult tune_distributed_tiles(Communicator& comm,
                                      const DistributedMatrix& dist, int width,
                                      const TileTuneParams& p = {},
                                      const std::string& cache_path = {});

/// Candidate space of the communication-avoiding depth probe (DESIGN §5j).
struct HaloDepthTuneParams {
  /// Ghost-zone depths probed, ascending; ties go to the smaller depth.
  std::vector<int> candidates{1, 2, 4, 8};
  /// Timed rounds per candidate (each round = one fused exchange + depth
  /// locally computed sweeps); the best round is kept.
  int rounds_per_probe = 3;
  HaloTransport transport = HaloTransport::persistent;
};

struct HaloDepthProbe {
  int depth = 1;
  double seconds_per_sweep = 0.0;  ///< allreduced worst-rank wall time
};

struct HaloDepthTuneResult {
  int depth = 1;                       ///< winning ghost-zone depth
  double seconds_per_sweep = 0.0;      ///< its measured per-sweep time
  std::vector<HaloDepthProbe> probed;  ///< every candidate, probe order
};

/// Collective: probes the communication-avoiding sweep over the candidate
/// ghost-zone depths — each candidate builds a depth-s plan of `global` over
/// `part` and times whole rounds (ONE fused v+w exchange, then s owned +
/// shrinking-frontier sweeps), wall clock, judged by the allreduced
/// worst-rank per-sweep time.  Wall clock, not CPU time: the latency the
/// deeper plans amortize is exactly the blocked wait the CPU clock hides.
/// Every rank returns the same winner.
[[nodiscard]] HaloDepthTuneResult tune_halo_depth(
    Communicator& comm, const sparse::CrsMatrix& global,
    const RowPartition& part, int width, const HaloDepthTuneParams& p = {});

}  // namespace kpm::runtime
