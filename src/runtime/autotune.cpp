#include "runtime/autotune.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "blas/block_vector.hpp"
#include "runtime/dist_matrix.hpp"
#include "sparse/kpm_kernels.hpp"
#include "sparse/matrix_stats.hpp"
#include "util/check.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

namespace kpm::runtime {
namespace {

/// One timed probe: sweeps of the fused block kernel on this rank's share of
/// `dist`, returning this rank's best seconds per sweep.  Timed like the
/// load balancer (DESIGN §5e): a barrier first, so a peer's tail is absorbed
/// outside the timed region, then thread CPU time, which excludes time spent
/// descheduled on a loaded host.  Every probe of auto_tune_weights — device
/// weights, kernel variant and collective tiles — goes through here.
double probe_seconds(Communicator& comm, const DistributedMatrix& dist,
                     const AutoTuneParams& p) {
  blas::BlockVector v(dist.extended_rows(), p.block_width);
  blas::BlockVector w(dist.extended_rows(), p.block_width);
  for (global_index i = 0; i < dist.local_rows(); ++i) {
    for (int r = 0; r < p.block_width; ++r) {
      v(i, r) = {1.0 / (1.0 + static_cast<double>(i + r)), 0.5};
    }
  }
  std::vector<complex_t> dvv(static_cast<std::size_t>(p.block_width));
  std::vector<complex_t> dwv(static_cast<std::size_t>(p.block_width));
  const auto rec = sparse::AugScalars::recurrence(0.25, 0.0);
  // Warm-up (also fills the halo once so the timed sweeps are pure kernel).
  dist.exchange_halo(comm, v);
  sparse::aug_spmmv(dist.local(), rec, v, w, dvv, dwv);

  comm.barrier();
  double best = 1e300;
  for (int sweep = 0; sweep < p.sweeps_per_probe; ++sweep) {
    const double t0 = Timer::thread_cpu_now();
    sparse::aug_spmmv(dist.local(), rec, v, w, dvv, dwv);
    best = std::min(best, Timer::thread_cpu_now() - t0);
  }
  // Optional simulated slower device (testing heterogeneity without one).
  const double slowdown =
      static_cast<std::size_t>(comm.rank()) < p.slowdown.size()
          ? p.slowdown[static_cast<std::size_t>(comm.rank())]
          : 1.0;
  return slowdown * best;
}

/// Every rank's probe time, gathered by one allreduce of a one-hot vector
/// (identical on all ranks, so every rank draws the same conclusion).
std::vector<double> rank_seconds(Communicator& comm,
                                 const DistributedMatrix& dist,
                                 const AutoTuneParams& p) {
  std::vector<double> times(static_cast<std::size_t>(comm.size()), 0.0);
  times[static_cast<std::size_t>(comm.rank())] = probe_seconds(comm, dist, p);
  comm.allreduce_sum(times);
  return times;
}

/// Slowest-rank time of one collective probe.
double worst_rank_seconds(Communicator& comm, const DistributedMatrix& dist,
                          const AutoTuneParams& p) {
  const std::vector<double> times = rank_seconds(comm, dist, p);
  return *std::max_element(times.begin(), times.end());
}

/// Collective cache verdict: true only if every rank found the entry in its
/// own cache.  Ranks may read different cache files, and a rank that skipped
/// the probe while a peer entered its allreduces would hang both.
bool every_rank_hit(Communicator& comm, bool hit) {
  std::vector<double> hits{hit ? 1.0 : 0.0};
  comm.allreduce_sum(hits);
  return hits[0] == static_cast<double>(comm.size());
}

/// Deduplicated candidate list of the greedy stage-1 probe: (tile, nt)
/// pairs.  Tiles >= width degenerate to the untiled pass and are dropped.
std::vector<sparse::TileConfig> stage1_candidates(const TileTuneParams& p,
                                                  int width) {
  std::vector<sparse::TileConfig> out;
  auto add = [&](int tile, bool nt) {
    sparse::TileConfig c{tile, 0, nt};
    if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
  };
  const bool nt_avail = sparse::nt_stores_supported();
  for (int tile : p.tile_widths) {
    if (tile == 0) tile = -1;  // "auto" is not a probe candidate; pin it down
    if (tile > 0 && tile >= width) tile = -1;
    add(tile, false);
    if (p.probe_nt_stores && nt_avail) add(tile, true);
  }
  if (out.empty()) out.push_back({-1, 0, false});
  return out;
}

/// Appends the stage-2 banding candidates derived from a stage-1 winner.
void add_band_candidates(std::vector<sparse::TileConfig>& list,
                         const sparse::TileConfig& winner,
                         const TileTuneParams& p, global_index nrows) {
  for (const global_index band : p.band_rows) {
    if (band <= 0 || band >= nrows) continue;
    sparse::TileConfig c = winner;
    c.band_rows = band;
    if (std::find(list.begin(), list.end(), c) == list.end())
      list.push_back(c);
  }
}

/// Restores the pre-probe tile configuration unless dismissed.
class TileConfigGuard {
 public:
  TileConfigGuard() : saved_(sparse::tile_config()) {}
  ~TileConfigGuard() {
    if (!dismissed_) sparse::set_tile_config(saved_);
  }
  void dismiss() noexcept { dismissed_ = true; }
  TileConfigGuard(const TileConfigGuard&) = delete;
  TileConfigGuard& operator=(const TileConfigGuard&) = delete;

 private:
  sparse::TileConfig saved_;
  bool dismissed_ = false;
};

// ---------------------------------------------------------------------------
// Cache-file serialization.  The format is a flat JSON document we both
// write and parse; anything that does not scan cleanly invalidates the whole
// file and the tuner falls back to probing (and rewrites it).  Version 2:
// keys carry the full storage identity (block format, value precision,
// index width); v1 entries would collide across those, so v1 files are
// rejected wholesale and re-probed.
constexpr int kCacheVersion = 3;

bool parse_double_field(const std::string& obj, const char* name,
                        double* out) {
  const std::string tag = std::string("\"") + name + "\":";
  const std::size_t pos = obj.find(tag);
  if (pos == std::string::npos) return false;
  const char* start = obj.c_str() + pos + tag.size();
  char* end = nullptr;
  *out = std::strtod(start, &end);
  return end != start;
}

bool parse_string_field(const std::string& obj, const char* name,
                        std::string* out) {
  const std::string tag = std::string("\"") + name + "\": \"";
  const std::size_t pos = obj.find(tag);
  if (pos == std::string::npos) return false;
  const std::size_t end = obj.find('"', pos + tag.size());
  if (end == std::string::npos) return false;
  *out = obj.substr(pos + tag.size(), end - (pos + tag.size()));
  return true;
}

/// Suffixes the block-format identity shared by BSR and SELL-block tags.
void append_block_identity(std::string& tag, sparse::MatrixPrecision prec,
                           int index_bits) {
  if (prec == sparse::MatrixPrecision::f32) tag += "-f32";
  if (index_bits == 16) tag += "-i16";
}

}  // namespace

std::string format_tag(const sparse::CrsMatrix&) { return "crs"; }

std::string format_tag(const sparse::SellMatrix&) { return "sell"; }

std::string format_tag(const sparse::BsrMatrix& m) {
  std::string tag = "bsr" + std::to_string(m.block_dim());
  append_block_identity(tag, m.precision(), m.index_bits());
  return tag;
}

std::string format_tag(const sparse::SellBlockMatrix& m) {
  std::string tag = "sellb" + std::to_string(m.block_dim());
  append_block_identity(tag, m.precision(), m.index_bits());
  return tag;
}

std::string format_tag(const sparse::StencilOperator& m) {
  return "stencil-" + m.kind();
}

std::string AutoTuner::default_cache_path() {
  const char* env = std::getenv("KPM_TUNE_CACHE");
  return env != nullptr && env[0] != '\0' ? env : ".kpm_tune_cache.json";
}

AutoTuner::AutoTuner(std::string cache_path)
    : path_(cache_path.empty() ? default_cache_path()
                               : std::move(cache_path)) {
  load();
}

std::string AutoTuner::cache_key(const char* format, global_index nrows,
                                 global_index nnz, int threads, int width,
                                 int ranks, int halo_depth) {
  std::string key = format;
  key += ':';
  key += std::to_string(static_cast<long long>(nrows));
  key += ':';
  key += std::to_string(static_cast<long long>(nnz));
  key += ":t";
  key += std::to_string(threads);
  key += ":w";
  key += std::to_string(width);
  if (ranks != 1) {
    key += ":r";
    key += std::to_string(ranks);
  }
  // Depth-s plans sweep extra frontier rows per exchange, so their best tile
  // shape need not match the depth-1 plan's — never share entries (v3).
  if (halo_depth != 1) {
    key += ":d";
    key += std::to_string(halo_depth);
  }
  return key;
}

bool AutoTuner::lookup(const std::string& key, sparse::TileConfig* config,
                       double* seconds) const {
  std::shared_lock lock(cache_mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  if (config != nullptr) *config = it->second.config;
  if (seconds != nullptr) *seconds = it->second.seconds;
  return true;
}

void AutoTuner::store(const std::string& key, const sparse::TileConfig& config,
                      double seconds) {
  std::unique_lock lock(cache_mutex_);
  entries_[key] = Entry{config, seconds};
  save();
}

std::size_t AutoTuner::cache_entries() const {
  std::shared_lock lock(cache_mutex_);
  return entries_.size();
}

void AutoTuner::load() {
  entries_.clear();
  loaded_ok_ = false;
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return;  // no cache yet: not an error
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  const std::string version_tag =
      "\"version\": " + std::to_string(kCacheVersion);
  if (text.find(version_tag) == std::string::npos) return;  // stale/corrupt

  std::map<std::string, Entry> parsed;
  std::size_t pos = 0;
  while ((pos = text.find("{\"key\":", pos)) != std::string::npos) {
    const std::size_t end = text.find('}', pos);
    if (end == std::string::npos) return;  // truncated: reject the file
    const std::string obj = text.substr(pos, end - pos + 1);
    std::string key;
    double tile = 0.0, band = 0.0, nt = 0.0, seconds = 0.0;
    if (!parse_string_field(obj, "key", &key) ||
        !parse_double_field(obj, "tile_width", &tile) ||
        !parse_double_field(obj, "band_rows", &band) ||
        !parse_double_field(obj, "nt_stores", &nt) ||
        !parse_double_field(obj, "seconds", &seconds)) {
      return;  // malformed entry: reject the file
    }
    parsed[key] = Entry{
        sparse::TileConfig{static_cast<int>(tile),
                           static_cast<global_index>(band), nt != 0.0},
        seconds};
    pos = end + 1;
  }
  entries_ = std::move(parsed);
  loaded_ok_ = true;
}

void AutoTuner::save() const {
  // Atomic publish: write a sibling temp file, then rename() over the cache
  // path.  A process killed mid-write leaves at worst a stale .tmp next to an
  // intact (or absent) cache — never a truncated cache that a concurrent or
  // later load() would have to reject.
  const std::string tmp = path_ + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return;  // read-only location: tuning still works, just
                             // not persisted
  std::fprintf(f, "{\n  \"version\": %d,\n  \"entries\": [\n", kCacheVersion);
  std::size_t i = 0;
  for (const auto& [key, e] : entries_) {
    std::fprintf(f,
                 "    {\"key\": \"%s\", \"tile_width\": %d, "
                 "\"band_rows\": %lld, \"nt_stores\": %d, "
                 "\"seconds\": %.17g}%s\n",
                 key.c_str(), e.config.tile_width,
                 static_cast<long long>(e.config.band_rows),
                 e.config.nt_stores ? 1 : 0, e.seconds,
                 ++i < entries_.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  const bool wrote = std::ferror(f) == 0;
  std::fclose(f);
  if (!wrote || std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
  }
}

namespace {

/// Shared probe body of the single-process tune_tiles overloads.
template <class Matrix>
TileTuneResult tune_tiles_impl(AutoTuner& tuner, const Matrix& m,
                               const char* format, int width,
                               const TileTuneParams& p) {
  require(width >= 1 && p.sweeps_per_probe >= 1,
          "tune_tiles: invalid parameters");
  default_omp_affinity();
  TileTuneResult out;
  out.key = AutoTuner::cache_key(format, m.nrows(), m.nnz(), max_threads(),
                                 width);
  if (p.use_cache && tuner.lookup(out.key, &out.config, &out.seconds)) {
    out.from_cache = true;
    if (p.install) sparse::set_tile_config(out.config);
    return out;
  }

  // Double-checked probe: serialize on the tuner's probe lock, then look the
  // key up again — a concurrent thread that missed the same key may have
  // probed and stored it while we waited, in which case no timing runs at
  // all.  The lock also keeps two probes from interleaving their
  // process-wide set_tile_config() timing runs.
  auto probe_lock = tuner.acquire_probe_lock();
  if (p.use_cache && tuner.lookup(out.key, &out.config, &out.seconds)) {
    out.from_cache = true;
    if (p.install) sparse::set_tile_config(out.config);
    return out;
  }

  // Probe state: block vectors sized to the matrix, first-touch placed the
  // same way the kernels stream them.
  blas::BlockVector v(m.ncols(), width, blas::Layout::row_major,
                      blas::FirstTouch::parallel);
  blas::BlockVector w(m.nrows(), width, blas::Layout::row_major,
                      blas::FirstTouch::parallel);
  for (global_index i = 0; i < m.nrows(); ++i) {
    for (int r = 0; r < width; ++r) {
      v(i, r) = {1.0 / (1.0 + static_cast<double>(i + r)), 0.5};
    }
  }
  std::vector<complex_t> dvv(static_cast<std::size_t>(width));
  std::vector<complex_t> dwv(static_cast<std::size_t>(width));
  const auto rec = sparse::AugScalars::recurrence(0.25, 0.0);

  TileConfigGuard guard;
  auto time_config = [&](const sparse::TileConfig& c) {
    sparse::set_tile_config(c);
    sparse::aug_spmmv(m, rec, v, w, dvv, dwv);  // warm-up
    double best = 1e300;
    Timer t;
    for (int sweep = 0; sweep < p.sweeps_per_probe; ++sweep) {
      t.reset();
      t.start();
      sparse::aug_spmmv(m, rec, v, w, dvv, dwv);
      t.stop();
      best = std::min(best, t.seconds());
    }
    ++out.timed_probes;
    return best;
  };

  std::vector<sparse::TileConfig> candidates = stage1_candidates(p, width);
  sparse::TileConfig winner = candidates.front();
  double winner_seconds = 1e300;
  std::size_t stage1_size = candidates.size();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double s = time_config(candidates[i]);
    if (s < winner_seconds) {
      winner_seconds = s;
      winner = candidates[i];
    }
    // Stage 2: banding candidates derived from the stage-1 winner.
    if (i + 1 == stage1_size) {
      add_band_candidates(candidates, winner, p, m.nrows());
    }
  }

  out.config = winner;
  out.seconds = winner_seconds;
  if (p.use_cache) tuner.store(out.key, winner, winner_seconds);
  if (p.install) {
    sparse::set_tile_config(winner);
    guard.dismiss();
  }
  return out;
}

}  // namespace

TileTuneResult AutoTuner::tune_tiles(const sparse::CrsMatrix& m, int width,
                                     const TileTuneParams& p) {
  return tune_tiles_impl(*this, m, "crs", width, p);
}

TileTuneResult AutoTuner::tune_tiles(const sparse::SellMatrix& m, int width,
                                     const TileTuneParams& p) {
  return tune_tiles_impl(*this, m, "sell", width, p);
}

TileTuneResult AutoTuner::tune_tiles(const sparse::BsrMatrix& m, int width,
                                     const TileTuneParams& p) {
  return tune_tiles_impl(*this, m, format_tag(m).c_str(), width, p);
}

TileTuneResult AutoTuner::tune_tiles(const sparse::SellBlockMatrix& m,
                                     int width, const TileTuneParams& p) {
  return tune_tiles_impl(*this, m, format_tag(m).c_str(), width, p);
}

TileTuneResult AutoTuner::tune_tiles(const sparse::StencilOperator& m,
                                     int width, const TileTuneParams& p) {
  return tune_tiles_impl(*this, m, format_tag(m).c_str(), width, p);
}

AutoTuner::FormatTuneResult AutoTuner::tune_format(const sparse::CrsMatrix& m,
                                                   int width) {
  return tune_format(m, width, FormatTuneParams{});
}

AutoTuner::FormatTuneResult AutoTuner::tune_format(const sparse::CrsMatrix& m,
                                                   int width,
                                                   const FormatTuneParams& p) {
  FormatTuneResult out;
  const auto consider = [&](const std::string& tag, const TileTuneResult& r) {
    out.probed.push_back({tag, r.seconds, r.config, r.from_cache});
    if (out.format.empty() || r.seconds < out.tiles.seconds) {
      out.format = tag;
      out.tiles = r;
    }
  };

  consider("crs", tune_tiles(m, width, p.tile));
  const bool square = m.nrows() == m.ncols();
  if (p.probe_sell && square) {
    const sparse::SellMatrix sell(m, p.sell_chunk, p.sell_sigma);
    consider("sell", tune_tiles(sell, width, p.tile));
  }
  for (const int b : p.block_dims) {
    if (b < 2 || m.nrows() % b != 0 || m.ncols() % b != 0) continue;
    if (sparse::block_fill_ratio(m, b) < p.min_block_fill) continue;
    const int precisions = p.probe_mixed_precision ? 2 : 1;
    for (int pi = 0; pi < precisions; ++pi) {
      const auto prec = pi == 0 ? sparse::MatrixPrecision::f64
                                : sparse::MatrixPrecision::f32;
      const sparse::BsrMatrix bsr(m, b, prec);
      consider(format_tag(bsr), tune_tiles(bsr, width, p.tile));
      if (square) {
        const sparse::SellBlockMatrix sb(bsr, p.sell_block_chunk,
                                         p.sell_block_sigma);
        consider(format_tag(sb), tune_tiles(sb, width, p.tile));
      }
    }
  }
  // Each tune_tiles call installed its own winner; leave the overall
  // winner's configuration installed for the production sweeps.
  if (p.tile.install) sparse::set_tile_config(out.tiles.config);
  return out;
}

AutoTuneResult auto_tune_weights(Communicator& comm,
                                 const sparse::CrsMatrix& global,
                                 const AutoTuneParams& p) {
  require(p.block_width >= 1 && p.sweeps_per_probe >= 1 &&
              p.max_iterations >= 1,
          "auto_tune_weights: invalid parameters");
  const int size = comm.size();
  AutoTuneResult out;
  out.weights.assign(static_cast<std::size_t>(size), 1.0 / size);
  out.partition = RowPartition::weighted(global.nrows(), out.weights);
  // The equal-weight starting partition is also the rate sample: every rank
  // times an equal-size row block, so a per-sweep cost that does not scale
  // with rows (the fork/join of each rank's OpenMP team) cancels in the rate
  // ratio instead of feeding back into the next partition.
  const RowPartition sample = out.partition;
  const DistributedMatrix sample_dist(comm, global, sample);

  out.variant = sparse::kernel_variant();
  if (p.tune_kernel_variant && sparse::has_fixed_width(p.block_width)) {
    // Collective variant probe in lockstep: the variant override is process
    // wide and ranks are threads, so every rank sets the same value and the
    // allreduce inside worst_rank_seconds keeps the phases aligned — no rank
    // can still be timing one variant while another installs the next.
    comm.barrier();
    sparse::set_kernel_variant(sparse::KernelVariant::force_generic);
    out.generic_seconds = worst_rank_seconds(comm, sample_dist, p);
    sparse::set_kernel_variant(sparse::KernelVariant::force_fixed);
    out.fixed_seconds = worst_rank_seconds(comm, sample_dist, p);
    out.variant = out.fixed_seconds <= out.generic_seconds
                      ? sparse::KernelVariant::force_fixed
                      : sparse::KernelVariant::force_generic;
    sparse::set_kernel_variant(out.variant);
  }
  out.kernel = std::string("aug_spmmv[") +
               sparse::kernel_variant_name(out.variant) +
               ",R=" + std::to_string(p.block_width) + "]";

  if (p.tune_tiles) {
    // Collective tile probe, same lockstep pattern: every rank walks the
    // identical candidate list and judges it by allreduced worst-rank times,
    // so all ranks install the same winner.
    AutoTuner tuner(p.tile_cache_path);
    out.tiles.key =
        AutoTuner::cache_key("crs", global.nrows(), global.nnz(),
                             max_threads(), p.block_width, size);
    sparse::TileConfig cached;
    double cached_seconds = 0.0;
    if (p.tile.use_cache &&
        every_rank_hit(comm, tuner.lookup(out.tiles.key, &cached,
                                          &cached_seconds))) {
      out.tiles.config = cached;
      out.tiles.seconds = cached_seconds;
      out.tiles.from_cache = true;
      sparse::set_tile_config(cached);
    } else {
      comm.barrier();
      std::vector<sparse::TileConfig> candidates =
          stage1_candidates(p.tile, p.block_width);
      sparse::TileConfig winner = candidates.front();
      double winner_seconds = 1e300;
      const std::size_t stage1_size = candidates.size();
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        sparse::set_tile_config(candidates[i]);
        const double s = worst_rank_seconds(comm, sample_dist, p);
        ++out.tiles.timed_probes;
        if (s < winner_seconds) {
          winner_seconds = s;
          winner = candidates[i];
        }
        if (i + 1 == stage1_size) {
          add_band_candidates(candidates, winner, p.tile,
                              out.partition.local_rows(comm.rank()));
        }
      }
      out.tiles.config = winner;
      out.tiles.seconds = winner_seconds;
      sparse::set_tile_config(winner);
      if (p.tile.use_cache) {
        comm.barrier();  // every rank finished probing before rank 0 writes
        if (comm.rank() == 0) {
          tuner.store(out.tiles.key, winner, winner_seconds);
        }
        comm.barrier();
      }
    }
  }

  // Device speed = rows per second on the sample, from each rank's best time
  // over the iterations so far; weights proportional to speed.  The
  // imbalance is then measured on the partition those weights build.
  std::vector<double> best(static_cast<std::size_t>(size), 1e300);
  for (int iter = 0; iter < p.max_iterations; ++iter) {
    out.iterations = iter + 1;
    const std::vector<double> sampled = rank_seconds(comm, sample_dist, p);
    double total = 0.0;
    for (int r = 0; r < size; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      best[ri] = std::min(best[ri], sampled[ri]);
      out.weights[ri] = static_cast<double>(sample.local_rows(r)) /
                        std::max(best[ri], 1e-9);
      total += out.weights[ri];
    }
    for (auto& w : out.weights) w = std::max(w / total, 1e-3);
    out.partition = RowPartition::weighted(global.nrows(), out.weights);

    const bool unchanged = std::ranges::equal(out.partition.offsets(),
                                              sample.offsets());
    const std::vector<double> times =
        unchanged ? sampled
                  : rank_seconds(comm,
                                 DistributedMatrix(comm, global, out.partition),
                                 p);
    const double worst = *std::max_element(times.begin(), times.end());
    const double fastest = *std::min_element(times.begin(), times.end());
    out.imbalance = worst > 0.0 ? (worst - fastest) / worst : 0.0;
    if (out.imbalance < p.imbalance_tolerance) break;
  }
  // Normalize for reporting.
  double total = 0.0;
  for (const double w : out.weights) total += w;
  for (auto& w : out.weights) w /= total;
  return out;
}

TileTuneResult tune_distributed_tiles(Communicator& comm,
                                      const DistributedMatrix& dist, int width,
                                      const TileTuneParams& p,
                                      const std::string& cache_path) {
  require(width >= 1 && p.sweeps_per_probe >= 1,
          "tune_distributed_tiles: invalid parameters");
  default_omp_affinity();
  TileTuneResult out;

  // Key the cache entry by the *global* problem so every rank computes the
  // same key regardless of its partition share.
  std::vector<double> nnz_total{static_cast<double>(dist.local().nnz())};
  comm.allreduce_sum(nnz_total);
  AutoTuner tuner(cache_path);
  out.key = AutoTuner::cache_key(
      "crs-dist", dist.partition().total_rows(),
      static_cast<global_index>(nnz_total[0]), max_threads(), width,
      comm.size(), dist.halo_depth());
  if (p.use_cache &&
      every_rank_hit(comm, tuner.lookup(out.key, &out.config, &out.seconds))) {
    out.from_cache = true;
    if (p.install) sparse::set_tile_config(out.config);
    comm.barrier();  // nobody proceeds until every rank installed it
    return out;
  }

  // Probe state on this rank's partition (halo values are irrelevant to the
  // timing; any finite contents do).
  const sparse::CrsMatrix& m = dist.local();
  blas::BlockVector v(m.ncols(), width, blas::Layout::row_major,
                      blas::FirstTouch::parallel);
  blas::BlockVector w(m.nrows(), width, blas::Layout::row_major,
                      blas::FirstTouch::parallel);
  for (global_index i = 0; i < m.ncols(); ++i) {
    for (int r = 0; r < width; ++r) {
      v(i, r) = {1.0 / (1.0 + static_cast<double>(i + r)), 0.5};
    }
  }
  std::vector<complex_t> dvv(static_cast<std::size_t>(width));
  std::vector<complex_t> dwv(static_cast<std::size_t>(width));
  const auto rec = sparse::AugScalars::recurrence(0.25, 0.0);

  // Lockstep probe (same pattern as auto_tune_weights): every rank walks
  // the identical candidate list; the allreduce that computes the
  // worst-rank time also keeps the phases aligned, so no rank can still be
  // timing one configuration while another installs the next.
  TileConfigGuard guard;
  auto worst_seconds = [&](const sparse::TileConfig& c) {
    sparse::set_tile_config(c);
    comm.barrier();
    if (m.nrows() > 0) {
      sparse::aug_spmmv(m, rec, v, w, dvv, dwv);  // warm-up
    }
    double best = 1e300;
    Timer t;
    for (int sweep = 0; sweep < p.sweeps_per_probe; ++sweep) {
      t.reset();
      t.start();
      if (m.nrows() > 0) sparse::aug_spmmv(m, rec, v, w, dvv, dwv);
      t.stop();
      best = std::min(best, t.seconds());
    }
    ++out.timed_probes;
    std::vector<double> times(static_cast<std::size_t>(comm.size()), 0.0);
    times[static_cast<std::size_t>(comm.rank())] = best;
    comm.allreduce_sum(times);
    return *std::max_element(times.begin(), times.end());
  };

  // Band candidates are filtered by row count; feed the filter a
  // rank-independent value (the smallest non-empty partition) so every rank
  // derives the identical candidate list — a divergent list would deadlock
  // the lockstep allreduces.
  std::vector<double> rows(static_cast<std::size_t>(comm.size()), 0.0);
  rows[static_cast<std::size_t>(comm.rank())] =
      static_cast<double>(m.nrows());
  comm.allreduce_sum(rows);
  global_index min_rows = dist.partition().total_rows();
  for (const double r : rows) {
    const auto gr = static_cast<global_index>(r);
    if (gr > 0) min_rows = std::min(min_rows, gr);
  }

  std::vector<sparse::TileConfig> candidates = stage1_candidates(p, width);
  sparse::TileConfig winner = candidates.front();
  double winner_seconds = 1e300;
  const std::size_t stage1_size = candidates.size();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double s = worst_seconds(candidates[i]);
    if (s < winner_seconds) {
      winner_seconds = s;
      winner = candidates[i];
    }
    if (i + 1 == stage1_size) {
      add_band_candidates(candidates, winner, p, min_rows);
    }
  }

  out.config = winner;
  out.seconds = winner_seconds;
  if (p.use_cache) {
    comm.barrier();  // every rank finished probing before rank 0 writes
    if (comm.rank() == 0) tuner.store(out.key, winner, winner_seconds);
    comm.barrier();
  }
  if (p.install) {
    sparse::set_tile_config(winner);
    guard.dismiss();
  }
  comm.barrier();
  return out;
}

HaloDepthTuneResult tune_halo_depth(Communicator& comm,
                                    const sparse::CrsMatrix& global,
                                    const RowPartition& part, int width,
                                    const HaloDepthTuneParams& p) {
  require(width >= 1 && p.rounds_per_probe >= 1 && !p.candidates.empty(),
          "tune_halo_depth: invalid parameters");
  default_omp_affinity();
  HaloDepthTuneResult out;
  const auto rec = sparse::AugScalars::recurrence(0.25, 0.0);
  std::vector<complex_t> dvv(static_cast<std::size_t>(width));
  std::vector<complex_t> dwv(static_cast<std::size_t>(width));

  double best = 1e300;
  for (const int depth : p.candidates) {
    require(depth >= 1, "tune_halo_depth: depths must be >= 1");
    // Build the candidate plan (collective) and time whole rounds: one
    // fused exchange, then `depth` sweeps over owned + shrinking frontier —
    // exactly the production round of distributed_moments (dist_kpm.cpp).
    DistributedMatrix dist(
        comm, global, part,
        DistMatrixOptions{.transport = p.transport, .halo_depth = depth});
    blas::BlockVector v(dist.extended_rows(), width);
    blas::BlockVector w(dist.extended_rows(), width);
    for (global_index i = 0; i < dist.local_rows(); ++i) {
      for (int r = 0; r < width; ++r) {
        v(i, r) = {1.0 / (1.0 + static_cast<double>(i + r)), 0.5};
      }
    }
    const std::array<IndexRange<global_index>, 1> owned{
        {{0, dist.local_rows()}}};
    auto round = [&] {
      for (int t = 0; t < depth; ++t) {
        if (t == 0) {
          if (depth == 1) {
            dist.exchange_halo(comm, v);
          } else {
            dist.exchange_round_halo(comm, v, w);
          }
        }
        std::fill(dvv.begin(), dvv.end(), complex_t{});
        std::fill(dwv.begin(), dwv.end(), complex_t{});
        sparse::aug_spmmv_runs(dist.local(), rec, v, w, owned, dvv, dwv);
        const global_index nfr = dist.frontier_rows(depth - 1 - t);
        if (nfr > 0) {
          const std::array<IndexRange<global_index>, 1> fr{
              {{dist.local_rows(), dist.local_rows() + nfr}}};
          sparse::aug_spmmv_runs(dist.frontier(), rec, v, w, fr, {}, {});
        }
      }
    };
    round();  // warm-up: channels handshaken, caches touched
    double round_best = 1e300;
    Timer t;
    for (int rep = 0; rep < p.rounds_per_probe; ++rep) {
      comm.barrier();
      t.reset();
      t.start();
      round();
      t.stop();
      round_best = std::min(round_best, t.seconds());
    }
    // Worst rank decides (wall clock — the blocked halo wait IS the cost
    // the deeper plans amortize), allreduced so every rank agrees.
    std::vector<double> times(static_cast<std::size_t>(comm.size()), 0.0);
    times[static_cast<std::size_t>(comm.rank())] = round_best;
    comm.allreduce_sum(times);
    const double per_sweep =
        *std::max_element(times.begin(), times.end()) / depth;
    out.probed.push_back({depth, per_sweep});
    if (per_sweep < best) {  // strict: ties keep the shallower earlier plan
      best = per_sweep;
      out.depth = depth;
      out.seconds_per_sweep = per_sweep;
    }
  }
  return out;
}

}  // namespace kpm::runtime
