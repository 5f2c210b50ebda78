// Google-benchmark microbenchmarks of the hot kernels: BLAS-1, SpMV/SpMMV
// in CRS and SELL-C-sigma, and the fused augmented kernels across block
// widths.  Counters report Gflop/s and effective bandwidth.
//
// Besides the interactive google-benchmark suite, the binary always runs a
// machine-readable sweep of the fused block kernel over
// widths x formats x thread counts and writes it to
// BENCH_kernels.json (override the path with KPM_BENCH_JSON), so successive
// PRs leave a perf trajectory.  The format axis covers the scalar layouts
// (crs, sell), the block layout of DESIGN §5f (bsr4, bsr4-f32 — 4x4
// blocks, 16-bit delta indices where they fit, optional float32 values
// with float64 accumulators), and the matrix-free stencil of
// §5h (stencil — no per-nonzero stream, index_bits 0); every record carries
// "index_bits" and "value_precision" so the trajectory explains *which*
// storage stream was measured.  A dedicated same-run head-to-head records
// stencil vs bsr4-f32 at width 32 ("stencil_vs_bsr4_f32_width32").
// `kernels_micro --smoke` runs a reduced format x width grid once (no JSON
// write, no google-benchmark suite) as a CI regression gate.
// Each (format, width) cell records the library kernel ("dispatch" — the
// width-dispatched fused block kernel, one pass per row over all lanes).
// The scalar formats also record "legacy", a frozen copy of the
// pre-dispatch generic kernel (heap per-row accumulators, std::complex
// arithmetic, `omp critical` dot merge) kept here as the fixed reference
// point for the paper Fig. 5 speedup numbers.
// The binary installs OMP_PROC_BIND=close / OMP_PLACES=cores at startup
// unless already set (export your own values to override).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_env.hpp"
#include "blas/block_ops.hpp"
#include "blas/level1.hpp"
#include "core/kubo.hpp"
#include "core/propagator.hpp"
#include "physics/anderson.hpp"
#include "physics/spectral_bounds.hpp"
#include "physics/stencil_models.hpp"
#include "physics/ti_model.hpp"
#include "sparse/bsr.hpp"
#include "sparse/kpm_kernels.hpp"
#include "sparse/matrix_stats.hpp"
#include "sparse/sell.hpp"
#include "sparse/spmv.hpp"
#include "sparse/stencil.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

namespace {

using namespace kpm;

const sparse::CrsMatrix& matrix() {
  static const sparse::CrsMatrix m = [] {
    physics::TIParams p;
    p.nx = 32;
    p.ny = 32;
    p.nz = 16;
    return physics::build_ti_hamiltonian(p);
  }();
  return m;
}

const sparse::SellMatrix& sell_matrix() {
  static const sparse::SellMatrix m(matrix(), 32, 128);
  return m;
}

const sparse::BsrMatrix& bsr_matrix() {
  static const sparse::BsrMatrix m(matrix(), 4);
  return m;
}

const sparse::BsrMatrix& bsr_matrix_f32() {
  static const sparse::BsrMatrix m(matrix(), 4, sparse::MatrixPrecision::f32);
  return m;
}

// Matrix-free form of the same TI Hamiltonian: same nnz, bitwise-equal
// moments, but the only streamed matrix data is the boundary entry lists.
const sparse::StencilOperator& stencil_operator() {
  static const sparse::StencilOperator m = [] {
    physics::TIParams p;
    p.nx = 32;
    p.ny = 32;
    p.nz = 16;
    return physics::make_ti_stencil(p);
  }();
  return m;
}

aligned_vector<complex_t> vec(std::size_t n) {
  aligned_vector<complex_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = {1.0 / (1.0 + static_cast<double>(i)), 0.25};
  }
  return v;
}

blas::BlockVector block(global_index n, int width) {
  blas::BlockVector b(n, width);
  for (global_index i = 0; i < n; ++i) {
    for (int r = 0; r < width; ++r) {
      b(i, r) = {1.0 / (1.0 + static_cast<double>(i + r)), 0.25};
    }
  }
  return b;
}

// ---------------------------------------------------------------------------
// Frozen pre-dispatch kernels (the "legacy" sweep variant).  Deliberately a
// verbatim snapshot of the old generic paths — do not modernize.
namespace legacy {

void aug_spmmv_crs(const sparse::CrsMatrix& a, const sparse::AugScalars& s,
                   const blas::BlockVector& v, blas::BlockVector& w,
                   std::span<complex_t> dot_vv, std::span<complex_t> dot_wv) {
  const global_index nrows = a.nrows();
  const int width = v.width();
  const auto* __restrict__ row_ptr = a.row_ptr().data();
  const auto* __restrict__ col = a.col_idx().data();
  const auto* __restrict__ val = a.values().data();
  const complex_t* __restrict__ vp = v.data();
  complex_t* __restrict__ wp = w.data();
  const complex_t alpha = s.alpha, beta = s.beta, gamma = s.gamma;
  const bool with_dots = !dot_vv.empty();
  if (with_dots) {
    std::fill(dot_vv.begin(), dot_vv.end(), complex_t{});
    std::fill(dot_wv.begin(), dot_wv.end(), complex_t{});
  }
#pragma omp parallel
  {
    std::vector<complex_t> acc(static_cast<std::size_t>(width));
    std::vector<complex_t> local_vv(with_dots ? width : 0);
    std::vector<complex_t> local_wv(with_dots ? width : 0);
#pragma omp for schedule(static) nowait
    for (global_index i = 0; i < nrows; ++i) {
      std::fill(acc.begin(), acc.end(), complex_t{});
      for (global_index k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
        const complex_t m = val[k];
        const complex_t* __restrict__ vr =
            vp + static_cast<std::size_t>(col[k]) * width;
#pragma omp simd
        for (int r = 0; r < width; ++r) acc[r] += m * vr[r];
      }
      const complex_t* __restrict__ vi =
          vp + static_cast<std::size_t>(i) * width;
      complex_t* __restrict__ wi = wp + static_cast<std::size_t>(i) * width;
      for (int r = 0; r < width; ++r) {
        const complex_t wnew = alpha * acc[r] + beta * vi[r] + gamma * wi[r];
        wi[r] = wnew;
        if (with_dots) {
          local_vv[r] += std::conj(vi[r]) * vi[r];
          local_wv[r] += std::conj(wnew) * vi[r];
        }
      }
    }
    if (with_dots) {
#pragma omp critical(kpm_bench_legacy_crs_dots)
      for (int r = 0; r < width; ++r) {
        dot_vv[r] += local_vv[r];
        dot_wv[r] += local_wv[r];
      }
    }
  }
}

void aug_spmmv_sell(const sparse::SellMatrix& a, const sparse::AugScalars& s,
                    const blas::BlockVector& v, blas::BlockVector& w,
                    std::span<complex_t> dot_vv, std::span<complex_t> dot_wv) {
  const global_index nchunks = a.num_chunks();
  const int chunk = a.chunk_height();
  const global_index nrows = a.nrows();
  const int width = v.width();
  const auto* __restrict__ cptr = a.chunk_ptr().data();
  const auto* __restrict__ clen = a.chunk_len().data();
  const auto* __restrict__ col = a.col_idx().data();
  const auto* __restrict__ val = a.values().data();
  const complex_t* __restrict__ vp = v.data();
  complex_t* __restrict__ wp = w.data();
  const complex_t alpha = s.alpha, beta = s.beta, gamma = s.gamma;
  const bool with_dots = !dot_vv.empty();
  if (with_dots) {
    std::fill(dot_vv.begin(), dot_vv.end(), complex_t{});
    std::fill(dot_wv.begin(), dot_wv.end(), complex_t{});
  }
#pragma omp parallel
  {
    std::vector<complex_t> acc(static_cast<std::size_t>(width));
    std::vector<complex_t> local_vv(with_dots ? width : 0);
    std::vector<complex_t> local_wv(with_dots ? width : 0);
#pragma omp for schedule(static) nowait
    for (global_index c = 0; c < nchunks; ++c) {
      const global_index base = cptr[c];
      const int lanes =
          static_cast<int>(std::min<global_index>(chunk, nrows - c * chunk));
      for (int lane = 0; lane < lanes; ++lane) {
        const global_index i = c * chunk + lane;
        std::fill(acc.begin(), acc.end(), complex_t{});
        for (local_index j = 0; j < clen[c]; ++j) {
          const global_index off =
              base + static_cast<global_index>(j) * chunk + lane;
          const complex_t m = val[off];
          const complex_t* __restrict__ vr =
              vp + static_cast<std::size_t>(col[off]) * width;
#pragma omp simd
          for (int r = 0; r < width; ++r) acc[r] += m * vr[r];
        }
        const complex_t* __restrict__ vi =
            vp + static_cast<std::size_t>(i) * width;
        complex_t* __restrict__ wi = wp + static_cast<std::size_t>(i) * width;
        for (int r = 0; r < width; ++r) {
          const complex_t wnew = alpha * acc[r] + beta * vi[r] + gamma * wi[r];
          wi[r] = wnew;
          if (with_dots) {
            local_vv[r] += std::conj(vi[r]) * vi[r];
            local_wv[r] += std::conj(wnew) * vi[r];
          }
        }
      }
    }
    if (with_dots) {
#pragma omp critical(kpm_bench_legacy_sell_dots)
      for (int r = 0; r < width; ++r) {
        dot_vv[r] += local_vv[r];
        dot_wv[r] += local_wv[r];
      }
    }
  }
}

}  // namespace legacy

// ---------------------------------------------------------------------------
// Machine-readable sweep: widths x formats x threads of the fused kernel.

struct SweepRecord {
  const char* format;
  const char* variant;
  int width;
  int threads;
  int index_bits;               // width of the streamed column indices
  const char* value_precision;  // "f64" | "f32" (accumulation always f64)
  double seconds;
  double gflops;
  double gbs;
  const char* baseline;     // first variant of the same interleaved cell
  double same_run_speedup;  // baseline seconds / this variant's seconds
};

/// One timed cell of the sweep: ALL variants of a (format, width) pair in a
/// single call, their repetitions interleaved round-robin.  Timing the
/// variants back-to-back within one process defeats the cross-run host-clock
/// drift that made ratios computed from separately-timed cells swing by
/// ±25%: every round times each variant under the same instantaneous clock
/// and thermal state, so the per-record `same_run_speedup` (vs the first
/// variant of the cell) is a like-for-like ratio no matter when the bench
/// ran.  Per-variant seconds are best-of over the rounds as before.
///
/// Variants select legacy / dispatch.  The block formats (bsr4*) and the
/// stencil have no legacy variant — they did not exist before the
/// dispatch machinery.
std::vector<SweepRecord> time_cell(const char* format,
                                   const std::vector<const char*>& variants,
                                   int width) {
  const auto& crs = matrix();
  const std::string fmt(format);
  // First-touch the probe vectors the same way the kernel streams them.
  blas::BlockVector v(crs.ncols(), width, blas::Layout::row_major,
                      blas::FirstTouch::parallel);
  blas::BlockVector w(crs.nrows(), width, blas::Layout::row_major,
                      blas::FirstTouch::parallel);
  for (global_index i = 0; i < crs.ncols(); ++i) {
    for (int r = 0; r < width; ++r) {
      v(i, r) = {1.0 / (1.0 + static_cast<double>(i + r)), 0.25};
    }
  }
  std::vector<complex_t> dvv(static_cast<std::size_t>(width));
  std::vector<complex_t> dwv(static_cast<std::size_t>(width));
  const auto rec = sparse::AugScalars::recurrence(0.2, 0.0);

  // Runs one fused sweep of the variant.
  const auto sweep = [&](const std::string& var) {
    if (var == "legacy") {
      if (fmt == "sell") {
        legacy::aug_spmmv_sell(sell_matrix(), rec, v, w, dvv, dwv);
      } else {
        legacy::aug_spmmv_crs(crs, rec, v, w, dvv, dwv);
      }
      return;
    }
    if (fmt == "sell") {
      sparse::aug_spmmv(sell_matrix(), rec, v, w, dvv, dwv);
    } else if (fmt == "bsr4") {
      sparse::aug_spmmv(bsr_matrix(), rec, v, w, dvv, dwv);
    } else if (fmt == "bsr4-f32") {
      sparse::aug_spmmv(bsr_matrix_f32(), rec, v, w, dvv, dwv);
    } else if (fmt == "stencil") {
      sparse::aug_spmmv(stencil_operator(), rec, v, w, dvv, dwv);
    } else {
      sparse::aug_spmmv(crs, rec, v, w, dvv, dwv);
    }
  };

  // Warm-up every variant (also sizes the rounds: ~0.12 s of repetitions
  // per variant, at least 3, bounded so a slow cell cannot stall the sweep).
  Timer t;
  double est = 1e300;
  for (const char* var : variants) {
    sweep(var);
    t.reset();
    t.start();
    sweep(var);
    t.stop();
    est = std::min(est, t.seconds());
  }
  const int rounds = std::clamp(static_cast<int>(0.12 / std::max(est, 1e-9)),
                                3, 50);

  std::vector<double> best(variants.size(), 1e300);
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
      t.reset();
      t.start();
      sweep(variants[vi]);
      t.stop();
      best[vi] = std::min(best[vi], t.seconds());
    }
  }

  int index_bits = 32;
  const char* precision = "f64";
  // Minimum traffic of the fused sweep (paper Eq. 4): one matrix stream
  // (incl. zero fill / padding) + read v, read-modify-write w.
  double matrix_bytes = crs.storage_bytes();
  if (fmt == "sell") {
    matrix_bytes = sell_matrix().storage_bytes();
  } else if (fmt == "bsr4" || fmt == "bsr4-f32") {
    const auto& b = fmt == "bsr4" ? bsr_matrix() : bsr_matrix_f32();
    matrix_bytes = b.storage_bytes();
    index_bits = b.index_bits();
    precision = sparse::precision_name(b.precision());
  } else if (fmt == "stencil") {
    // No per-nonzero stream at all: the stored bytes are the term table,
    // the diagonal, and the boundary entry lists.
    matrix_bytes = static_cast<double>(stencil_operator().stored_bytes());
    index_bits = 0;
  }
  const double flops =
      width * (static_cast<double>(crs.nnz()) * 8.0 +
               static_cast<double>(crs.nrows()) * 34.0);
  const double bytes =
      matrix_bytes +
      3.0 * width * static_cast<double>(crs.nrows()) * bytes_per_element;

  std::vector<SweepRecord> out;
  out.reserve(variants.size());
  for (std::size_t vi = 0; vi < variants.size(); ++vi) {
    out.push_back({format, variants[vi], width, max_threads(), index_bits,
                   precision, best[vi], flops / best[vi] / 1e9,
                   bytes / best[vi] / 1e9, variants.front(),
                   best.front() / best[vi]});
  }
  return out;
}

/// Same-run head-to-head: the matrix-free stencil kernel vs the bsr4-f32
/// record holder at one width, repetitions interleaved round-robin.  Like
/// time_cell, back-to-back
/// timing under one instantaneous clock makes the ratio immune to cross-run
/// host drift — this is the DESIGN §5h acceptance number.
struct HeadToHead {
  double bsr_seconds = 1e300;
  double stencil_seconds = 1e300;
  double speedup = 0.0;  ///< bsr4-f32 seconds / stencil seconds
};

HeadToHead stencil_vs_bsr(int width) {
  const auto& crs = matrix();
  blas::BlockVector v(crs.ncols(), width, blas::Layout::row_major,
                      blas::FirstTouch::parallel);
  blas::BlockVector w(crs.nrows(), width, blas::Layout::row_major,
                      blas::FirstTouch::parallel);
  for (global_index i = 0; i < crs.ncols(); ++i) {
    for (int r = 0; r < width; ++r) {
      v(i, r) = {1.0 / (1.0 + static_cast<double>(i + r)), 0.25};
    }
  }
  std::vector<complex_t> dvv(static_cast<std::size_t>(width));
  std::vector<complex_t> dwv(static_cast<std::size_t>(width));
  const auto rec = sparse::AugScalars::recurrence(0.2, 0.0);
  const auto sweep_bsr = [&] {
    sparse::aug_spmmv(bsr_matrix_f32(), rec, v, w, dvv, dwv);
  };
  const auto sweep_stencil = [&] {
    sparse::aug_spmmv(stencil_operator(), rec, v, w, dvv, dwv);
  };
  Timer t;
  sweep_bsr();
  sweep_stencil();
  t.start();
  sweep_stencil();
  t.stop();
  const int rounds =
      std::clamp(static_cast<int>(0.12 / std::max(t.seconds(), 1e-9)), 3, 50);
  HeadToHead h;
  for (int round = 0; round < rounds; ++round) {
    t.reset();
    t.start();
    sweep_bsr();
    t.stop();
    h.bsr_seconds = std::min(h.bsr_seconds, t.seconds());
    t.reset();
    t.start();
    sweep_stencil();
    t.stop();
    h.stencil_seconds = std::min(h.stencil_seconds, t.seconds());
  }
  h.speedup = h.bsr_seconds / h.stencil_seconds;
  return h;
}

void print_record(const SweepRecord& r) {
  std::printf("%-10s %-8s %6d %4d %4d %4s %12.5f %9.3f %9.3f %6.2f\n",
              r.format, r.variant, r.width, r.threads, r.index_bits,
              r.value_precision, r.seconds, r.gflops, r.gbs,
              r.same_run_speedup);
}

/// Variants measured for a format: the frozen legacy body only exists for
/// the scalar formats that predate the dispatch machinery.
std::vector<const char*> variants_for(const std::string& fmt, bool smoke) {
  if (!smoke && (fmt == "crs" || fmt == "sell")) return {"legacy", "dispatch"};
  return {"dispatch"};
}

void run_sweep_and_write_json(bool smoke) {
  const char* path_env = std::getenv("KPM_BENCH_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_kernels.json";
  const std::vector<int> widths =
      smoke ? std::vector<int>{8, 32} : std::vector<int>{1, 2, 4, 8, 16, 32, 64};
  const std::vector<const char*> formats =
      smoke ? std::vector<const char*>{"crs", "bsr4", "bsr4-f32", "stencil"}
            : std::vector<const char*>{"crs", "sell", "bsr4", "bsr4-f32",
                                       "stencil"};
  const int primary_threads = max_threads();
  // Thread-scaling sweep {1, 2, 4, max}, clipped to the machine, over a
  // reduced width grid.
  std::vector<int> scaling_threads;
  for (const int t : {1, 2, 4, primary_threads}) {
    if (t >= 1 && t <= primary_threads && t != primary_threads &&
        std::find(scaling_threads.begin(), scaling_threads.end(), t) ==
            scaling_threads.end()) {
      scaling_threads.push_back(t);
    }
  }
  const int scaling_widths[] = {8, 32, 64};

  std::vector<SweepRecord> records;
  std::printf("aug_spmmv sweep (full fused kernel, on-the-fly dots)%s:\n",
              smoke ? " [smoke grid]" : "");
  bench::print_block_structure(matrix());
  std::printf("%-10s %-8s %6s %4s %4s %4s %12s %9s %9s %6s\n", "fmt",
              "variant", "width", "thr", "idx", "val", "s/sweep", "GF/s",
              "GB/s", "ratio");
  const auto run_cell = [&](const char* fmt, int width,
                            const std::vector<const char*>& vars) {
    for (auto& r : time_cell(fmt, vars, width)) {
      print_record(r);
      records.push_back(r);
    }
  };
  for (const char* fmt : formats) {
    for (const int width : widths) {
      run_cell(fmt, width, variants_for(fmt, smoke));
    }
  }
  if (!smoke) {
    for (const int t : scaling_threads) {
      set_threads(t);
      for (const char* fmt : formats) {
        for (const int width : scaling_widths) {
          run_cell(fmt, width, {"dispatch"});
        }
      }
    }
    set_threads(primary_threads);
  }

  auto find = [&](const char* fmt, const char* var, int width) -> double {
    for (const auto& r : records) {
      if (std::string(r.format) == fmt && std::string(r.variant) == var &&
          r.width == width && r.threads == primary_threads) {
        return r.gflops;
      }
    }
    return 0.0;
  };
  // Best block-format cell at width 32 vs the scalar-CRS kernel record —
  // the trajectory number for DESIGN §5f.
  const SweepRecord* best_block32 = nullptr;
  double crs32_seconds = 0.0;
  for (const auto& r : records) {
    if (r.width != 32 || r.threads != primary_threads) continue;
    const std::string f(r.format);
    if (f == "crs" && std::string(r.variant) == "dispatch") {
      crs32_seconds = r.seconds;
    }
    if (f.rfind("bsr", 0) == 0) {
      if (best_block32 == nullptr || r.seconds < best_block32->seconds) {
        best_block32 = &r;
      }
    }
  }
  const double block_speedup32 =
      best_block32 != nullptr && best_block32->seconds > 0.0
          ? crs32_seconds / best_block32->seconds
          : 0.0;
  if (best_block32 != nullptr) {
    std::printf("best block format @ width 32: %s %.5e s/sweep "
                "(%.2fx vs scalar CRS %.5e)\n",
                best_block32->format, best_block32->seconds, block_speedup32,
                crs32_seconds);
  }
  const HeadToHead h2h = stencil_vs_bsr(32);
  std::printf("stencil vs bsr4-f32 @ width 32 (same-run): %.5e s vs %.5e s "
              "(%.2fx)\n",
              h2h.stencil_seconds, h2h.bsr_seconds, h2h.speedup);
  if (smoke) {
    std::printf("[smoke] reduced grid only; %s not rewritten\n\n",
                path.c_str());
    return;
  }
  const double s8 = find("sell", "dispatch", 8) / find("sell", "legacy", 8);
  const double s32 =
      find("sell", "dispatch", 32) / find("sell", "legacy", 32);
  std::printf("dispatch vs pre-dispatch legacy, SELL: %.2fx @ width 8, "
              "%.2fx @ width 32\n\n",
              s8, s32);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const auto& crs = matrix();
  std::fprintf(f, "{\n  \"bench\": \"kernels_micro\",\n");
  bench::write_env_json(f);
  std::fprintf(f, "  \"kernel\": \"aug_spmmv\",\n");
  std::fprintf(f,
               "  \"matrix\": {\"model\": \"topological_insulator\", "
               "\"n\": %lld, \"nnz\": %lld, \"sell_chunk\": %d, "
               "\"sell_sigma\": %d, \"block_fill4\": %.4f, "
               "\"stencil_const4\": %.4f},\n",
               static_cast<long long>(crs.nrows()),
               static_cast<long long>(crs.nnz()), sell_matrix().chunk_height(),
               sell_matrix().sigma(), sparse::block_fill_ratio(crs, 4),
               sparse::stencil_expressibility(crs, 4));
  std::fprintf(f, "  \"threads\": %d,\n", primary_threads);
  std::fprintf(f, "  \"records\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(f,
                 "    {\"format\": \"%s\", \"variant\": \"%s\", "
                 "\"width\": %d, \"threads\": %d, \"with_dots\": true, "
                 "\"index_bits\": %d, \"value_precision\": \"%s\", "
                 "\"seconds_per_sweep\": %.6e, \"gflops\": %.4f, "
                 "\"gbs\": %.4f, \"baseline\": \"%s\", "
                 "\"same_run_speedup\": %.4f}%s\n",
                 r.format, r.variant, r.width, r.threads, r.index_bits,
                 r.value_precision, r.seconds, r.gflops, r.gbs, r.baseline,
                 r.same_run_speedup, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"speedup_vs_legacy\": {\"sell_width8\": %.4f, "
               "\"sell_width32\": %.4f},\n",
               s8, s32);
  std::fprintf(f,
               "  \"stencil_vs_bsr4_f32_width32\": "
               "{\"bsr4_f32_seconds\": %.6e, \"stencil_seconds\": %.6e, "
               "\"speedup\": %.4f},\n",
               h2h.bsr_seconds, h2h.stencil_seconds, h2h.speedup);
  std::fprintf(f,
               "  \"block_vs_crs_width32\": {\"format\": \"%s\", "
               "\"seconds_per_sweep\": %.6e, \"speedup\": %.4f}\n}\n",
               best_block32 != nullptr ? best_block32->format : "none",
               best_block32 != nullptr ? best_block32->seconds : 0.0,
               block_speedup32);
  std::fclose(f);
  std::printf("wrote %s\n\n", path.c_str());
}

// ---------------------------------------------------------------------------
// Interactive google-benchmark suite.

void BM_axpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = vec(n);
  auto y = vec(n);
  for (auto _ : state) {
    blas::axpy({0.5, 0.25}, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n * 8.0 / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_axpy)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 21);

void BM_dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = vec(n);
  auto y = vec(n);
  complex_t acc{};
  for (auto _ : state) {
    acc += blas::dot(x, y);
    benchmark::DoNotOptimize(acc);
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n * 8.0 / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_dot)->Arg(1 << 14)->Arg(1 << 21);

void BM_spmv_crs(benchmark::State& state) {
  const auto& a = matrix();
  auto x = vec(static_cast<std::size_t>(a.ncols()));
  aligned_vector<complex_t> y(static_cast<std::size_t>(a.nrows()));
  for (auto _ : state) {
    sparse::spmv(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * a.nnz() * 8.0 / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_spmv_crs);

void BM_spmv_sell(benchmark::State& state) {
  const auto& a = matrix();
  const auto& sell = sell_matrix();
  auto x = vec(static_cast<std::size_t>(a.ncols()));
  aligned_vector<complex_t> y(static_cast<std::size_t>(a.nrows()));
  for (auto _ : state) {
    sparse::spmv(sell, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * a.nnz() * 8.0 / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_spmv_sell);

void BM_spmmv_crs(benchmark::State& state) {
  const auto& a = matrix();
  const int width = static_cast<int>(state.range(0));
  auto x = block(a.ncols(), width);
  blas::BlockVector y(a.nrows(), width);
  for (auto _ : state) {
    sparse::spmmv(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * a.nnz() * width * 8.0 / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_spmmv_crs)->Arg(1)->Arg(4)->Arg(16)->Arg(32)->Arg(64);

void BM_aug_spmmv_full(benchmark::State& state) {
  const auto& a = matrix();
  const int width = static_cast<int>(state.range(0));
  auto v = block(a.ncols(), width);
  auto w = block(a.nrows(), width);
  std::vector<complex_t> dvv(static_cast<std::size_t>(width)),
      dwv(static_cast<std::size_t>(width));
  const auto rec = sparse::AugScalars::recurrence(0.2, 0.0);
  for (auto _ : state) {
    sparse::aug_spmmv(a, rec, v, w, dvv, dwv);
    benchmark::DoNotOptimize(w.data());
  }
  const double flops_per_sweep =
      width * (static_cast<double>(a.nnz()) * 8.0 +
               static_cast<double>(a.nrows()) * 34.0);
  state.counters["Gflop/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * flops_per_sweep / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_aug_spmmv_full)->Arg(1)->Arg(4)->Arg(16)->Arg(32);

void BM_aug_spmmv_sell(benchmark::State& state) {
  const auto& sell = sell_matrix();
  const int width = static_cast<int>(state.range(0));
  auto v = block(sell.ncols(), width);
  auto w = block(sell.nrows(), width);
  std::vector<complex_t> dvv(static_cast<std::size_t>(width)),
      dwv(static_cast<std::size_t>(width));
  const auto rec = sparse::AugScalars::recurrence(0.2, 0.0);
  for (auto _ : state) {
    sparse::aug_spmmv(sell, rec, v, w, dvv, dwv);
    benchmark::DoNotOptimize(w.data());
  }
  const double flops_per_sweep =
      width * (static_cast<double>(sell.nnz()) * 8.0 +
               static_cast<double>(sell.nrows()) * 34.0);
  state.counters["Gflop/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * flops_per_sweep / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_aug_spmmv_sell)->Arg(8)->Arg(32);

void BM_aug_spmmv_nodots(benchmark::State& state) {
  const auto& a = matrix();
  const int width = static_cast<int>(state.range(0));
  auto v = block(a.ncols(), width);
  auto w = block(a.nrows(), width);
  const auto rec = sparse::AugScalars::recurrence(0.2, 0.0);
  for (auto _ : state) {
    sparse::aug_spmmv(a, rec, v, w, {}, {});
    benchmark::DoNotOptimize(w.data());
  }
  const double flops_per_sweep =
      width * (static_cast<double>(a.nnz()) * 8.0 +
               static_cast<double>(a.nrows()) * 22.0);
  state.counters["Gflop/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * flops_per_sweep / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_aug_spmmv_nodots)->Arg(32);

void BM_column_dots(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const global_index n = 1 << 18;
  auto x = block(n, width);
  auto y = block(n, width);
  std::vector<complex_t> dots(static_cast<std::size_t>(width));
  for (auto _ : state) {
    blas::column_dots(x, y, dots);
    benchmark::DoNotOptimize(dots.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n * width * 8.0 / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_column_dots)->Arg(4)->Arg(32);

void BM_propagator(benchmark::State& state) {
  const auto& a = matrix();
  static const physics::Scaling s =
      physics::make_scaling(physics::gershgorin_bounds(a), 0.05);
  auto v = vec(static_cast<std::size_t>(a.nrows()));
  aligned_vector<complex_t> out(v.size());
  core::PropagatorParams p;
  p.time = static_cast<double>(state.range(0));
  for (auto _ : state) {
    core::propagate(a, s, p, v, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["order"] = static_cast<double>(
      core::required_order(p.time / s.a, p.tolerance));
}
BENCHMARK(BM_propagator)->Arg(1)->Arg(8);

void BM_kubo_moments(benchmark::State& state) {
  physics::AndersonParams ap;
  ap.nx = 12;
  ap.ny = 12;
  ap.nz = 4;
  static const auto h = physics::build_anderson_hamiltonian(ap);
  static const auto j = core::current_operator_x(ap);
  static const physics::Scaling s =
      physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::KuboParams kp;
  kp.num_moments = static_cast<int>(state.range(0));
  kp.num_random = 1;
  for (auto _ : state) {
    const auto m = core::kubo_moments(h, s, j, kp);
    benchmark::DoNotOptimize(m.mu.data());
  }
}
BENCHMARK(BM_kubo_moments)->Arg(16)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  // Pin threads for stable measurements unless the user chose otherwise
  // (must happen before the first parallel region).
  kpm::default_omp_affinity();
  // --smoke (CI gate): reduced format x width grid, no JSON rewrite, no
  // google-benchmark suite.  Strip the flag before benchmark::Initialize.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  if (smoke) {
    run_sweep_and_write_json(true);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  run_sweep_and_write_json(false);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
