// Paper Fig. 12: weak and strong scaling of the full KPM solver on a
// Piz Daint class system (model), for the "Square" and "Bar" test cases,
// up to 1024 heterogeneous nodes.
//
// Expected shape: weak scaling near-linear with a small efficiency dip when
// the process grid acquires a y extent (Square, 4 nodes); >100 Tflop/s at
// 1024 nodes for a matrix with > 6.5e9 rows; strong scaling flattens.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_env.hpp"
#include "cluster/scaling.hpp"
#include "runtime/dist_kpm.hpp"
#include "runtime/dist_matrix.hpp"
#include "runtime/elastic.hpp"
#include "util/alloc_hook.hpp"
#include "util/table.hpp"

namespace {

using namespace kpm;

/// One timed configuration of the measured in-process scaling section.
struct DistRecord {
  int ranks = 1;
  const char* transport = "staged";
  const char* mode = "plain";
  double seconds_min = 0.0;
  double seconds_median = 0.0;
  long long halo_bytes_per_solve = 0;   // allreduced over ranks
  double halo_allocs_per_exchange = 0;  // persistent path, steady state
  double interior_fraction = 0.0;       // halo-free rows / total rows
};

double median_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// One timed depth of the communication-avoiding sweep (DESIGN §5j).  The
/// structural fields are per-sweep normalized so a --smoke rerun (same
/// matrix, fewer reps) reproduces them exactly for bench_check.
struct HaloDepthRecord {
  int halo_depth = 1;
  const char* mode = "plain";
  double seconds_min = 0.0;
  double seconds_median = 0.0;
  double seconds_per_sweep = 0.0;          // seconds_min / sweeps
  double message_rounds_per_sweep = 0.0;   // rank 0's solver counter
  double messages_per_sweep = 0.0;         // MessageHub delta, all ranks
  long long frontier_rows_per_sweep = 0;   // redundant ghost rows, all ranks
  long long halo_bytes_per_sweep = 0;      // payload, all ranks
};

/// The whole --halo-depth sweep plus the calibrated latency/flops crossover
/// model, serialized into BENCH_dist.json next to the main records.
struct HaloDepthSweep {
  long long matrix_rows = 0;
  long long matrix_nnz = 0;
  int num_moments = 0;
  int width = 0;
  int ranks = 0;
  int reps = 0;
  std::vector<HaloDepthRecord> records;
  cluster::SStepParams model;   // calibrated from the measured depth-1 data
  int model_depth = 0;          // sstep_optimal_depth over the candidates
  int measured_depth = 0;       // argmin of measured seconds_per_sweep
  double speedup_vs_depth1 = 0; // best s>1 vs s=1 persistent+overlapped
};

/// Times `reps` solves of one (depth, mode) cell at 8 in-process ranks and
/// captures the per-sweep message/byte/frontier counters.  Messages are
/// measured as the hub-wide messages_sent() delta across the timed solves —
/// the depth-s plan must show the depth-1 count divided by s.
HaloDepthRecord time_halo_depth(const sparse::CrsMatrix& h,
                                const physics::Scaling& s,
                                const core::MomentParams& mp, int nranks,
                                int depth, bool overlapped, int reps) {
  HaloDepthRecord rec;
  rec.halo_depth = depth;
  rec.mode = overlapped ? "overlapped" : "plain";
  const auto part = runtime::RowPartition::uniform(h.nrows(), nranks);
  const int sweeps = mp.num_moments / 2;
  std::vector<double> times;
  runtime::run_ranks(nranks, [&](runtime::Communicator& c) {
    runtime::DistMatrixOptions o;
    o.transport = runtime::HaloTransport::persistent;
    o.halo_depth = depth;
    runtime::DistributedMatrix dist(c, h, part, o);
    auto solve = [&] {
      return overlapped
                 ? runtime::distributed_moments_overlapped(c, dist, s, mp, {})
                 : runtime::distributed_moments(c, dist, s, mp, {});
    };
    auto res = solve();  // warm-up: faults pages, grows channel buffers
    std::vector<double> totals{static_cast<double>(res.halo_bytes_sent),
                               static_cast<double>(res.frontier_rows_computed)};
    c.allreduce_sum(totals);
    c.barrier();
    const std::int64_t msg0 = c.hub().messages_sent();
    for (int rep = 0; rep < reps; ++rep) {
      c.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      res = solve();
      c.barrier();
      const auto t1 = std::chrono::steady_clock::now();
      if (c.rank() == 0) {
        times.push_back(std::chrono::duration<double>(t1 - t0).count());
      }
    }
    c.barrier();
    if (c.rank() == 0) {
      const double per_solve =
          static_cast<double>(c.hub().messages_sent() - msg0) / reps;
      rec.messages_per_sweep = per_solve / sweeps;
      rec.message_rounds_per_sweep =
          static_cast<double>(res.message_rounds) / sweeps;
      rec.halo_bytes_per_sweep = static_cast<long long>(totals[0]) / sweeps;
      rec.frontier_rows_per_sweep = static_cast<long long>(totals[1]) / sweeps;
    }
  });
  rec.seconds_min = *std::min_element(times.begin(), times.end());
  rec.seconds_median = median_of(times);
  rec.seconds_per_sweep = rec.seconds_min / sweeps;
  return rec;
}

/// Satellite of DESIGN §5j: sweeps the ghost-zone depth s in {1,2,4,8} at 8
/// in-process ranks on a latency-bound local size (a few hundred rows per
/// rank, so per-message handoff latency rivals the sweep flops), measures
/// per-sweep wall time and message counts, then calibrates the analytic
/// cluster::SStepParams crossover model from the depth-1 data alone and
/// compares its predicted optimal depth with the measured one.
HaloDepthSweep halo_depth_section(bool smoke) {
  const auto env_or = [](const char* name, int fallback) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::atoi(v) : fallback;
  };
  // Fixed small lattice regardless of KPM_BENCH_NX: the point of the section
  // is the latency-bound regime — a thin open-boundary bar (the paper's Bar
  // case cross-section shrunk to 2x2 sites) whose z-slab partition gives
  // each rank ~256 rows, two peers, and one 16-row plane per ghost layer,
  // so per-message handoff latency rivals the sweep flops.  bench_check
  // relies on the structural counters being identical in a --smoke rerun.
  physics::TIParams tp;
  tp.nx = 2;
  tp.ny = 2;
  tp.nz = 64;
  tp.periodic_x = false;
  tp.periodic_y = false;
  const auto h = physics::build_ti_hamiltonian(tp);
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = env_or("KPM_BENCH_HALO_M", 32);  // multiple of 8: every
  mp.num_random = env_or("KPM_BENCH_HALO_R", 1);    // round is full
  // Each solve is sub-millisecond, so min-of-many is cheap — and needed:
  // single-core container scheduling is noisy at the ~10 us/sweep scale.
  const int reps = env_or("KPM_BENCH_HALO_REPS", smoke ? 9 : 45);
  const int ranks = 8;
  const std::vector<int> depths{1, 2, 4, 8};

  HaloDepthSweep sw;
  sw.matrix_rows = h.nrows();
  sw.matrix_nnz = h.nnz();
  sw.num_moments = mp.num_moments;
  sw.width = mp.num_random;
  sw.ranks = ranks;
  sw.reps = reps;

  std::printf("\n=== halo-depth sweep: N = %lld (%lld rows/rank), M = %d, "
              "R = %d, %d ranks, min of %d solves ===\n",
              static_cast<long long>(h.nrows()),
              static_cast<long long>(h.nrows() / ranks), mp.num_moments,
              mp.num_random, ranks, reps);
  std::printf("%6s %-10s %12s %12s %10s %10s %12s %12s\n", "depth", "mode",
              "min[s]", "s/sweep", "msg/sweep", "rnd/sweep", "frontier/sw",
              "bytes/sw");
  for (const int depth : depths) {
    for (const bool overlapped : {false, true}) {
      sw.records.push_back(
          time_halo_depth(h, s, mp, ranks, depth, overlapped, reps));
      const auto& r = sw.records.back();
      std::printf("%6d %-10s %12.5f %12.3e %10.2f %10.3f %12lld %12lld\n",
                  r.halo_depth, r.mode, r.seconds_min, r.seconds_per_sweep,
                  r.messages_per_sweep, r.message_rounds_per_sweep,
                  r.frontier_rows_per_sweep, r.halo_bytes_per_sweep);
    }
  }

  const auto find = [&](int depth, const char* mode) -> const HaloDepthRecord* {
    for (const auto& r : sw.records) {
      if (r.halo_depth == depth && std::string(r.mode) == mode) return &r;
    }
    return nullptr;
  };

  // Best measured time per depth (plain vs overlapped, whichever won) and
  // its frontier size: the curve the crossover model must explain.
  std::vector<double> best_t;
  std::vector<double> best_f;
  for (const int depth : depths) {
    double t = 0.0, f = 0.0;
    for (const auto& r : sw.records) {
      if (r.halo_depth == depth && (t == 0.0 || r.seconds_per_sweep < t)) {
        t = r.seconds_per_sweep;
        f = static_cast<double>(r.frontier_rows_per_sweep);
      }
    }
    best_t.push_back(t);
    best_f.push_back(f);
  }
  // Calibrate the crossover model against the measured curve.  The
  // in-process "cluster" serializes all rank compute on the host core and
  // pays every message latency in thread handoffs, so the calibration
  // aggregates over ranks: owned_rows is the whole matrix and peers is the
  // total directed sends per sweep at depth 1 (the MEASURED MessageHub
  // count).  The remaining constants are the least-squares fit of the
  // model's three-term form
  //     t(s) = spr * N  +  spr * frontier_cost * frontier(s)  +  P*lat / s
  // (owned compute, redundant-frontier compute, amortized per-message
  // latency) to the measured (frontier, t) points -- the validation is that
  // this analytic shape reproduces the measured optimum.
  {
    const auto* d1 = find(1, "plain");
    const auto* d2 = find(2, "plain");
    auto& m = sw.model;
    m.owned_rows = static_cast<double>(h.nrows());
    m.layer_rows = 2.0 * static_cast<double>(d2->frontier_rows_per_sweep);
    m.peers = static_cast<int>(d1->messages_per_sweep + 0.5);
    m.layer_bytes = static_cast<double>(d1->halo_bytes_per_sweep);
    // Least squares of t ~ c0 + c1 * frontier + c2 * (1/s) with c1, c2
    // constrained nonnegative: solve unconstrained, and whenever a
    // coefficient comes out negative, drop its regressor and REFIT the rest
    // (clamping without refitting would leave the other coefficients
    // compensating for a term that no longer exists).
    const auto fit = [&](bool use_f, bool use_inv, double c[3]) {
      double a[3][4] = {};
      for (std::size_t i = 0; i < depths.size(); ++i) {
        const double x[3] = {1.0, use_f ? best_f[i] : 0.0,
                             use_inv ? 1.0 / depths[i] : 0.0};
        for (int r = 0; r < 3; ++r) {
          for (int cc = 0; cc < 3; ++cc) a[r][cc] += x[r] * x[cc];
          a[r][3] += x[r] * best_t[i];
        }
      }
      if (!use_f) a[1][1] = 1.0;    // pin dropped coefficients to zero
      if (!use_inv) a[2][2] = 1.0;
      for (int col = 0; col < 3; ++col) {  // tiny Gauss-Jordan solve
        int piv = col;
        for (int r = col + 1; r < 3; ++r) {
          if (std::fabs(a[r][col]) > std::fabs(a[piv][col])) piv = r;
        }
        for (int cc = 0; cc < 4; ++cc) std::swap(a[col][cc], a[piv][cc]);
        for (int r = 0; r < 3; ++r) {
          if (r == col) continue;
          const double k = a[r][col] / a[col][col];
          for (int cc = col; cc < 4; ++cc) a[r][cc] -= k * a[col][cc];
        }
      }
      for (int r = 0; r < 3; ++r) c[r] = a[r][3] / a[r][r];
    };
    double c[3];
    fit(true, true, c);
    if (c[1] < 0.0) fit(false, true, c);
    if (c[2] < 0.0) fit(c[1] > 0.0, false, c);
    m.seconds_per_row = std::max(1e-12, c[0] / m.owned_rows);
    m.frontier_cost = std::max(0.0, c[1]) / m.seconds_per_row;
    m.latency_seconds = std::max(0.0, c[2]) / std::max(1, m.peers);
  }
  // Optima: strict argmin on both sides.  The fit tracks the measured
  // points, so the two argmins co-move — if the frontier really is the
  // cheaper term the model keeps riding the latency amortization to the
  // deepest candidate, exactly like the measurement.
  sw.model_depth = cluster::sstep_optimal_depth(sw.model, depths);
  sw.measured_depth =
      depths[std::min_element(best_t.begin(), best_t.end()) - best_t.begin()];
  const auto* base = find(1, "overlapped");
  double best_deep = 0.0;
  for (const auto& r : sw.records) {
    if (r.halo_depth > 1 &&
        (best_deep == 0.0 || r.seconds_per_sweep < best_deep)) {
      best_deep = r.seconds_per_sweep;
    }
  }
  sw.speedup_vs_depth1 =
      best_deep > 0.0 ? base->seconds_per_sweep / best_deep : 0.0;

  std::printf("\nmodel: %.3e s/row, %d peers/sweep, %.3e s latency, "
              "layer %.0f rows at %.2fx row cost -> optimal depth %d "
              "(measured %d)\n",
              sw.model.seconds_per_row, sw.model.peers,
              sw.model.latency_seconds, sw.model.layer_rows,
              sw.model.frontier_cost, sw.model_depth, sw.measured_depth);
  std::printf("best s>1 per-sweep speedup vs s=1 persistent+overlapped: "
              "%.3fx\n", sw.speedup_vs_depth1);
  if (sw.model_depth * 4 < sw.measured_depth * 3 ||
      sw.measured_depth * 4 < sw.model_depth * 3) {
    std::printf("WARNING: model crossover depth is more than 25%% away from "
                "the measured optimum\n");
  }
  return sw;
}

/// Times `reps` full distributed_moments solves (after one untimed warm-up
/// solve) and reports min and median of rank 0's barrier-to-barrier wall
/// clock — the collective time, including waiting for the slowest rank.
DistRecord time_dist_config(const sparse::CrsMatrix& h,
                            const physics::Scaling& s,
                            const core::MomentParams& mp, int nranks,
                            runtime::HaloTransport transport, bool overlapped,
                            int reps) {
  DistRecord rec;
  rec.ranks = nranks;
  rec.transport =
      transport == runtime::HaloTransport::persistent ? "persistent" : "staged";
  rec.mode = overlapped ? "overlapped" : "plain";
  const auto part = runtime::RowPartition::uniform(h.nrows(), nranks);
  std::vector<double> times;
  runtime::run_ranks(nranks, [&](runtime::Communicator& c) {
    runtime::DistributedMatrix dist(c, h, part, transport);
    auto solve = [&] {
      return overlapped
                 ? runtime::distributed_moments_overlapped(c, dist, s, mp)
                 : runtime::distributed_moments(c, dist, s, mp);
    };
    // Warm-up solve: grows persistent channel buffers and faults pages.
    auto res = solve();
    std::vector<double> totals{static_cast<double>(res.halo_bytes_sent),
                               static_cast<double>(dist.interior_row_count()),
                               static_cast<double>(dist.local_rows())};
    c.allreduce_sum(totals);
    if (c.rank() == 0) {
      rec.halo_bytes_per_solve = static_cast<long long>(totals[0]);
      rec.interior_fraction = totals[2] > 0 ? totals[1] / totals[2] : 1.0;
    }
    for (int rep = 0; rep < reps; ++rep) {
      c.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      res = solve();
      c.barrier();
      const auto t1 = std::chrono::steady_clock::now();
      if (c.rank() == 0) {
        times.push_back(std::chrono::duration<double>(t1 - t0).count());
      }
    }
    // Steady-state allocation audit of the persistent transport (global
    // operator new count across all rank threads; kpm_alloc_hook is linked
    // into this binary).
    if (transport == runtime::HaloTransport::persistent) {
      blas::BlockVector v(dist.extended_rows(), mp.num_random);
      dist.exchange_halo(c, v);
      c.barrier();
      const std::int64_t before = util::allocation_count();
      c.barrier();
      constexpr int kProbe = 10;
      for (int i = 0; i < kProbe; ++i) dist.exchange_halo(c, v);
      c.barrier();
      if (c.rank() == 0) {
        rec.halo_allocs_per_exchange =
            static_cast<double>(util::allocation_count() - before) / kProbe;
      }
    }
  });
  rec.seconds_min = *std::min_element(times.begin(), times.end());
  rec.seconds_median = median_of(times);
  return rec;
}

void write_halo_sweep_json(std::FILE* f, const HaloDepthSweep& sw) {
  std::fprintf(f, "  \"halo_depth_sweep\": {\n");
  std::fprintf(f,
               "    \"matrix\": {\"n\": %lld, \"nnz\": %lld},\n"
               "    \"num_moments\": %d,\n    \"width\": %d,\n"
               "    \"ranks\": %d,\n    \"reps\": %d,\n",
               sw.matrix_rows, sw.matrix_nnz, sw.num_moments, sw.width,
               sw.ranks, sw.reps);
  std::fprintf(f,
               "    \"model\": {\"seconds_per_row\": %.6e, "
               "\"latency_seconds\": %.6e, \"layer_rows\": %.1f, "
               "\"frontier_cost\": %.4f, "
               "\"peers\": %d, \"layer_bytes\": %.1f},\n",
               sw.model.seconds_per_row, sw.model.latency_seconds,
               sw.model.layer_rows, sw.model.frontier_cost, sw.model.peers,
               sw.model.layer_bytes);
  std::fprintf(f,
               "    \"model_optimal_depth\": %d,\n"
               "    \"measured_optimal_depth\": %d,\n"
               "    \"speedup_vs_depth1_overlapped\": %.4f,\n",
               sw.model_depth, sw.measured_depth, sw.speedup_vs_depth1);
  std::fprintf(f, "    \"records\": [\n");
  for (std::size_t i = 0; i < sw.records.size(); ++i) {
    const auto& r = sw.records[i];
    std::fprintf(
        f,
        "      {\"halo_depth\": %d, \"mode\": \"%s\", \"seconds_min\": %.6e, "
        "\"seconds_per_sweep\": %.6e, \"messages_per_sweep\": %.4f, "
        "\"message_rounds_per_sweep\": %.4f, \"frontier_rows_per_sweep\": "
        "%lld, \"halo_bytes_per_sweep\": %lld}%s\n",
        r.halo_depth, r.mode, r.seconds_min, r.seconds_per_sweep,
        r.messages_per_sweep, r.message_rounds_per_sweep,
        r.frontier_rows_per_sweep, r.halo_bytes_per_sweep,
        i + 1 < sw.records.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n");
}

/// Where a section writes its JSON record: KPM_BENCH_JSON if set, else the
/// committed file `committed`.  A --smoke run writes its toy-size records
/// only where KPM_BENCH_JSON points (bench_check sets it) and otherwise
/// none, so it never overwrites a committed record; "" means skip.
std::string json_path(const char* committed, bool smoke) {
  const char* path_env = std::getenv("KPM_BENCH_JSON");
  if (path_env != nullptr) return path_env;
  if (smoke) {
    std::printf("\n[smoke] %s not rewritten (set KPM_BENCH_JSON to write "
                "the toy-size records)\n",
                committed);
    return {};
  }
  return committed;
}

void write_dist_json(const sparse::CrsMatrix& h, const core::MomentParams& mp,
                     int reps, const std::vector<DistRecord>& records,
                     const HaloDepthSweep& sweep, bool smoke) {
  const std::string path = json_path("BENCH_dist.json", smoke);
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig12_scaling\",\n");
  bench::write_env_json(f);
  std::fprintf(f, "  \"section\": \"measured_distributed\",\n");
  std::fprintf(f,
               "  \"matrix\": {\"model\": \"topological_insulator\", "
               "\"n\": %lld, \"nnz\": %lld},\n",
               static_cast<long long>(h.nrows()),
               static_cast<long long>(h.nnz()));
  std::fprintf(f, "  \"num_moments\": %d,\n  \"width\": %d,\n", mp.num_moments,
               mp.num_random);
  std::fprintf(f, "  \"reps\": %d,\n  \"threads\": %d,\n", reps,
               max_threads());
  std::fprintf(f, "  \"records\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(
        f,
        "    {\"ranks\": %d, \"transport\": \"%s\", \"mode\": \"%s\", "
        "\"seconds_min\": %.6e, \"seconds_median\": %.6e, "
        "\"halo_bytes_per_solve\": %lld, \"halo_allocs_per_exchange\": %.1f, "
        "\"interior_fraction\": %.4f}%s\n",
        r.ranks, r.transport, r.mode, r.seconds_min, r.seconds_median,
        r.halo_bytes_per_solve, r.halo_allocs_per_exchange,
        r.interior_fraction, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  write_halo_sweep_json(f, sweep);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

/// Measured (not modeled) scaling of the distributed solver with in-process
/// ranks: the staged configuration is the pre-existing main path;
/// persistent channels and the overlapped sweep are the optimizations under
/// test.  Every cell is min/median of `reps`
/// full solves after one untimed warm-up solve.
void measured_distributed_section(bool smoke) {
  const auto env_or = [](const char* name, int fallback) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::atoi(v) : fallback;
  };
  const auto h = bench::benchmark_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = env_or("KPM_BENCH_DIST_M", 32);
  mp.num_random = env_or("KPM_BENCH_DIST_R", 8);
  const int reps = env_or("KPM_BENCH_DIST_REPS", 5);

  // --smoke (bench_check): only the halo-depth sweep, whose per-sweep
  // structural counters are rep-count independent, plus the empty main grid.
  if (smoke) {
    write_dist_json(h, mp, reps, {}, halo_depth_section(true), true);
    return;
  }

  std::printf("\n=== measured: in-process ranks, N = %lld, M = %d, R = %d, "
              "min/median of %d solves ===\n",
              static_cast<long long>(h.nrows()), mp.num_moments, mp.num_random,
              reps);
  std::printf("%5s %-10s %-10s %12s %12s %12s %9s %9s\n", "ranks",
              "transport", "mode", "min[s]", "median[s]", "halo[B]",
              "alloc/xch", "interior");
  std::vector<DistRecord> records;
  auto run = [&](int nranks, runtime::HaloTransport t, bool overlapped) {
    records.push_back(time_dist_config(h, s, mp, nranks, t, overlapped, reps));
    const auto& r = records.back();
    std::printf("%5d %-10s %-10s %12.5f %12.5f %12lld %9.1f %9.4f\n",
                r.ranks, r.transport, r.mode, r.seconds_min, r.seconds_median,
                r.halo_bytes_per_solve, r.halo_allocs_per_exchange,
                r.interior_fraction);
  };
  for (const int nranks : {1, 2, 4, 8}) {
    run(nranks, runtime::HaloTransport::staged, false);
    run(nranks, runtime::HaloTransport::persistent, false);
    run(nranks, runtime::HaloTransport::persistent, true);
  }
  // Headline: at the widest rank count the fully optimized configuration
  // (persistent + overlapped) vs the pre-existing staged main path.
  const auto find = [&](int ranks, const char* transport,
                        const char* mode) -> const DistRecord* {
    for (const auto& r : records) {
      if (r.ranks == ranks && std::string(r.transport) == transport &&
          std::string(r.mode) == mode) {
        return &r;
      }
    }
    return nullptr;
  };
  const auto* base = find(8, "staged", "plain");
  const auto* best = find(8, "persistent", "overlapped");
  if (base != nullptr && best != nullptr) {
    std::printf("\n8 ranks: persistent+overlapped %.5fs vs staged main "
                "path %.5fs -> speedup %.3fx\n",
                best->seconds_min, base->seconds_min,
                base->seconds_min / best->seconds_min);
  }
  write_dist_json(h, mp, reps, records, halo_depth_section(false), false);
}

// --- Elastic runtime section (--elastic) ------------------------------------

/// One fault scenario of the elastic section.
struct ElasticRecord {
  const char* scenario = "";
  int halo_depth = 1;
  double seconds = 0.0;
  /// 1 when every final moment equals the uninterrupted run's bit for bit;
  /// -1 when the scenario's contract is accuracy, not bitwise equality.
  int bitwise_equal = -1;
  double max_abs_dev_vs_serial = 0.0;
  int deterministic = -1;  ///< two identical runs agree bit for bit
  runtime::ElasticReport report;
};

int bitwise(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t m = 0; m < a.size(); ++m) {
    if (a[m] != b[m]) return 0;
  }
  return 1;
}

void write_elastic_json(const sparse::CrsMatrix& h, const core::MomentParams& mp,
                        int ranks, int chunk_sweeps,
                        const std::vector<ElasticRecord>& records,
                        bool smoke) {
  const std::string path = json_path("BENCH_elastic.json", smoke);
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig12_scaling\",\n");
  bench::write_env_json(f);
  std::fprintf(f, "  \"section\": \"elastic_runtime\",\n");
  std::fprintf(f,
               "  \"matrix\": {\"model\": \"topological_insulator\", "
               "\"n\": %lld, \"nnz\": %lld},\n",
               static_cast<long long>(h.nrows()),
               static_cast<long long>(h.nnz()));
  std::fprintf(f, "  \"num_moments\": %d,\n  \"width\": %d,\n", mp.num_moments,
               mp.num_random);
  std::fprintf(f, "  \"ranks\": %d,\n  \"chunk_sweeps\": %d,\n", ranks,
               chunk_sweeps);
  std::fprintf(f, "  \"records\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"halo_depth\": %d, "
        "\"seconds\": %.6e, "
        "\"bitwise_equal\": %d, \"max_abs_dev_vs_serial\": %.3e, "
        "\"deterministic\": %d, \"epochs\": %d, \"chunks_committed\": %d, "
        "\"failures_recovered\": %d, \"leaves\": %d, \"joins\": %d, "
        "\"speculations\": %d, \"speculation_wins\": %d, "
        "\"checkpoints_written\": %d, \"final_ranks\": %d, "
        "\"repartitions\": %d}%s\n",
        r.scenario, r.halo_depth, r.seconds, r.bitwise_equal,
        r.max_abs_dev_vs_serial,
        r.deterministic, r.report.epochs, r.report.chunks_committed,
        r.report.failures_recovered, r.report.leaves, r.report.joins,
        r.report.speculations, r.report.speculation_wins,
        r.report.checkpoints_written, r.report.final_ranks,
        static_cast<int>(r.report.schedule.size()),
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

/// Measured elasticity of the fault-tolerant runtime: a rank is killed
/// mid-solve and a replacement joins on the same partition (bitwise-equal
/// moments), a checkpointed solve restarts in a fresh runtime (bitwise), a
/// straggling rank races the speculative shadow executor (bitwise, shadow
/// wins chunks), and a leave + join reshapes the partition mid-solve
/// (serial-accurate and run-to-run deterministic).
void elastic_section(bool smoke) {
  const auto env_or = [](const char* name, int fallback) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::atoi(v) : fallback;
  };
  const auto h = smoke ? bench::benchmark_matrix(12, 12, 8)
                       : bench::benchmark_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = env_or("KPM_BENCH_ELASTIC_M", smoke ? 24 : 64);
  mp.num_random = env_or("KPM_BENCH_ELASTIC_R", smoke ? 2 : 8);
  const int ranks = 4;
  runtime::ElasticOptions base;
  base.chunk_sweeps = 4;
  base.speculate = false;
  const int steps = mp.num_moments / 2;

  std::printf("\n=== elastic runtime: N = %lld, M = %d, R = %d, %d ranks, "
              "chunks of %d sweeps ===\n",
              static_cast<long long>(h.nrows()), mp.num_moments, mp.num_random,
              ranks, base.chunk_sweeps);
  std::vector<ElasticRecord> records;
  const auto timed = [&](const runtime::ElasticOptions& opts, int nranks) {
    const auto t0 = std::chrono::steady_clock::now();
    auto res = runtime::ElasticRuntime(h, s, mp, opts).run(nranks);
    const auto t1 = std::chrono::steady_clock::now();
    return std::pair(std::move(res),
                     std::chrono::duration<double>(t1 - t0).count());
  };

  // 1. Uninterrupted reference.
  auto [clean, clean_s] = timed(base, ranks);
  records.push_back({"uninterrupted", 1, clean_s, -1, 0.0, -1, clean.report});

  // 2. A rank dies mid-chunk; a replacement joins on the same partition.
  {
    runtime::ElasticOptions opts = base;
    opts.events.push_back(
        {runtime::ElasticEvent::Kind::fail, steps / 2, /*rank=*/1});
    auto [res, secs] = timed(opts, ranks);
    records.push_back({"kill_replace", 1, secs, bitwise(res.mu, clean.mu),
                       0.0, -1, res.report});
  }

  // 3. Checkpoint at every chunk commit, stop mid-solve, resume in a fresh
  //    runtime from the file alone.
  {
    const std::string ckpt = "bench_elastic.ckpt";
    std::remove(ckpt.c_str());
    runtime::ElasticOptions first = base;
    first.checkpoint_path = ckpt;
    first.stop_after_sweep = steps / 2;
    auto [half, half_s] = timed(first, ranks);
    runtime::ElasticOptions second = base;
    second.checkpoint_path = ckpt;
    second.resume = true;
    auto [res, secs] = timed(second, ranks);
    std::remove(ckpt.c_str());
    auto rep = res.report;
    rep.checkpoints_written += half.report.checkpoints_written;
    records.push_back({"checkpoint_restart", 1, half_s + secs,
                       bitwise(res.mu, clean.mu), 0.0, -1, rep});
  }

  // 4. One rank straggles; the shadow executor races it chunk for chunk.
  {
    runtime::ElasticOptions opts = base;
    opts.speculate = true;
    opts.straggle_threshold = 1.5;
    runtime::ElasticEvent ev{runtime::ElasticEvent::Kind::straggle,
                             /*sweep=*/0, /*rank=*/ranks - 1};
    // Large enough that the injected wall-clock sleep dominates the shadow
    // executor's serial chunk re-execution (incl. its local-plan setup) at
    // the full bench size, so the speculation genuinely wins chunks.
    ev.slowdown = 60.0;
    opts.events.push_back(ev);
    auto [res, secs] = timed(opts, ranks);
    records.push_back({"straggler_speculation", 1, secs,
                       bitwise(res.mu, clean.mu), 0.0, -1, res.report});
  }

  // 5. Scale in then out: a leave and a join reshape the partition, so the
  //    contract is serial accuracy plus run-to-run determinism.
  {
    runtime::ElasticOptions opts = base;
    opts.events.push_back(
        {runtime::ElasticEvent::Kind::leave, steps / 3, /*rank=*/1});
    opts.events.push_back(
        {runtime::ElasticEvent::Kind::join, (2 * steps) / 3, /*rank=*/0});
    auto [res, secs] = timed(opts, ranks);
    auto [res2, secs2] = timed(opts, ranks);
    (void)secs2;
    const auto serial = core::moments_aug_spmmv(h, s, mp);
    double dev = 0.0;
    for (std::size_t m = 0; m < serial.mu.size(); ++m) {
      dev = std::max(dev, std::abs(res.mu[m] - serial.mu[m]));
    }
    records.push_back({"scale_in_out", 1, secs, -1, dev,
                       bitwise(res.mu, res2.mu), res.report});
  }

  // 6. Communication-avoiding rounds (halo_depth = 2, DESIGN §5j) under the
  //    kill + replace fault: the depth-s ghost zones must not break the
  //    bitwise recovery contract.  A loss here exits non-zero below.
  {
    runtime::ElasticOptions opts = base;
    opts.halo_depth = 2;
    opts.events.push_back(
        {runtime::ElasticEvent::Kind::fail, steps / 2, /*rank=*/1});
    auto [res, secs] = timed(opts, ranks);
    records.push_back({"sstep_kill_replace", opts.halo_depth, secs,
                       bitwise(res.mu, clean.mu), 0.0, -1, res.report});
  }

  std::printf("%-22s %5s %10s %8s %7s %7s %6s %6s %6s %5s %12s\n",
              "scenario", "depth", "sec", "bitwise", "epochs", "chunks",
              "fails", "spec", "wins", "ranks", "dev-serial");
  for (const auto& r : records) {
    std::printf("%-22s %5d %10.4f %8d %7d %7d %6d %6d %6d %5d %12.3e\n",
                r.scenario, r.halo_depth, r.seconds, r.bitwise_equal,
                r.report.epochs,
                r.report.chunks_committed, r.report.failures_recovered,
                r.report.speculations, r.report.speculation_wins,
                r.report.final_ranks, r.max_abs_dev_vs_serial);
  }
  for (const auto& r : records) {
    if (r.bitwise_equal == 0) {
      std::printf("FAILED: scenario %s was not bitwise-equal to the "
                  "uninterrupted run\n", r.scenario);
      std::exit(1);
    }
    if (r.deterministic == 0) {
      std::printf("FAILED: scenario %s was not deterministic across runs\n",
                  r.scenario);
      std::exit(1);
    }
  }
  write_elastic_json(h, mp, ranks, base.chunk_sweeps, records, smoke);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kpm;
  bool elastic = false, smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--elastic") {
      elastic = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--elastic] [--smoke]\n", argv[0]);
      return 2;
    }
  }
  if (elastic) {
    elastic_section(smoke);
    return 0;
  }
  // Standalone --smoke (the bench_check CI tool): only the halo-depth sweep,
  // whose structural counters must reproduce the committed BENCH_dist.json.
  if (smoke) {
    measured_distributed_section(true);
    return 0;
  }
  const auto node = cluster::piz_daint_node();
  const cluster::NetworkSpec net;
  cluster::RunParams run;  // R = 32, M = 2000, aug_spmmv, reduce at end

  auto print_series = [](const char* title,
                         const std::vector<cluster::ScalingPoint>& series) {
    std::printf("\n--- %s ---\n", title);
    Table t;
    t.columns({"nodes", "domain", "grid", "Tflop/s", "par.eff."});
    for (const auto& p : series) {
      char domain[48], grid[24];
      std::snprintf(domain, sizeof(domain), "%lldx%lldx%lld", p.domain.nx,
                    p.domain.ny, p.domain.nz);
      std::snprintf(grid, sizeof(grid), "%dx%d", p.grid_x, p.grid_y);
      t.row({static_cast<long long>(p.nodes), std::string(domain),
             std::string(grid), p.tflops, p.parallel_efficiency});
    }
    t.precision(4);
    t.print(std::cout);
  };

  std::printf("=== Fig. 12: scaling on the Piz Daint model (R=32, M=2000) "
              "===\n");
  print_series("weak scaling, Square (fixed Nz=40, growing tile)",
               cluster::weak_scaling(node, net, run, cluster::ScalingCase::square,
                                     1024));
  print_series("weak scaling, Bar (fixed Ny=100, Nz=40, growing Nx)",
               cluster::weak_scaling(node, net, run, cluster::ScalingCase::bar,
                                     1024));
  print_series(
      "strong scaling, Square 400x400x40 (first weak-scaling point at 4 nodes)",
      cluster::strong_scaling(node, net, run, cluster::ScalingCase::square,
                              {400, 400, 40}, 256));
  print_series(
      "strong scaling, Bar 800x100x40",
      cluster::strong_scaling(node, net, run, cluster::ScalingCase::bar,
                              {800, 100, 40}, 128));

  // Outlook optimization (paper Sec. VII): pipelined GPU-CPU-MPI halo
  // exchange — PCIe downloads overlap with network transfers.
  cluster::NetworkSpec piped = net;
  piped.pipelined_halo = true;
  print_series("weak scaling, Square, PIPELINED halo (paper outlook)",
               cluster::weak_scaling(node, piped, run,
                                     cluster::ScalingCase::square, 1024));

  const auto last = cluster::weak_scaling(node, net, run,
                                          cluster::ScalingCase::square, 1024)
                        .back();
  std::printf("\nlargest system: %lld x %lld x %lld -> N = %.3g rows, "
              "%.1f Tflop/s on %d nodes (paper: >100 Tflop/s, N > 6.5e9)\n",
              last.domain.nx, last.domain.ny, last.domain.nz,
              last.domain.dimension(), last.tflops, last.nodes);

  measured_distributed_section(false);
  return 0;
}
