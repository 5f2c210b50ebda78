// dist_halo: two in-process ranks of one thread each run the plain
// distributed_moments loop at halo depth 1 on a thin TI slab, so halo
// pack/exchange is a visible share of every sweep.  Audited against the
// serial moments_aug_spmmv, which also gives the parallel-efficiency base.
#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "bench.hpp"
#include "core/moments.hpp"
#include "runtime/comm.hpp"
#include "runtime/dist_kpm.hpp"
#include "runtime/dist_matrix.hpp"

namespace perfbench {

namespace {

namespace rt = kpm::runtime;

constexpr int kRanks = 2;
/// Distributed and serial moments differ only in reduction order.
constexpr double kTolerance = 1e-10;

struct Size {
  int nx, ny, nz;
  int width;
  int num_moments;
};
constexpr Size kFull{32, 32, 16, 32, 128};
constexpr Size kToy{6, 6, 4, 4, 16};

using Dist = std::array<std::optional<rt::DistributedMatrix>, kRanks>;

/// Builds every rank's DistributedMatrix (collective); returns the slowest
/// rank's constructor seconds.
double construct(rt::MessageHub& hub, const kpm::sparse::CrsMatrix& h,
                 Dist& dist, Tracer& t) {
  const auto part = rt::RowPartition::uniform(h.nrows(), kRanks);
  std::array<double, kRanks> secs{};
  const int parent = t.begin("runtime.dist.construct");
  rt::run_ranks(hub, [&](rt::Communicator& c) {
    Tracer::Scope span(t, "runtime.dist.DistributedMatrix", parent);
    const double t0 = now_s();
    dist[static_cast<std::size_t>(c.rank())].emplace(c, h, part);
    secs[static_cast<std::size_t>(c.rank())] = now_s() - t0;
  });
  t.end(parent);
  return *std::max_element(secs.begin(), secs.end());
}

}  // namespace

void run_dist_halo(const Options& o, Tracer& t, Result& r) {
  const Size z = o.toy ? kToy : kFull;
  const StreamResult bw = stream_probe(o);

  Operator op;
  std::vector<double> build, bounds, ctor, setup;
  repeat_setup([&] {
    op = Operator{};
    op = build_operator(ti_params(z.nx, z.ny, z.nz, o.seed), o.seed, t);
    rt::MessageHub hub(kRanks);
    Dist dist;
    const double c = construct(hub, op.h, dist, t);
    build.push_back(op.build_s);
    bounds.push_back(op.bounds_s);
    ctor.push_back(c);
    setup.push_back(op.build_s + op.bounds_s + c);
  });
  r.note("rows", static_cast<double>(op.h.nrows()));

  kpm::core::MomentParams p;
  p.num_moments = z.num_moments;
  p.num_random = z.width;
  p.seed = o.seed;

  // Serial one-thread reference: audit target and efficiency baseline.
  double serial_s = now_s();
  kpm::core::MomentsResult serial;
  {
    Tracer::Scope span(t, "core.moments_aug_spmmv");
    serial = kpm::core::moments_aug_spmmv(op.h, op.scaling, p);
  }
  serial_s = now_s() - serial_s;
  r.operation(bounded(serial.mu), "dist_halo: serial moments exceed 1");

  rt::MessageHub hub(kRanks);
  Dist dist;
  (void)construct(hub, op.h, dist, t);

  std::array<rt::DistMomentsResult, kRanks> res;
  std::array<double, kRanks> rank_s{};
  std::vector<double> rank_max, rank_min;
  std::int64_t messages = 0, halo_bytes = 0, reduction_bytes = 0;
  double max_dev = 0.0;
  const auto solve = [&] {
    const std::int64_t m0 = hub.messages_sent();
    const std::int64_t b0 = hub.bytes_sent();
    const std::int64_t rb0 = hub.reduction_bytes_sent();
    Tracer::Scope group(t, "runtime.dist.solve");
    const double t0 = now_s();
    rt::run_ranks(hub, [&](rt::Communicator& c) {
      const auto k = static_cast<std::size_t>(c.rank());
      Tracer::Scope span(t, "runtime.dist.distributed_moments", group.id());
      const double r0 = now_s();
      res[k] = rt::distributed_moments(c, *dist[k], op.scaling, p);
      rank_s[k] = now_s() - r0;
    });
    const double wall = now_s() - t0;
    messages = hub.messages_sent() - m0;
    halo_bytes = hub.bytes_sent() - b0;
    reduction_bytes = hub.reduction_bytes_sent() - rb0;
    double dev = 0.0;
    for (const auto& x : res) {
      for (std::size_t m = 0; m < serial.mu.size(); ++m) {
        dev = std::max(dev, std::abs(x.mu.at(m) - serial.mu[m]));
      }
    }
    max_dev = std::max(max_dev, dev);
    r.operation(dev <= kTolerance, "dist_halo: moments deviate from serial");
    rank_max.push_back(*std::max_element(rank_s.begin(), rank_s.end()));
    rank_min.push_back(*std::min_element(rank_s.begin(), rank_s.end()));
    return wall;
  };
  warm_up(o, solve);
  rank_max.clear();
  rank_min.clear();
  const Phase ph = timed_phase(o, t, solve);

  const double sweeps = static_cast<double>(res[0].ops.matrix_streams);
  EndToEnd e;
  e.setup_s = median(setup);
  e.unit_s = ph.all();
  e.job_latency_s = e.unit_s;
  e.vec_sweeps = static_cast<double>(serial.ops.spmv_equivalents) *
                 static_cast<double>(e.unit_s.size());
  e.timed_s = ph.seconds();
  report_end_to_end(e, r);
  r.note("serial_solve_s", serial_s);
  r.note("tolerance_vs_serial", kTolerance);
  r.note("max_deviation_vs_serial", max_dev);
  if (!o.trace) return;

  // One depth-1 halo exchange at the solve's width, timed on rank 0.
  std::vector<double> exchange;
  rt::run_ranks(hub, [&](rt::Communicator& c) {
    const auto k = static_cast<std::size_t>(c.rank());
    kpm::blas::BlockVector v(dist[k]->extended_rows(), z.width);
    v.fill({1.0, 0.0});
    for (int i = 0; i < 50; ++i) {
      c.barrier();
      Tracer::Scope span(t, "runtime.comm.exchange_halo");
      const double t0 = now_s();
      dist[k]->exchange_halo(c, v);
      if (k == 0) exchange.push_back(now_s() - t0);
    }
  });

  report_trace_overhead(ph, r);
  r.set("physics.build_s", median(build), "s");
  r.set("physics.bounds_s", median(bounds), "s");
  r.set("core.matrix_streams", sweeps, "count");
  r.set("runtime.dist.ctor_s", median(ctor), "s");
  r.set("runtime.dist.rank_solve_max_s", median(rank_max), "s");
  r.set("runtime.dist.rank_solve_min_s", median(rank_min), "s");
  r.set("runtime.dist.parallel_efficiency",
        serial_s / (kRanks * median(e.unit_s)), "ratio");
  r.set("runtime.comm.messages_per_sweep", messages / sweeps, "count");
  r.set("runtime.comm.halo_bytes_per_sweep", halo_bytes / sweeps, "B");
  r.set("runtime.comm.reduction_bytes", static_cast<double>(reduction_bytes),
        "B");
  r.set("runtime.comm.exchange_s", median(exchange), "s");
  report_kernel_layers(
      kernel_probe(op.h, op.scaling, z.width, o.toy ? 0.05 : 0.5, t), bw, r);
}

}  // namespace perfbench
