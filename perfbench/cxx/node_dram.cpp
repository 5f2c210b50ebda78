// node_dram: one rank, 2 OpenMP threads, blocked KPM on a TI slab whose
// matrix plus both block vectors are several times the last-level cache —
// the memory-bound regime of paper Figs. 7-8.  The fused sparse kernel and
// core's SweepSession do nearly all the work; runtime and service are
// bypassed.
#include <cmath>

#include "bench.hpp"
#include "core/moments.hpp"

namespace perfbench {

namespace {

struct Size {
  int nx, ny, nz;
  int width;        ///< R
  int num_moments;  ///< M
};
// 48 x 48 x 40 sites: N = 368,640 rows, about 470 MB of matrix + v + w.
constexpr Size kFull{48, 48, 40, 32, 32};
constexpr Size kToy{8, 8, 4, 4, 16};
/// mu_0 = <v|v> of normalized start vectors, summed over N rows.
constexpr double kMu0Tolerance = 1e-9;

}  // namespace

void run_node_dram(const Options& o, Tracer& t, Result& r) {
  const Size z = o.toy ? kToy : kFull;
  const HostInfo host = host_info();
  const StreamResult bw = stream_probe(o);

  Operator op;
  std::vector<double> build, bounds, setup;
  repeat_setup([&] {
    op = Operator{};
    op = build_operator(ti_params(z.nx, z.ny, z.nz, o.seed), o.seed, t);
    build.push_back(op.build_s);
    bounds.push_back(op.bounds_s);
    setup.push_back(op.build_s + op.bounds_s);
  });
  const double n = static_cast<double>(op.h.nrows());
  const double working_set = op.h.storage_bytes() + 2.0 * n * z.width * 16.0;
  r.note("rows", n);
  r.note("working_set_mib", working_set / (1 << 20));
  r.note("working_set_over_llc", working_set / host.llc_bytes);

  kpm::core::MomentParams p;
  p.num_moments = z.num_moments;
  p.num_random = z.width;
  p.seed = o.seed;

  // The untimed reference solve is also the warm-up: it touches the whole
  // working set.  Every timed solve must reproduce its bits.
  const kpm::core::MomentsResult ref =
      kpm::core::moments_aug_spmmv(op.h, op.scaling, p);
  r.operation(std::abs(ref.mu[0] - 1.0) <= kMu0Tolerance && bounded(ref.mu),
              "node_dram: mu_0 != 1 or moments exceed 1");

  const auto solve = [&] {
    Tracer::Scope span(t, "core.moments_aug_spmmv");
    const double t0 = now_s();
    const auto res = kpm::core::moments_aug_spmmv(op.h, op.scaling, p);
    const double dt = now_s() - t0;
    r.operation(bitwise_equal(res.mu, ref.mu),
                "node_dram: solve differs from the reference solve");
    return dt;
  };
  const Phase ph = timed_phase(o, t, solve);

  EndToEnd e;
  e.setup_s = median(setup);
  e.unit_s = ph.all();
  e.job_latency_s = e.unit_s;
  e.vec_sweeps = static_cast<double>(ref.ops.spmv_equivalents) *
                 static_cast<double>(e.unit_s.size());
  e.timed_s = ph.seconds();
  report_end_to_end(e, r);
  if (!o.trace) return;

  report_trace_overhead(ph, r);
  r.set("physics.build_s", median(build), "s");
  r.set("physics.bounds_s", median(bounds), "s");
  r.set("core.matrix_streams", static_cast<double>(ref.ops.matrix_streams),
        "count");
  report_kernel_layers(
      kernel_probe(op.h, op.scaling, z.width, o.toy ? 0.05 : 1.0, t), bw, r);
}

}  // namespace perfbench
