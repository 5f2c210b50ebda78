// elastic_ckpt: ElasticRuntime on 2 ranks at halo depth 2, writing a
// checkpoint to the benchmark's scratch directory at every chunk commit, with
// one injected rank failure and replacement mid-chunk.  The only workload
// that measures checkpoint I/O, rollback and the s-step round loop.  Every
// run must be bitwise equal to an uninterrupted distributed_moments at the
// same depth and partition.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <optional>

#include "bench.hpp"
#include "core/moments.hpp"
#include "runtime/comm.hpp"
#include "runtime/dist_kpm.hpp"
#include "runtime/dist_matrix.hpp"
#include "runtime/elastic.hpp"

namespace perfbench {

namespace {

namespace rt = kpm::runtime;

constexpr int kRanks = 2;
constexpr int kDepth = 2;

struct Size {
  int nx, ny, nz;
  int width;
  int num_moments;
  int chunk_sweeps;  ///< a multiple of kDepth
  int fail_sweep;    ///< rank 1 fails here, mid-chunk
};
// 32 x 32 x 16 sites at R = 8: each checkpoint holds |v> and |w>, about
// 16.8 MB, and M = 512 in chunks of 128 sweeps gives 2 chunk commits.  The
// failure comes after the first commit.  The checkpoints go through the page
// cache of a disk that other processes share; long chunks keep their writes a
// minor share of the run, which makes the run repeatable.
constexpr Size kFull{32, 32, 16, 4, 512, 128, 139};
constexpr Size kToy{6, 6, 4, 4, 32, 4, 11};

}  // namespace

void run_elastic_ckpt(const Options& o, Tracer& t, Result& r) {
  const Size z = o.toy ? kToy : kFull;
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
  r.note("rows", static_cast<double>(op.h.nrows()));

  kpm::core::MomentParams p;
  p.num_moments = z.num_moments;
  p.num_random = z.width;
  p.seed = o.seed;

  // Uninterrupted reference on the same partition and depth.
  std::array<double, kRanks> ctor{};
  std::vector<double> reference;
  {
    rt::MessageHub hub(kRanks);
    const auto part = rt::RowPartition::uniform(op.h.nrows(), kRanks);
    rt::DistMatrixOptions dopts;
    dopts.halo_depth = kDepth;
    rt::run_ranks(hub, [&](rt::Communicator& c) {
      const auto k = static_cast<std::size_t>(c.rank());
      std::optional<rt::DistributedMatrix> dist;
      {
        Tracer::Scope span(t, "runtime.dist.DistributedMatrix");
        const double t0 = now_s();
        dist.emplace(c, op.h, part, dopts);
        ctor[k] = now_s() - t0;
      }
      Tracer::Scope span(t, "runtime.dist.distributed_moments");
      auto res = rt::distributed_moments(c, *dist, op.scaling, p);
      if (k == 0) reference = std::move(res.mu);
    });
  }

  r.operation(bounded(reference), "elastic_ckpt: moments exceed 1");

  const std::string ckpt = o.tmpdir + "/ckpt-elastic-" +
                           std::to_string(::getpid()) + ".bin";
  rt::ElasticEvent fail;
  fail.kind = rt::ElasticEvent::Kind::fail;
  fail.sweep = z.fail_sweep;
  fail.rank = 1;
  fail.replace = true;

  rt::ElasticReport report;
  double ckpt_bytes = 0.0;
  const auto run = [&](bool checkpoint) {
    rt::ElasticOptions eo;
    eo.chunk_sweeps = z.chunk_sweeps;
    eo.halo_depth = kDepth;
    eo.events = {fail};
    // A spurious straggler verdict on a shared host would launch shadow
    // executors and change the work done; the workload measures recovery.
    eo.speculate = false;
    if (checkpoint) eo.checkpoint_path = ckpt;
    Tracer::Scope span(t, "runtime.elastic.run");
    const double t0 = now_s();
    rt::ElasticResult res =
        rt::ElasticRuntime(op.h, op.scaling, p, eo).run(kRanks);
    const double dt = now_s() - t0;
    // One commit, and with a path one checkpoint, per chunk; the failed
    // chunk is rolled back before its commit.
    const int chunks = z.num_moments / 2 / z.chunk_sweeps;
    r.operation(bitwise_equal(res.mu, reference) &&
                    res.report.failures_recovered == 1 &&
                    res.report.epochs == 2 &&
                    res.report.checkpoints_written == (checkpoint ? chunks : 0),
                "elastic_ckpt: run differs from the uninterrupted solve");
    report = res.report;
    if (checkpoint) {
      ckpt_bytes = static_cast<double>(std::filesystem::file_size(ckpt));
    }
    return dt;
  };

  const auto run_ckpt = [&] { return run(true); };
  warm_up(o, run_ckpt);
  const Phase ph = timed_phase(o, t, run_ckpt);
  const rt::ElasticReport with_ckpt = report;
  std::vector<double> no_ckpt;
  if (o.trace) no_ckpt = timed_loop(o.seconds / 4, [&] { return run(false); });
  std::filesystem::remove(ckpt);

  EndToEnd e;
  e.setup_s = median(setup);
  e.unit_s = ph.all();
  e.job_latency_s = e.unit_s;
  // Useful single-vector steps: R lanes times M/2 sweeps per solve; the
  // sweeps the failure forces to be recomputed are not counted.
  e.vec_sweeps = static_cast<double>(z.width) * (z.num_moments / 2) *
                 static_cast<double>(e.unit_s.size());
  e.timed_s = ph.seconds();
  report_end_to_end(e, r);
  if (!o.trace) return;

  const int checkpoints = with_ckpt.checkpoints_written;
  report_trace_overhead(ph, r);
  r.set("physics.build_s", median(build), "s");
  r.set("physics.bounds_s", median(bounds), "s");
  r.set("runtime.dist.ctor_s", *std::max_element(ctor.begin(), ctor.end()),
        "s");
  r.set("runtime.elastic.checkpoints", checkpoints, "count");
  r.set("runtime.elastic.checkpoint_bytes", ckpt_bytes, "B");
  r.set("runtime.elastic.checkpoint_s",
        (median(ph.all()) - median(no_ckpt)) / std::max(checkpoints, 1), "s");
  r.set("runtime.elastic.epochs", with_ckpt.epochs, "count");
  // Computed from the fault plan: the failed chunk restarts at its first
  // sweep, so the sweeps it had done before the failure run twice.
  r.set("runtime.elastic.recomputed_sweeps", z.fail_sweep % z.chunk_sweeps,
        "count");
  report_kernel_layers(
      kernel_probe(op.h, op.scaling, z.width, o.toy ? 0.05 : 0.5, t), bw, r);
}

}  // namespace perfbench
