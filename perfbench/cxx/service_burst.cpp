// service_burst: a one-thread closed-loop client drives KpmService (2
// workers, 1 OpenMP thread each) with bursts of job rounds.  Each round is
// admitted between pause() and resume(), so the coalescer always sees the
// whole round and cuts the same batches on every run.  Rounds mix fresh
// seeds (sweeps that fill the result cache), repeats of earlier rounds'
// requests (cache reads) and two moment counts (early finishers compact the
// batch).  The operator is small enough to stay in cache, so the same fused
// kernel as node_dram runs here in-cache.
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "core/moments.hpp"
#include "service/service.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace {

namespace svc = kpm::service;

constexpr int kWorkers = 2;
constexpr int kBatchWidth = 32;
constexpr int kChunkMoments = 64;
const std::string kModel = "ti-burst";

struct Size {
  int nx, ny, nz;
  int lanes;          ///< R per job
  int moments_long;   ///< M of even-positioned jobs
  int moments_short;  ///< M of odd-positioned jobs (finish early)
  int rounds;         ///< rounds per burst
  int jobs;           ///< jobs per round
  int repeats;        ///< of those, repeats of an earlier round (round >= 1)
};
// 8 x 8 x 8 sites: N = 2,048 rows, about 0.5 MB of matrix and 1 MB per
// block vector at the batch width.  A burst is 4 rounds of 32 jobs.
constexpr Size kFull{8, 8, 8, 4, 256, 128, 4, 32, 8};
constexpr Size kToy{4, 4, 2, 4, 32, 16, 2, 8, 2};

struct Counters {
  long long batches, sweep_steps, lanes_swept, solo_steps, cache_hits,
      submitted;
};

Counters counters(const svc::ServiceStats& s) {
  return {s.batches,    s.sweep_steps, s.lanes_swept,
          s.solo_steps, s.cache_hits,  s.submitted};
}

Counters operator-(const Counters& a, const Counters& b) {
  return {a.batches - b.batches,         a.sweep_steps - b.sweep_steps,
          a.lanes_swept - b.lanes_swept, a.solo_steps - b.solo_steps,
          a.cache_hits - b.cache_hits,   a.submitted - b.submitted};
}

bool operator==(const Counters& a, const Counters& b) {
  return std::memcmp(&a, &b, sizeof(Counters)) == 0;
}

struct Sampled {
  std::shared_ptr<svc::Job> job;
  std::shared_ptr<svc::Job> original;  ///< for cache hits: the first answer
};

}  // namespace

void run_service_burst(const Options& o, Tracer& t, Result& r) {
  const Size z = o.toy ? kToy : kFull;
  const StreamResult bw = stream_probe(o);

  svc::ServiceConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.max_batch_width = kBatchWidth;
  cfg.chunk_moments = kChunkMoments;
  cfg.cache_bytes = std::size_t{256} << 20;  // no eviction within a run

  Operator op;
  std::unique_ptr<svc::KpmService> service;
  std::vector<double> build, bounds, reg, setup;
  repeat_setup([&] {
    service.reset();
    op = Operator{};
    op = build_operator(ti_params(z.nx, z.ny, z.nz, o.seed), o.seed, t);
    service = std::make_unique<svc::KpmService>(cfg);
    const double t0 = now_s();
    {
      Tracer::Scope span(t, "service.register_model");
      service->register_model(kModel, op.h, op.scaling);
    }
    reg.push_back(now_s() - t0);
    build.push_back(op.build_s);
    bounds.push_back(op.bounds_s);
    setup.push_back(op.build_s + op.bounds_s + reg.back());
  });
  r.note("rows", static_cast<double>(op.h.nrows()));

  // Job seeds come from the run seed, the burst and the position, so every
  // burst asks fresh questions and repeats only its own earlier answers.
  const auto job_seed = [&](long long burst, int round, int j) {
    return o.seed * 1000003ULL + static_cast<std::uint64_t>(burst) * 4099ULL +
           static_cast<std::uint64_t>(round) * 97ULL +
           static_cast<std::uint64_t>(j);
  };
  std::vector<double> latencies, first_chunk;
  std::vector<Sampled> sampled;
  std::vector<Counters> per_burst;
  long long burst_index = 0;
  bool keep = false;  // false during the warm-up burst

  const auto burst = [&] {
    const long long b = burst_index++;
    const Counters c0 = counters(service->stats());
    Tracer::Scope burst_span(t, "service.burst");
    const double t0 = now_s();
    std::vector<std::vector<std::shared_ptr<svc::Job>>> rounds;
    for (int round = 0; round < z.rounds; ++round) {
      Tracer::Scope round_span(t, "service.round");
      const int repeats = round == 0 ? 0 : z.repeats;
      const int fresh = z.jobs - repeats;
      std::vector<std::shared_ptr<svc::Job>> jobs;
      std::vector<double> submitted_at;
      std::vector<std::shared_ptr<svc::Job>> originals;
      service->pause();
      for (int j = 0; j < z.jobs; ++j) {
        svc::JobRequest req;
        req.model = kModel;
        req.num_random = z.lanes;
        std::shared_ptr<svc::Job> original;
        if (j < fresh) {
          req.seed = job_seed(b, round, j);
          req.num_moments = j % 2 == 0 ? z.moments_long : z.moments_short;
        } else {
          // Position j repeats job (j - fresh) of the previous round.
          original = rounds.back()[static_cast<std::size_t>(j - fresh)];
          req = original->request();
        }
        submitted_at.push_back(now_s());
        Tracer::Scope span(t, "service.submit", Tracer::kNone, b * 1000 + j);
        jobs.push_back(service->submit(req));
        originals.push_back(std::move(original));
      }
      // Resume to the first streamed chunk of the round's head job.
      service->resume();
      const double resumed = now_s();
      jobs.front()->wait_moments(kChunkMoments);
      const double head_first = now_s() - resumed;
      service->drain();
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const auto& job = jobs[j];
        const bool done = job->status() == svc::JobStatus::done;
        r.operation(done, "service_burst: job not done: " + job->error());
        if (!keep) continue;
        latencies.push_back(job->latency_seconds());
        t.record("service.job", submitted_at[j],
                 submitted_at[j] + job->latency_seconds(), round_span.id(),
                 b * 1000 + static_cast<long long>(j));
        // Every cache hit, and the first and last fresh job of the rounds
        // of the first three timed bursts, are audited after the run.
        if (originals[j] != nullptr) {
          sampled.push_back({job, originals[j]});
        } else if (per_burst.size() < 3 &&
                   (j == 0 || j + 1 == static_cast<std::size_t>(fresh))) {
          sampled.push_back({job, nullptr});
        }
      }
      if (keep) first_chunk.push_back(head_first);
      rounds.push_back(std::move(jobs));
    }
    const double dt = now_s() - t0;
    if (keep) per_burst.push_back(counters(service->stats()) - c0);
    return dt;
  };

  warm_up(o, burst);
  keep = true;
  const Phase ph = timed_phase(o, t, burst);

  // Audits, outside the timed phase: a cache hit returns the first answer's
  // bits; a computed job returns the bits of a direct moments_of_block call
  // on the block its seed generates.
  const kpm::global_index n = op.h.nrows();
  for (const Sampled& s : sampled) {
    if (s.job->status() != svc::JobStatus::done) continue;  // counted above
    const auto& got = s.job->result();
    if (s.original != nullptr) {
      r.operation(s.job->from_cache() &&
                      bitwise_equal(got.mu, s.original->result().mu),
                  "service_burst: cache hit differs from its first answer");
      continue;
    }
    const auto& req = s.job->request();
    kpm::blas::BlockVector v0(n, req.num_random);
    kpm::RandomVectorSource rng(req.seed, req.vector_kind);
    kpm::aligned_vector<kpm::complex_t> col(static_cast<std::size_t>(n));
    for (int l = 0; l < req.num_random; ++l) {
      rng.fill(col);
      v0.set_column(l, col);
    }
    const auto direct =
        kpm::core::moments_of_block(op.h, op.scaling, v0, req.num_moments);
    bool same = direct.size() == got.per_vector.size();
    for (std::size_t l = 0; same && l < direct.size(); ++l) {
      same = bitwise_equal(direct[l], got.per_vector[l]);
    }
    r.operation(same && bounded(got.mu),
                "service_burst: job differs from moments_of_block");
  }

  EndToEnd e;
  e.setup_s = median(setup);
  e.unit_s = ph.all();
  e.job_latency_s = latencies;
  for (const auto& c : per_burst) e.vec_sweeps += static_cast<double>(c.lanes_swept);
  e.timed_s = ph.seconds();
  report_end_to_end(e, r);
  bool counts_repeat = true;
  for (const auto& c : per_burst) counts_repeat = counts_repeat && c == per_burst[0];
  r.note("burst_counts_repeat", counts_repeat ? "yes" : "no");
  if (!o.trace) return;

  const Counters& c = per_burst.front();
  report_trace_overhead(ph, r);
  r.set("physics.build_s", median(build), "s");
  r.set("physics.bounds_s", median(bounds), "s");
  r.set("service.register_s", median(reg), "s");
  r.set("service.batches", static_cast<double>(c.batches), "count");
  r.set("service.mean_batch_width",
        static_cast<double>(c.lanes_swept) / static_cast<double>(c.sweep_steps),
        "lanes");
  r.set("service.coalesce_ratio",
        static_cast<double>(c.solo_steps) / static_cast<double>(c.sweep_steps),
        "ratio");
  r.set("service.cache_hit_ratio",
        static_cast<double>(c.cache_hits) / static_cast<double>(c.submitted),
        "ratio");
  r.set("service.first_chunk_ms", 1e3 * median(first_chunk), "ms");
  r.set("core.matrix_streams", static_cast<double>(c.sweep_steps), "count");
  report_kernel_layers(
      kernel_probe(op.h, op.scaling, kBatchWidth, o.toy ? 0.05 : 0.5, t), bw,
      r);
}

}  // namespace perfbench
