// Service throughput bench: solo sweeps vs coalesced batches vs warm cache.
//
// The same synthetic job mix (independent single-tenant DOS requests against
// one TI operator) is pushed through the KPM service three times:
//
//   solo       max_batch_width = 1  — every job sweeps the matrix alone,
//              the pre-service cost model (one matrix stream per job)
//   coalesced  max_batch_width = 32 — jobs ride shared fused block sweeps
//   warm       identical requests against the coalesced service's cache —
//              every job is answered at submit, zero sweep steps
//
// Reported per mode: wall seconds, jobs/s, p50/p99 submit-to-done latency,
// and the sweep-step counters that explain the speedup.  Results go to
// BENCH_service.json (override with KPM_BENCH_SERVICE_JSON); `--smoke`
// shrinks the job count and skips the JSON write.  The bench also audits
// one coalesced job bitwise against the direct library call — the
// multi-tenant batching must not change a single bit.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_env.hpp"
#include "core/moments.hpp"
#include "physics/spectral_bounds.hpp"
#include "physics/ti_model.hpp"
#include "service/service.hpp"
#include "util/env.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

using namespace kpm;

namespace {

struct ModeResult {
  const char* mode;
  double seconds = 0.0;
  double jobs_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  long long sweep_steps = 0;
  long long lanes_swept = 0;
  long long cache_hits = 0;
};

struct JobSpec {
  std::uint64_t seed;
  int num_random;
  int num_moments;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Runs the job mix through a fresh (or, for warm mode, pre-seeded) service
/// and reports wall time + latency percentiles.
ModeResult run_mode(const char* mode, service::KpmService& svc,
                    const std::vector<JobSpec>& specs) {
  const auto before = svc.stats();
  std::vector<std::shared_ptr<service::Job>> jobs;
  jobs.reserve(specs.size());
  Timer wall;
  wall.start();
  // Admit the burst atomically: with the service paused the coalescer sees
  // the whole queue at once and cuts full-width batches; without the pause
  // the worker races the submission loop and the first batch is whatever
  // prefix happened to be queued (drain() resumes).
  svc.pause();
  for (const auto& spec : specs) {
    service::JobRequest jr;
    jr.model = "ti";
    jr.seed = spec.seed;
    jr.num_random = spec.num_random;
    jr.num_moments = spec.num_moments;
    jobs.push_back(svc.submit(jr));
  }
  svc.drain();
  wall.stop();

  std::vector<double> latencies_ms;
  latencies_ms.reserve(jobs.size());
  for (const auto& job : jobs) {
    if (job->wait() != service::JobStatus::done) {
      std::fprintf(stderr, "job failed: %s\n", job->error().c_str());
      std::exit(1);
    }
    latencies_ms.push_back(job->latency_seconds() * 1e3);
  }
  const auto after = svc.stats();
  ModeResult r;
  r.mode = mode;
  r.seconds = wall.seconds();
  r.jobs_per_s = static_cast<double>(specs.size()) /
                 std::max(wall.seconds(), 1e-9);
  r.p50_ms = percentile(latencies_ms, 0.50);
  r.p99_ms = percentile(latencies_ms, 0.99);
  r.sweep_steps = after.sweep_steps - before.sweep_steps;
  r.lanes_swept = after.lanes_swept - before.lanes_swept;
  r.cache_hits = after.cache_hits - before.cache_hits;
  return r;
}

/// Bitwise audit of one coalesced delivery against the direct library call.
bool audit_bitwise(const sparse::CrsMatrix& h, const physics::Scaling& s,
                   service::KpmService& svc, const JobSpec& spec) {
  service::JobRequest jr;
  jr.model = "ti";
  jr.seed = spec.seed;
  jr.num_random = spec.num_random;
  jr.num_moments = spec.num_moments;
  auto job = svc.submit(jr);
  if (job->wait() != service::JobStatus::done) return false;

  blas::BlockVector v0(h.nrows(), spec.num_random);
  RandomVectorSource(spec.seed, RandomVectorKind::phase)
      .fill_block(v0.span(), spec.num_random, 0, spec.num_random);
  const auto direct = core::moments_of_block(h, s, v0, spec.num_moments);
  const auto& res = job->result();
  for (int r = 0; r < spec.num_random; ++r) {
    for (int m = 0; m < spec.num_moments; ++m) {
      if (res.per_vector[static_cast<std::size_t>(r)]
                        [static_cast<std::size_t>(m)] !=
          direct[static_cast<std::size_t>(r)][static_cast<std::size_t>(m)]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  default_omp_affinity();
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // The kernels_micro slab (n = 65536, env-overridable): large enough that
  // the matrix streams from memory instead of sitting in cache (where solo
  // re-streams would be free), small enough that a 32-lane block vector
  // does not itself blow the bandwidth budget — the size at which the
  // width sweep in BENCH_kernels.json shows the block kernel's matrix-
  // traffic amortization strongest.
  const auto h = smoke ? bench::benchmark_matrix(8, 8, 3)
                       : bench::benchmark_matrix(32, 32, 16);
  const int num_jobs = smoke ? 16 : 64;
  const int num_moments = smoke ? 32 : 64;
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  std::printf("service_throughput: TI slab, n = %lld, %d jobs x M=%d, "
              "R=1 each, %d threads\n",
              static_cast<long long>(h.nrows()), num_jobs, num_moments,
              max_threads());

  // Single-lane jobs, distinct seeds: the pure coalescing experiment — solo
  // mode streams the matrix once per job, coalesced mode once per 32 jobs.
  std::vector<JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(num_jobs));
  for (int i = 0; i < num_jobs; ++i) {
    specs.push_back({7000 + static_cast<std::uint64_t>(i), 1, num_moments});
  }

  // tune_on_register installs the tile-tuned kernel configuration for each
  // mode's batch width (cached across runs in .kpm_tune_cache.json).  The
  // default auto-tile policy splits a 32-lane sweep into register-budget
  // sub-passes, and on row-major blocks every sub-pass re-streams the full
  // v/w arrays — a ~3x step-time penalty the tuner's probe rejects.
  std::vector<ModeResult> results;
  {
    service::ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.max_batch_width = 1;
    cfg.chunk_moments = num_moments;
    cfg.cache_bytes = 0;  // no memoization: every job pays its sweep
    cfg.tune_on_register = !smoke;
    service::KpmService solo(cfg);
    solo.register_model("ti", h, s);
    results.push_back(run_mode("solo", solo, specs));
  }
  bool bitwise_ok = false;
  long long warm_sweep_steps = -1;
  {
    service::ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.max_batch_width = 32;
    cfg.chunk_moments = num_moments;
    cfg.tune_on_register = !smoke;
    service::KpmService coalesced(cfg);
    coalesced.register_model("ti", h, s);
    results.push_back(run_mode("coalesced", coalesced, specs));
    // Same requests again: every one is a content-cache hit, zero sweeps.
    results.push_back(run_mode("warm", coalesced, specs));
    warm_sweep_steps = results.back().sweep_steps;
    bitwise_ok = audit_bitwise(h, s, coalesced, specs.front());
  }

  std::printf("%-10s %10s %10s %9s %9s %9s %9s %6s\n", "mode", "seconds",
              "jobs/s", "p50 ms", "p99 ms", "steps", "lanes", "hits");
  for (const auto& r : results) {
    std::printf("%-10s %10.3f %10.1f %9.2f %9.2f %9lld %9lld %6lld\n", r.mode,
                r.seconds, r.jobs_per_s, r.p50_ms, r.p99_ms, r.sweep_steps,
                r.lanes_swept, r.cache_hits);
  }
  const double coalesced_speedup =
      results[0].seconds > 0.0 && results[1].seconds > 0.0
          ? results[0].seconds / results[1].seconds
          : 0.0;
  std::printf("coalesced vs solo: %.2fx throughput, warm-cache sweep steps: "
              "%lld, bitwise parity: %s\n",
              coalesced_speedup, warm_sweep_steps,
              bitwise_ok ? "ok" : "FAILED");
  if (!bitwise_ok) return 1;
  if (smoke) {
    std::printf("[smoke] BENCH_service.json not rewritten\nSERVICE BENCH OK\n");
    return 0;
  }

  const char* path_env = std::getenv("KPM_BENCH_SERVICE_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_service.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"service_throughput\",\n");
  bench::write_env_json(f);
  std::fprintf(f,
               "  \"matrix\": {\"model\": \"topological_insulator\", "
               "\"n\": %lld, \"nnz\": %lld},\n",
               static_cast<long long>(h.nrows()),
               static_cast<long long>(h.nnz()));
  std::fprintf(f, "  \"threads\": %d,\n  \"workers\": 1,\n", max_threads());
  std::fprintf(f,
               "  \"jobs\": %d,\n  \"moments\": %d,\n  \"random\": 1,\n"
               "  \"batch_width\": 32,\n",
               num_jobs, num_moments);
  std::fprintf(f, "  \"modes\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"seconds\": %.6e, "
                 "\"jobs_per_s\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"sweep_steps\": %lld, \"lanes_swept\": %lld, "
                 "\"cache_hits\": %lld}%s\n",
                 r.mode, r.seconds, r.jobs_per_s, r.p50_ms, r.p99_ms,
                 r.sweep_steps, r.lanes_swept, r.cache_hits,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"coalesced_speedup\": %.4f,\n", coalesced_speedup);
  std::fprintf(f, "  \"warm_cache_sweep_steps\": %lld,\n", warm_sweep_steps);
  std::fprintf(f, "  \"bitwise_identical\": %s\n}\n",
               bitwise_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\nSERVICE BENCH OK\n", path.c_str());
  return 0;
}
