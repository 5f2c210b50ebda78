// kpm_perfbench — runs one benchmark workload and prints its metrics.
//
//   kpm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--toy] [--tmpdir <dir>]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// (and a Chrome trace file in --tmpdir) with --trace 1.  Lines before it
// start with '#' and describe the host and the run.  The exit code is 0
// only when every audited operation passed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>
#include <utility>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;
using perfbench::ThreadBudget;
using perfbench::Tracer;

struct Workload {
  const char* name;
  ThreadBudget budget;
  void (*run)(const Options&, Tracer&, Result&);
};

// Thread budgets stay at or below the 4 cores of the reference host, and at
// 2 compute threads where that was measured to repeat better than 4.
constexpr Workload kWorkloads[] = {
    {"node_dram", {2, 1, 0}, perfbench::run_node_dram},
    {"dist_halo", {1, 2, 0}, perfbench::run_dist_halo},
    {"service_burst", {1, 1, 2}, perfbench::run_service_burst},
    {"elastic_ckpt", {1, 2, 0}, perfbench::run_elastic_ckpt},
};

const std::set<std::string> kEndToEnd = {
    "setup_s",    "solve_s",    "vec_sweeps_per_s", "jobs_per_s",
    "job_p50_ms", "job_p90_ms", "peak_rss_mb"};

// Layers named after the library's modules; each gets a self-time metric.
constexpr const char* kLayers[] = {"physics",      "sparse",
                                   "core",         "runtime.comm",
                                   "runtime.dist", "runtime.elastic",
                                   "service"};

// Every per-layer metric with its unit.  A traced run prints all of them; a
// layer the workload bypasses reads 0.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"physics.build_s", "s"},
    {"physics.bounds_s", "s"},
    {"sparse.sweep_s", "s"},
    {"sparse.bytes_per_sweep", "B"},
    {"sparse.gbytes_per_s", "GB/s"},
    {"sparse.gflops", "GF/s"},
    {"sparse.fraction_of_triad", "ratio"},
    {"core.step_overhead_s", "s"},
    {"core.matrix_streams", "count"},
    {"runtime.dist.ctor_s", "s"},
    {"runtime.dist.rank_solve_max_s", "s"},
    {"runtime.dist.rank_solve_min_s", "s"},
    {"runtime.dist.parallel_efficiency", "ratio"},
    {"runtime.comm.messages_per_sweep", "count"},
    {"runtime.comm.halo_bytes_per_sweep", "B"},
    {"runtime.comm.reduction_bytes", "B"},
    {"runtime.comm.exchange_s", "s"},
    {"runtime.elastic.checkpoint_s", "s"},
    {"runtime.elastic.checkpoint_bytes", "B"},
    {"runtime.elastic.checkpoints", "count"},
    {"runtime.elastic.epochs", "count"},
    {"runtime.elastic.recomputed_sweeps", "count"},
    {"service.register_s", "s"},
    {"service.batches", "count"},
    {"service.mean_batch_width", "lanes"},
    {"service.coalesce_ratio", "ratio"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.first_chunk_ms", "ms"},
    {"physics.self_s", "s"},
    {"sparse.self_s", "s"},
    {"core.self_s", "s"},
    {"runtime.comm.self_s", "s"},
    {"runtime.dist.self_s", "s"},
    {"runtime.elastic.self_s", "s"},
    {"service.self_s", "s"},
    {"trace.overhead", "ratio"},
    {"host.copy_gbytes_per_s", "GB/s"},
    {"host.triad_gbytes_per_s", "GB/s"},
    {"host.loadavg_1m", "load"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "kpm_perfbench: %s\nusage: kpm_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--toy] "
               "[--tmpdir <dir>]\n",
               why);
  std::exit(2);
}

// OpenMP reads OMP_NUM_THREADS once, before main(), and threads that are
// not OpenMP's own (rank threads, service workers) start from that value.
// So the budget is set in the environment and the process re-executes
// itself once.
void enforce_thread_budget(const ThreadBudget& b, char** argv) {
  const std::string want = std::to_string(b.omp_threads);
  const char* have = std::getenv("OMP_NUM_THREADS");
  if (have != nullptr && want == have) return;
  ::setenv("OMP_NUM_THREADS", want.c_str(), 1);
  ::setenv("OMP_DYNAMIC", "false", 1);
  ::execv("/proc/self/exe", argv);
  std::perror("kpm_perfbench: re-exec with the thread budget failed");
  std::exit(2);
}

void print_json(const Result& r, bool trace) {
  const bool correct = r.failed() == 0 && r.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", r.attempted(), r.failed());
  const char* sep = "";
  for (const auto& [name, m] : r.metrics()) {
    if ((kEndToEnd.count(name) != 0) == trace) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), std::isfinite(m.first) ? m.first : 0.0,
                m.second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
        have_seconds = o.seconds > 0.0;
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
        have_trace = true;
      } else if (a == "--toy") {
        o.toy = true;
      } else if (a == "--tmpdir") {
        o.tmpdir = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }
  const Workload* w = nullptr;
  for (const auto& k : kWorkloads) {
    if (o.workload == k.name) w = &k;
  }
  if (w == nullptr) usage(("unknown workload '" + o.workload + "'").c_str());
  enforce_thread_budget(w->budget, argv);

  const perfbench::HostInfo host = perfbench::host_info();
  Tracer tracer(o.trace);
  Result r;
  r.note("workload", o.workload);
  r.note("seed", std::to_string(o.seed));
  r.note("threads", "omp=" + std::to_string(w->budget.omp_threads) +
                        " ranks=" + std::to_string(w->budget.ranks) +
                        " workers=" + std::to_string(w->budget.workers));
  r.note("host.nproc", host.nproc);
  r.note("host.llc_mib", host.llc_bytes / (1 << 20));
  r.note("host.loadavg_1m_start", host.loadavg_1m);
  try {
    w->run(o, tracer, r);
  } catch (const std::exception& e) {
    r.operation(false, std::string("workload threw: ") + e.what());
  }
  r.set("peak_rss_mb", perfbench::peak_rss_mib(), "MiB");
  r.note("host.loadavg_1m_end", perfbench::host_info().loadavg_1m);

  if (o.trace) {
    tracer.set_recording(false);
    const auto self = tracer.self_seconds_by_layer();
    for (const char* layer : kLayers) {
      const auto it = self.find(layer);
      r.set(std::string(layer) + ".self_s", it == self.end() ? 0.0 : it->second,
            "s");
    }
    r.set("host.loadavg_1m", host.loadavg_1m, "load");
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = r.metrics().find(name);
      if (it == r.metrics().end()) {
        r.set(name, 0.0, unit);
      } else if (it->second.second != unit) {
        r.operation(false, std::string("unit of ") + name);
      }
    }
    const std::string path = o.tmpdir + "/trace-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    try {
      tracer.write_chrome_trace(path);
      r.note("trace_file", path);
      r.note("trace_spans", static_cast<double>(tracer.span_count()));
    } catch (const std::exception& e) {
      r.operation(false, e.what());
    }
  }
  for (const auto& [name, m] : r.metrics()) {
    if (!std::isfinite(m.first)) r.operation(false, "non-finite " + name);
  }
  for (const auto& [k, v] : r.notes()) std::printf("# %s=%s\n", k.c_str(), v.c_str());
  print_json(r, o.trace);
  std::fflush(stdout);
  return r.failed() == 0 && r.attempted() > 0 ? 0 : 1;
}
