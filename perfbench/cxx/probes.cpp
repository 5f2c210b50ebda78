#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "core/sweep_session.hpp"
#include "sparse/kpm_kernels.hpp"
#include "util/random.hpp"

namespace perfbench {

using kpm::blas::BlockVector;

// --- Result -------------------------------------------------------------------

void Result::operation(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: FAILED " << what << '\n';
  }
}

void Result::note(const std::string& key, double value) {
  std::ostringstream s;
  s.precision(6);
  s << value;
  note(key, s.str());
}

// --- timing and statistics -------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void repeat_setup(const std::function<void()>& setup_once) {
  const double stop = now_s() + kSetupMinSeconds;
  for (int i = 0; i < kSetupReps || now_s() < stop; ++i) setup_once();
}

std::vector<double> timed_loop(double seconds,
                               const std::function<double()>& unit) {
  std::vector<double> out;
  const double stop = now_s() + seconds;
  do {
    out.push_back(unit());
  } while (now_s() < stop);
  return out;
}

void warm_up(const Options& o, const std::function<double()>& unit) {
  (void)timed_loop(o.toy ? 0.0 : kWarmupSeconds, unit);
}

std::vector<double> Phase::all() const {
  std::vector<double> v = untraced;
  v.insert(v.end(), traced.begin(), traced.end());
  return v;
}

double Phase::seconds() const {
  double s = 0.0;
  for (const double x : all()) s += x;
  return s;
}

Phase timed_phase(const Options& o, Tracer& t,
                  const std::function<double()>& unit) {
  Phase p;
  if (!t.enabled()) {
    p.untraced = timed_loop(o.seconds, unit);
    return p;
  }
  t.set_recording(false);
  p.untraced = timed_loop(o.seconds / 2, unit);
  t.set_recording(true);
  p.traced = timed_loop(o.seconds / 2, unit);
  return p;
}

void report_end_to_end(const EndToEnd& e, Result& out) {
  out.set("setup_s", e.setup_s, "s");
  out.set("solve_s", median(e.unit_s), "s");
  out.set("vec_sweeps_per_s", e.vec_sweeps / e.timed_s, "1/s");
  out.set("jobs_per_s", static_cast<double>(e.job_latency_s.size()) / e.timed_s,
          "1/s");
  out.set("job_p50_ms", 1e3 * quantile(e.job_latency_s, 0.5), "ms");
  out.set("job_p90_ms", 1e3 * quantile(e.job_latency_s, 0.9), "ms");
  out.note("timed_units", static_cast<double>(e.unit_s.size()));
  out.note("unit_iqr_over_median", (quantile(e.unit_s, 0.75) -
                                     quantile(e.unit_s, 0.25)) /
                                        median(e.unit_s));
  out.note("jobs_timed", static_cast<double>(e.job_latency_s.size()));
}

void report_trace_overhead(const Phase& p, Result& out) {
  out.set("trace.overhead", median(p.traced) / median(p.untraced) - 1.0,
          "ratio");
}

// --- operator set-up ----------------------------------------------------------

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

kpm::physics::TIParams ti_params(int nx, int ny, int nz, std::uint64_t seed) {
  kpm::physics::TIParams p;
  p.nx = nx;
  p.ny = ny;
  p.nz = nz;
  // Uniform on-site disorder in [-0.25, 0.25], a pure function of the seed
  // and the site.
  p.potential = [seed, nx, ny](const kpm::physics::Site& s) {
    const auto site = static_cast<std::uint64_t>(s.x + nx * (s.y + ny * s.z));
    const std::uint64_t h = splitmix64(splitmix64(seed) ^ site);
    return 0.5 * (static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5);
  };
  return p;
}

Operator build_operator(const kpm::physics::TIParams& p, std::uint64_t seed,
                        Tracer& tracer) {
  Operator op;
  double t0 = now_s();
  {
    Tracer::Scope span(tracer, "physics.build_ti_hamiltonian");
    op.h = kpm::physics::build_ti_hamiltonian(p);
  }
  op.build_s = now_s() - t0;
  t0 = now_s();
  {
    Tracer::Scope span(tracer, "physics.lanczos_bounds");
    op.scaling = kpm::physics::make_scaling(
        kpm::physics::lanczos_bounds(op.h, 30, seed), kScalingEpsilon);
  }
  op.bounds_s = now_s() - t0;
  return op;
}

// --- probes ----------------------------------------------------------------------

HostInfo host_info() {
  HostInfo h;
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  namespace fs = std::filesystem;
  const fs::path cache("/sys/devices/system/cpu/cpu0/cache");
  std::error_code ec;
  int best_level = -1;
  for (const auto& entry : fs::directory_iterator(cache, ec)) {
    std::ifstream level(entry.path() / "level");
    std::ifstream size(entry.path() / "size");
    int lv = 0;
    std::string sz;
    if (!(level >> lv) || !(size >> sz) || lv < best_level) continue;
    double bytes = std::atof(sz.c_str());
    if (sz.back() == 'K') bytes *= 1024.0;
    if (sz.back() == 'M') bytes *= 1024.0 * 1024.0;
    best_level = lv;
    h.llc_bytes = bytes;
  }
  std::ifstream load("/proc/loadavg");
  load >> h.loadavg_1m;
  return h;
}

StreamResult stream_probe(const Options& o) {
  if (!o.trace) return {};
  const double llc = host_info().llc_bytes;
  const double array_bytes =
      o.toy ? 8.0 * (1 << 20) : 4.0 * (llc > 0.0 ? llc : 128.0 * (1 << 20));
  const auto n = static_cast<std::size_t>(array_bytes / sizeof(double));
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
  const auto sn = static_cast<std::ptrdiff_t>(n);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < sn; ++i) {
    pa[i] = 1.0;
    pb[i] = 2.0;
    pc[i] = 0.5;
  }
  const double scalar = 3.0;
  std::vector<double> copy_s;
  std::vector<double> triad_s;
  for (int rep = 0; rep < 5; ++rep) {
    double t0 = now_s();
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = 0; i < sn; ++i) pc[i] = pa[i];
    copy_s.push_back(now_s() - t0);
    t0 = now_s();
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = 0; i < sn; ++i) pb[i] = pa[i] + scalar * pc[i];
    triad_s.push_back(now_s() - t0);
  }
  StreamResult r;
  r.array_bytes = static_cast<double>(n * sizeof(double));
  r.copy_gbs = 2.0 * r.array_bytes / median(copy_s) / 1e9;
  r.triad_gbs = 3.0 * r.array_bytes / median(triad_s) / 1e9;
  // Reading the results keeps the compiler from dropping the loops.
  if (pc[n / 2] != 1.0 || pb[n / 2] != 1.0 + scalar) r.triad_gbs = 0.0;
  return r;
}

KernelProbe kernel_probe(const kpm::sparse::CrsMatrix& h,
                         const kpm::physics::Scaling& s, int width,
                         double seconds, Tracer& tracer) {
  const kpm::global_index n = h.nrows();
  KernelProbe k;
  k.bytes_per_sweep =
      h.storage_bytes() + 3.0 * width * static_cast<double>(n) * 16.0;
  // Paper Table I per inner iteration and vector: Nnz (Fa + Fm) +
  // N (7 Fa / 2 + 9 Fm / 2) with Fa = 2, Fm = 6.
  k.flops_per_sweep =
      width * (8.0 * static_cast<double>(h.nnz()) + 34.0 * static_cast<double>(n));

  // Through the session: SweepSession::advance(1) is one fused step.
  {
    const int max_steps = 4096;
    std::unique_ptr<kpm::core::SweepSession> session;
    {
      BlockVector v0(n, width);
      kpm::RandomVectorSource rng(7);
      for (int r = 0; r < width; ++r) rng.fill_column(v0.span(), width, r);
      session = std::make_unique<kpm::core::SweepSession>(h, s, v0,
                                                          2 * max_steps + 2);
    }
    session->advance(1);  // start-up step, untimed
    std::vector<double> steps;
    const double stop = now_s() + seconds;
    while ((steps.size() < 3 || now_s() < stop) && !session->done()) {
      Tracer::Scope span(tracer, "core.session_step");
      const double t0 = now_s();
      session->advance(1);
      steps.push_back(now_s() - t0);
    }
    k.session_step_s = median(std::move(steps));
  }

  // The raw kernel on the same shapes.
  {
    BlockVector v(n, width);
    BlockVector w(n, width);
    kpm::RandomVectorSource rng(7);
    for (int r = 0; r < width; ++r) rng.fill_column(v.span(), width, r);
    w.fill({0.0, 0.0});
    std::vector<kpm::complex_t> dvv(static_cast<std::size_t>(width));
    std::vector<kpm::complex_t> dwv(static_cast<std::size_t>(width));
    const auto sc = kpm::sparse::AugScalars::recurrence(s.a, s.b);
    kpm::sparse::aug_spmmv(h, sc, v, w, dvv, dwv);  // warm, untimed
    std::swap(v, w);
    std::vector<double> sweeps;
    const double stop = now_s() + seconds;
    while (sweeps.size() < 3 || now_s() < stop) {
      Tracer::Scope span(tracer, "sparse.aug_spmmv");
      const double t0 = now_s();
      kpm::sparse::aug_spmmv(h, sc, v, w, dvv, dwv);
      sweeps.push_back(now_s() - t0);
      std::swap(v, w);
    }
    k.sweep_s = median(std::move(sweeps));
  }
  return k;
}

void report_kernel_layers(const KernelProbe& k, const StreamResult& bw,
                          Result& out) {
  const double gbs = k.bytes_per_sweep / k.sweep_s / 1e9;
  out.set("sparse.sweep_s", k.sweep_s, "s");
  out.set("sparse.bytes_per_sweep", k.bytes_per_sweep, "B");
  out.set("sparse.gbytes_per_s", gbs, "GB/s");
  out.set("sparse.gflops", k.flops_per_sweep / k.sweep_s / 1e9, "GF/s");
  out.set("sparse.fraction_of_triad", gbs / bw.triad_gbs, "ratio");
  out.set("core.step_overhead_s", k.session_step_s - k.sweep_s, "s");
  out.set("host.copy_gbytes_per_s", bw.copy_gbs, "GB/s");
  out.set("host.triad_gbytes_per_s", bw.triad_gbs, "GB/s");
  out.note("stream_array_mib", bw.array_bytes / (1 << 20));
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::memcmp(&x, &y, sizeof(double)) == 0;
         });
}

bool bounded(const std::vector<double>& mu) {
  return std::all_of(mu.begin(), mu.end(),
                     [](double x) { return std::abs(x) <= 1.0 + 1e-9; });
}

}  // namespace perfbench
