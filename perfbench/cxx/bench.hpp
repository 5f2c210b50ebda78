// Shared pieces of the kpm-pe benchmark: run options, the result
// record printed as the last stdout line, the outside-in span tracer, and
// the probes every workload reuses.
//
// Every layer is measured from outside: the benchmark times the calls it makes
// into a layer's public functions and reads the counters those functions
// return.  No library code is instrumented.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "physics/spectral_bounds.hpp"
#include "physics/ti_model.hpp"
#include "sparse/crs.hpp"

namespace perfbench {

/// Set-up is repeated at least kSetupReps times and for at least
/// kSetupMinSeconds per run, and its median reported: a millisecond set-up
/// gets enough repetitions to repeat from run to run.
inline constexpr int kSetupReps = 3;
inline constexpr double kSetupMinSeconds = 3.0;
/// Untimed warm-up before every timed phase: caches, page mappings and the
/// allocator settle before the first timed unit.
inline constexpr double kWarmupSeconds = 2.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy problem sizes (smoke test): same code paths, seconds-scale runs.
  bool toy = false;
  /// The benchmark's own scratch directory (checkpoints, trace file).
  std::string tmpdir = ".";
};

/// Everything one run reports.  `set` records a metric; main() prints the
/// end-to-end or the per-layer set depending on --trace.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// One attempted operation (solve, job, elastic run) and whether it
  /// passed its audit.  A failure is also written to stderr.
  void operation(bool ok, const std::string& what);
  /// Free-form `# key=value` line printed before the result line.
  void note(const std::string& key, const std::string& value) {
    notes_.emplace_back(key, value);
  }
  void note(const std::string& key, double value);

  [[nodiscard]] long long attempted() const noexcept { return attempted_; }
  [[nodiscard]] long long failed() const noexcept { return failed_; }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& notes()
      const noexcept {
    return notes_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  long long attempted_ = 0;
  long long failed_ = 0;
};

/// In-memory span recorder.  Spans carry a name "<layer>.<call>", start and
/// end, the span that caused them and an optional job id; they are written
/// at exit as Chrome trace-event JSON.  Disabled tracers record nothing.
class Tracer {
 public:
  static constexpr int kNone = -1;

  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Recording can be paused so one traced run also yields untraced timings
  /// (the tracing-overhead baseline).
  void set_recording(bool on) noexcept { recording_ = enabled_ && on; }

  /// Opens a span; `parent` kNone means "the innermost open span of this
  /// thread".  Returns the span id, or kNone while not recording.
  int begin(const char* name, int parent = kNone, long long job = -1);
  void end(int id);
  /// Records a finished span measured elsewhere; times are now_s() values.
  void record(const char* name, double start, double end, int parent,
              long long job);

  /// Sum of span self times (duration minus the union of its children's
  /// intervals) per layer, the layer being the span name without its last
  /// dot-component.  Concurrent spans each count in full.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;
  [[nodiscard]] std::size_t span_count() const;
  /// Writes the spans as a Chrome trace-event JSON array ("X" events).
  void write_chrome_trace(const std::string& path) const;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, int parent = kNone, long long job = -1)
        : t_(t), id_(t.begin(name, parent, job)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const noexcept { return id_; }

   private:
    Tracer& t_;
    int id_;
  };

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    int parent = kNone;
    long long job = -1;
    int tid = 0;
  };
  [[nodiscard]] double now() const;

  bool enabled_ = false;
  std::atomic<bool> recording_{false};
  double epoch_ = 0.0;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> tids_;
};

// --- timing and statistics ---------------------------------------------------

[[nodiscard]] double now_s();
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolation quantile (q in [0, 1]) of the samples.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double peak_rss_mib();
/// Calls `setup_once` kSetupReps times or more (see kSetupMinSeconds).
void repeat_setup(const std::function<void()>& setup_once);

/// Runs `unit` (which returns its own seconds) until `seconds` of wall time
/// have passed, at least once; returns the per-unit seconds.
std::vector<double> timed_loop(double seconds,
                               const std::function<double()>& unit);

/// Runs `unit` untimed for kWarmupSeconds (once at toy size).
void warm_up(const Options& o, const std::function<double()>& unit);

/// The timed phase of a run.  Untraced runs put every unit in `untraced`;
/// traced runs spend the first half of the time with span recording off and
/// the second half with it on, which gives the tracing overhead.
struct Phase {
  std::vector<double> untraced;
  std::vector<double> traced;
  [[nodiscard]] std::vector<double> all() const;
  [[nodiscard]] double seconds() const;
};
[[nodiscard]] Phase timed_phase(const Options& o, Tracer& t,
                                const std::function<double()>& unit);

/// Inputs of the end-to-end metrics every workload reports.
struct EndToEnd {
  double setup_s = 0.0;               ///< median of the set-up repetitions
  std::vector<double> unit_s;         ///< timed units (solves or bursts)
  std::vector<double> job_latency_s;  ///< one entry per completed job
  double vec_sweeps = 0.0;  ///< single-vector Chebyshev steps, timed units
  double timed_s = 0.0;     ///< wall seconds of the timed units
};
void report_end_to_end(const EndToEnd& e, Result& out);
/// trace.overhead: traced over untraced median unit time, minus one.
void report_trace_overhead(const Phase& p, Result& out);

// --- operator set-up ---------------------------------------------------------

/// TI slab (paper Eq. 1) with on-site disorder drawn from `seed`: the seed
/// changes the matrix values, never its structure or size.
[[nodiscard]] kpm::physics::TIParams ti_params(int nx, int ny, int nz,
                                               std::uint64_t seed);

/// Spectral margin of the scaling, as in core::compute_dos: Lanczos bounds
/// underestimate the spectral radius.
inline constexpr double kScalingEpsilon = 0.05;

struct Operator {
  kpm::sparse::CrsMatrix h;
  kpm::physics::Scaling scaling;
  double build_s = 0.0;   ///< physics::build_ti_hamiltonian
  double bounds_s = 0.0;  ///< physics::lanczos_bounds + make_scaling
};

/// Assembles the operator and its spectral scaling, with physics spans.
[[nodiscard]] Operator build_operator(const kpm::physics::TIParams& p,
                                      std::uint64_t seed, Tracer& tracer);

// --- probes -------------------------------------------------------------------

struct HostInfo {
  int nproc = 0;
  double llc_bytes = 0.0;  ///< largest cache level in sysfs
  double loadavg_1m = 0.0;
};
[[nodiscard]] HostInfo host_info();

struct StreamResult {
  double copy_gbs = 0.0;   ///< 16 B moved per element
  double triad_gbs = 0.0;  ///< 24 B moved per element (STREAM convention)
  double array_bytes = 0.0;
};
/// STREAM copy and triad at the calling thread's OpenMP budget; median of
/// several passes.  Each array is 4x the LLC (128 MiB assumed when sysfs
/// does not tell; 8 MiB at toy size).  Runs only in traced runs; untraced
/// runs get zeros.
[[nodiscard]] StreamResult stream_probe(const Options& o);

struct KernelProbe {
  double sweep_s = 0.0;           ///< median raw sparse::aug_spmmv
  double session_step_s = 0.0;    ///< median SweepSession::advance(1)
  double bytes_per_sweep = 0.0;   ///< computed: storage + 3 R N 16
  double flops_per_sweep = 0.0;   ///< computed: paper Table I
};
/// Times single fused sweeps of `h` at block width `width`, both raw and
/// through a SweepSession, for about `seconds` each.
[[nodiscard]] KernelProbe kernel_probe(const kpm::sparse::CrsMatrix& h,
                                       const kpm::physics::Scaling& s,
                                       int width, double seconds,
                                       Tracer& tracer);

/// Records the layer metrics every traced run shares: kernel and bandwidth
/// probes (sparse, core.step_overhead_s) and the host description.
void report_kernel_layers(const KernelProbe& k, const StreamResult& bw,
                          Result& out);

/// Bitwise equality of two moment vectors.
[[nodiscard]] bool bitwise_equal(const std::vector<double>& a,
                                 const std::vector<double>& b);
/// |mu_m| <= 1 (to round-off) for every moment: holds when the scaled
/// spectrum lies inside [-1, 1]; a leaked eigenvalue makes the Chebyshev
/// moments grow without bound.
[[nodiscard]] bool bounded(const std::vector<double>& mu);

// --- workloads -------------------------------------------------------------------

/// Threads the workload is measured with; main() enforces the OpenMP part
/// through OMP_NUM_THREADS before any OpenMP runtime starts.
struct ThreadBudget {
  int omp_threads = 1;
  int ranks = 1;
  int workers = 0;
};

void run_node_dram(const Options& o, Tracer& t, Result& r);
void run_dist_halo(const Options& o, Tracer& t, Result& r);
void run_service_burst(const Options& o, Tracer& t, Result& r);
void run_elastic_ckpt(const Options& o, Tracer& t, Result& r);

}  // namespace perfbench
