// Batched multi-tenant KPM service (DESIGN.md §5g).
//
// The fused block kernel's throughput lever is width: one matrix stream
// serves R vectors (paper Fig. 5), and the random vectors of the stochastic
// trace are fully independent — so *unrelated* KPM requests against the same
// Hamiltonian can legally share one sweep.  KpmService exploits exactly
// that: independent jobs (model + M + R + seed) are admitted to a queue,
// coalesced per model into wide batched aug_spmmv sweeps up to the
// configured batch width (default 32), advanced chunk by chunk on a
// SweepSession, and their partial moments streamed back per job as
// recurrence steps complete — a consumer that watches moment decay can
// cancel early and free its lanes.
// Finished spectra are memoized in a bounded content-addressed ResultCache,
// so repeat requests return in O(1) without any sweep.
//
// Coalescing rules (see DESIGN.md §5g for the rationale):
//  - Only jobs against the same registered model key share a sweep (same
//    matrix AND same scaling — a different scaling changes every moment).
//  - A batch is formed when a worker picks up the queue head: it greedily
//    admits further queued jobs of the same model while the total lane
//    count stays within max_batch_width.  Jobs are never admitted into a
//    batch already in flight (a mid-sweep start-up step cannot share the
//    recurrence step of the running lanes).
//  - The batch sweeps to the largest M in the batch; jobs with smaller M
//    finish early, their lanes are deactivated, and the session compacts to
//    the narrower width (compact_freed_lanes) — early finishers and
//    cancellations stop paying for lanes nobody consumes.
//
// Workspaces (DESIGN.md §5n): each worker sweeps every batch in one |v>, |w>
// block pair that grows to the widest batch the worker has run and is
// freed only at shutdown, so the steady state allocates no block.  The
// memory kept per worker is 2 * 16 bytes times the largest rows x lanes
// product among its batches: 2 * N * (widest batch) * 16 bytes for one
// model of N rows.
//
// Bitwise contract: the moments delivered for a job are bitwise identical
// to a direct core::moments_of_block() call on the block its seed generates,
// no matter which batch width served it — lane arithmetic in the fused
// kernels is width-independent (see core/sweep_session.hpp) and the service
// advances the exact same SweepSession that moments_of_block() runs.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/damping.hpp"
#include "core/moments.hpp"
#include "core/sweep_session.hpp"
#include "physics/spectral_bounds.hpp"
#include "service/result_cache.hpp"
#include "sparse/bsr.hpp"
#include "sparse/crs.hpp"
#include "sparse/stencil.hpp"
#include "util/random.hpp"

namespace kpm::service {

/// One independent KPM request: which registered operator, how many moments,
/// how many stochastic-trace lanes, and the seed that generates them.
struct JobRequest {
  std::string model;       ///< registered model key (carries the params)
  int num_moments = 512;   ///< M (even, >= 2)
  int num_random = 1;      ///< R lanes of this job
  std::uint64_t seed = 7;  ///< RandomVectorSource seed
  RandomVectorKind vector_kind = RandomVectorKind::phase;
  /// Damping kernel applied to every delivered moment (core/damping.hpp):
  /// streamed partials, the final mu, and per_vector all carry g_m * mu_m.
  /// dirichlet is the exact pre-damping behaviour (g_m = 1, nothing is
  /// touched), so existing clients see bitwise-identical results.
  core::DampingKernel damping = core::DampingKernel::dirichlet;
  double lorentz_lambda = 4.0;  ///< lambda of the Lorentz kernel
};

/// Request-side content tag: "model:M<M>:R<R>:s<seed>:<kind>[:<damping>]".
/// A dirichlet request keeps the legacy tag shape (no damping suffix).
///
/// NOTE this tag alone is NOT a safe result-cache key: two registrations of
/// the same model key with different matrices or spectral scalings produce
/// different moments for identical requests.  The service addresses its
/// cache with the full overload below, which folds in the scaling bits and
/// the operator fingerprint of the registration that actually serves the
/// sweep.
[[nodiscard]] std::string job_cache_key(const JobRequest& req);

/// Full result-cache key: the request tag plus the exact bit patterns of the
/// registered model's spectral scaling (a, b) and its operator fingerprint
/// (core::operator_fingerprint).  Re-registering a model key with a
/// different matrix or scaling therefore changes every job key — stale
/// cached spectra of the old registration can never be served for the new
/// one.
[[nodiscard]] std::string job_cache_key(const JobRequest& req,
                                        const physics::Scaling& scaling,
                                        std::uint64_t operator_fp);

enum class JobStatus { queued, running, done, cancelled, failed };
[[nodiscard]] const char* job_status_name(JobStatus s) noexcept;

class KpmService;

/// Client-side handle of a submitted job.  All methods are thread-safe; the
/// streaming methods let a consumer read moments while the sweep runs.
class Job {
 public:
  [[nodiscard]] JobStatus status() const;
  /// Number of (averaged) moments streamed so far, 0 .. num_moments.
  [[nodiscard]] int moments_available() const;
  /// Blocks until at least min(`min_available`, M) moments are available or
  /// the job reaches a terminal state; returns moments_available().
  int wait_moments(int min_available) const;
  /// Copy of the averaged moment prefix streamed so far.
  [[nodiscard]] std::vector<double> partial_mu() const;
  /// Blocks until the job is terminal; returns the final status.
  JobStatus wait() const;
  /// Final result; only valid when status() == done.
  [[nodiscard]] const core::MomentsResult& result() const;
  /// Requests early stop.  Returns true if the job was not yet terminal;
  /// a queued job is dropped, a running job frees its lanes at the next
  /// chunk boundary.
  bool cancel();

  [[nodiscard]] const JobRequest& request() const noexcept { return req_; }
  [[nodiscard]] bool from_cache() const;
  /// Lane count of the sweep that served this job (0 for cache hits).
  [[nodiscard]] int batch_width() const;
  /// Submit-to-terminal wall seconds (0 while not terminal).
  [[nodiscard]] double latency_seconds() const;
  [[nodiscard]] const std::string& error() const;

 private:
  friend class KpmService;
  explicit Job(JobRequest req) : req_(std::move(req)) {}

  JobRequest req_;
  std::string key_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  JobStatus status_ = JobStatus::queued;
  bool cancel_requested_ = false;
  bool from_cache_ = false;
  int batch_width_ = 0;
  std::vector<double> partial_mu_;
  std::shared_ptr<const core::MomentsResult> result_;
  std::string error_;
  double submit_time_ = 0.0;
  double finish_time_ = 0.0;
};

struct ServiceConfig {
  int num_workers = 1;
  /// Lane budget of one coalesced sweep.  A single job wider than this
  /// still runs (alone, at its own width).
  int max_batch_width = 32;
  /// Streaming granularity: moments delivered per session chunk (even).
  int chunk_moments = 64;
  /// Byte budget of the content-addressed result cache (0 disables it).
  std::size_t cache_bytes = std::size_t{64} << 20;
  /// Compact the sweep block when early finishers / cancellations free
  /// lanes, so the remaining jobs sweep at the narrower width.
  bool compact_freed_lanes = true;
};

struct ServiceStats {
  long long submitted = 0;
  long long completed = 0;
  long long cancelled = 0;
  long long failed = 0;
  long long cache_hits = 0;   ///< answered at submit, without any sweep
  long long batches = 0;      ///< coalesced sweeps executed
  long long coalesced_jobs = 0;  ///< jobs that shared their sweep
  long long sweep_steps = 0;  ///< matrix streams actually performed
  long long lanes_swept = 0;  ///< sum of sweep width over those steps
  /// Matrix streams an uncoalesced (one sweep per job) service would have
  /// performed for the same deliveries; solo_steps / sweep_steps is the
  /// measured matrix-traffic saving of coalescing.
  long long solo_steps = 0;
};

/// The batched multi-tenant solver daemon (see file header).
class KpmService {
 public:
  explicit KpmService(ServiceConfig config = {});
  ~KpmService();
  KpmService(const KpmService&) = delete;
  KpmService& operator=(const KpmService&) = delete;

  /// Registers an operator under `key` (the key should carry the model
  /// parameters, e.g. "ti:nx=16,ny=16,nz=4").  If no scaling is supplied it
  /// is derived from Lanczos bounds like core::compute_dos.  Jobs may only
  /// reference registered models.
  ///
  /// Re-registering an existing key REPLACES the model: jobs submitted
  /// afterwards run against (and are cache-keyed by) the new operator +
  /// scaling, batches already in flight keep the old one alive until they
  /// retire, and cached spectra of the old registration become unreachable
  /// (their keys carry the old fingerprint) rather than silently stale.
  ///
  /// Any sweepable format may be registered: the assembled block format
  /// (BSR, DESIGN §5f) and the matrix-free stencil (§5h) serve coalesced
  /// batches exactly like CRS — the job bits follow the registered
  /// operator's kernel.  BSR without an explicit scaling derives it from
  /// Lanczos bounds on its to_crs() expansion; a stencil has no assembled
  /// matrix to iterate, so its scaling is required.
  void register_model(const std::string& key, sparse::CrsMatrix h,
                      std::optional<physics::Scaling> scaling = std::nullopt);
  void register_model(const std::string& key, sparse::BsrMatrix h,
                      std::optional<physics::Scaling> scaling = std::nullopt);
  void register_model(const std::string& key, sparse::StencilOperator h,
                      physics::Scaling scaling);

  /// Admits a job.  Returns immediately; a cache hit comes back already
  /// done.  Throws kpm::contract_error for unknown models / bad params.
  std::shared_ptr<Job> submit(const JobRequest& req);

  /// Pauses job admission to the workers: submitted jobs queue up but no
  /// worker starts a new batch until resume().  Lets a client admit a burst
  /// atomically so the coalescer sees the whole queue at once and cuts
  /// full-width batches instead of whatever prefix raced in first.  Batches
  /// already running are unaffected.
  void pause();
  /// Reopens admission and wakes the workers.
  void resume();

  /// Blocks until the queue is empty and every worker is idle.  Implicitly
  /// resume()s — draining a paused service would otherwise never return.
  void drain();

  /// Stops the workers: running batches finish their current chunk and are
  /// cancelled, queued jobs are cancelled.  Idempotent; the destructor
  /// calls it.
  void shutdown();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ResultCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  using OperatorStore =
      std::variant<sparse::CrsMatrix, sparse::BsrMatrix,
                   sparse::StencilOperator>;
  struct Model {
    OperatorStore h;
    physics::Scaling scaling;
    /// core::operator_fingerprint(ref(), scaling), computed on registration;
    /// folded into every job's cache key so a replaced registration can
    /// never serve the old registration's cached spectra.
    std::uint64_t fingerprint = 0;
    /// Non-owning view into `h` for the sweep path (rebuilt on insert).
    [[nodiscard]] core::OperatorRef ref() const {
      return std::visit([](const auto& m) { return core::OperatorRef(m); }, h);
    }
  };
  struct LaneAssignment {
    std::shared_ptr<Job> job;
    int first_lane = 0;
    int served = 0;  ///< moments delivered so far
  };

  void register_operator(const std::string& key, OperatorStore h,
                         const physics::Scaling& s);
  void worker_loop();
  /// Sweeps one batch in the calling worker's `workspace` and hands the
  /// storage back into it on return (an exception leaves it empty; the
  /// next batch then allocates afresh).
  void run_batch(const Model& model, std::vector<LaneAssignment>& batch,
                 int lanes, core::SweepBlocks& workspace);
  void finalize(const std::shared_ptr<Job>& job, JobStatus status,
                std::shared_ptr<const core::MomentsResult> result,
                const std::string& error);

  ServiceConfig cfg_;
  ResultCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  /// Models are held by shared_ptr so register_model can replace a key while
  /// a worker's batch still sweeps the old operator — the batch's copy keeps
  /// it alive, new submissions see the replacement.
  std::unordered_map<std::string, std::shared_ptr<const Model>> models_;
  std::deque<std::shared_ptr<Job>> pending_;
  ServiceStats stats_;
  int busy_workers_ = 0;
  bool stopping_ = false;
  bool paused_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace kpm::service
