#include "service/service.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/sweep_session.hpp"
#include "runtime/autotune.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kpm::service {
namespace {

const char* kind_tag(RandomVectorKind kind) {
  switch (kind) {
    case RandomVectorKind::phase:
      return "phase";
    case RandomVectorKind::rademacher:
      return "rademacher";
    case RandomVectorKind::gaussian:
      return "gaussian";
  }
  return "?";
}

/// Hex of the raw IEEE bits — exact, unlike a decimal print of the double.
void append_double_bits(std::string& key, double x) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(x));
  std::memcpy(&bits, &x, sizeof(bits));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  key += buf;
}

}  // namespace

std::string job_cache_key(const JobRequest& req) {
  std::string key = req.model;
  key += ":M";
  key += std::to_string(req.num_moments);
  key += ":R";
  key += std::to_string(req.num_random);
  key += ":s";
  key += std::to_string(req.seed);
  key += ":";
  key += kind_tag(req.vector_kind);
  switch (req.damping) {
    case core::DampingKernel::dirichlet:
      break;  // legacy tag shape: raw moments carry no damping suffix
    case core::DampingKernel::jackson:
      key += ":jackson";
      break;
    case core::DampingKernel::lorentz:
      key += ":lorentz";
      append_double_bits(key, req.lorentz_lambda);
      break;
  }
  return key;
}

std::string job_cache_key(const JobRequest& req, const physics::Scaling& scaling,
                          std::uint64_t operator_fp) {
  std::string key = job_cache_key(req);
  key += ":a";
  append_double_bits(key, scaling.a);
  key += ":b";
  append_double_bits(key, scaling.b);
  key += ":h";
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(operator_fp));
  key += buf;
  return key;
}

const char* job_status_name(JobStatus s) noexcept {
  switch (s) {
    case JobStatus::queued:
      return "queued";
    case JobStatus::running:
      return "running";
    case JobStatus::done:
      return "done";
    case JobStatus::cancelled:
      return "cancelled";
    case JobStatus::failed:
      return "failed";
  }
  return "?";
}

// --- Job ---------------------------------------------------------------------

JobStatus Job::status() const {
  std::lock_guard lock(mutex_);
  return status_;
}

int Job::moments_available() const {
  std::lock_guard lock(mutex_);
  return static_cast<int>(partial_mu_.size());
}

int Job::wait_moments(int min_available) const {
  const int want = std::min(min_available, req_.num_moments);
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] {
    return static_cast<int>(partial_mu_.size()) >= want ||
           status_ == JobStatus::done || status_ == JobStatus::cancelled ||
           status_ == JobStatus::failed;
  });
  return static_cast<int>(partial_mu_.size());
}

std::vector<double> Job::partial_mu() const {
  std::lock_guard lock(mutex_);
  return partial_mu_;
}

JobStatus Job::wait() const {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] {
    return status_ == JobStatus::done || status_ == JobStatus::cancelled ||
           status_ == JobStatus::failed;
  });
  return status_;
}

const core::MomentsResult& Job::result() const {
  std::lock_guard lock(mutex_);
  require(status_ == JobStatus::done && result_ != nullptr,
          "Job::result: job is not done");
  return *result_;
}

bool Job::cancel() {
  std::lock_guard lock(mutex_);
  if (status_ == JobStatus::done || status_ == JobStatus::cancelled ||
      status_ == JobStatus::failed) {
    return false;
  }
  cancel_requested_ = true;
  return true;
}

bool Job::from_cache() const {
  std::lock_guard lock(mutex_);
  return from_cache_;
}

int Job::batch_width() const {
  std::lock_guard lock(mutex_);
  return batch_width_;
}

double Job::latency_seconds() const {
  std::lock_guard lock(mutex_);
  return finish_time_ > 0.0 ? finish_time_ - submit_time_ : 0.0;
}

const std::string& Job::error() const {
  std::lock_guard lock(mutex_);
  return error_;
}

// --- KpmService --------------------------------------------------------------

KpmService::KpmService(ServiceConfig config)
    : cfg_(std::move(config)), cache_(cfg_.cache_bytes) {
  require(cfg_.num_workers >= 1, "KpmService: num_workers must be >= 1");
  require(cfg_.max_batch_width >= 1,
          "KpmService: max_batch_width must be >= 1");
  require(cfg_.chunk_moments >= 2 && cfg_.chunk_moments % 2 == 0,
          "KpmService: chunk_moments must be even and >= 2");
  workers_.reserve(static_cast<std::size_t>(cfg_.num_workers));
  for (int i = 0; i < cfg_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

KpmService::~KpmService() { shutdown(); }

void KpmService::register_operator(const std::string& key, OperatorStore h,
                                   const physics::Scaling& s) {
  if (cfg_.tune_on_register) {
    runtime::AutoTuner tuner(cfg_.tune_cache_path);
    std::visit([&](const auto& m) { tuner.tune_tiles(m, cfg_.max_batch_width); },
               h);
  }
  auto model = std::make_shared<Model>();
  model->h = std::move(h);
  model->scaling = s;
  // O(nnz) digest, computed outside the lock: it becomes part of every job
  // key against this registration, so replacing the model (same key, new
  // matrix or scaling) orphans the old registration's cache entries instead
  // of serving them.
  model->fingerprint = core::operator_fingerprint(model->ref(), s);
  std::lock_guard lock(mutex_);
  models_[key] = std::move(model);
}

void KpmService::register_model(const std::string& key, sparse::CrsMatrix h,
                                std::optional<physics::Scaling> scaling) {
  require(!key.empty(), "register_model: empty model key");
  require(h.nrows() == h.ncols(), "register_model: matrix must be square");
  const physics::Scaling s =
      scaling.has_value() ? *scaling
                          : physics::make_scaling(physics::lanczos_bounds(h));
  register_operator(key, std::move(h), s);
}

void KpmService::register_model(const std::string& key, sparse::BsrMatrix h,
                                std::optional<physics::Scaling> scaling) {
  require(!key.empty(), "register_model: empty model key");
  require(h.nrows() == h.ncols(), "register_model: matrix must be square");
  const physics::Scaling s =
      scaling.has_value()
          ? *scaling
          : physics::make_scaling(physics::lanczos_bounds(h.to_crs()));
  register_operator(key, std::move(h), s);
}

void KpmService::register_model(const std::string& key,
                                sparse::SellBlockMatrix h,
                                std::optional<physics::Scaling> scaling) {
  require(!key.empty(), "register_model: empty model key");
  require(h.nrows() == h.ncols(), "register_model: matrix must be square");
  const physics::Scaling s =
      scaling.has_value()
          ? *scaling
          : physics::make_scaling(physics::lanczos_bounds(h.to_crs()));
  register_operator(key, std::move(h), s);
}

void KpmService::register_model(const std::string& key,
                                sparse::StencilOperator h,
                                physics::Scaling scaling) {
  require(!key.empty(), "register_model: empty model key");
  require(h.nrows() == h.ncols(), "register_model: matrix must be square");
  register_operator(key, std::move(h), scaling);
}

std::shared_ptr<Job> KpmService::submit(const JobRequest& req) {
  require(req.num_moments >= 2 && req.num_moments % 2 == 0,
          "submit: num_moments must be even and >= 2");
  require(req.num_random >= 1, "submit: num_random must be >= 1");

  auto job = std::shared_ptr<Job>(new Job(req));
  job->submit_time_ = Timer::now();

  {
    // Key the job against the registration that will serve it: the cache
    // key must change when a model key is re-registered with a different
    // matrix or scaling (the batch formation re-keys against its pinned
    // model, closing the submit/replace race).
    std::lock_guard lock(mutex_);
    require(!stopping_, "submit: service is shut down");
    const auto it = models_.find(req.model);
    require(it != models_.end(), "submit: unknown model key");
    job->key_ =
        job_cache_key(req, it->second->scaling, it->second->fingerprint);
  }

  auto cached = cache_.find(job->key_);
  {
    std::lock_guard lock(mutex_);
    require(!stopping_, "submit: service is shut down");
    ++stats_.submitted;
    if (cached != nullptr) {
      ++stats_.cache_hits;
      ++stats_.completed;
    } else {
      pending_.push_back(job);
    }
  }
  if (cached != nullptr) {
    std::lock_guard jlock(job->mutex_);
    job->status_ = JobStatus::done;
    job->from_cache_ = true;
    job->partial_mu_ = cached->mu;
    job->result_ = std::move(cached);
    job->finish_time_ = Timer::now();
    job->cv_.notify_all();
  } else {
    work_cv_.notify_one();
  }
  return job;
}

void KpmService::pause() {
  std::lock_guard lock(mutex_);
  paused_ = true;
}

void KpmService::resume() {
  {
    std::lock_guard lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void KpmService::drain() {
  resume();
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [&] { return pending_.empty() && busy_workers_ == 0; });
}

void KpmService::shutdown() {
  std::deque<std::shared_ptr<Job>> orphans;
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    orphans.swap(pending_);
  }
  work_cv_.notify_all();
  for (const auto& job : orphans) {
    finalize(job, JobStatus::cancelled, nullptr, "service shut down");
  }
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
}

ServiceStats KpmService::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void KpmService::finalize(const std::shared_ptr<Job>& job, JobStatus status,
                          std::shared_ptr<const core::MomentsResult> result,
                          const std::string& error) {
  {
    std::lock_guard lock(job->mutex_);
    if (job->status_ == JobStatus::done ||
        job->status_ == JobStatus::cancelled ||
        job->status_ == JobStatus::failed) {
      return;
    }
    job->status_ = status;
    if (status == JobStatus::done && result != nullptr) {
      job->partial_mu_ = result->mu;
    }
    job->result_ = result;
    job->error_ = error;
    job->finish_time_ = Timer::now();
    job->cv_.notify_all();
  }
  if (status == JobStatus::done && result != nullptr) {
    cache_.insert(job->key_, std::move(result));
  }
  std::lock_guard lock(mutex_);
  switch (status) {
    case JobStatus::done:
      ++stats_.completed;
      break;
    case JobStatus::cancelled:
      ++stats_.cancelled;
      break;
    case JobStatus::failed:
      ++stats_.failed;
      break;
    default:
      break;
  }
}

void KpmService::worker_loop() {
  for (;;) {
    std::vector<LaneAssignment> batch;
    int lanes = 0;
    std::shared_ptr<const Model> model;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stopping_ || (!paused_ && !pending_.empty());
      });
      if (stopping_) return;

      // Batch formation: take the queue head, then greedily admit further
      // queued jobs of the same model while the lane budget holds.  FIFO
      // order is preserved among the admitted jobs; skipped jobs keep their
      // queue position.  The shared_ptr copy pins this registration for the
      // whole batch even if the key is re-registered mid-sweep.
      auto head = pending_.front();
      pending_.pop_front();
      const std::string& model_key = head->req_.model;
      model = models_.at(model_key);
      batch.push_back({head, 0, 0});
      lanes = head->req_.num_random;
      for (auto it = pending_.begin(); it != pending_.end();) {
        const int r = (*it)->req_.num_random;
        if ((*it)->req_.model == model_key &&
            lanes + r <= cfg_.max_batch_width) {
          batch.push_back({*it, lanes, 0});
          lanes += r;
          it = pending_.erase(it);
        } else {
          ++it;
        }
      }
      // The pinned model is the one that computes the result, so it is the
      // one the result must be cached against — re-key any job that was
      // submitted against a registration replaced before the batch formed.
      for (auto& a : batch) {
        a.job->key_ =
            job_cache_key(a.job->req_, model->scaling, model->fingerprint);
      }
      ++busy_workers_;
      ++stats_.batches;
      if (batch.size() > 1) {
        stats_.coalesced_jobs += static_cast<long long>(batch.size());
      }
    }

    try {
      run_batch(*model, batch, lanes);
    } catch (const std::exception& e) {
      for (auto& a : batch) {
        finalize(a.job, JobStatus::failed, nullptr, e.what());
      }
    }

    {
      std::lock_guard lock(mutex_);
      --busy_workers_;
      if (pending_.empty() && busy_workers_ == 0) idle_cv_.notify_all();
    }
  }
}

void KpmService::run_batch(const Model& model,
                           std::vector<LaneAssignment>& batch, int lanes) {
  const core::OperatorRef op = model.ref();
  const global_index n = op.nrows();
  int batch_moments = 2;
  for (const auto& a : batch) {
    batch_moments = std::max(batch_moments, a.job->req_.num_moments);
  }

  // Start block: each job's lanes are generated by that job's own seeded
  // source at its first lane — exactly the stream a solo sweep of the same
  // request would consume, so the job's bits cannot depend on its batchmates.
  blas::BlockVector v0(n, lanes, blas::Layout::row_major,
                       blas::FirstTouch::parallel);
  for (const auto& a : batch) {
    RandomVectorSource(a.job->req_.seed, a.job->req_.vector_kind)
        .fill_block(v0.span(), lanes, a.first_lane, a.job->req_.num_random);
  }

  for (const auto& a : batch) {
    std::lock_guard jlock(a.job->mutex_);
    a.job->status_ = JobStatus::running;
    a.job->batch_width_ = lanes;
  }

  core::SweepSession session(op, model.scaling, std::move(v0), batch_moments);
  std::vector<char> live(batch.size(), 1);

  // Per-job damping tables g_0..g_{M-1} (core/damping.hpp), computed once
  // per batch.  An empty table (dirichlet) skips the multiply entirely, so
  // undamped jobs keep the exact pre-damping bits.
  std::vector<std::vector<double>> damp(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const JobRequest& r = batch[i].job->req_;
    if (r.damping != core::DampingKernel::dirichlet) {
      damp[i] = core::damping_coefficients(r.damping, r.num_moments,
                                           r.lorentz_lambda);
    }
  }

  // Streams the averaged moment prefix [served, avail) of one job.  The
  // summation order (ascending lane, then / R) replicates the file-static
  // average_columns() in core/moments.cpp bit for bit; damping multiplies
  // the finished average (same order as retire(), so streamed and final
  // moments agree bitwise).
  const auto deliver = [&](std::size_t i, int avail) {
    LaneAssignment& a = batch[i];
    const int job_m = a.job->req_.num_moments;
    const int upto = std::min(avail, job_m);
    if (upto <= a.served) return;
    const int width = a.job->req_.num_random;
    std::vector<double> fresh(static_cast<std::size_t>(upto - a.served), 0.0);
    for (int r = 0; r < width; ++r) {
      const auto mu = session.mu(a.first_lane + r);
      for (int m = a.served; m < upto; ++m) {
        fresh[static_cast<std::size_t>(m - a.served)] += mu[m];
      }
    }
    for (auto& x : fresh) x /= width;
    if (!damp[i].empty()) {
      for (int m = a.served; m < upto; ++m) {
        fresh[static_cast<std::size_t>(m - a.served)] *=
            damp[i][static_cast<std::size_t>(m)];
      }
    }
    std::lock_guard jlock(a.job->mutex_);
    a.job->partial_mu_.insert(a.job->partial_mu_.end(), fresh.begin(),
                              fresh.end());
    a.served = upto;
    a.job->cv_.notify_all();
  };

  const auto retire = [&](std::size_t i, JobStatus status,
                          const std::string& error) {
    LaneAssignment& a = batch[i];
    const int width = a.job->req_.num_random;
    std::shared_ptr<const core::MomentsResult> result;
    if (status == JobStatus::done) {
      const int job_m = a.job->req_.num_moments;
      auto r = std::make_shared<core::MomentsResult>();
      r->dimension = n;
      r->per_vector.reserve(static_cast<std::size_t>(width));
      for (int c = 0; c < width; ++c) {
        const auto mu = session.mu(a.first_lane + c);
        r->per_vector.emplace_back(mu.begin(), mu.begin() + job_m);
      }
      r->mu.assign(static_cast<std::size_t>(job_m), 0.0);
      for (int c = 0; c < width; ++c) {
        for (int m = 0; m < job_m; ++m) {
          r->mu[static_cast<std::size_t>(m)] += r->per_vector[c][m];
        }
      }
      for (auto& x : r->mu) x /= width;
      if (!damp[i].empty()) {
        const auto& g = damp[i];
        for (int m = 0; m < job_m; ++m) {
          r->mu[static_cast<std::size_t>(m)] *= g[static_cast<std::size_t>(m)];
        }
        for (auto& pv : r->per_vector) {
          for (int m = 0; m < job_m; ++m) {
            pv[static_cast<std::size_t>(m)] *= g[static_cast<std::size_t>(m)];
          }
        }
      }
      // Charge the job its solo-sweep cost: the coalescing saving shows up
      // in ServiceStats (sweep_steps vs solo_steps), not in per-job ops.
      r->ops.spmv_equivalents =
          static_cast<long long>(width) * (job_m / 2);
      r->ops.matrix_streams = job_m / 2;
      r->ops.global_reductions = 1;
      result = std::move(r);
    }
    finalize(a.job, status, std::move(result), error);
    for (int c = 0; c < width; ++c) session.deactivate_lane(a.first_lane + c);
    live[i] = 0;
    {
      std::lock_guard lock(mutex_);
      stats_.solo_steps += static_cast<long long>(a.served) / 2;
    }
  };

  const int chunk_steps = cfg_.chunk_moments / 2;
  while (!session.done()) {
    {
      std::lock_guard lock(mutex_);
      if (stopping_) break;
    }
    const int avail = session.advance(chunk_steps);
    bool freed = false;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!live[i]) continue;
      LaneAssignment& a = batch[i];
      bool cancelled = false;
      {
        std::lock_guard jlock(a.job->mutex_);
        cancelled = a.job->cancel_requested_;
      }
      if (cancelled) {
        retire(i, JobStatus::cancelled, "cancelled by client");
        freed = true;
        continue;
      }
      deliver(i, avail);
      if (a.served >= a.job->req_.num_moments) {
        retire(i, JobStatus::done, {});
        freed = true;
      }
    }
    if (freed && cfg_.compact_freed_lanes) session.compact();
  }

  // Shutdown mid-batch (or a zero-active session): cancel whatever is left.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (live[i]) retire(i, JobStatus::cancelled, "service shut down");
  }

  std::lock_guard lock(mutex_);
  stats_.sweep_steps += session.steps();
  stats_.lanes_swept += session.lanes_swept();
}

}  // namespace kpm::service
