// Tests for the resumable sweep sessions and the batched multi-tenant KPM
// service: chunked/resumed/cancelled solves must be bitwise identical to an
// uninterrupted moments_of_block(), service-delivered moments must be bitwise
// identical to the direct library call for every coalesced batch width, and
// the content-addressed result cache must evict in LRU order.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/damping.hpp"
#include "core/moments.hpp"
#include "core/sweep_session.hpp"
#include "physics/spectral_bounds.hpp"
#include "physics/ti_model.hpp"
#include "physics/stencil_models.hpp"
#include "service/result_cache.hpp"
#include "service/service.hpp"
#include "sparse/bsr.hpp"
#include "sparse/stencil.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace kpm {
namespace {

sparse::CrsMatrix small_ti() {
  physics::TIParams p;
  p.nx = 4;
  p.ny = 4;
  p.nz = 3;
  return physics::build_ti_hamiltonian(p);
}

physics::Scaling scaling_for(const sparse::CrsMatrix& h) {
  return physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
}

/// The start block a (seed, kind, R) request generates — column r is the
/// r-th vector of the seeded source, exactly as the service admits it.
blas::BlockVector start_block(const sparse::CrsMatrix& h, std::uint64_t seed,
                              int width,
                              RandomVectorKind kind = RandomVectorKind::phase) {
  blas::BlockVector v0(h.nrows(), width);
  aligned_vector<complex_t> col(static_cast<std::size_t>(h.nrows()));
  RandomVectorSource rng(seed, kind);
  for (int r = 0; r < width; ++r) {
    rng.fill(col);
    v0.set_column(r, col);
  }
  return v0;
}

void expect_bitwise(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " index " << i;
  }
}

// --- SweepSession resumability ----------------------------------------------

TEST(SweepSession, ChunkedAdvanceBitwiseEqualsUninterrupted) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  const int M = 64;
  for (const int width : {1, 4, 32}) {
    const auto v0 = start_block(h, 100 + static_cast<std::uint64_t>(width),
                                width);
    const auto direct = core::moments_of_block(h, s, v0, M);

    core::SweepSession session(h, s, v0, M);
    while (!session.done()) session.advance(3);  // uneven chunking
    ASSERT_EQ(session.completed(), M);
    for (int r = 0; r < width; ++r) {
      const auto mu = session.mu(r);
      expect_bitwise({mu.begin(), mu.end()}, direct[static_cast<std::size_t>(r)],
                     "chunked lane");
    }
  }
}

TEST(SweepSession, CheckpointRestoreBitwiseEqualsUninterrupted) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  const int M = 48, width = 4;
  const auto v0 = start_block(h, 42, width);
  const auto direct = core::moments_of_block(h, s, v0, M);

  core::SweepSession first(h, s, v0, M);
  first.advance(7);  // mid-flight, past the start-up step
  const core::SweepCheckpoint saved = first.checkpoint();
  // The interrupted session is discarded; a restored one finishes the job.
  core::SweepSession resumed(h, s, saved);
  EXPECT_EQ(resumed.completed(), first.completed());
  resumed.advance_all();
  ASSERT_EQ(resumed.completed(), M);
  for (int r = 0; r < width; ++r) {
    const auto mu = resumed.mu(r);
    expect_bitwise({mu.begin(), mu.end()}, direct[static_cast<std::size_t>(r)],
                   "restored lane");
  }
}

TEST(SweepSession, CancelledLaneFreezesOthersUnperturbed) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  const int M = 64, width = 4;
  const auto v0 = start_block(h, 9, width);
  const auto direct = core::moments_of_block(h, s, v0, M);

  core::SweepSession session(h, s, v0, M);
  session.advance(5);
  const int frozen_at = session.completed();
  session.deactivate_lane(1);
  EXPECT_TRUE(session.compact());
  EXPECT_EQ(session.sweep_width(), width - 1);
  EXPECT_EQ(session.active_lanes(), width - 1);
  session.advance_all();
  ASSERT_EQ(session.completed(), M);

  // The cancelled lane's prefix froze; the surviving lanes are bitwise equal
  // to the uninterrupted full-width run (lane arithmetic is
  // width-independent).
  EXPECT_EQ(static_cast<int>(session.mu(1).size()), frozen_at);
  for (const int r : {0, 2, 3}) {
    const auto mu = session.mu(r);
    expect_bitwise({mu.begin(), mu.end()}, direct[static_cast<std::size_t>(r)],
                   "surviving lane");
  }
  const auto prefix = session.mu(1);
  for (int m = 0; m < frozen_at; ++m) {
    EXPECT_EQ(prefix[m], direct[1][static_cast<std::size_t>(m)]);
  }
}

TEST(SweepSession, CancelledThenRestartedMatchesDirect) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  const int M = 32, width = 2;
  const auto v0 = start_block(h, 77, width);
  {
    core::SweepSession doomed(h, s, v0, M);
    doomed.advance(4);
    doomed.deactivate_lane(0);
    doomed.deactivate_lane(1);
    EXPECT_TRUE(doomed.done());  // no active lanes => done
  }
  // A restart from scratch (the service requeues cancelled-then-resubmitted
  // jobs as fresh sweeps) reproduces the direct bits.
  core::SweepSession restarted(h, s, v0, M);
  restarted.advance_all();
  const auto direct = core::moments_of_block(h, s, v0, M);
  for (int r = 0; r < width; ++r) {
    const auto mu = restarted.mu(r);
    expect_bitwise({mu.begin(), mu.end()}, direct[static_cast<std::size_t>(r)],
                   "restarted lane");
  }
}

// --- Service: coalescing parity, streaming, cache ---------------------------

service::ServiceConfig test_config(int max_batch_width, int chunk_moments = 8) {
  service::ServiceConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch_width = max_batch_width;
  cfg.chunk_moments = chunk_moments;
  cfg.cache_bytes = std::size_t{1} << 20;
  return cfg;
}

TEST(Service, CoalescedMomentsBitwiseMatchDirectAtEveryBatchWidth) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  struct Req {
    std::uint64_t seed;
    int R;
    int M;
  };
  const std::vector<Req> reqs{{1, 1, 16}, {2, 3, 32}, {3, 2, 24}, {4, 4, 32},
                              {5, 1, 8}};
  for (const int batch_width : {1, 4, 8, 32}) {
    service::KpmService svc(test_config(batch_width));
    svc.register_model("ti", h, s);
    std::vector<std::shared_ptr<service::Job>> jobs;
    for (const auto& rq : reqs) {
      service::JobRequest jr;
      jr.model = "ti";
      jr.num_moments = rq.M;
      jr.num_random = rq.R;
      jr.seed = rq.seed;
      jobs.push_back(svc.submit(jr));
    }
    svc.drain();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_EQ(jobs[i]->wait(), service::JobStatus::done)
          << "batch_width=" << batch_width << " job " << i;
      const auto& res = jobs[i]->result();
      const auto v0 = start_block(h, reqs[i].seed, reqs[i].R);
      const auto direct = core::moments_of_block(h, s, v0, reqs[i].M);
      ASSERT_EQ(res.per_vector.size(), static_cast<std::size_t>(reqs[i].R));
      for (int r = 0; r < reqs[i].R; ++r) {
        expect_bitwise(res.per_vector[static_cast<std::size_t>(r)],
                       direct[static_cast<std::size_t>(r)], "service lane");
      }
      // Streamed prefix == final averaged moments.
      expect_bitwise(jobs[i]->partial_mu(), res.mu, "streamed mu");
    }
    const auto st = svc.stats();
    EXPECT_EQ(st.completed, static_cast<long long>(reqs.size()));
    if (batch_width >= 8) {
      EXPECT_GT(st.coalesced_jobs, 0) << "batch_width=" << batch_width;
    }
  }
}

TEST(Service, CoalescedBsrModelBitwiseMatchesSoloCrs) {
  // A model registered in BSR serves coalesced batches through the same
  // SweepSession as CRS; since the block kernel walks scalar rows in the
  // assembled column order, every delivered lane must equal the solo
  // CRS-path moments_of_block() bit for bit.
  const auto h = small_ti();
  const auto s = scaling_for(h);
  service::KpmService svc(test_config(8));
  svc.register_model("ti-bsr", sparse::BsrMatrix(h, 4), s);
  struct Req {
    std::uint64_t seed;
    int R;
    int M;
  };
  const std::vector<Req> reqs{{11, 2, 24}, {12, 3, 32}, {13, 1, 16}};
  std::vector<std::shared_ptr<service::Job>> jobs;
  for (const auto& rq : reqs) {
    service::JobRequest jr;
    jr.model = "ti-bsr";
    jr.num_moments = rq.M;
    jr.num_random = rq.R;
    jr.seed = rq.seed;
    jobs.push_back(svc.submit(jr));
  }
  svc.drain();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(jobs[i]->wait(), service::JobStatus::done) << "job " << i;
    const auto& res = jobs[i]->result();
    const auto v0 = start_block(h, reqs[i].seed, reqs[i].R);
    const auto direct = core::moments_of_block(h, s, v0, reqs[i].M);
    ASSERT_EQ(res.per_vector.size(), static_cast<std::size_t>(reqs[i].R));
    for (int r = 0; r < reqs[i].R; ++r) {
      expect_bitwise(res.per_vector[static_cast<std::size_t>(r)],
                     direct[static_cast<std::size_t>(r)], "bsr service lane");
    }
  }
  EXPECT_GT(svc.stats().coalesced_jobs, 0)
      << "batch never coalesced — the test proved nothing about batching";
}

TEST(Service, StencilModelBitwiseMatchesAssembledCrs) {
  // A matrix-free model (explicit scaling: there is no assembled matrix to
  // run Lanczos on) must deliver the assembled-CRS moments bit for bit.
  physics::TIParams p;
  p.nx = 4;
  p.ny = 4;
  p.nz = 3;
  const auto h = physics::build_ti_hamiltonian(p);
  const auto s = scaling_for(h);
  service::KpmService svc(test_config(4));
  svc.register_model("ti-stencil", physics::make_ti_stencil(p), s);
  service::JobRequest jr;
  jr.model = "ti-stencil";
  jr.num_moments = 32;
  jr.num_random = 4;
  jr.seed = 77;
  auto job = svc.submit(jr);
  ASSERT_EQ(job->wait(), service::JobStatus::done);
  const auto& res = job->result();
  const auto v0 = start_block(h, 77, 4);
  const auto direct = core::moments_of_block(h, s, v0, 32);
  ASSERT_EQ(res.per_vector.size(), direct.size());
  for (std::size_t r = 0; r < direct.size(); ++r) {
    expect_bitwise(res.per_vector[r], direct[r], "stencil service lane");
  }
}

TEST(Service, SoloJobBitwiseMatchesMomentsAugSpmmv) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  core::MomentParams p;
  p.num_moments = 32;
  p.num_random = 4;
  p.seed = 123;
  const auto direct = core::moments_aug_spmmv(h, s, p);

  service::KpmService svc(test_config(4));
  svc.register_model("ti", h, s);
  service::JobRequest jr;
  jr.model = "ti";
  jr.num_moments = p.num_moments;
  jr.num_random = p.num_random;
  jr.seed = p.seed;
  auto job = svc.submit(jr);
  ASSERT_EQ(job->wait(), service::JobStatus::done);
  const auto& res = job->result();
  EXPECT_EQ(res.dimension, direct.dimension);
  expect_bitwise(res.mu, direct.mu, "averaged mu");
  ASSERT_EQ(res.per_vector.size(), direct.per_vector.size());
  for (std::size_t r = 0; r < res.per_vector.size(); ++r) {
    expect_bitwise(res.per_vector[r], direct.per_vector[r], "per-vector");
  }
}

TEST(Service, StreamsPartialMomentPrefix) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  service::KpmService svc(test_config(4, /*chunk_moments=*/8));
  svc.register_model("ti", h, s);
  service::JobRequest jr;
  jr.model = "ti";
  jr.num_moments = 64;
  jr.num_random = 2;
  jr.seed = 5;
  auto job = svc.submit(jr);
  const int got = job->wait_moments(8);
  EXPECT_GE(got, 8);
  const auto prefix = job->partial_mu();
  ASSERT_EQ(job->wait(), service::JobStatus::done);
  const auto& final_mu = job->result().mu;
  for (std::size_t m = 0; m < prefix.size(); ++m) {
    EXPECT_EQ(prefix[m], final_mu[m]) << "streamed prefix diverged at " << m;
  }
}

TEST(Service, CancelStopsDeliveryEarly) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  service::KpmService svc(test_config(2, /*chunk_moments=*/2));
  svc.register_model("ti", h, s);
  service::JobRequest jr;
  jr.model = "ti";
  jr.num_moments = 4096;  // long enough that cancellation lands mid-sweep
  jr.num_random = 1;
  jr.seed = 6;
  auto job = svc.submit(jr);
  job->wait_moments(2);
  job->cancel();
  const auto st = job->wait();
  // The cancel races job completion only if the whole 2048-step sweep beats
  // the wakeup; accept both, but a cancelled job must hold a valid prefix.
  ASSERT_TRUE(st == service::JobStatus::cancelled ||
              st == service::JobStatus::done);
  if (st == service::JobStatus::cancelled) {
    EXPECT_LT(job->moments_available(), jr.num_moments);
    const auto v0 = start_block(h, jr.seed, jr.num_random);
    const auto direct = core::moments_of_block(h, s, v0, jr.num_moments);
    const auto prefix = job->partial_mu();
    for (std::size_t m = 0; m < prefix.size(); ++m) {
      EXPECT_EQ(prefix[m], direct[0][m]);
    }
    EXPECT_EQ(svc.stats().cancelled, 1);
  }
}

TEST(Service, WarmCacheHitReturnsWithoutSweep) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  service::KpmService svc(test_config(4));
  svc.register_model("ti", h, s);
  service::JobRequest jr;
  jr.model = "ti";
  jr.num_moments = 32;
  jr.num_random = 2;
  jr.seed = 8;
  auto cold = svc.submit(jr);
  ASSERT_EQ(cold->wait(), service::JobStatus::done);
  svc.drain();
  const auto before = svc.stats();

  auto warm = svc.submit(jr);
  EXPECT_EQ(warm->status(), service::JobStatus::done);  // done at submit
  EXPECT_TRUE(warm->from_cache());
  EXPECT_FALSE(cold->from_cache());
  const auto after = svc.stats();
  EXPECT_EQ(after.sweep_steps, before.sweep_steps);  // no sweep at all
  EXPECT_EQ(after.cache_hits, before.cache_hits + 1);
  expect_bitwise(warm->result().mu, cold->result().mu, "cached mu");
}

TEST(Service, PausedBurstCoalescesIntoOneFullWidthBatch) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  service::KpmService svc(test_config(8));
  svc.register_model("ti", h, s);

  // Paused: all 8 jobs queue before any worker peeks, so the coalescer
  // must cut exactly one full-width batch — no racing a narrow prefix.
  svc.pause();
  std::vector<std::shared_ptr<service::Job>> jobs;
  for (int i = 0; i < 8; ++i) {
    service::JobRequest jr;
    jr.model = "ti";
    jr.num_moments = 16;
    jr.seed = 100 + static_cast<std::uint64_t>(i);
    jobs.push_back(svc.submit(jr));
  }
  EXPECT_EQ(svc.stats().batches, 0);  // nothing started while paused
  for (const auto& job : jobs) {
    EXPECT_EQ(job->status(), service::JobStatus::queued);
  }
  svc.drain();  // implicit resume

  const auto st = svc.stats();
  EXPECT_EQ(st.batches, 1);
  EXPECT_EQ(st.coalesced_jobs, 8);
  EXPECT_EQ(st.sweep_steps, 8);   // one 16-moment sweep, not eight
  EXPECT_EQ(st.lanes_swept, 64);  // ... at the full width of 8 lanes
  for (const auto& job : jobs) {
    EXPECT_EQ(job->wait(), service::JobStatus::done);
    EXPECT_EQ(job->batch_width(), 8);
  }
}

TEST(Service, EmptyQueueDrainAndShutdownAreClean) {
  const auto h = small_ti();
  service::KpmService svc(test_config(4));
  svc.register_model("ti", h);
  svc.drain();  // zero jobs admitted: must not hang
  EXPECT_EQ(svc.stats().submitted, 0);
  svc.shutdown();
  svc.shutdown();  // idempotent
  service::JobRequest jr;
  jr.model = "ti";
  EXPECT_THROW(svc.submit(jr), contract_error);
}

TEST(Service, RejectsInvalidRequests) {
  const auto h = small_ti();
  service::KpmService svc(test_config(4));
  svc.register_model("ti", h);
  service::JobRequest jr;
  jr.model = "nope";
  EXPECT_THROW(svc.submit(jr), contract_error);
  jr.model = "ti";
  jr.num_moments = 7;  // odd
  EXPECT_THROW(svc.submit(jr), contract_error);
  jr.num_moments = 16;
  jr.num_random = 0;
  EXPECT_THROW(svc.submit(jr), contract_error);
}

// --- Stale-cache regression (re-registration, scaling, damping keys) --------

TEST(Service, ReRegisteredModelDoesNotServeStaleCachedResults) {
  // The cache key folds in the spectral scaling and the operator
  // fingerprint, so replacing a model under the same key must MISS the
  // cache and produce the new operator's moments — not replay the old ones.
  const auto h = small_ti();
  const auto s = scaling_for(h);
  physics::TIParams p2;
  p2.nx = 4;
  p2.ny = 4;
  p2.nz = 4;  // different operator under the same model key
  const auto h2 = physics::build_ti_hamiltonian(p2);
  const auto s2 = scaling_for(h2);

  service::KpmService svc(test_config(4));
  svc.register_model("ti", h, s);
  service::JobRequest jr;
  jr.model = "ti";
  jr.num_moments = 24;
  jr.num_random = 2;
  jr.seed = 21;
  auto first = svc.submit(jr);
  ASSERT_EQ(first->wait(), service::JobStatus::done);
  svc.drain();

  svc.register_model("ti", h2, s2);
  auto second = svc.submit(jr);
  ASSERT_EQ(second->wait(), service::JobStatus::done);
  EXPECT_FALSE(second->from_cache()) << "stale cache hit across re-register";
  const auto v0 = start_block(h2, jr.seed, jr.num_random);
  const auto direct = core::moments_of_block(h2, s2, v0, jr.num_moments);
  for (int r = 0; r < jr.num_random; ++r) {
    expect_bitwise(second->result().per_vector[static_cast<std::size_t>(r)],
                   direct[static_cast<std::size_t>(r)], "replaced model lane");
  }
  svc.drain();

  // Re-registering the ORIGINAL operator keys back to the original entry:
  // the first result is still valid for it and may be served from cache.
  svc.register_model("ti", h, s);
  auto third = svc.submit(jr);
  ASSERT_EQ(third->wait(), service::JobStatus::done);
  expect_bitwise(third->result().mu, first->result().mu, "restored model mu");
}

TEST(Service, ScalingChangeAloneInvalidatesTheCacheKey) {
  // Same matrix, different (a, b): identical request parameters used to
  // collide onto one cache entry and replay the wrong spectrum's moments.
  const auto h = small_ti();
  const auto s = scaling_for(h);
  const auto s_wide =
      physics::make_scaling(physics::gershgorin_bounds(h), 0.30);
  ASSERT_NE(s.a, s_wide.a);

  service::KpmService svc(test_config(4));
  svc.register_model("ti", h, s);
  service::JobRequest jr;
  jr.model = "ti";
  jr.num_moments = 24;
  jr.num_random = 1;
  jr.seed = 31;
  auto narrow = svc.submit(jr);
  ASSERT_EQ(narrow->wait(), service::JobStatus::done);
  svc.drain();

  svc.register_model("ti", h, s_wide);
  auto wide = svc.submit(jr);
  ASSERT_EQ(wide->wait(), service::JobStatus::done);
  EXPECT_FALSE(wide->from_cache()) << "scaling change must miss the cache";
  const auto v0 = start_block(h, jr.seed, jr.num_random);
  const auto direct = core::moments_of_block(h, s_wide, v0, jr.num_moments);
  expect_bitwise(wide->result().per_vector[0], direct[0], "rescaled lane");
}

TEST(Service, DampingKernelsAreKeyedAndAppliedAfterAveraging) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  service::KpmService svc(test_config(4));
  svc.register_model("ti", h, s);
  service::JobRequest jr;
  jr.model = "ti";
  jr.num_moments = 32;
  jr.num_random = 2;
  jr.seed = 41;
  auto raw = svc.submit(jr);  // dirichlet: bitwise pre-damping behaviour
  ASSERT_EQ(raw->wait(), service::JobStatus::done);

  service::JobRequest jj = jr;
  jj.damping = core::DampingKernel::jackson;
  auto jackson = svc.submit(jj);
  ASSERT_EQ(jackson->wait(), service::JobStatus::done);
  EXPECT_FALSE(jackson->from_cache())
      << "damping kernel must be part of the cache key";

  // g is applied AFTER lane averaging, so every damped moment is exactly
  // one multiplication away from the raw one — bitwise.
  const auto g = core::damping_coefficients(core::DampingKernel::jackson,
                                            jr.num_moments);
  ASSERT_EQ(jackson->result().mu.size(), raw->result().mu.size());
  for (std::size_t m = 0; m < g.size(); ++m) {
    EXPECT_EQ(jackson->result().mu[m], raw->result().mu[m] * g[m])
        << "moment " << m;
    for (int r = 0; r < jr.num_random; ++r) {
      EXPECT_EQ(jackson->result().per_vector[static_cast<std::size_t>(r)][m],
                raw->result().per_vector[static_cast<std::size_t>(r)][m] *
                    g[m])
          << "lane " << r << " moment " << m;
    }
  }
  // The streamed prefix carries the damped values too (deliver and retire
  // multiply in the same order, so they agree bitwise).
  expect_bitwise(jackson->partial_mu(), jackson->result().mu, "damped stream");

  // Lorentz is keyed separately from Jackson — and by its lambda.
  service::JobRequest jl = jr;
  jl.damping = core::DampingKernel::lorentz;
  jl.lorentz_lambda = 3.0;
  auto lorentz = svc.submit(jl);
  ASSERT_EQ(lorentz->wait(), service::JobStatus::done);
  EXPECT_FALSE(lorentz->from_cache());
  const auto gl = core::damping_coefficients(core::DampingKernel::lorentz,
                                             jr.num_moments, 3.0);
  for (std::size_t m = 0; m < gl.size(); ++m) {
    EXPECT_EQ(lorentz->result().mu[m], raw->result().mu[m] * gl[m]);
  }
  EXPECT_NE(service::job_cache_key(jl),
            service::job_cache_key(jj));
  service::JobRequest jl2 = jl;
  jl2.lorentz_lambda = 5.0;
  EXPECT_NE(service::job_cache_key(jl2), service::job_cache_key(jl));
  // Dirichlet keeps the legacy key shape: cached pre-damping entries stay
  // addressable.
  EXPECT_EQ(service::job_cache_key(jr).find(":jackson"), std::string::npos);
}

TEST(SweepSession, CheckpointFingerprintRejectsMismatchedOperator) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  const int M = 16, width = 2;
  const auto v0 = start_block(h, 55, width);
  core::SweepSession session(h, s, v0, M);
  session.advance(4);
  core::SweepCheckpoint saved = session.checkpoint();
  EXPECT_NE(saved.fingerprint, 0u);

  // Different scaling over the same matrix: fingerprint differs, restore
  // refuses instead of silently mixing spectra.
  const auto s_wide = physics::make_scaling(physics::gershgorin_bounds(h), 0.30);
  EXPECT_THROW(core::SweepSession(h, s_wide, saved), contract_error);

  // Legacy checkpoints (no fingerprint recorded) are still accepted.
  core::SweepCheckpoint legacy = saved;
  legacy.fingerprint = 0;
  core::SweepSession resumed(h, s, legacy);
  resumed.advance_all();
  const auto direct = core::moments_of_block(h, s, v0, M);
  for (int r = 0; r < width; ++r) {
    const auto mu = resumed.mu(r);
    expect_bitwise({mu.begin(), mu.end()}, direct[static_cast<std::size_t>(r)],
                   "legacy-checkpoint lane");
  }
}

TEST(SweepSession, FingerprintDigestsValuesForEveryFormat) {
  // Regression: the digest used to walk values only for assembled CRS, so a
  // BSR/stencil operator with the SAME sparsity pattern but different
  // values (same kind/shape/nnz — a changed hopping, a fresh disorder
  // realization) shared its print with the old registration and could be
  // served the old cached spectra or accept the old checkpoints.
  physics::TIParams p;
  p.nx = 4;
  p.ny = 4;
  p.nz = 3;
  const auto h = physics::build_ti_hamiltonian(p);
  physics::TIParams p2 = p;
  p2.t = 1.25;  // changed hopping: identical pattern, different values
  const auto h2 = physics::build_ti_hamiltonian(p2);
  ASSERT_EQ(h.nnz(), h2.nnz());
  const auto s = scaling_for(h);

  const sparse::BsrMatrix b1(h, 4), b2(h2, 4);
  EXPECT_NE(core::operator_fingerprint(b1, s),
            core::operator_fingerprint(b2, s));

  // Narrowed storage sweeps different value bits than f64 storage: the two
  // registrations must not share cached spectra either, and the f32 value
  // stream is digested like the f64 one.
  const sparse::BsrMatrix b32(h, 4, sparse::MatrixPrecision::f32);
  const sparse::BsrMatrix b32_2(h2, 4, sparse::MatrixPrecision::f32);
  EXPECT_NE(core::operator_fingerprint(b1, s),
            core::operator_fingerprint(b32, s));
  EXPECT_NE(core::operator_fingerprint(b32, s),
            core::operator_fingerprint(b32_2, s));

  // Matrix-free: two disorder realizations share every term and boundary
  // entry; only the per-row diagonal stream differs.
  physics::AndersonParams ap;
  ap.nx = 4;
  ap.ny = 4;
  ap.nz = 4;
  ap.disorder = 2.0;
  physics::AndersonParams ap2 = ap;
  ap2.seed = ap.seed + 1;
  const auto st1 = physics::make_anderson_stencil(ap);
  const auto st2 = physics::make_anderson_stencil(ap2);
  ASSERT_EQ(st1.nnz(), st2.nnz());
  EXPECT_NE(core::operator_fingerprint(st1, s),
            core::operator_fingerprint(st2, s));

  // And the checkpoint guard the fingerprint feeds: a block-format
  // checkpoint must refuse to restore against the different-valued twin.
  const int width = 2;
  const auto v0 = start_block(h, 77, width);
  core::SweepSession session(b1, s, v0, 16);
  session.advance(4);
  core::SweepCheckpoint saved = session.checkpoint();
  EXPECT_THROW(core::SweepSession(b2, s, std::move(saved)), contract_error);
}

TEST(Service, ReRegisteredStencilModelDoesNotServeStaleCachedResults) {
  // The reviewer scenario end to end: re-register a matrix-free model under
  // the same key with a new disorder realization (same structure and nnz)
  // and repeat the identical request — the cache must MISS.
  physics::AndersonParams ap;
  ap.nx = 4;
  ap.ny = 4;
  ap.nz = 4;
  ap.disorder = 2.0;
  physics::AndersonParams ap2 = ap;
  ap2.seed = ap.seed + 1;
  const auto s =
      physics::make_scaling(physics::gershgorin_bounds(
                                physics::build_anderson_hamiltonian(ap)),
                            0.10);

  service::KpmService svc(test_config(4));
  svc.register_model("anderson", physics::make_anderson_stencil(ap), s);
  service::JobRequest jr;
  jr.model = "anderson";
  jr.num_moments = 16;
  jr.num_random = 1;
  jr.seed = 91;
  auto first = svc.submit(jr);
  ASSERT_EQ(first->wait(), service::JobStatus::done);
  svc.drain();

  // Same scaling on purpose: only the operator content distinguishes the
  // registrations, which is exactly what the fingerprint must capture.
  svc.register_model("anderson", physics::make_anderson_stencil(ap2), s);
  auto second = svc.submit(jr);
  ASSERT_EQ(second->wait(), service::JobStatus::done);
  EXPECT_FALSE(second->from_cache())
      << "stale cache hit across re-registered disorder realization";
}

TEST(Service, ReRegisterWithANewDimensionWhileOldBatchesRun) {
  // Each worker sweeps every batch in one workspace whose shape follows the
  // batch's model.  Re-registering the key with an operator of another N
  // while batches of the old one still run must leave every job with the
  // exact bits of the registration that served it (result().dimension
  // names which) — under tsan, with no race on the models, the queue or
  // the workspaces.
  const auto h1 = small_ti();  // N = 192
  physics::TIParams p2;
  p2.nx = 4;
  p2.ny = 4;
  p2.nz = 5;
  const auto h2 = physics::build_ti_hamiltonian(p2);  // N = 320
  const auto s1 = scaling_for(h1);
  const auto s2 = scaling_for(h2);
  service::ServiceConfig cfg = test_config(8);
  cfg.num_workers = 2;
  cfg.cache_bytes = 0;
  service::KpmService svc(cfg);

  std::vector<std::shared_ptr<service::Job>> jobs;
  std::uint64_t seed = 300;
  for (int round = 0; round < 6; ++round) {
    if (round % 2 == 0) {
      svc.register_model("ti", h1, s1);
    } else {
      svc.register_model("ti", h2, s2);
    }
    std::vector<std::shared_ptr<service::Job>> wave;
    for (int j = 0; j < 6; ++j) {
      service::JobRequest jr;
      jr.model = "ti";
      jr.num_moments = j % 2 == 0 ? 128 : 64;
      jr.num_random = 2 + j % 3;
      jr.seed = seed++;
      wave.push_back(svc.submit(jr));
    }
    // Re-register only once a batch of this registration is mid-sweep.
    wave.front()->wait_moments(8);
    jobs.insert(jobs.end(), wave.begin(), wave.end());
  }
  svc.drain();

  int served[2] = {0, 0};
  for (const auto& job : jobs) {
    ASSERT_EQ(job->wait(), service::JobStatus::done) << job->error();
    const auto& res = job->result();
    const bool first = res.dimension == h1.nrows();
    ASSERT_TRUE(first || res.dimension == h2.nrows());
    ++served[first ? 0 : 1];
    const auto& h = first ? h1 : h2;
    const auto& req = job->request();
    const auto direct = core::moments_of_block(
        h, first ? s1 : s2, start_block(h, req.seed, req.num_random),
        req.num_moments);
    ASSERT_EQ(res.per_vector.size(), direct.size());
    for (std::size_t r = 0; r < direct.size(); ++r) {
      expect_bitwise(res.per_vector[r], direct[r], "re-registered lane");
    }
  }
  EXPECT_GT(served[0], 0);
  EXPECT_GT(served[1], 0);
}

// --- Result cache ------------------------------------------------------------

std::shared_ptr<core::MomentsResult> make_result(int m) {
  auto r = std::make_shared<core::MomentsResult>();
  r->mu.assign(static_cast<std::size_t>(m), 0.5);
  r->per_vector.push_back(r->mu);
  r->dimension = 8;
  return r;
}

TEST(ResultCache, EvictsInLruOrderAndRespectsTouches) {
  const auto probe = make_result(16);
  const std::size_t entry = service::ResultCache::result_bytes(*probe, "a");
  service::ResultCache cache(2 * entry + entry / 2);  // room for two entries

  cache.insert("a", make_result(16));
  cache.insert("b", make_result(16));
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("b"));

  cache.insert("c", make_result(16));  // evicts "a" (least recently used)
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));

  ASSERT_NE(cache.find("b"), nullptr);  // touch: "c" becomes the LRU victim
  cache.insert("d", make_result(16));
  EXPECT_TRUE(cache.contains("b"));
  EXPECT_FALSE(cache.contains("c"));
  EXPECT_TRUE(cache.contains("d"));

  const auto st = cache.stats();
  EXPECT_EQ(st.evictions, 2);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_LE(st.bytes, st.budget);
}

TEST(ResultCache, RejectsOversizeAndZeroBudgetDisables) {
  const auto big = make_result(4096);
  const auto probe = make_result(16);
  service::ResultCache cache(
      service::ResultCache::result_bytes(*probe, "small"));
  cache.insert("small", make_result(16));
  EXPECT_TRUE(cache.contains("small"));
  cache.insert("big", big);  // larger than the whole budget: rejected,
  EXPECT_FALSE(cache.contains("big"));
  EXPECT_TRUE(cache.contains("small"));  // and evicts nothing
  EXPECT_EQ(cache.stats().oversize_rejects, 1);

  service::ResultCache disabled(0);
  disabled.insert("x", make_result(16));
  EXPECT_FALSE(disabled.contains("x"));
  EXPECT_EQ(disabled.find("x"), nullptr);
}

}  // namespace
}  // namespace kpm
