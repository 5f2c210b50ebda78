// Elastic runtime (DESIGN.md §5i): the fault-tolerance machinery must be
// *invisible* in the moment bits.  An event-free elastic solve reproduces the
// plain distributed solver bit for bit (chunked eta reduction == one at_end
// reduction, element-wise over the same fixed tree); a rank killed mid-chunk
// and replaced recomputes the rolled-back chunk on the same partition, so the
// final moments are bitwise equal to the uninterrupted run; a checkpointed
// solve resumed in a fresh runtime finishes with the uninterrupted bits; and
// the speculative shadow executor's chunks are bitwise identical to the live
// ranks', so commit arbitration never shows in the output.  Membership
// changes (leave/join) repartition, so there the contract is serial accuracy
// plus run-to-run bitwise determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/moments.hpp"
#include "physics/spectral_bounds.hpp"
#include "physics/stencil_models.hpp"
#include "physics/ti_model.hpp"
#include "runtime/dist_kpm.hpp"
#include "runtime/dist_matrix.hpp"
#include "runtime/elastic.hpp"
#include "util/check.hpp"

namespace kpm {
namespace {

physics::TIParams ti_params() {
  physics::TIParams p;
  p.nx = 4;
  p.ny = 4;
  p.nz = 5;
  return p;
}

sparse::CrsMatrix ti_matrix() { return physics::build_ti_hamiltonian(ti_params()); }

core::MomentParams params(int width, int moments = 24) {
  core::MomentParams mp;
  mp.num_moments = moments;
  mp.num_random = width;
  mp.seed = 11;
  return mp;
}

void expect_bitwise(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t m = 0; m < a.size(); ++m) {
    EXPECT_EQ(a[m], b[m]) << what << " moment " << m;
  }
}

/// A scratch checkpoint path unique per test (tests of one binary may run
/// concurrently under ctest -j).
std::string scratch_path(const char* tag) {
  return std::string("test_elastic_") + tag + ".ckpt";
}

TEST(Elastic, NoEventsBitwiseMatchesDistributedMoments) {
  const auto h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  for (const int width : {1, 4}) {
    for (const int nranks : {1, 3}) {
      const auto mp = params(width);
      std::vector<double> dist_mu;
      const auto part = runtime::RowPartition::uniform(h.nrows(), nranks);
      runtime::run_ranks(nranks, [&](runtime::Communicator& c) {
        runtime::DistributedMatrix dist(c, h, part);
        const auto res = runtime::distributed_moments(c, dist, s, mp);
        if (c.rank() == 0) dist_mu = res.mu;
      });
      runtime::ElasticOptions opts;
      opts.chunk_sweeps = 5;  // deliberately uneven vs the 12 total steps
      runtime::ElasticRuntime rt(h, s, mp, opts);
      const auto elastic = rt.run(nranks);
      expect_bitwise(elastic.mu, dist_mu, "elastic-vs-distributed");
      EXPECT_EQ(elastic.report.epochs, 1);
      EXPECT_EQ(elastic.report.failures_recovered, 0);
      EXPECT_EQ(elastic.report.final_ranks, nranks);
      ASSERT_EQ(elastic.report.schedule.size(), 1u);
      EXPECT_EQ(elastic.report.chunks_committed, (12 + 4) / 5);
    }
  }
}

TEST(Elastic, FailedRankWithReplacementIsBitwiseInvisible) {
  const auto h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto mp = params(4);
  runtime::ElasticOptions base;
  base.chunk_sweeps = 3;
  const auto uninterrupted =
      runtime::ElasticRuntime(h, s, mp, base).run(3);

  runtime::ElasticOptions faulty = base;
  // Two independent failures: one at the very first step (nothing committed
  // yet) and one mid-solve inside a later chunk.
  faulty.events.push_back(
      {runtime::ElasticEvent::Kind::fail, /*sweep=*/0, /*rank=*/1});
  faulty.events.push_back(
      {runtime::ElasticEvent::Kind::fail, /*sweep=*/7, /*rank=*/2});
  const auto recovered = runtime::ElasticRuntime(h, s, mp, faulty).run(3);

  expect_bitwise(recovered.mu, uninterrupted.mu, "fail+replace");
  EXPECT_EQ(recovered.report.failures_recovered, 2);
  EXPECT_GE(recovered.report.epochs, 3);  // two aborted epochs + retries
  EXPECT_EQ(recovered.report.final_ranks, 3);
  // Replacement keeps the partition: no repartition events beyond the
  // initial one.
  EXPECT_EQ(recovered.report.schedule.size(), 1u);
}

TEST(Elastic, FailWithoutReplacementShrinksTheRankSet) {
  const auto h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto mp = params(2);
  core::MomentParams serial_mp = mp;
  const auto serial = core::moments_aug_spmmv(h, s, serial_mp);

  runtime::ElasticOptions opts;
  opts.chunk_sweeps = 4;
  runtime::ElasticEvent ev{runtime::ElasticEvent::Kind::fail, /*sweep=*/5,
                           /*rank=*/1};
  ev.replace = false;
  opts.events.push_back(ev);
  const auto res = runtime::ElasticRuntime(h, s, mp, opts).run(3);

  EXPECT_EQ(res.report.failures_recovered, 1);
  EXPECT_EQ(res.report.final_ranks, 2);
  EXPECT_EQ(res.report.schedule.size(), 2u);  // initial + shrink
  ASSERT_EQ(res.mu.size(), serial.mu.size());
  for (std::size_t m = 0; m < serial.mu.size(); ++m) {
    EXPECT_NEAR(res.mu[m], serial.mu[m], 1e-9) << "moment " << m;
  }
}

TEST(Elastic, CheckpointRestartReproducesUninterruptedBits) {
  const auto h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto mp = params(4);
  runtime::ElasticOptions base;
  base.chunk_sweeps = 3;
  const auto uninterrupted =
      runtime::ElasticRuntime(h, s, mp, base).run(3);

  const std::string path = scratch_path("restart");
  std::remove(path.c_str());
  runtime::ElasticOptions first = base;
  first.checkpoint_path = path;
  first.stop_after_sweep = 7;  // not a chunk boundary: stops at commit >= 7
  const auto partial = runtime::ElasticRuntime(h, s, mp, first).run(3);
  EXPECT_GE(partial.report.checkpoints_written, 1);
  EXPECT_LT(static_cast<int>(partial.mu.size()), mp.num_moments);

  // The first runtime is gone; a fresh one resumes from the file alone.
  runtime::ElasticOptions second = base;
  second.checkpoint_path = path;
  second.resume = true;
  const auto resumed = runtime::ElasticRuntime(h, s, mp, second).run(1);
  std::remove(path.c_str());

  expect_bitwise(resumed.mu, uninterrupted.mu, "checkpoint-restart");
  EXPECT_EQ(resumed.report.final_ranks, 3);  // rank set from the checkpoint
}

TEST(Elastic, SStepCheckpointRestartReproducesUninterruptedBits) {
  // Depth-2 communication-avoiding chunks: a solve stopped mid-way and
  // resumed in a fresh runtime must finish with the uninterrupted depth-2
  // bits — which themselves equal the depth-1 bits (owned rows are depth-
  // invariant).  chunk_sweeps = 4 is a multiple of the depth, so every
  // commit (and therefore the checkpoint) lands on a round boundary.
  const auto h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto mp = params(4, /*moments=*/24);
  runtime::ElasticOptions base;
  base.chunk_sweeps = 4;
  base.halo_depth = 2;
  const auto uninterrupted = runtime::ElasticRuntime(h, s, mp, base).run(3);

  runtime::ElasticOptions flat = base;
  flat.halo_depth = 1;
  const auto depth1 = runtime::ElasticRuntime(h, s, mp, flat).run(3);
  expect_bitwise(uninterrupted.mu, depth1.mu, "sstep-clean-vs-depth1");

  const std::string path = scratch_path("sstep_restart");
  std::remove(path.c_str());
  runtime::ElasticOptions first = base;
  first.checkpoint_path = path;
  first.stop_after_sweep = 7;
  const auto partial = runtime::ElasticRuntime(h, s, mp, first).run(3);
  EXPECT_GE(partial.report.checkpoints_written, 1);

  // Resuming under a different depth re-chunks the rounds — rejected.
  runtime::ElasticOptions wrong = base;
  wrong.checkpoint_path = path;
  wrong.resume = true;
  wrong.halo_depth = 4;
  EXPECT_THROW((void)runtime::ElasticRuntime(h, s, mp, wrong).run(1),
               contract_error);

  runtime::ElasticOptions second = base;
  second.checkpoint_path = path;
  second.resume = true;
  const auto resumed = runtime::ElasticRuntime(h, s, mp, second).run(1);
  std::remove(path.c_str());
  expect_bitwise(resumed.mu, uninterrupted.mu, "sstep-checkpoint-restart");
}

TEST(Elastic, ResumeRejectsMismatchedOperatorOrParams) {
  const auto h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto mp = params(2);
  const std::string path = scratch_path("reject");
  std::remove(path.c_str());
  runtime::ElasticOptions opts;
  opts.chunk_sweeps = 3;
  opts.checkpoint_path = path;
  opts.stop_after_sweep = 3;
  (void)runtime::ElasticRuntime(h, s, mp, opts).run(2);

  runtime::ElasticOptions resume = opts;
  resume.resume = true;
  resume.stop_after_sweep = -1;

  // Same operator, different scaling: the fingerprint folds in (a, b), so
  // the restore is rejected instead of silently mixing spectra.
  const auto other_scaling =
      physics::make_scaling(physics::gershgorin_bounds(h), 0.25);
  EXPECT_THROW(
      (void)runtime::ElasticRuntime(h, other_scaling, mp, resume).run(2),
      contract_error);

  // Different operator entirely.
  physics::TIParams p2 = ti_params();
  p2.nz = 7;
  const auto h2 = physics::build_ti_hamiltonian(p2);
  EXPECT_THROW((void)runtime::ElasticRuntime(h2, s, mp, resume).run(2),
               contract_error);

  // Different run parameters (seed) under the same operator.
  core::MomentParams mp2 = mp;
  mp2.seed = 999;
  EXPECT_THROW((void)runtime::ElasticRuntime(h, s, mp2, resume).run(2),
               contract_error);

  // The original configuration still restores fine.
  const auto ok = runtime::ElasticRuntime(h, s, mp, resume).run(2);
  EXPECT_EQ(static_cast<int>(ok.mu.size()), mp.num_moments);
  std::remove(path.c_str());
}

TEST(Elastic, RestoreRejectsInflatedCountsBeforeSizingByThem) {
  // A corrupted event count or offset count must be rejected against the
  // bytes left in the file, not passed to resize(): a count of 2^40 would
  // otherwise demand terabytes before the truncation check could fire.
  const auto h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto mp = params(2);
  const std::string path = scratch_path("inflated");
  std::remove(path.c_str());
  runtime::ElasticOptions opts;
  opts.chunk_sweeps = 3;
  opts.checkpoint_path = path;
  opts.stop_after_sweep = 3;
  (void)runtime::ElasticRuntime(h, s, mp, opts).run(2);

  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Little-endian u64 fields (KPMEL003): 8 magic bytes, then fingerprint,
  // mode, depth, M, R, seed, kind, next_sweep (byte 64), n, ranks (byte
  // 80), ranks + 1 offsets, the rate table, eta, |v> and |w>, the event
  // schedule, and last the checksum.
  auto u64_at = [&](std::size_t pos) {
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      const auto byte = static_cast<unsigned char>(bytes[pos + i]);
      x |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return x;
  };
  const std::uint64_t next_sweep = u64_at(64);
  const std::uint64_t ranks = u64_at(80);
  std::size_t events_at = 88 + (ranks + 1) * 8;
  events_at += 8 + u64_at(events_at) * 8;
  events_at += static_cast<std::size_t>(mp.num_random) * 2 * next_sweep * 8;
  events_at += 2 * static_cast<std::size_t>(h.nrows()) * mp.num_random * 16;
  // One schedule entry: sweep 0 on the initial partition.
  ASSERT_EQ(u64_at(events_at), 1u);
  ASSERT_EQ(bytes.size(), events_at + 8 + 16 + (ranks + 1) * 8 + 8);

  runtime::ElasticOptions resume = opts;
  resume.resume = true;
  resume.stop_after_sweep = -1;
  // The event count, then the offset count of the first event.
  for (const std::size_t field : {events_at, events_at + 16}) {
    std::vector<char> patched = bytes;
    for (int i = 0; i < 8; ++i) {
      patched[field + i] =
          static_cast<char>((std::uint64_t{1} << 40) >> (8 * i));
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(patched.data(), static_cast<std::streamsize>(patched.size()));
    }
    try {
      (void)runtime::ElasticRuntime(h, s, mp, resume).run(2);
      ADD_FAILURE() << "restore accepted a count of 2^40 at byte " << field;
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find("count exceeds"), std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Elastic, RestoreRejectsFlippedPayloadBitAndOlderVersions) {
  const auto h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto mp = params(2);
  const std::string path = scratch_path("flipped");
  std::remove(path.c_str());
  runtime::ElasticOptions opts;
  opts.chunk_sweeps = 3;
  opts.checkpoint_path = path;
  opts.stop_after_sweep = 3;
  (void)runtime::ElasticRuntime(h, s, mp, opts).run(2);

  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  runtime::ElasticOptions resume = opts;
  resume.resume = true;
  resume.stop_after_sweep = -1;
  const auto restore = [&](const std::vector<char>& file) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(file.data(), static_cast<std::streamsize>(file.size()));
    }
    try {
      (void)runtime::ElasticRuntime(h, s, mp, resume).run(2);
    } catch (const contract_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  // One bit of the imaginary part of |v>(1, 0), found through the layout
  // above: every field the parse checks is intact, so only the checksum
  // can catch it.
  auto u64_at = [&](std::size_t pos) {
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      const auto byte = static_cast<unsigned char>(bytes[pos + i]);
      x |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return x;
  };
  std::size_t v_at = 88 + (u64_at(80) + 1) * 8;
  v_at += 8 + u64_at(v_at) * 8;
  v_at += static_cast<std::size_t>(mp.num_random) * 2 * u64_at(64) * 8;
  std::vector<char> flipped = bytes;
  flipped[v_at + static_cast<std::size_t>(mp.num_random) * 16 + 8 + 2] ^= 0x10;
  EXPECT_NE(restore(flipped).find("checksum"), std::string::npos);

  // A version-002 file (no checksum) fails the magic check first.
  std::vector<char> older = bytes;
  older[7] = '2';
  older.resize(older.size() - 8);
  EXPECT_NE(restore(older).find("bad magic"), std::string::npos);

  // The untouched file still restores.
  EXPECT_EQ(restore(bytes), "");
  std::remove(path.c_str());
}

TEST(Elastic, ResumeDoesNotRefireMembershipEventsAlreadyApplied) {
  // Regression: fired flags are not serialized, so a resume with the same
  // event plan used to re-fire leave/join events whose membership change was
  // already baked into the checkpointed partition — repartitioning a second
  // time and diverging from the uninterrupted run.  The restore must mark
  // events with sweep < restored next_sweep as consumed (strictly <: a
  // checkpoint taken AT the boundary sweep predates the event firing).
  const auto h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto mp = params(4);
  runtime::ElasticOptions base;
  base.chunk_sweeps = 3;
  base.events.push_back(
      {runtime::ElasticEvent::Kind::leave, /*sweep=*/4, /*rank=*/1});
  base.events.push_back(
      {runtime::ElasticEvent::Kind::join, /*sweep=*/8, /*rank=*/0});
  const auto uninterrupted = runtime::ElasticRuntime(h, s, mp, base).run(3);
  ASSERT_EQ(uninterrupted.report.schedule.size(), 3u);

  // Stop after the leave fired (frontier 7 > 4) but before the join (8).
  const std::string path = scratch_path("refire");
  std::remove(path.c_str());
  runtime::ElasticOptions first = base;
  first.checkpoint_path = path;
  first.stop_after_sweep = 7;
  const auto partial = runtime::ElasticRuntime(h, s, mp, first).run(3);
  EXPECT_EQ(partial.report.leaves, 1);
  EXPECT_EQ(partial.report.joins, 0);

  runtime::ElasticOptions resume = first;
  resume.resume = true;
  resume.stop_after_sweep = -1;
  const auto resumed = runtime::ElasticRuntime(h, s, mp, resume).run(1);
  std::remove(path.c_str());

  // The already-applied leave must not repartition again; the pending join
  // still fires at its boundary.  Schedule and moments match the
  // uninterrupted run exactly.
  EXPECT_EQ(resumed.report.leaves, 0);
  EXPECT_EQ(resumed.report.joins, 1);
  EXPECT_EQ(resumed.report.final_ranks, 3);
  ASSERT_EQ(resumed.report.schedule.size(), 3u);
  EXPECT_EQ(resumed.report.schedule[1].sweep, 4);
  EXPECT_EQ(resumed.report.schedule[2].sweep, 8);
  expect_bitwise(resumed.mu, uninterrupted.mu, "resume-no-refire");
}

TEST(Elastic, EveryNonReplaceFailureShrinksTheRankSet) {
  // Regression: a single "last failed event" slot dropped one membership
  // shrink when two no-replacement failures fired in the same epoch.  Both
  // ranks must leave whether the failures land in one epoch or two.
  const auto h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto mp = params(2);
  const auto serial = core::moments_aug_spmmv(h, s, mp);

  runtime::ElasticOptions opts;
  opts.chunk_sweeps = 4;
  for (const int rank : {1, 2}) {
    runtime::ElasticEvent ev{runtime::ElasticEvent::Kind::fail, /*sweep=*/5,
                             rank};
    ev.replace = false;
    opts.events.push_back(ev);
  }
  const auto res = runtime::ElasticRuntime(h, s, mp, opts).run(4);

  EXPECT_EQ(res.report.final_ranks, 2);
  EXPECT_EQ(res.report.schedule.size(), 3u);  // initial + two shrinks
  EXPECT_GE(res.report.failures_recovered, 1);
  ASSERT_EQ(res.mu.size(), serial.mu.size());
  for (std::size_t m = 0; m < serial.mu.size(); ++m) {
    EXPECT_NEAR(res.mu[m], serial.mu[m], 1e-9) << "moment " << m;
  }
}

TEST(Elastic, CheckpointWriteFailureSurfacesAsErrorNotTermination) {
  // A failing checkpoint write (unwritable directory) must unwind cleanly
  // out of run() as a contract error — through the rank threads and past
  // any shadow executor — not std::terminate inside a worker thread.
  const auto h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto mp = params(2);
  runtime::ElasticOptions opts;
  opts.chunk_sweeps = 3;
  opts.checkpoint_path = "test_elastic_no_such_dir/ckpt.bin";
  EXPECT_THROW((void)runtime::ElasticRuntime(h, s, mp, opts).run(3),
               contract_error);
}

TEST(Elastic, StragglerSpeculationKeepsBitsAndWins) {
  const auto h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto mp = params(2);
  runtime::ElasticOptions base;
  base.chunk_sweeps = 2;
  base.speculate = false;
  const auto baseline = runtime::ElasticRuntime(h, s, mp, base).run(3);

  runtime::ElasticOptions slow = base;
  slow.speculate = true;
  slow.straggle_threshold = 1.5;
  runtime::ElasticEvent ev{runtime::ElasticEvent::Kind::straggle, /*sweep=*/0,
                           /*rank=*/2};
  // Large enough that the straggler's injected *wall-clock* sleep dwarfs the
  // shadow's serial re-execution of a chunk, so the shadow reliably commits
  // first at least once.
  ev.slowdown = 60.0;
  slow.events.push_back(ev);
  const auto raced = runtime::ElasticRuntime(h, s, mp, slow).run(3);

  // The arbitration must be invisible: whichever copy committed each chunk,
  // the moments carry the exact uninterrupted bits.
  expect_bitwise(raced.mu, baseline.mu, "speculation");
  EXPECT_GE(raced.report.speculations, 1);
  EXPECT_GE(raced.report.speculation_wins, 1);
  ASSERT_EQ(raced.report.rates.size(), 3u);
  // The rate EMA saw the straggle: the slowed rank is the slowest.
  EXPECT_LT(raced.report.rates[2], raced.report.rates[0]);
  EXPECT_LT(raced.report.rates[2], raced.report.rates[1]);
}

TEST(Elastic, LeaveAndJoinScaleTheRankSetMidSolve) {
  const auto h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto mp = params(4);
  const auto serial = core::moments_aug_spmmv(h, s, mp);

  runtime::ElasticOptions opts;
  opts.chunk_sweeps = 3;
  opts.events.push_back(
      {runtime::ElasticEvent::Kind::leave, /*sweep=*/4, /*rank=*/1});
  opts.events.push_back(
      {runtime::ElasticEvent::Kind::join, /*sweep=*/8, /*rank=*/0});
  const auto first = runtime::ElasticRuntime(h, s, mp, opts).run(3);

  EXPECT_EQ(first.report.leaves, 1);
  EXPECT_EQ(first.report.joins, 1);
  EXPECT_EQ(first.report.final_ranks, 3);  // 3 - 1 + 1
  // Initial partition + one per membership change, each cut at the first
  // chunk boundary >= the event sweep.
  ASSERT_EQ(first.report.schedule.size(), 3u);
  EXPECT_EQ(first.report.schedule[1].sweep, 4);
  EXPECT_EQ(first.report.schedule[2].sweep, 8);
  EXPECT_EQ(first.report.epochs, 3);

  ASSERT_EQ(first.mu.size(), serial.mu.size());
  for (std::size_t m = 0; m < serial.mu.size(); ++m) {
    EXPECT_NEAR(first.mu[m], serial.mu[m], 1e-9) << "moment " << m;
  }
  // Uniform repartitions are deterministic: a second identical run must
  // reproduce the first bit for bit.
  const auto second = runtime::ElasticRuntime(h, s, mp, opts).run(3);
  expect_bitwise(second.mu, first.mu, "repeat determinism");
}

TEST(Elastic, StencilRuntimeBitwiseMatchesAssembledElastic) {
  const auto p = ti_params();
  const auto h = physics::build_ti_hamiltonian(p);
  const auto st = physics::make_ti_stencil(p);
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto mp = params(4);
  runtime::ElasticOptions opts;
  opts.chunk_sweeps = 4;

  const auto crs = runtime::ElasticRuntime(h, s, mp, opts).run(3);
  const auto stencil = runtime::ElasticRuntime(st, h, s, mp, opts).run(3);
  expect_bitwise(stencil.mu, crs.mu, "stencil-vs-crs");

  // Fail + replace must be bitwise invisible on the matrix-free path too
  // (the recovery epoch re-localizes the stencil on the same partition).
  runtime::ElasticOptions faulty = opts;
  faulty.events.push_back(
      {runtime::ElasticEvent::Kind::fail, /*sweep=*/6, /*rank=*/0});
  const auto recovered = runtime::ElasticRuntime(st, h, s, mp, faulty).run(3);
  expect_bitwise(recovered.mu, stencil.mu, "stencil fail+replace");
  EXPECT_EQ(recovered.report.failures_recovered, 1);
}

TEST(Elastic, StencilCheckpointIsNotInterchangeableWithAssembled) {
  // The checkpoint records whether the solve was matrix-free; a stencil
  // checkpoint must not restore into an assembled runtime (or vice versa)
  // even though the fingerprint (taken from the assembled pairing) matches.
  const auto p = ti_params();
  const auto h = physics::build_ti_hamiltonian(p);
  const auto st = physics::make_ti_stencil(p);
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto mp = params(1, /*moments=*/8);
  const std::string path = scratch_path("mode");
  std::remove(path.c_str());
  runtime::ElasticOptions opts;
  opts.chunk_sweeps = 2;
  opts.checkpoint_path = path;
  opts.stop_after_sweep = 2;
  (void)runtime::ElasticRuntime(st, h, s, mp, opts).run(2);
  runtime::ElasticOptions resume = opts;
  resume.resume = true;
  EXPECT_THROW((void)runtime::ElasticRuntime(h, s, mp, resume).run(2),
               contract_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kpm
