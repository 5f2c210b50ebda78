// Sweep workspaces (DESIGN.md §5n).  A service worker sweeps every batch in
// one pair of blocks that grows to its widest batch, SweepSession::compact()
// narrows those blocks in place, and the elastic runtime keeps one
// checkpoint buffer for the whole run.  Every lane must still match a solo
// moments_of_block() bit for bit.  This binary links kpm_alloc_hook, so the
// steady state is also checked for allocations of 64 KiB or more.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "blas/block_vector.hpp"
#include "core/moments.hpp"
#include "core/sweep_session.hpp"
#include "physics/spectral_bounds.hpp"
#include "physics/stencil_models.hpp"
#include "physics/ti_model.hpp"
#include "runtime/elastic.hpp"
#include "service/service.hpp"
#include "sparse/bsr.hpp"
#include "sparse/crs.hpp"
#include "sparse/stencil.hpp"
#include "util/aligned.hpp"
#include "util/alloc_hook.hpp"
#include "util/random.hpp"

namespace kpm {
namespace {

physics::TIParams ti_params(int nx, int ny, int nz) {
  physics::TIParams p;
  p.nx = nx;
  p.ny = ny;
  p.nz = nz;
  return p;
}

physics::Scaling scaling_for(const sparse::CrsMatrix& h) {
  return physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
}

/// Column r is the r-th vector of the seeded source, as the service admits
/// a (seed, R) request.
blas::BlockVector start_block(global_index n, std::uint64_t seed, int width) {
  blas::BlockVector v0(n, width);
  aligned_vector<complex_t> col(static_cast<std::size_t>(n));
  RandomVectorSource rng(seed, RandomVectorKind::phase);
  for (int r = 0; r < width; ++r) {
    rng.fill(col);
    v0.set_column(r, col);
  }
  return v0;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One TI lattice in all three sweepable formats, with one scaling.
struct Operators {
  sparse::CrsMatrix crs;
  sparse::BsrMatrix bsr;
  sparse::StencilOperator stencil;
  physics::Scaling scaling;

  explicit Operators(const physics::TIParams& p)
      : crs(physics::build_ti_hamiltonian(p)),
        bsr(crs, 4),
        stencil(physics::make_ti_stencil(p)),
        scaling(scaling_for(crs)) {}

  [[nodiscard]] std::vector<std::pair<std::string, core::OperatorRef>> all()
      const {
    return {{"crs", crs}, {"bsr", bsr}, {"stencil", stencil}};
  }
};

const Operators& small_ops() {
  static const Operators ops(ti_params(4, 4, 3));  // N = 192
  return ops;
}

const Operators& large_ops() {
  static const Operators ops(ti_params(4, 4, 5));  // N = 320
  return ops;
}

// --- Allocation hook -------------------------------------------------------

TEST(AllocHook, CountsAlignedPayloadsOf64KiBAsLarge) {
  ASSERT_TRUE(util::allocation_hook_active());
  const std::int64_t all0 = util::allocation_count();
  const std::int64_t large0 = util::large_allocation_count();
  {
    const blas::BlockVector small(100, 1);                   // 1.6 KB
    const blas::BlockVector block(4096, 1);                  // 64 KiB
    const aligned_vector<double> payload(std::size_t{1} << 14);  // 128 KiB
  }
  EXPECT_EQ(util::allocation_count() - all0, 3);
  EXPECT_EQ(util::large_allocation_count() - large0, 2);
}

// --- SweepSession on caller storage ------------------------------------------

TEST(SweepSessionWorkspace, StaleCallerStorageGivesDirectBitsOnEveryFormat) {
  const Operators& ops = small_ops();
  const int M = 40, width = 5;
  const auto v0 = start_block(ops.crs.nrows(), 31, width);
  for (const auto& [name, op] : ops.all()) {
    SCOPED_TRACE(name);
    const auto direct = core::moments_of_block(op, ops.scaling, v0, M);

    // |w> storage larger than needed and full of NaN: the session must
    // clear it before the start-up step reads it.
    blas::BlockVector w(op.nrows(), 3 * width);
    w.fill({std::numeric_limits<double>::quiet_NaN(), 1.0});
    blas::BlockVector v = v0;
    const std::set<const complex_t*> storage{v.data(), w.data()};

    core::SweepSession session(op, ops.scaling, std::move(v), M, std::move(w));
    session.advance_all();
    for (int r = 0; r < width; ++r) {
      EXPECT_TRUE(bitwise_equal(session.mu(r), direct[static_cast<std::size_t>(r)]))
          << "lane " << r;
    }
    const core::SweepBlocks back = std::move(session).release();
    EXPECT_EQ((std::set<const complex_t*>{back.v.data(), back.w.data()}),
              storage)
        << "the session swept in storage other than the caller's";
    EXPECT_EQ(back.v.width(), width);
    EXPECT_EQ(back.w.rows(), op.nrows());
  }
}

struct DropCase {
  const char* name;
  int width;
  /// Lanes deactivated before each compaction (one entry per stage).
  std::vector<std::vector<int>> stages;
};

std::vector<DropCase> drop_cases() {
  const auto range = [](int begin, int end, int step) {
    std::vector<int> out;
    for (int l = begin; l < end; l += step) out.push_back(l);
    return out;
  };
  return {
      {"first", 9, {{0}}},
      {"last", 9, {{8}}},
      {"alternating", 9, {range(0, 9, 2)}},
      {"all_but_one", 9, {range(0, 8, 1)}},
      {"first_wide", 32, {{0}}},
      {"last_wide", 32, {{31}}},
      {"alternating_wide", 32, {range(1, 32, 2)}},
      {"all_but_one_wide", 32, {range(1, 32, 1)}},
      {"alternating_then_first", 32, {range(0, 32, 2), {1}}},
  };
}

TEST(SweepSessionWorkspace, CompactInPlaceKeepsEveryLaneBitwise) {
  const Operators& ops = small_ops();
  const int M = 48;
  for (const DropCase& dc : drop_cases()) {
    const auto v0 = start_block(ops.crs.nrows(), 500 + dc.width, dc.width);
    for (const auto& [name, op] : ops.all()) {
      SCOPED_TRACE(std::string(dc.name) + " on " + name);
      const auto direct = core::moments_of_block(op, ops.scaling, v0, M);
      blas::BlockVector v = v0;
      blas::BlockVector w;
      w.reshape(op.nrows(), dc.width);
      const std::set<const complex_t*> storage{v.data(), w.data()};
      core::SweepSession session(op, ops.scaling, std::move(v), M,
                                 std::move(w));
      std::vector<int> frozen_at(static_cast<std::size_t>(dc.width), M);
      int width = dc.width;
      for (const auto& drop : dc.stages) {
        session.advance(3);
        for (const int lane : drop) {
          session.deactivate_lane(lane);
          frozen_at[static_cast<std::size_t>(lane)] = session.completed();
        }
        ASSERT_TRUE(session.compact());
        width -= static_cast<int>(drop.size());
        EXPECT_EQ(session.sweep_width(), width);
      }
      session.advance_all();
      ASSERT_EQ(session.completed(), M);
      for (int r = 0; r < dc.width; ++r) {
        const auto mu = session.mu(r);
        const auto& want = direct[static_cast<std::size_t>(r)];
        ASSERT_EQ(static_cast<int>(mu.size()),
                  frozen_at[static_cast<std::size_t>(r)])
            << "lane " << r;
        EXPECT_TRUE(bitwise_equal(mu, {want.data(), mu.size()}))
            << "lane " << r;
      }
      const core::SweepBlocks back = std::move(session).release();
      EXPECT_EQ((std::set<const complex_t*>{back.v.data(), back.w.data()}),
                storage)
          << "compact() moved the blocks to new storage";
      EXPECT_EQ(back.v.width(), width);
    }
  }
}

// --- Service workers -------------------------------------------------------

service::ServiceConfig one_worker() {
  service::ServiceConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch_width = 32;
  cfg.chunk_moments = 8;
  cfg.cache_bytes = 0;  // every job sweeps
  return cfg;
}

struct Lanes {
  int R;
  int M;
};

/// Jobs whose lanes tile one batch of the given width; the mixed M makes
/// the early finishers compact the batch.
std::vector<Lanes> batch_of(int width) {
  switch (width) {
    case 1: return {{1, 16}};
    case 4: return {{1, 24}, {3, 16}};
    default: {
      std::vector<Lanes> out;
      for (int j = 0; j < width / 4; ++j) out.push_back({4, j % 2 ? 16 : 24});
      return out;
    }
  }
}

TEST(ServiceWorkspace, WorkerAlternatingModelsAndWidthsKeepsDirectBits) {
  // One worker, so one workspace serves every batch: it alternates between
  // two lattice sizes (N = 192 and 320) and three formats, at widths
  // 1 -> 32 -> 4 -> 32 -> 1.
  struct Model {
    std::string key;
    core::OperatorRef op;
    physics::Scaling scaling;
  };
  const Operators& a = small_ops();
  const Operators& b = large_ops();
  const std::vector<Model> models{{"a-crs", a.crs, a.scaling},
                                  {"b-bsr", b.bsr, b.scaling},
                                  {"a-bsr", a.bsr, a.scaling},
                                  {"b-stencil", b.stencil, b.scaling},
                                  {"b-crs", b.crs, b.scaling},
                                  {"a-stencil", a.stencil, a.scaling}};
  service::KpmService svc(one_worker());
  svc.register_model("a-crs", a.crs, a.scaling);
  svc.register_model("b-bsr", b.bsr, b.scaling);
  svc.register_model("a-bsr", a.bsr, a.scaling);
  svc.register_model("b-stencil", b.stencil, b.scaling);
  svc.register_model("b-crs", b.crs, b.scaling);
  svc.register_model("a-stencil", a.stencil, a.scaling);

  std::uint64_t seed = 1000;
  for (const int width : {1, 32, 4, 32, 1}) {
    for (const Model& m : models) {
      SCOPED_TRACE(m.key + " at width " + std::to_string(width));
      std::vector<std::shared_ptr<service::Job>> jobs;
      svc.pause();
      for (const Lanes& l : batch_of(width)) {
        service::JobRequest req;
        req.model = m.key;
        req.num_random = l.R;
        req.num_moments = l.M;
        req.seed = seed++;
        jobs.push_back(svc.submit(req));
      }
      svc.drain();
      for (const auto& job : jobs) {
        ASSERT_EQ(job->wait(), service::JobStatus::done) << job->error();
        EXPECT_EQ(job->batch_width(), width);
        const auto& req = job->request();
        const auto direct = core::moments_of_block(
            m.op, m.scaling, start_block(m.op.nrows(), req.seed, req.num_random),
            req.num_moments);
        const auto& got = job->result().per_vector;
        ASSERT_EQ(got.size(), direct.size());
        for (std::size_t r = 0; r < direct.size(); ++r) {
          EXPECT_TRUE(bitwise_equal(got[r], direct[r]))
              << "seed " << req.seed << " lane " << r;
        }
      }
    }
  }
}

/// Runs one paused batch of `jobs` (R, M) on model "ti" and returns the
/// large allocations made from submit to drain.
std::int64_t large_allocations_of_batch(service::KpmService& svc,
                                        const std::vector<Lanes>& jobs,
                                        std::uint64_t seed) {
  const std::int64_t before = util::large_allocation_count();
  std::vector<std::shared_ptr<service::Job>> handles;
  svc.pause();
  for (const Lanes& l : jobs) {
    service::JobRequest req;
    req.model = "ti";
    req.num_random = l.R;
    req.num_moments = l.M;
    req.seed = seed++;
    handles.push_back(svc.submit(req));
  }
  svc.drain();
  const std::int64_t after = util::large_allocation_count();
  for (const auto& h : handles) {
    EXPECT_EQ(h->wait(), service::JobStatus::done) << h->error();
  }
  return after - before;
}

TEST(ServiceWorkspace, SecondSameShapeBatchMakesNoLargeAllocation) {
  // N = 1,024 rows, so a width-8 block is 128 KiB, and the 28-lane batch's
  // start block needs 28 random engines (70 KB of generator state).
  const auto h = physics::build_ti_hamiltonian(ti_params(8, 8, 4));
  service::KpmService svc(one_worker());
  svc.register_model("ti", h, scaling_for(h));
  // Two shapes: early finishers (M = 16) free lanes, so both compact.
  const std::vector<Lanes> narrow{{4, 32}, {4, 16}};
  const std::vector<Lanes> wide{{28, 16}, {2, 32}, {2, 24}};

  EXPECT_GT(large_allocations_of_batch(svc, narrow, 10), 0)
      << "the first batch must grow the workspace (hook not counting?)";
  EXPECT_EQ(large_allocations_of_batch(svc, narrow, 20), 0);
  large_allocations_of_batch(svc, wide, 30);  // grows to 32 lanes
  EXPECT_EQ(large_allocations_of_batch(svc, wide, 40), 0);
  EXPECT_EQ(large_allocations_of_batch(svc, narrow, 50), 0)
      << "a narrower batch after a wide one must reuse the workspace";
  const auto st = svc.stats();
  EXPECT_LT(st.lanes_swept, 32 * st.sweep_steps) << "no batch compacted";
}

// --- Elastic runtime -------------------------------------------------------

TEST(ElasticWorkspace, ChunksAfterTheFirstCommitMakeNoLargeAllocation) {
  // N = 1,024 rows at 8 lanes: 128 KiB blocks and a 256 KiB checkpoint.
  // A run that commits five chunks must make exactly the large allocations
  // of a run that stops after its first commit: the four later chunks,
  // each with its checkpoint, allocate nothing large.
  const auto h = physics::build_ti_hamiltonian(ti_params(8, 8, 4));
  const auto s = scaling_for(h);
  core::MomentParams p;
  p.num_moments = 64;
  p.num_random = 8;
  p.seed = 5;
  const std::string path = "test_workspace_elastic.ckpt";
  const auto large_allocations_of_run = [&](int chunks) {
    runtime::ElasticOptions opts;
    opts.chunk_sweeps = 2;
    opts.checkpoint_path = path;
    opts.stop_after_sweep = 2 * chunks;
    opts.speculate = false;  // no shadow snapshots: timing-independent
    runtime::ElasticRuntime rt(h, s, p, opts);
    const std::int64_t before = util::large_allocation_count();
    const auto res = rt.run(2);
    const std::int64_t after = util::large_allocation_count();
    EXPECT_EQ(res.report.chunks_committed, chunks);
    EXPECT_EQ(res.report.checkpoints_written, chunks);
    return after - before;
  };
  const std::int64_t one = large_allocations_of_run(1);
  const std::int64_t five = large_allocations_of_run(5);
  std::remove(path.c_str());
  EXPECT_GT(one, 0);
  EXPECT_EQ(five, one);
}

}  // namespace
}  // namespace kpm
