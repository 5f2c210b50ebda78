#include "runtime/elastic.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/sweep_session.hpp"
#include "runtime/dist_kpm.hpp"
#include "sparse/kpm_kernels.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace kpm::runtime {
namespace {

/// The injected failure: thrown by the target rank at its event step.
/// run_ranks cancels the hub so peers blocked mid-collective unwind, then
/// rethrows this to the epoch driver, which recovers from the last commit.
struct SimulatedFault : std::runtime_error {
  SimulatedFault() : std::runtime_error("elastic: injected rank failure") {}
};

// Version 002: adds the halo_depth field (communication-avoiding s-step
// plans, DESIGN §5j).  001 checkpoints are rejected by the magic check.
constexpr char kMagic[8] = {'K', 'P', 'M', 'E', 'L', '0', '0', '2'};

void put_u64(std::vector<std::byte>& b, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    b.push_back(static_cast<std::byte>((x >> (8 * i)) & 0xffu));
  }
}

void put_f64(std::vector<std::byte>& b, double x) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(x));
  std::memcpy(&bits, &x, sizeof(bits));
  put_u64(b, bits);
}

struct Cursor {
  const std::byte* p;
  std::size_t left;

  const std::byte* raw(std::size_t n) {
    require(left >= n, "elastic checkpoint: truncated file");
    const std::byte* out = p;
    p += n;
    left -= n;
    return out;
  }
  std::uint64_t u64() {
    const std::byte* b = raw(8);
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      x |= static_cast<std::uint64_t>(std::to_integer<unsigned>(b[i]))
           << (8 * i);
    }
    return x;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double x = 0.0;
    std::memcpy(&x, &bits, sizeof(x));
    return x;
  }
};

std::vector<global_index> offsets_copy(const RowPartition& part) {
  const auto off = part.offsets();
  return {off.begin(), off.end()};
}

}  // namespace

/// All state the epoch threads, the shadow executor and the driver share for
/// one solve.  The committed block (next_sweep, v, w, eta, rates, report
/// counters touched at commit) is guarded by `m`; everything else is only
/// mutated by the driver while no worker thread is alive.
struct ElasticRuntime::Ctx {
  std::mutex m;
  int next_sweep = 0;  ///< committed recurrence steps (2 moments each)
  RowPartition part;
  blas::BlockVector v, w;                ///< committed recurrence vectors
  std::vector<std::vector<double>> eta;  ///< reduced raw dots, lane-major
  std::vector<double> rates;             ///< smoothed rows/s per rank (EMA)

  /// Boundary staging: each rank writes its owned rows (disjoint,
  /// barrier-fenced), the committer swaps the whole blocks into the state.
  blas::BlockVector staging_v, staging_w;
  int epoch_start = 0;
  int epoch_limit = 0;  ///< first step NOT run this epoch

  std::vector<char> fired;  ///< per opts.events entry (one-shot)

  /// operator_fingerprint(*global_, s_), computed once per run; the member
  /// checkpoint writer and the restore check share it.
  std::uint64_t fp = 0;

  std::thread shadow;
  /// Set by the shadow thread as its very last action (after its commit
  /// attempt released `m`), so the committer can join a finished shadow
  /// without any risk of blocking on a thread that still wants the lock —
  /// and launch a fresh speculation for the next chunk.
  std::atomic<bool> shadow_done{false};
  /// First exception the shadow body threw (e.g. a checkpoint-write
  /// failure), written under `m` by the shadow and read only after join;
  /// reap_shadow rethrows it so an I/O error surfaces to the driver instead
  /// of terminating the process inside std::thread.
  std::exception_ptr shadow_error;
  ElasticReport report;

  /// Backstop for exceptional unwinds: whatever path leaves solve()/run()
  /// (a require() failure in a commit, a comm-layer error rethrown by
  /// run_ranks), the shadow is joined before any state it references dies.
  /// The shadow only touches `this` Ctx and the runtime's members, both of
  /// which outlive this destructor's join.
  ~Ctx() {
    if (shadow.joinable()) shadow.join();
  }
};

ElasticRuntime::ElasticRuntime(const sparse::CrsMatrix& h,
                               const physics::Scaling& s,
                               const core::MomentParams& p, ElasticOptions opts)
    : global_(&h), s_(s), p_(p), opts_(std::move(opts)) {
  require(h.nrows() == h.ncols(), "ElasticRuntime: matrix must be square");
  require(p.num_moments >= 2 && p.num_moments % 2 == 0,
          "ElasticRuntime: num_moments must be even and >= 2");
  require(p.num_random >= 1, "ElasticRuntime: num_random >= 1");
  require(opts_.chunk_sweeps >= 1, "ElasticRuntime: chunk_sweeps >= 1");
  require(opts_.halo_depth >= 1, "ElasticRuntime: halo_depth >= 1");
  require(opts_.chunk_sweeps % opts_.halo_depth == 0,
          "ElasticRuntime: chunk_sweeps must be a multiple of halo_depth so "
          "commits land on round boundaries");
}

ElasticRuntime::ElasticRuntime(const sparse::StencilOperator& stencil,
                               const sparse::CrsMatrix& assembled,
                               const physics::Scaling& s,
                               const core::MomentParams& p, ElasticOptions opts)
    : ElasticRuntime(assembled, s, p, std::move(opts)) {
  require(stencil.nrows() == assembled.nrows() &&
              stencil.ncols() == assembled.ncols(),
          "ElasticRuntime: stencil shape != assembled operator");
  stencil_ = &stencil;
}

ElasticResult ElasticRuntime::run(int initial_ranks) {
  require(initial_ranks >= 1, "ElasticRuntime: initial_ranks >= 1");
  const global_index n = global_->nrows();
  const int width = p_.num_random;
  const int total_steps = p_.num_moments / 2;

  Ctx ctx;
  ctx.fp = core::operator_fingerprint(*global_, s_);
  ctx.fired.assign(opts_.events.size(), 0);

  if (opts_.resume) {
    // ---- Checkpoint restore (fingerprint-checked) -------------------------
    require(!opts_.checkpoint_path.empty(),
            "ElasticRuntime: resume without a checkpoint_path");
    std::FILE* f = std::fopen(opts_.checkpoint_path.c_str(), "rb");
    require(f != nullptr, "ElasticRuntime: cannot open checkpoint file");
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::byte> buf(size > 0 ? static_cast<std::size_t>(size) : 0);
    const std::size_t got = std::fread(buf.data(), 1, buf.size(), f);
    std::fclose(f);
    require(got == buf.size(), "ElasticRuntime: checkpoint read failed");
    Cursor c{buf.data(), buf.size()};
    require(std::memcmp(c.raw(8), kMagic, 8) == 0,
            "ElasticRuntime: not an elastic checkpoint (bad magic)");
    require(c.u64() == ctx.fp,
            "ElasticRuntime: checkpoint fingerprint does not match this "
            "operator/scaling — restoring against a different operator would "
            "silently produce wrong moments");
    require(c.u64() == (stencil_ != nullptr ? 1u : 0u),
            "ElasticRuntime: checkpoint operator mode (stencil/assembled) "
            "mismatch");
    require(c.u64() == static_cast<std::uint64_t>(opts_.halo_depth),
            "ElasticRuntime: checkpoint halo depth does not match this run — "
            "resuming a depth-s solve under a different s would re-chunk the "
            "commits and break the bitwise replay contract");
    require(c.u64() == static_cast<std::uint64_t>(p_.num_moments) &&
                c.u64() == static_cast<std::uint64_t>(width) &&
                c.u64() == p_.seed &&
                c.u64() == static_cast<std::uint64_t>(p_.vector_kind),
            "ElasticRuntime: checkpoint run parameters (M, R, seed, vector "
            "kind) do not match");
    const auto next_sweep = c.u64();
    require(next_sweep <= static_cast<std::uint64_t>(total_steps),
            "ElasticRuntime: checkpoint is ahead of this run");
    ctx.next_sweep = static_cast<int>(next_sweep);
    require(c.u64() == static_cast<std::uint64_t>(n),
            "ElasticRuntime: checkpoint dimension mismatch");
    const auto nranks = c.u64();
    require(nranks >= 1 && nranks <= 4096,
            "ElasticRuntime: corrupt checkpoint rank count");
    std::vector<global_index> offs(static_cast<std::size_t>(nranks) + 1);
    for (auto& o : offs) o = static_cast<global_index>(c.u64());
    ctx.part = RowPartition::from_offsets(std::move(offs));
    require(ctx.part.total_rows() == n,
            "ElasticRuntime: checkpoint partition does not cover the matrix");
    const auto nrates = c.u64();
    require(nrates == 0 || nrates == nranks,
            "ElasticRuntime: corrupt checkpoint rate table");
    ctx.rates.resize(static_cast<std::size_t>(nrates));
    for (auto& r : ctx.rates) r = c.f64();
    ctx.eta.assign(static_cast<std::size_t>(width), {});
    for (auto& lane : ctx.eta) {
      lane.resize(2 * static_cast<std::size_t>(ctx.next_sweep));
      for (auto& x : lane) x = c.f64();
    }
    ctx.v = blas::BlockVector(n, width);
    ctx.w = blas::BlockVector(n, width);
    for (auto* b : {&ctx.v, &ctx.w}) {
      for (global_index i = 0; i < n; ++i) {
        for (int r = 0; r < width; ++r) {
          const double re = c.f64();
          const double im = c.f64();
          (*b)(i, r) = complex_t{re, im};
        }
      }
    }
    const auto nevents = c.u64();
    ctx.report.schedule.resize(static_cast<std::size_t>(nevents));
    for (auto& ev : ctx.report.schedule) {
      ev.sweep = static_cast<int>(c.u64());
      ev.offsets.resize(static_cast<std::size_t>(c.u64()));
      for (auto& o : ev.offsets) o = static_cast<global_index>(c.u64());
    }
    // Membership events the restored frontier already passed had their
    // repartition baked into the checkpointed partition/schedule; re-firing
    // them would repartition a second time and diverge from the
    // uninterrupted run.  Strictly `<`: the driver cuts epochs exactly at
    // each membership sweep and fires the event AFTER the commit at that
    // boundary writes its checkpoint, so a checkpoint with next_sweep ==
    // ev.sweep always predates the event — it must still fire on resume.
    for (std::size_t e = 0; e < opts_.events.size(); ++e) {
      const ElasticEvent& ev = opts_.events[e];
      if ((ev.kind == ElasticEvent::Kind::leave ||
           ev.kind == ElasticEvent::Kind::join) &&
          ev.sweep < ctx.next_sweep) {
        ctx.fired[e] = 1;
      }
    }
  } else {
    ctx.part = RowPartition::uniform(n, initial_ranks);
    ctx.v = blas::BlockVector(n, width);
    ctx.w = blas::BlockVector(n, width);
    // Same seed stream as the serial and distributed solvers: the committed
    // start block is the full global random block, sliced per rank at every
    // epoch start.
    RandomVectorSource(p_.seed, p_.vector_kind)
        .fill_block(ctx.v.span(), width, 0, width);
    ctx.eta.assign(static_cast<std::size_t>(width), {});
    ctx.report.schedule.push_back({0, offsets_copy(ctx.part)});
  }

  ctx.staging_v = blas::BlockVector(n, width);
  ctx.staging_w = blas::BlockVector(n, width);

  solve(ctx);

  reap_shadow(ctx);
  ElasticResult out;
  out.report = std::move(ctx.report);
  out.report.final_ranks = ctx.part.ranks();
  out.report.rates = ctx.rates;
  if (ctx.next_sweep > 0) out.mu = eta_to_mu_average(ctx.eta);
  return out;
}

void ElasticRuntime::write_checkpoint_locked(Ctx& ctx) const {
  if (opts_.checkpoint_path.empty()) return;
  const global_index n = global_->nrows();
  const int width = p_.num_random;
  std::vector<std::byte> buf;
  buf.insert(buf.end(), reinterpret_cast<const std::byte*>(kMagic),
             reinterpret_cast<const std::byte*>(kMagic) + 8);
  put_u64(buf, ctx.fp);
  put_u64(buf, stencil_ != nullptr ? 1u : 0u);
  put_u64(buf, static_cast<std::uint64_t>(opts_.halo_depth));
  put_u64(buf, static_cast<std::uint64_t>(p_.num_moments));
  put_u64(buf, static_cast<std::uint64_t>(width));
  put_u64(buf, p_.seed);
  put_u64(buf, static_cast<std::uint64_t>(p_.vector_kind));
  put_u64(buf, static_cast<std::uint64_t>(ctx.next_sweep));
  put_u64(buf, static_cast<std::uint64_t>(n));
  put_u64(buf, static_cast<std::uint64_t>(ctx.part.ranks()));
  for (const global_index o : ctx.part.offsets()) {
    put_u64(buf, static_cast<std::uint64_t>(o));
  }
  put_u64(buf, static_cast<std::uint64_t>(ctx.rates.size()));
  for (const double r : ctx.rates) put_f64(buf, r);
  for (const auto& lane : ctx.eta) {
    for (const double x : lane) put_f64(buf, x);
  }
  for (const auto* b : {&ctx.v, &ctx.w}) {
    for (global_index i = 0; i < n; ++i) {
      for (int r = 0; r < width; ++r) {
        put_f64(buf, (*b)(i, r).real());
        put_f64(buf, (*b)(i, r).imag());
      }
    }
  }
  put_u64(buf, static_cast<std::uint64_t>(ctx.report.schedule.size()));
  for (const auto& ev : ctx.report.schedule) {
    put_u64(buf, static_cast<std::uint64_t>(ev.sweep));
    put_u64(buf, static_cast<std::uint64_t>(ev.offsets.size()));
    for (const global_index o : ev.offsets) {
      put_u64(buf, static_cast<std::uint64_t>(o));
    }
  }
  const std::string tmp = opts_.checkpoint_path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  require(f != nullptr, "ElasticRuntime: cannot open checkpoint tmp file");
  const std::size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
  const int closed = std::fclose(f);
  if (written != buf.size() || closed != 0 ||
      std::rename(tmp.c_str(), opts_.checkpoint_path.c_str()) != 0) {
    std::remove(tmp.c_str());
    require(false, "ElasticRuntime: checkpoint write failed");
  }
  ++ctx.report.checkpoints_written;
}

void ElasticRuntime::reap_shadow(Ctx& ctx) {
  if (ctx.shadow.joinable()) ctx.shadow.join();
  if (ctx.shadow_error) {
    std::exception_ptr err = std::exchange(ctx.shadow_error, nullptr);
    std::rethrow_exception(err);
  }
}

void ElasticRuntime::solve(Ctx& ctx) {
  const global_index n = global_->nrows();
  const int width = p_.num_random;
  const int total_steps = p_.num_moments / 2;
  const int stop_limit =
      opts_.stop_after_sweep >= 0
          ? std::min(total_steps, opts_.stop_after_sweep)
          : total_steps;
  const auto rec = sparse::AugScalars::recurrence(s_.a, s_.b);
  const double alpha =
      std::clamp(opts_.balance.smoothing, 0.0, 1.0) > 0.0
          ? std::clamp(opts_.balance.smoothing, 0.0, 1.0)
          : 0.5;

  // ---- Rate EMA + straggler test (caller holds ctx.m) ----------------------
  const auto update_rates = [&](const std::vector<double>& times) {
    const int R = ctx.part.ranks();
    if (static_cast<int>(times.size()) != R) return;
    if (static_cast<int>(ctx.rates.size()) != R) ctx.rates.clear();
    for (int r = 0; r < R; ++r) {
      const double t = std::max(times[static_cast<std::size_t>(r)], 1e-9);
      const double rate = static_cast<double>(ctx.part.local_rows(r)) / t;
      if (ctx.rates.empty()) continue;
      ctx.rates[static_cast<std::size_t>(r)] =
          (1.0 - alpha) * ctx.rates[static_cast<std::size_t>(r)] +
          alpha * rate;
    }
    if (ctx.rates.empty()) {
      ctx.rates.resize(static_cast<std::size_t>(R));
      for (int r = 0; r < R; ++r) {
        const double t = std::max(times[static_cast<std::size_t>(r)], 1e-9);
        ctx.rates[static_cast<std::size_t>(r)] =
            static_cast<double>(ctx.part.local_rows(r)) / t;
      }
    }
  };

  const auto straggler_detected = [&]() -> bool {
    const int R = ctx.part.ranks();
    if (R < 2 || static_cast<int>(ctx.rates.size()) != R) return false;
    std::vector<double> sorted = ctx.rates;
    std::sort(sorted.begin(), sorted.end());
    const double slowest = sorted.front();
    const double median = sorted[sorted.size() / 2];
    return slowest > 0.0 && median > opts_.straggle_threshold * slowest;
  };

  // ---- Shadow executor (speculative re-execution) --------------------------
  // Re-executes one chunk for EVERY rank window serially, from a committed
  // snapshot: make_local_plan gives the exact per-row arithmetic of each
  // live rank (owned-first-then-halo column order included), and
  // fixed_tree_sum combines the per-rank dots along the exact allreduce
  // tree — so the shadow's chunk is bitwise identical to the live ranks'
  // and the commit arbitration below is invisible in the moments.
  const auto launch_shadow = [&](int start, int steps) {
    blas::BlockVector V = ctx.v;
    blas::BlockVector W = ctx.w;
    RowPartition P = ctx.part;
    ctx.shadow_done.store(false, std::memory_order_release);
    // Captures only `this` and `ctx` beyond the by-value snapshot: both
    // outlive the thread on every path (Ctx's destructor joins), so an
    // exceptional unwind of solve() can never leave the shadow with
    // dangling references to a dead stack frame.
    ctx.shadow = std::thread([this, &ctx, start, steps, V = std::move(V),
                              W = std::move(W), P = std::move(P)]() mutable {
      const auto chunk_and_commit = [&] {
        const int R = P.ranks();
        const int w2 = 2 * steps;
        const auto shrec = sparse::AugScalars::recurrence(s_.a, s_.b);
        std::vector<LocalPlan> plans;
        plans.reserve(static_cast<std::size_t>(R));
        for (int r = 0; r < R; ++r) {
          plans.push_back(make_local_plan(*global_, P, r));
        }
        std::vector<std::optional<sparse::StencilOperator>> lst(
            static_cast<std::size_t>(R));
        std::vector<blas::BlockVector> ve, we;
        ve.reserve(plans.size());
        we.reserve(plans.size());
        for (int r = 0; r < R; ++r) {
          const auto& pl = plans[static_cast<std::size_t>(r)];
          const global_index ext = (pl.row_end - pl.row_begin) +
                                   static_cast<global_index>(pl.recv_order.size());
          ve.emplace_back(ext, p_.num_random);
          we.emplace_back(ext, p_.num_random);
          if (stencil_ != nullptr) {
            lst[static_cast<std::size_t>(r)].emplace(stencil_->localize(
                pl.row_begin, pl.row_end, pl.recv_order));
          }
        }
        const int width2 = p_.num_random;
        std::vector<std::vector<complex_t>> dv(
            static_cast<std::size_t>(R),
            std::vector<complex_t>(static_cast<std::size_t>(width2)));
        std::vector<std::vector<complex_t>> dw = dv;
        std::vector<double> seta(static_cast<std::size_t>(width2) * w2, 0.0);
        for (int k = 0; k < steps; ++k) {
          const int s = start + k;
          if (s > 0) std::swap(V, W);
          const auto sc =
              s == 0 ? sparse::AugScalars::startup(s_.a, s_.b) : shrec;
          for (int r = 0; r < R; ++r) {
            const auto& pl = plans[static_cast<std::size_t>(r)];
            const global_index nl = pl.row_end - pl.row_begin;
            auto& vin = ve[static_cast<std::size_t>(r)];
            auto& wout = we[static_cast<std::size_t>(r)];
            for (global_index i = 0; i < nl; ++i) {
              for (int c = 0; c < width2; ++c) {
                vin(i, c) = V(pl.row_begin + i, c);
              }
            }
            for (std::size_t h = 0; h < pl.recv_order.size(); ++h) {
              for (int c = 0; c < width2; ++c) {
                vin(nl + static_cast<global_index>(h), c) =
                    V(pl.recv_order[h], c);
              }
            }
            // The recurrence kernel reads the PREVIOUS w in place
            // (w <- 2*H~*v - w), so the rank window's old w rows must be
            // staged just like a live rank's local w vector carries them.
            for (global_index i = 0; i < nl; ++i) {
              for (int c = 0; c < width2; ++c) {
                wout(i, c) = W(pl.row_begin + i, c);
              }
            }
            if (lst[static_cast<std::size_t>(r)]) {
              sparse::aug_spmmv(*lst[static_cast<std::size_t>(r)], sc, vin, wout,
                                dv[static_cast<std::size_t>(r)],
                                dw[static_cast<std::size_t>(r)]);
            } else {
              sparse::aug_spmmv(pl.local, sc, vin, wout,
                                dv[static_cast<std::size_t>(r)],
                                dw[static_cast<std::size_t>(r)]);
            }
            for (global_index i = 0; i < nl; ++i) {
              for (int c = 0; c < width2; ++c) {
                W(pl.row_begin + i, c) = wout(i, c);
              }
            }
          }
          std::vector<double> contrib(static_cast<std::size_t>(R));
          for (int c = 0; c < width2; ++c) {
            for (int r = 0; r < R; ++r) {
              contrib[static_cast<std::size_t>(r)] =
                  dv[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)]
                      .real();
            }
            seta[static_cast<std::size_t>(c) * w2 + 2 * k] =
                fixed_tree_sum(contrib);
            for (int r = 0; r < R; ++r) {
              contrib[static_cast<std::size_t>(r)] =
                  dw[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)]
                      .real();
            }
            seta[static_cast<std::size_t>(c) * w2 + 2 * k + 1] =
                fixed_tree_sum(contrib);
          }
        }
        {
          std::lock_guard lock(ctx.m);
          if (ctx.next_sweep == start) {  // else: the live ranks got there first
            for (int c = 0; c < width2; ++c) {
              auto& lane = ctx.eta[static_cast<std::size_t>(c)];
              for (int j = 0; j < w2; ++j) {
                lane.push_back(seta[static_cast<std::size_t>(c) * w2 + j]);
              }
            }
            std::swap(ctx.v, V);
            std::swap(ctx.w, W);
            ctx.next_sweep = start + steps;
            ++ctx.report.chunks_committed;
            ++ctx.report.speculation_wins;
            write_checkpoint_locked(ctx);
          }
        }
      };
      try {
        chunk_and_commit();
      } catch (...) {
        // A throwing shadow (checkpoint I/O failure, require()) must not
        // unwind out of std::thread — that terminates the process.  Park
        // the exception for reap_shadow to rethrow on the driver side.
        std::lock_guard lock(ctx.m);
        ctx.shadow_error = std::current_exception();
      }
      ctx.shadow_done.store(true, std::memory_order_release);
    });
  };

  const auto maybe_speculate = [&] {  // caller holds ctx.m
    if (!opts_.speculate) return;
    if (ctx.shadow.joinable()) {
      // A shadow that already ran to completion (win or loss) is reaped so
      // a new speculation can cover the next chunk; one still in flight
      // keeps its slot.  An error the shadow parked (failed speculative
      // checkpoint) rethrows here and unwinds rank 0 out of the epoch —
      // same fatality as the live commit path's checkpoint failures.
      if (!ctx.shadow_done.load(std::memory_order_acquire)) return;
      ctx.shadow.join();
      if (ctx.shadow_error) {
        std::rethrow_exception(std::exchange(ctx.shadow_error, nullptr));
      }
    }
    if (ctx.next_sweep >= ctx.epoch_limit) return;
    const int start = ctx.next_sweep;
    const int steps = std::min(opts_.chunk_sweeps, ctx.epoch_limit - start);
    // A shadow that commits a chunk holding an injected failure carries the
    // frontier past it before the target rank gets there, so the failure —
    // and, without replacement, its membership shrink — silently drops out
    // of the fault plan.  Such chunks are left to the live ranks.
    for (const ElasticEvent& ev : opts_.events) {
      if (ev.kind == ElasticEvent::Kind::fail && ev.sweep >= start &&
          ev.sweep < start + steps) {
        return;
      }
    }
    if (!straggler_detected()) return;
    ++ctx.report.speculations;
    launch_shadow(start, steps);
  };

  // ---- Live commit (rank 0, at a barrier-fenced chunk boundary) ------------
  const auto commit_live = [&](int chunk_start, int steps,
                               const std::vector<double>& ceta,
                               const std::vector<double>& times) {
    std::lock_guard lock(ctx.m);
    if (ctx.next_sweep != chunk_start) return;  // shadow already committed it
    const int w2 = 2 * steps;
    for (int c = 0; c < width; ++c) {
      auto& lane = ctx.eta[static_cast<std::size_t>(c)];
      for (int j = 0; j < w2; ++j) {
        lane.push_back(ceta[static_cast<std::size_t>(c) * w2 + j]);
      }
    }
    // The staging blocks were fully rewritten this chunk (every rank wrote
    // its owned rows), so swapping them in is a complete state replacement.
    std::swap(ctx.v, ctx.staging_v);
    std::swap(ctx.w, ctx.staging_w);
    ctx.next_sweep = chunk_start + steps;
    ++ctx.report.chunks_committed;
    update_rates(times);
    write_checkpoint_locked(ctx);
    maybe_speculate();
  };

  // ---- One epoch's rank body -----------------------------------------------
  const auto body = [&](Communicator& comm) {
    const int rank = comm.rank();
    const int R = comm.size();
    const RowPartition& P = ctx.part;
    DistributedMatrix dist(
        comm, *global_, P,
        DistMatrixOptions{.transport = opts_.transport,
                          .halo_depth = opts_.halo_depth});
    std::optional<sparse::StencilOperator> lst;
    if (stencil_ != nullptr) {
      lst.emplace(stencil_->localize(P.begin(rank), P.end(rank),
                                     dist.halo_global_cols()));
    }
    const global_index nlocal = dist.local_rows();
    const global_index r0 = P.begin(rank);
    blas::BlockVector v(dist.extended_rows(), width);
    blas::BlockVector w(dist.extended_rows(), width);
    for (global_index i = 0; i < nlocal; ++i) {
      for (int c = 0; c < width; ++c) {
        v(i, c) = ctx.v(r0 + i, c);
        w(i, c) = ctx.w(r0 + i, c);
      }
    }
    std::vector<complex_t> dvv(static_cast<std::size_t>(width));
    std::vector<complex_t> dwv(static_cast<std::size_t>(width));
    int cur = ctx.epoch_start;
    while (cur < ctx.epoch_limit) {
      const int steps = std::min(opts_.chunk_sweeps, ctx.epoch_limit - cur);
      const int w2 = 2 * steps;
      std::vector<double> ceta(static_cast<std::size_t>(width) * w2, 0.0);
      const double t0 = Timer::thread_cpu_now();
      double factor = 1.0;
      for (int k = 0; k < steps; ++k) {
        const int s = cur + k;
        for (std::size_t e = 0; e < opts_.events.size(); ++e) {
          const ElasticEvent& ev = opts_.events[e];
          // Condition order matters: fired[e] of a fail event is written by
          // its target rank, so only that rank may read it (ev.rank == rank
          // short-circuits every other thread away — no data race).
          if (ev.kind == ElasticEvent::Kind::fail && ev.rank == rank &&
              ctx.fired[e] == 0 && ev.sweep == s) {
            // Dies before contributing anything of this step; peers blocked
            // in the halo channels or the reduction unwind via cancel().
            // The driver learns WHICH events fired by diffing ctx.fired
            // across the epoch (run_ranks joins every rank thread, so the
            // diff is race-free) — several ranks may fail in one epoch.
            ctx.fired[e] = 1;
            throw SimulatedFault();
          }
          if (ev.kind == ElasticEvent::Kind::straggle && ev.rank == rank &&
              s >= ev.sweep) {
            factor = std::max(factor, ev.slowdown);
          }
        }
        if (s > 0) std::swap(v, w);
        const auto sc =
            s == 0 ? sparse::AugScalars::startup(s_.a, s_.b) : rec;
        const int depth = dist.halo_depth();
        if (depth == 1) {
          dist.exchange_halo(comm, v);
          if (lst) {
            sparse::aug_spmmv(*lst, sc, v, w, dvv, dwv);
          } else {
            sparse::aug_spmmv(dist.local(), sc, v, w, dvv, dwv);
          }
        } else {
          // Communication-avoiding rounds within the chunk.  Chunks start at
          // round boundaries (chunk_sweeps % halo_depth == 0, and an epoch
          // cut re-stages + re-exchanges), so k % depth is the round phase;
          // the final round of an epoch-truncated chunk is simply shorter.
          const int phase = k % depth;
          const int round_len = std::min(depth, steps - (k - phase));
          if (phase == 0) dist.exchange_round_halo(comm, v, w);
          std::fill(dvv.begin(), dvv.end(), complex_t{});
          std::fill(dwv.begin(), dwv.end(), complex_t{});
          const std::array<IndexRange<global_index>, 1> owned{
              {{0, nlocal}}};
          if (lst) {
            sparse::aug_spmmv_runs(*lst, sc, v, w, owned, dvv, dwv);
          } else {
            sparse::aug_spmmv_runs(dist.local(), sc, v, w, owned, dvv, dwv);
          }
          const global_index nfr =
              dist.frontier_rows(round_len - 1 - phase);
          if (nfr > 0) {
            const std::array<IndexRange<global_index>, 1> fr{
                {{nlocal, nlocal + nfr}}};
            sparse::aug_spmmv_runs(dist.frontier(), sc, v, w, fr, {}, {});
          }
        }
        for (int c = 0; c < width; ++c) {
          ceta[static_cast<std::size_t>(c) * w2 + 2 * k] =
              dvv[static_cast<std::size_t>(c)].real();
          ceta[static_cast<std::size_t>(c) * w2 + 2 * k + 1] =
              dwv[static_cast<std::size_t>(c)].real();
        }
      }
      double spent = Timer::thread_cpu_now() - t0;
      if (factor > 1.0) {
        // Simulated straggler: sleep the excess in *wall* time (so the
        // shadow can genuinely win the race to the commit) and report the
        // slowed-down time (so the rate EMA sees the straggle).  The floor
        // keeps tiny test problems from sleeping un-measurably short.
        const double floor_s = 5e-4 * steps;
        const double extra = (factor - 1.0) * std::max(spent, floor_s);
        std::this_thread::sleep_for(std::chrono::duration<double>(extra));
        spent = factor * std::max(spent, floor_s);
      }
      comm.allreduce_sum(std::span<double>(ceta));
      std::vector<double> times(static_cast<std::size_t>(R), 0.0);
      times[static_cast<std::size_t>(rank)] = spent;
      comm.allreduce_sum(std::span<double>(times));
      for (global_index i = 0; i < nlocal; ++i) {
        for (int c = 0; c < width; ++c) {
          ctx.staging_v(r0 + i, c) = v(i, c);
          ctx.staging_w(r0 + i, c) = w(i, c);
        }
      }
      comm.barrier();
      if (rank == 0) commit_live(cur, steps, ceta, times);
      comm.barrier();
      cur += steps;
    }
  };

  // ---- Membership change at a chunk boundary -------------------------------
  const auto apply_membership = [&](ElasticEvent::Kind kind, int rank_gone) {
    const int R = ctx.part.ranks();
    int new_ranks = R;
    if (kind == ElasticEvent::Kind::join) {
      new_ranks = R + 1;
      ++ctx.report.joins;
      if (!ctx.rates.empty()) {
        // Seed the newcomer's rate with the mean of the known ranks.
        double mean = 0.0;
        for (const double r : ctx.rates) mean += r;
        ctx.rates.push_back(mean / static_cast<double>(ctx.rates.size()));
      }
    } else {
      require(R >= 2, "ElasticRuntime: cannot drop the last rank");
      new_ranks = R - 1;
      if (kind == ElasticEvent::Kind::leave) ++ctx.report.leaves;
      if (rank_gone >= 0 && rank_gone < static_cast<int>(ctx.rates.size())) {
        ctx.rates.erase(ctx.rates.begin() + rank_gone);
      }
    }
    bool weighted = opts_.balance.enabled &&
                    static_cast<int>(ctx.rates.size()) == new_ranks;
    for (const double r : ctx.rates) weighted = weighted && r > 0.0;
    ctx.part = weighted
                   ? RowPartition::weighted(n, ctx.rates, opts_.balance.min_rows)
                   : RowPartition::uniform(n, new_ranks);
    ctx.report.schedule.push_back({ctx.next_sweep, offsets_copy(ctx.part)});
  };

  // ---- Epoch driver --------------------------------------------------------
  std::unique_ptr<MessageHub> hub;
  for (;;) {
    // Membership events at or before the committed frontier fire now (the
    // "first chunk boundary >= sweep" rule: epoch_limit below cuts chunks
    // exactly at the next membership sweep).
    for (std::size_t e = 0; e < opts_.events.size(); ++e) {
      const ElasticEvent& ev = opts_.events[e];
      if (ctx.fired[e] != 0) continue;
      if ((ev.kind == ElasticEvent::Kind::leave ||
           ev.kind == ElasticEvent::Kind::join) &&
          ev.sweep <= ctx.next_sweep) {
        ctx.fired[e] = 1;
        apply_membership(ev.kind, ev.rank);
      }
    }
    if (ctx.next_sweep >= stop_limit) break;
    int limit = stop_limit;
    for (std::size_t e = 0; e < opts_.events.size(); ++e) {
      const ElasticEvent& ev = opts_.events[e];
      if (ctx.fired[e] == 0 &&
          (ev.kind == ElasticEvent::Kind::leave ||
           ev.kind == ElasticEvent::Kind::join)) {
        limit = std::min(limit, ev.sweep);
      }
    }
    ctx.epoch_start = ctx.next_sweep;
    ctx.epoch_limit = limit;
    const int R = ctx.part.ranks();
    if (!hub || hub->size() != R) {
      hub = std::make_unique<MessageHub>(R);
    } else {
      // Reuse across epochs — including after a cancelled (failed) run,
      // which is exactly the hub-reusability contract reset() provides.
      hub->reset();
    }
    ++ctx.report.epochs;
    const std::vector<char> fired_before = ctx.fired;
    bool failed = false;
    try {
      run_ranks(*hub, body);
    } catch (const SimulatedFault&) {
      failed = true;
    }
    // A shadow error (failed speculative checkpoint) is fatal, recovery or
    // not: reap_shadow rethrows it past the SimulatedFault handling.
    reap_shadow(ctx);
    if (failed) {
      ++ctx.report.failures_recovered;
      // Every fail event that fired THIS epoch shrinks the membership when
      // it carries replace == false — two ranks dying in the same epoch
      // must both leave, not just whichever set a "last failure" slot.
      // Descending rank order keeps each erase's index valid against the
      // rate table the previous erases left behind.
      std::vector<std::size_t> lost;
      for (std::size_t e = 0; e < opts_.events.size(); ++e) {
        if (fired_before[e] == 0 && ctx.fired[e] != 0 &&
            opts_.events[e].kind == ElasticEvent::Kind::fail &&
            !opts_.events[e].replace) {
          lost.push_back(e);
        }
      }
      std::sort(lost.begin(), lost.end(), [&](std::size_t a, std::size_t b) {
        return opts_.events[a].rank > opts_.events[b].rank;
      });
      for (const std::size_t e : lost) {
        apply_membership(ElasticEvent::Kind::fail, opts_.events[e].rank);
      }
      // replace == true (none lost): identical rank set and partition — the
      // recovery epoch recomputes the rolled-back chunk from the last
      // commit, so the final moments are bitwise equal to the uninterrupted
      // run.
    }
  }
}

}  // namespace kpm::runtime
