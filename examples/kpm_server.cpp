// KPM-as-a-service demo: a solver daemon absorbing thousands of concurrent
// synthetic requests.
//
// Several client threads fire independent DOS-moment requests (mixed M, R,
// seeds, with deliberate repeats) at one KpmService.  The service coalesces
// compatible jobs into wide fused block sweeps, streams partial moments,
// answers repeats from the content-addressed result cache, and survives a
// fraction of clients cancelling mid-flight.  At the end the example
// cross-checks a sample of delivered moments bitwise against the direct
// library call and prints "SERVICE OK".
//
//   kpm_server [nx ny nz jobs moments]     (default 12 12 4 2000 64)
//
// CI runs the toy size `kpm_server 8 8 3 400 32`.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/moments.hpp"
#include "physics/spectral_bounds.hpp"
#include "physics/ti_model.hpp"
#include "service/service.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

using namespace kpm;

namespace {

blas::BlockVector start_block(const sparse::CrsMatrix& h, std::uint64_t seed,
                              int width) {
  blas::BlockVector v0(h.nrows(), width);
  RandomVectorSource(seed, RandomVectorKind::phase)
      .fill_block(v0.span(), width, 0, width);
  return v0;
}

}  // namespace

int main(int argc, char** argv) {
  physics::TIParams tp;
  tp.nx = argc > 1 ? std::atoi(argv[1]) : 12;
  tp.ny = argc > 2 ? std::atoi(argv[2]) : 12;
  tp.nz = argc > 3 ? std::atoi(argv[3]) : 4;
  const int total_jobs = argc > 4 ? std::atoi(argv[4]) : 2000;
  const int base_moments = argc > 5 ? std::atoi(argv[5]) : 64;

  const auto h = physics::build_ti_hamiltonian(tp);
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  std::printf("kpm_server: TI %dx%dx%d, n = %lld, %d synthetic requests\n",
              tp.nx, tp.ny, tp.nz, static_cast<long long>(h.nrows()),
              total_jobs);

  service::ServiceConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch_width = 32;
  cfg.chunk_moments = 32;
  service::KpmService svc(cfg);
  svc.register_model("ti", h, s);

  // Client pool: each thread submits its share of requests.  Seeds repeat
  // every 16 jobs (same M/R => same content key), so a sizeable fraction is
  // answered by the result cache; every 40th job is cancelled right away.
  constexpr int kClients = 4;
  std::vector<std::vector<std::shared_ptr<service::Job>>> per_client(kClients);
  std::atomic<int> submitted{0};
  Timer wall;
  wall.start();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int share = total_jobs / kClients;
      per_client[static_cast<std::size_t>(c)].reserve(
          static_cast<std::size_t>(share));
      for (int i = 0; i < share; ++i) {
        const int global_i = c * share + i;
        service::JobRequest jr;
        jr.model = "ti";
        jr.seed = 1000 + static_cast<std::uint64_t>(global_i % 16);
        jr.num_random = 1 + global_i % 16 % 4;
        jr.num_moments = base_moments * (1 + global_i % 16 % 2);
        auto job = svc.submit(jr);
        if (global_i % 40 == 7) job->cancel();
        per_client[static_cast<std::size_t>(c)].push_back(std::move(job));
        ++submitted;
      }
    });
  }
  for (auto& t : clients) t.join();
  svc.drain();
  wall.stop();

  long long done = 0, cancelled = 0, cached = 0;
  for (const auto& jobs : per_client) {
    for (const auto& job : jobs) {
      const auto st = job->wait();
      done += st == service::JobStatus::done;
      cancelled += st == service::JobStatus::cancelled;
      cached += job->from_cache();
      if (st == service::JobStatus::failed) {
        std::printf("FAILED job: %s\n", job->error().c_str());
        return 1;
      }
    }
  }
  const auto st = svc.stats();
  std::printf(
      "served %d jobs in %.2f s (%.0f jobs/s): %lld done, %lld cancelled, "
      "%lld cache hits\n",
      submitted.load(), wall.seconds(),
      submitted.load() / std::max(wall.seconds(), 1e-9), done, cancelled,
      cached);
  std::printf(
      "batches %lld, coalesced jobs %lld, sweep steps %lld (solo would be "
      "%lld: %.2fx matrix-traffic saving), lanes swept %lld\n",
      st.batches, st.coalesced_jobs, st.sweep_steps, st.solo_steps,
      st.sweep_steps > 0 ? static_cast<double>(st.solo_steps) /
                               static_cast<double>(st.sweep_steps)
                         : 0.0,
      st.lanes_swept);
  const auto cst = svc.cache().stats();
  std::printf("result cache: %lld hits / %lld misses, %zu entries, %zu KiB\n",
              cst.hits, cst.misses, cst.entries, cst.bytes / 1024);

  // Bitwise audit: one completed job per client against the direct call.
  for (const auto& jobs : per_client) {
    for (const auto& job : jobs) {
      if (job->status() != service::JobStatus::done) continue;
      const auto& req = job->request();
      const auto v0 = start_block(h, req.seed, req.num_random);
      const auto direct =
          core::moments_of_block(h, s, v0, req.num_moments);
      const auto& res = job->result();
      for (int r = 0; r < req.num_random; ++r) {
        for (int m = 0; m < req.num_moments; ++m) {
          if (res.per_vector[static_cast<std::size_t>(r)]
                            [static_cast<std::size_t>(m)] !=
              direct[static_cast<std::size_t>(r)]
                    [static_cast<std::size_t>(m)]) {
            std::printf("MISMATCH seed %llu lane %d moment %d\n",
                        static_cast<unsigned long long>(req.seed), r, m);
            return 1;
          }
        }
      }
      break;  // one audit per client thread suffices
    }
  }
  std::printf("coalesced moments bitwise identical to direct solves\n");
  std::printf("SERVICE OK\n");
  return 0;
}
