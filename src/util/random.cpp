#include "util/random.hpp"

#include <cmath>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "util/check.hpp"
#include "util/schedule.hpp"

namespace kpm {
namespace {

#ifndef _OPENMP
inline int omp_get_num_threads() { return 1; }
inline int omp_get_thread_num() { return 0; }
#endif

complex_t draw(std::mt19937_64& eng, RandomVectorKind kind) {
  switch (kind) {
    case RandomVectorKind::phase: {
      std::uniform_real_distribution<double> dist(0.0, 2.0 * pi);
      const double phi = dist(eng);
      return {std::cos(phi), std::sin(phi)};
    }
    case RandomVectorKind::rademacher: {
      std::bernoulli_distribution dist(0.5);
      return {dist(eng) ? 1.0 : -1.0, 0.0};
    }
    case RandomVectorKind::gaussian: {
      std::normal_distribution<double> dist(0.0, 1.0);
      return {dist(eng), dist(eng)};
    }
  }
  return {};
}

}  // namespace

// The serial definition of the stream, which fill_block() reproduces lane by
// lane.  Single-vector callers (Lanczos bounds, Kubo, FTLM, the unblocked
// stages) keep this loop: one lane has nothing to run in parallel, and the
// loop needs no scratch and no thread team.
void RandomVectorSource::fill(std::span<complex_t> v) {
  require(!v.empty(), "random vector must be non-empty");
  double norm2 = 0.0;
  for (auto& x : v) {
    x = draw(engine_, kind_);
    norm2 += std::norm(x);
  }
  const double scale = 1.0 / std::sqrt(norm2);
  for (auto& x : v) x *= scale;
}

void RandomVectorSource::fill_column(std::span<complex_t> block, int width,
                                     int col) {
  require(width > 0 && col >= 0 && col < width, "invalid block column");
  fill_block(block, width, col, 1);
}

void RandomVectorSource::fill_block(std::span<complex_t> block, int width,
                                    int first_col, int lanes) {
  require(width > 0 && block.size() % static_cast<std::size_t>(width) == 0,
          "block size must be a multiple of width");
  const auto rows =
      static_cast<global_index>(block.size() / static_cast<std::size_t>(width));
  fill_block(block, width, first_col, lanes, {rows, 0, rows});
}

void RandomVectorSource::fill_block(std::span<complex_t> block, int width,
                                    int first_col, int lanes,
                                    RowWindow window) {
  require(width > 0 && lanes >= 1 && first_col >= 0 &&
              first_col + lanes <= width,
          "fill_block: lanes out of the block's columns");
  require(window.n_global >= 1 && window.begin >= 0 && window.rows >= 0 &&
              window.begin + window.rows <= window.n_global,
          "fill_block: invalid row window");
  const auto stride = static_cast<std::size_t>(width);
  require(block.size() >= static_cast<std::size_t>(window.rows) * stride,
          "fill_block: block has fewer rows than the window");

  // Lane l of block row i lives at block[i * width + first_col + l].
  complex_t* const base = block.data();
  const global_index lo = window.begin;
  const global_index hi = window.begin + window.rows;

  // One record per lane: its engine and its norm.  Cache-line aligned, so
  // threads on neighbouring lanes share no line.  An engine is 2.5 KB, so
  // the records of a wide call pass 64 KiB; the calling thread keeps them
  // and reuses them on its next call (a service worker fills a start block
  // per batch) instead of allocating anew.
  struct alignas(64) Lane {
    std::mt19937_64 engine;
    double norm2 = 0.0;
    double scale = 0.0;
  };
  thread_local std::vector<Lane> scratch;
  // A plain reference, so the team threads below reach the calling thread's
  // records (naming `scratch` there would name each thread's own copy).
  std::vector<Lane>& lane = scratch;
  lane.assign(static_cast<std::size_t>(lanes), Lane{engine_});

  // Draws lanes [first, last) over all n_global rows in row order, storing
  // the window's rows and summing each lane's norm in row order — fill()'s
  // summation order, whatever the thread split.
  const auto walk = [&](int first, int last) {
    for (global_index i = 0; i < window.n_global; ++i) {
      complex_t* const row =
          i >= lo && i < hi
              ? base + static_cast<std::size_t>(i - lo) * stride + first_col
              : nullptr;
      for (int l = first; l < last; ++l) {
        Lane& s = lane[static_cast<std::size_t>(l)];
        const complex_t x = draw(s.engine, kind_);
        s.norm2 += std::norm(x);
        if (row != nullptr) row[l] = x;
      }
    }
  };

  if (kind_ == RandomVectorKind::gaussian) {
    // The polar method takes a variable number of engine words per entry,
    // so where lane l starts in the stream is only known after lane l - 1.
    for (int l = 0; l < lanes; ++l) {
      lane[static_cast<std::size_t>(l)].engine = engine_;
      walk(l, l + 1);
      engine_ = lane[static_cast<std::size_t>(l)].engine;
    }
  } else {
    // One engine word per entry (generate_canonical<double, 53> draws once
    // from the 64-bit engine), so lane l starts l * n_global words in.
    for (std::size_t l = 1; l < lane.size(); ++l) {
      lane[l].engine = lane[l - 1].engine;
      lane[l].engine.discard(static_cast<unsigned long long>(window.n_global));
    }
#pragma omp parallel
    {
      const auto mine = static_chunk<int>(0, lanes, omp_get_thread_num(),
                                          omp_get_num_threads());
      walk(mine.begin, mine.end);
    }
    // The last lane's engine, walked to its end, is where the stream
    // continues.
    engine_ = lane.back().engine;
  }

  for (Lane& s : lane) s.scale = 1.0 / std::sqrt(s.norm2);
#pragma omp parallel
  {
    const auto mine = static_chunk<global_index>(
        0, window.rows, omp_get_thread_num(), omp_get_num_threads());
    for (global_index i = mine.begin; i < mine.end; ++i) {
      complex_t* const row =
          base + static_cast<std::size_t>(i) * stride + first_col;
      for (int l = 0; l < lanes; ++l) {
        row[l] *= lane[static_cast<std::size_t>(l)].scale;
      }
    }
  }
}

}  // namespace kpm
