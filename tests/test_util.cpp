// Unit tests for src/util: aligned storage, timers, random vectors,
// statistics and the table writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "util/aligned.hpp"
#include "util/check.hpp"
#include "util/env.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace kpm {
namespace {

TEST(Check, RequirePassesOnTrue) { EXPECT_NO_THROW(require(true, "ok")); }

TEST(Check, RequireThrowsWithContext) {
  try {
    require(false, "boom");
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_util"), std::string::npos);
  }
}

TEST(Aligned, VectorDataIsAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    aligned_vector<complex_t> v(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kpm_alignment, 0u);
  }
}

TEST(Aligned, VectorSupportsGrowthAndCopy) {
  aligned_vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  aligned_vector<double> w = v;
  EXPECT_EQ(w.size(), 1000u);
  EXPECT_DOUBLE_EQ(w[999], 999.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % kpm_alignment, 0u);
}

TEST(Aligned, ZeroSizedAllocationIsSafe) {
  aligned_allocator<double> alloc;
  double* p = alloc.allocate(0);
  EXPECT_EQ(p, nullptr);
  alloc.deallocate(p, 0);
}

TEST(Timer, MeasuresSleep) {
  Timer t;
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.stop();
  EXPECT_GE(t.seconds(), 0.015);
  EXPECT_LT(t.seconds(), 5.0);
  EXPECT_EQ(t.intervals(), 1);
}

TEST(Timer, AccumulatesIntervals) {
  Timer t;
  for (int i = 0; i < 3; ++i) {
    t.start();
    t.stop();
  }
  EXPECT_EQ(t.intervals(), 3);
  t.reset();
  EXPECT_EQ(t.intervals(), 0);
  EXPECT_DOUBLE_EQ(t.seconds(), 0.0);
}

TEST(TimeBest, ReturnsPositiveTime) {
  volatile double sink = 0.0;
  const double best = time_best(
      [&] {
        for (int i = 0; i < 1000; ++i) sink = sink + i;
      },
      0.001, 2);
  EXPECT_GT(best, 0.0);
}

TEST(Random, PhaseVectorIsNormalized) {
  RandomVectorSource src(1);
  aligned_vector<complex_t> v(1024);
  src.fill(v);
  double norm2 = 0.0;
  for (const auto& x : v) norm2 += std::norm(x);
  EXPECT_NEAR(norm2, 1.0, 1e-12);
}

TEST(Random, PhaseVectorHasUnitModulusEntries) {
  RandomVectorSource src(2);
  aligned_vector<complex_t> v(256);
  src.fill(v);
  // All |v_i| equal (1/sqrt(N)) for the phase ensemble.
  const double expected = 1.0 / std::sqrt(256.0);
  for (const auto& x : v) EXPECT_NEAR(std::abs(x), expected, 1e-12);
}

TEST(Random, RademacherEntriesAreRealSigns) {
  RandomVectorSource src(3, RandomVectorKind::rademacher);
  aligned_vector<complex_t> v(256);
  src.fill(v);
  for (const auto& x : v) {
    EXPECT_DOUBLE_EQ(x.imag(), 0.0);
    EXPECT_NEAR(std::abs(x.real()), 1.0 / 16.0, 1e-12);
  }
}

TEST(Random, DeterministicForEqualSeeds) {
  RandomVectorSource a(77), b(77);
  aligned_vector<complex_t> va(100), vb(100);
  a.fill(va);
  b.fill(vb);
  for (std::size_t i = 0; i < va.size(); ++i) EXPECT_EQ(va[i], vb[i]);
}

TEST(Random, DifferentSeedsDiffer) {
  RandomVectorSource a(1), b(2);
  aligned_vector<complex_t> va(100), vb(100);
  a.fill(va);
  b.fill(vb);
  int same = 0;
  for (std::size_t i = 0; i < va.size(); ++i) same += va[i] == vb[i];
  EXPECT_LT(same, 5);
}

TEST(Random, FillColumnMatchesFill) {
  // fill_column must produce the same stream as fill on a single vector.
  RandomVectorSource a(5), b(5);
  aligned_vector<complex_t> v(64);
  a.fill(v);
  aligned_vector<complex_t> block(64 * 4, complex_t{});
  b.fill_column(block, 4, 2);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(block[i * 4 + 2], v[i]);
}

TEST(Random, PhiloxKnownAnswers) {
  // The Philox4x32-10 known-answer vectors of Salmon et al. (Random123).
  using Ctr = std::array<std::uint32_t, 4>;
  using Key = std::array<std::uint32_t, 2>;
  EXPECT_EQ(philox4x32_10(Ctr{0, 0, 0, 0}, Key{0, 0}),
            (Ctr{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}));
  EXPECT_EQ(philox4x32_10(Ctr{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
                          Key{0xffffffff, 0xffffffff}),
            (Ctr{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}));
  EXPECT_EQ(philox4x32_10(Ctr{0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
                          Key{0xa4093822, 0x299f31d0}),
            (Ctr{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}));
}

// The start-vector definition restated from its two primitives: lane l of
// global row i takes 64-bit half (l & 1) of Philox4x32-10 of the counter
// (i, l >> 1) under the seed.  fill_block must reproduce these bits for
// every width, first lane, window and thread count.
complex_t defined_entry(std::uint64_t seed, RandomVectorKind kind,
                        std::uint64_t lane, global_index row,
                        global_index n) {
  const auto r = static_cast<std::uint64_t>(row);
  const std::uint64_t pair = lane >> 1;
  const auto w = [](std::uint64_t x, int shift) {
    return static_cast<std::uint32_t>(x >> shift);
  };
  const auto h = philox4x32_10({w(r, 0), w(r, 32), w(pair, 0), w(pair, 32)},
                               {w(seed, 0), w(seed, 32)});
  const std::uint64_t bits = (lane & 1) != 0
                                 ? std::uint64_t{h[3]} << 32 | h[2]
                                 : std::uint64_t{h[1]} << 32 | h[0];
  const double scale = 1.0 / std::sqrt(static_cast<double>(n));
  if (kind == RandomVectorKind::rademacher) {
    return {(bits >> 63) != 0 ? -scale : scale, 0.0};
  }
  const complex_t z = unit_phase(bits);
  return {z.real() * scale, z.imag() * scale};
}

/// Runs `body` once per OpenMP team size in {1, 2, 4}.
template <class Body>
void for_each_thread_count(Body body) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (const int t : {1, 2, 4}) {
    omp_set_num_threads(t);
    body(t);
  }
  omp_set_num_threads(saved);
#else
  body(1);
#endif
}

constexpr RandomVectorKind kAllKinds[] = {RandomVectorKind::phase,
                                          RandomVectorKind::rademacher};

TEST(Random, FillBlockMatchesSerialStreamBitwise) {
  const global_index n = 97;
  const std::uint64_t seed = 23;
  const complex_t sentinel{-7.0, 3.0};
  struct Window {
    global_index begin, rows;
  };
  // Whole vector, empty, interior, and ending at the last row.
  const Window windows[] = {{0, n}, {40, 0}, {13, 45}, {n - 20, 20}};
  for_each_thread_count([&](int threads) {
    for (const auto kind : kAllKinds) {
      for (const int width : {1, 3, 32}) {
        for (const int first_col : {0, width / 3}) {
          // Lanes handed out before this call: even and odd first lanes.
          for (const int skip : {0, 1, 4, 7}) {
            const int lanes = width - first_col;
            for (const Window& win : windows) {
              RandomVectorSource src(seed, kind);
              if (skip > 0) {  // one row of `skip` lanes
                std::vector<complex_t> before(static_cast<std::size_t>(skip));
                src.fill_block(before, skip, 0, skip);
              }
              std::vector<complex_t> block(
                  static_cast<std::size_t>(win.rows * width), sentinel);
              src.fill_block(block, width, first_col, lanes,
                             {n, win.begin, win.rows});
              for (global_index i = 0; i < win.rows; ++i) {
                for (int c = 0; c < width; ++c) {
                  const auto lane = static_cast<std::uint64_t>(skip + c -
                                                               first_col);
                  const complex_t expect =
                      c < first_col ? sentinel
                                    : defined_entry(seed, kind, lane,
                                                    win.begin + i, n);
                  ASSERT_EQ(block[static_cast<std::size_t>(i * width + c)],
                            expect)
                      << "threads=" << threads
                      << " kind=" << static_cast<int>(kind)
                      << " width=" << width << " first_col=" << first_col
                      << " skip=" << skip << " window=[" << win.begin << ","
                      << win.begin + win.rows << ") row=" << i << " col=" << c;
                }
              }
              // The next fill() continues with the lane after the block's.
              std::vector<complex_t> next(static_cast<std::size_t>(n));
              src.fill(next);
              for (global_index i = 0; i < n; ++i) {
                const auto next_lane = static_cast<std::uint64_t>(skip + lanes);
                ASSERT_EQ(next[static_cast<std::size_t>(i)],
                          defined_entry(seed, kind, next_lane, i, n))
                    << "threads=" << threads << " width=" << width;
              }
            }
          }
        }
      }
    }
  });
}

TEST(Random, FillBlockWindowCostsOnlyItsRows) {
  // A 64-row window at the end of a 2^40-row vector: per-window work is
  // O(rows * lanes), so this finishes at once where a walk over n_global
  // rows could not.
  const global_index n = global_index{1} << 40;
  const global_index begin = n - 100;
  const int width = 5;
  for (const auto kind : kAllKinds) {
    RandomVectorSource src(0x0123456789abcdefULL, kind);
    std::vector<complex_t> block(64 * width);
    src.fill_block(block, width, 0, width, {n, begin, 64});
    for (global_index i = 0; i < 64; ++i) {
      for (int l = 0; l < width; ++l) {
        ASSERT_EQ(block[static_cast<std::size_t>(i * width + l)],
                  defined_entry(0x0123456789abcdefULL, kind,
                                static_cast<std::uint64_t>(l), begin + i, n));
      }
    }
    EXPECT_NEAR(std::norm(block[0]) * static_cast<double>(n), 1.0, 1e-15);
  }
}

TEST(Random, UnitPhaseMatchesLibmToAFewUlp) {
  // Every octant, both octant ends, and a spread of angles inside.
  std::vector<std::uint64_t> inputs;
  for (std::uint64_t o = 0; o < 8; ++o) {
    inputs.push_back(o << 61);
    inputs.push_back((o << 61) | ((std::uint64_t{1} << 61) - 1));
  }
  std::mt19937_64 eng(5);
  for (int i = 0; i < 100000; ++i) inputs.push_back(eng());
  double worst = 0.0;
  for (const std::uint64_t bits : inputs) {
    const double u = static_cast<double>(bits >> 11) * 0x1p-53;
    const complex_t z = unit_phase(bits);
    const double ref_re = std::cos(2.0 * pi * u);
    const double ref_im = std::sin(2.0 * pi * u);
    worst = std::max({worst, std::abs(z.real() - ref_re),
                      std::abs(z.imag() - ref_im)});
    // |z|^2 = 1 to a few ulp.
    ASSERT_NEAR(std::norm(z), 1.0, 4 * 0x1p-52) << std::hex << bits;
  }
  // 2 pi u itself rounds, so libm sees an angle up to ~ulp(2 pi) off.
  EXPECT_LT(worst, 2e-15);
}

TEST(Random, PhaseEntriesHaveModulusOneOverSqrtN) {
  const global_index n = 4096;
  const int width = 8;
  RandomVectorSource src(11);
  std::vector<complex_t> block(static_cast<std::size_t>(n * width));
  src.fill_block(block, width, 0, width);
  double worst = 0.0;
  for (const complex_t& z : block) {
    worst = std::max(worst,
                     std::abs(std::norm(z) * static_cast<double>(n) - 1.0));
  }
  EXPECT_LE(worst, 8 * 0x1p-52);
}

TEST(Random, PhaseIsUniform) {
  // Chi-square of a 16-bin phase histogram over 2^20 entries (8 lanes of
  // 2^17 rows).  15 degrees of freedom: P(chi2 > 37.7) = 0.001.
  const global_index n = global_index{1} << 17;
  const int width = 8;
  const int bins = 16;
  RandomVectorSource src(2024);
  std::vector<complex_t> block(static_cast<std::size_t>(n * width));
  src.fill_block(block, width, 0, width);
  std::vector<double> count(bins, 0.0);
  for (const complex_t& z : block) {
    const double phi = std::atan2(z.imag(), z.real());  // (-pi, pi]
    const int b =
        std::min(bins - 1, static_cast<int>((phi + pi) / (2 * pi) * bins));
    count[static_cast<std::size_t>(b)] += 1.0;
  }
  const double expect = static_cast<double>(block.size()) / bins;
  double chi2 = 0.0;
  for (const double c : count) chi2 += (c - expect) * (c - expect) / expect;
  EXPECT_LT(chi2, 37.7);
}

TEST(Random, FillBlockMatchesFillAndFillColumn) {
  const std::size_t n = 64;
  const int width = 5;
  for (const auto kind : kAllKinds) {
    RandomVectorSource a(31, kind), b(31, kind), c(31, kind);
    std::vector<complex_t> block(n * width);
    a.fill_block(block, width, 1, 3);
    std::vector<complex_t> by_column(n * width);
    for (int col = 1; col < 4; ++col) {
      std::vector<complex_t> v(n);
      b.fill(v);
      c.fill_column(by_column, width, col);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(block[i * width + col], v[i]);
        EXPECT_EQ(by_column[i * width + col], v[i]);
      }
    }
  }
}

TEST(Random, FillBlockRejectsBadArguments) {
  RandomVectorSource src(1);
  std::vector<complex_t> block(10 * 4);
  EXPECT_THROW(src.fill_block(block, 4, 2, 3), contract_error);
  EXPECT_THROW(src.fill_block(block, 4, -1, 1), contract_error);
  EXPECT_THROW(src.fill_block(block, 4, 0, 4, {20, 15, 10}), contract_error);
  EXPECT_THROW(src.fill_block(block, 4, 0, 4, {20, 0, 11}), contract_error);
  EXPECT_THROW(src.fill_block(block, 3, 0, 3), contract_error);
  std::vector<complex_t> empty;
  EXPECT_THROW(src.fill(empty), contract_error);
}

TEST(Stats, SummaryOfKnownSample) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  const auto s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_EQ(s.count, 5u);
}

TEST(Stats, EvenSampleMedianAveragesMiddle) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(summarize(xs).median, 2.5);
}

TEST(Stats, EmptySummaryIsZero) {
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, RelativeError) {
  EXPECT_DOUBLE_EQ(relative_error(1.0, 1.0), 0.0);
  EXPECT_NEAR(relative_error(1.0, 1.1), 0.1 / 1.1, 1e-12);
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.0), 0.0);
}

TEST(Stats, TrapezoidIntegratesLinearExactly) {
  std::vector<double> x(11), y(11);
  for (int i = 0; i <= 10; ++i) {
    x[static_cast<std::size_t>(i)] = i * 0.1;
    y[static_cast<std::size_t>(i)] = 2.0 * i * 0.1;  // y = 2x on [0,1]
  }
  EXPECT_NEAR(trapezoid(x, y), 1.0, 1e-12);
}

TEST(Table, PrintsHeaderAndRows) {
  Table t("demo");
  t.columns({"a", "b"}).row({std::string("x"), 1.5}).row({std::string("y"),
                                                          2.5});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("y"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t;
  t.columns({"n", "v"}).row({static_cast<long long>(3), 0.25});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "n,v\n3,0.25\n");
}

TEST(Table, RejectsMismatchedRowWidth) {
  Table t;
  t.columns({"a", "b"});
  EXPECT_THROW(t.row({1.0}), contract_error);
}

TEST(Env, ThreadCountIsPositive) { EXPECT_GE(max_threads(), 1); }

TEST(Env, FormatHelpers) {
  EXPECT_EQ(format_flops(2.0e9), "2 Gflop/s");
  EXPECT_EQ(format_bytes(2048.0), "2 KiB");
}

}  // namespace
}  // namespace kpm
