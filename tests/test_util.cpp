// Unit tests for src/util: aligned storage, timers, random vectors,
// statistics and the table writer.
#include <gtest/gtest.h>

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

// The start-vector stream restated without RandomVectorSource: successive
// length-n vectors drawn serially from one mt19937_64, each normalized.
// fill_block must reproduce these bits for every width, window and thread
// count.
std::vector<complex_t> serial_stream_vector(std::mt19937_64& eng,
                                            RandomVectorKind kind,
                                            std::size_t n) {
  std::vector<complex_t> v(n);
  double norm2 = 0.0;
  for (auto& x : v) {
    switch (kind) {
      case RandomVectorKind::phase: {
        std::uniform_real_distribution<double> dist(0.0, 2.0 * pi);
        const double phi = dist(eng);
        x = {std::cos(phi), std::sin(phi)};
        break;
      }
      case RandomVectorKind::rademacher: {
        std::bernoulli_distribution dist(0.5);
        x = {dist(eng) ? 1.0 : -1.0, 0.0};
        break;
      }
      case RandomVectorKind::gaussian: {
        std::normal_distribution<double> dist(0.0, 1.0);
        const double re = dist(eng);
        x = {re, dist(eng)};
        break;
      }
    }
    norm2 += std::norm(x);
  }
  const double scale = 1.0 / std::sqrt(norm2);
  for (auto& x : v) x *= scale;
  return v;
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
                                          RandomVectorKind::rademacher,
                                          RandomVectorKind::gaussian};

TEST(Random, FillBlockMatchesSerialStreamBitwise) {
  const global_index n = 97;
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
          const int lanes = width - first_col;
          for (const Window& win : windows) {
            std::mt19937_64 ref(23);
            std::vector<std::vector<complex_t>> want;
            for (int l = 0; l < lanes; ++l) {
              want.push_back(serial_stream_vector(ref, kind, n));
            }
            RandomVectorSource src(23, kind);
            std::vector<complex_t> block(
                static_cast<std::size_t>(win.rows * width), sentinel);
            src.fill_block(block, width, first_col, lanes,
                           {n, win.begin, win.rows});
            for (global_index i = 0; i < win.rows; ++i) {
              for (int c = 0; c < width; ++c) {
                const complex_t got =
                    block[static_cast<std::size_t>(i * width + c)];
                const complex_t expect =
                    c < first_col
                        ? sentinel
                        : want[static_cast<std::size_t>(c - first_col)]
                              [static_cast<std::size_t>(win.begin + i)];
                ASSERT_EQ(got, expect)
                    << "threads=" << threads << " kind="
                    << static_cast<int>(kind) << " width=" << width
                    << " first_col=" << first_col << " window=["
                    << win.begin << "," << win.begin + win.rows
                    << ") row=" << i << " col=" << c;
              }
            }
            // The stream continues where `lanes` fill() calls leave it.
            std::vector<complex_t> next(static_cast<std::size_t>(n));
            src.fill(next);
            ASSERT_EQ(next, serial_stream_vector(ref, kind, n))
                << "threads=" << threads << " kind="
                << static_cast<int>(kind) << " width=" << width;
          }
        }
      }
    }
  });
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
}

TEST(Random, GaussianVectorIsNormalized) {
  RandomVectorSource src(9, RandomVectorKind::gaussian);
  aligned_vector<complex_t> v(512);
  src.fill(v);
  double norm2 = 0.0;
  for (const auto& x : v) norm2 += std::norm(x);
  EXPECT_NEAR(norm2, 1.0, 1e-12);
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
