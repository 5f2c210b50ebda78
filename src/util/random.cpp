#include "util/random.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

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

constexpr std::uint32_t lo32(std::uint64_t x) {
  return static_cast<std::uint32_t>(x);
}
constexpr std::uint32_t hi32(std::uint64_t x) {
  return static_cast<std::uint32_t>(x >> 32);
}

/// Taylor coefficients of f(t pi/4) in powers of t: (pi/4)^n / n! with the
/// alternating sign, for the n of one parity starting at `first`.
template <int Terms>
constexpr std::array<double, Terms> octant_series(int first) {
  std::array<double, Terms> c{};
  double term = 1.0;  // (pi/4)^n / n!
  int n = 0;
  for (int j = 0; j < Terms; ++j) {
    for (; n < first + 2 * j; term *= (pi / 4) / ++n) {
    }
    c[static_cast<std::size_t>(j)] = j % 2 == 0 ? term : -term;
  }
  return c;
}
// sin through t^17 and cos through t^16: on [0, pi/4] both remainders are
// below 1e-17, a tenth of an ulp of the result.
constexpr auto kSin = octant_series<9>(1);
constexpr auto kCos = octant_series<9>(0);

/// unit_phase's body, inlined into the batch loop.
inline void phase(std::uint64_t bits, double& re, double& im) {
  // u = (octant + k / 2^50) / 8.  An odd octant measures its angle back from
  // the next axis instead, k -> 2^50 - k (exact), so both series only ever
  // see t = k / 2^50 in [0, 1], the angle t pi/4 from the nearest axis.
  constexpr std::uint64_t one = std::uint64_t{1} << 50;
  const std::uint64_t octant = bits >> 61;
  const std::uint64_t odd = 0 - (octant & 1);  // all ones in odd octants
  std::uint64_t k = bits >> 11 & (one - 1);
  k = ((k ^ odd) - odd) + (odd & one);
  const double t = static_cast<double>(static_cast<std::int64_t>(k)) * 0x1p-50;
  const double s = t * t;
  // Horner in s with explicit fma, unrolled so that the batch loop around
  // this body stays straight-line code.
  double pc = kCos.back(), ps = kSin.back();
#pragma GCC unroll 8
  for (int j = static_cast<int>(kCos.size()) - 2; j >= 0; --j) {
    pc = std::fma(pc, s, kCos[static_cast<std::size_t>(j)]);
    ps = std::fma(ps, s, kSin[static_cast<std::size_t>(j)]);
  }
  const auto c = std::bit_cast<std::uint64_t>(pc);
  const auto sn = std::bit_cast<std::uint64_t>(t * ps);
  // Octants 1, 2, 5, 6 swap cos and sin; 2-5 negate the real part, 4-7 the
  // imaginary part.
  const std::uint64_t swap = 0 - ((octant >> 1 ^ octant) & 1);
  re = std::bit_cast<double>(((c & ~swap) | (sn & swap)) ^
                             ((octant + 2) >> 2 & 1) << 63);
  im = std::bit_cast<double>(((sn & ~swap) | (c & swap)) ^
                             (octant >> 2) << 63);
}

/// Entry of a lane whose hash half is `bits`, for entries of modulus `scale`.
inline void entry(RandomVectorKind kind, std::uint64_t bits, double scale,
                  double& re, double& im) {
  if (kind == RandomVectorKind::rademacher) {
    re = std::bit_cast<double>(std::bit_cast<std::uint64_t>(scale) |
                               (bits >> 63) << 63);
    im = 0.0;
  } else {
    phase(bits, re, im);
    re *= scale;
    im *= scale;
  }
}

constexpr std::uint64_t kM0 = 0xD2511F53, kM1 = 0xCD9E8D57;
constexpr std::uint64_t kW0 = 0x9E3779B9, kW1 = 0xBB67AE85;

/// One Philox4x32 round on 32-bit words held in 64-bit slots, so a batch of
/// them is plain 64-bit lane arithmetic.
inline void philox_round(std::uint64_t& c0, std::uint64_t& c1,
                         std::uint64_t& c2, std::uint64_t& c3,
                         std::uint64_t k0, std::uint64_t k1) {
  const std::uint64_t p0 = kM0 * c0;
  const std::uint64_t p1 = kM1 * c2;
  c0 = (p1 >> 32) ^ c1 ^ k0;
  c1 = p1 & 0xffffffff;
  c2 = (p0 >> 32) ^ c3 ^ k1;
  c3 = p0 & 0xffffffff;
}

/// The key schedule between rounds.
inline std::uint64_t bump(std::uint64_t k, std::uint64_t w) {
  return (k + w) & 0xffffffff;
}

/// (row, lane pair) counters hashed together by fill_block.
constexpr std::uint64_t kBatch = 16;

/// Philox4x32-10 of the counters (row_base + row[j], pair[j]) under the
/// seed, round by round across the batch; bits[2j + h] is half h of hash j.
void hash_batch(std::uint64_t seed, std::uint64_t row_base,
                const std::array<std::uint64_t, kBatch>& row,
                const std::array<std::uint64_t, kBatch>& pair,
                std::array<std::uint64_t, 2 * kBatch>& bits) {
  alignas(64) std::array<std::uint64_t, kBatch> c0, c1, c2, c3;
  for (std::uint64_t j = 0; j < kBatch; ++j) {
    c0[j] = lo32(row_base + row[j]);
    c1[j] = hi32(row_base + row[j]);
    c2[j] = lo32(pair[j]);
    c3[j] = hi32(pair[j]);
  }
  std::uint64_t k0 = lo32(seed), k1 = hi32(seed);
  for (int round = 0; round < 10; ++round) {
#pragma omp simd
    for (std::uint64_t j = 0; j < kBatch; ++j) {
      philox_round(c0[j], c1[j], c2[j], c3[j], k0, k1);
    }
    k0 = bump(k0, kW0);
    k1 = bump(k1, kW1);
  }
  for (std::uint64_t j = 0; j < kBatch; ++j) {
    bits[2 * j] = c1[j] << 32 | c0[j];
    bits[2 * j + 1] = c3[j] << 32 | c2[j];
  }
}

}  // namespace

std::array<std::uint32_t, 4> philox4x32_10(
    std::array<std::uint32_t, 4> ctr,
    std::array<std::uint32_t, 2> key) noexcept {
  std::uint64_t c0 = ctr[0], c1 = ctr[1], c2 = ctr[2], c3 = ctr[3];
  std::uint64_t k0 = key[0], k1 = key[1];
  for (int round = 0; round < 10; ++round) {
    philox_round(c0, c1, c2, c3, k0, k1);
    k0 = bump(k0, kW0);
    k1 = bump(k1, kW1);
  }
  return {lo32(c0), lo32(c1), lo32(c2), lo32(c3)};
}

complex_t unit_phase(std::uint64_t bits) noexcept {
  double re, im;
  phase(bits, re, im);
  return {re, im};
}

void RandomVectorSource::fill(std::span<complex_t> v) {
  fill_block(v, 1, 0, 1);
}

void RandomVectorSource::fill_column(std::span<complex_t> block, int width,
                                     int col) {
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

  const std::uint64_t first = next_lane_;
  const std::uint64_t last = first + static_cast<std::uint64_t>(lanes);
  next_lane_ = last;
  const double scale =
      1.0 / std::sqrt(static_cast<double>(window.n_global));
  const std::uint64_t seed = seed_;
  const RandomVectorKind kind = kind_;
  complex_t* const base = block.data();

  // Every entry is independent, so rows split like the kernels' rows.  Each
  // thread walks its (row, lane pair) counters in batches: the rounds of a
  // batch's hashes and the phases of its lanes run across the batch, which
  // leaves the compiler independent work to vectorize or overlap.
  const std::uint64_t first_pair = first >> 1;
  const std::uint64_t pairs = ((last - 1) >> 1) - first_pair + 1;
#pragma omp parallel
  {
    const auto mine = static_chunk<global_index>(
        0, window.rows, omp_get_thread_num(), omp_get_num_threads());
    const auto items =
        static_cast<std::uint64_t>(mine.end - mine.begin) * pairs;
    alignas(64) std::array<std::uint64_t, kBatch> row, pair;  // block row
    alignas(64) std::array<std::uint64_t, 2 * kBatch> bits;
    alignas(64) std::array<double, 2 * kBatch> re, im;
    // Cursor over the thread's counters in row order: block row, pair.
    auto next_row = static_cast<std::uint64_t>(mine.begin);
    std::uint64_t next_pair = first_pair;
    for (std::uint64_t b0 = 0; b0 < items; b0 += kBatch) {
      const std::uint64_t n = std::min<std::uint64_t>(kBatch, items - b0);
      for (std::uint64_t j = 0; j < n; ++j) {
        row[j] = next_row;
        pair[j] = next_pair;
        if (++next_pair == first_pair + pairs) {
          next_pair = first_pair;
          ++next_row;
        }
      }
      for (std::uint64_t j = n; j < kBatch; ++j) {  // a short last batch
        row[j] = row[0];
        pair[j] = pair[0];
      }
      hash_batch(seed, static_cast<std::uint64_t>(window.begin), row, pair,
                 bits);
      if (kind == RandomVectorKind::rademacher) {
#pragma omp simd
        for (std::uint64_t j = 0; j < 2 * kBatch; ++j) {
          entry(RandomVectorKind::rademacher, bits[j], scale, re[j], im[j]);
        }
      } else {
#pragma omp simd
        for (std::uint64_t j = 0; j < 2 * kBatch; ++j) {
          entry(RandomVectorKind::phase, bits[j], scale, re[j], im[j]);
        }
      }
      for (std::uint64_t j = 0; j < n; ++j) {
        complex_t* const out = base + row[j] * stride + first_col;
        for (std::uint64_t h = 0; h < 2; ++h) {
          const std::uint64_t l = 2 * pair[j] + h;
          if (l >= first && l < last) {
            out[l - first] = {re[2 * j + h], im[2 * j + h]};
          }
        }
      }
    }
  }
}

}  // namespace kpm
