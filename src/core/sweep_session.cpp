#include "core/sweep_session.hpp"

#include <algorithm>
#include <complex>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>

#include "sparse/kpm_kernels.hpp"
#include "util/check.hpp"

namespace kpm::core {

global_index OperatorRef::nrows() const noexcept {
  switch (kind_) {
    case Kind::crs: return static_cast<const sparse::CrsMatrix*>(p_)->nrows();
    case Kind::bsr: return static_cast<const sparse::BsrMatrix*>(p_)->nrows();
    case Kind::stencil:
      return static_cast<const sparse::StencilOperator*>(p_)->nrows();
  }
  return 0;
}

global_index OperatorRef::ncols() const noexcept {
  switch (kind_) {
    case Kind::crs: return static_cast<const sparse::CrsMatrix*>(p_)->ncols();
    case Kind::bsr: return static_cast<const sparse::BsrMatrix*>(p_)->ncols();
    case Kind::stencil:
      return static_cast<const sparse::StencilOperator*>(p_)->ncols();
  }
  return 0;
}

global_index OperatorRef::nnz() const noexcept {
  switch (kind_) {
    case Kind::crs: return static_cast<const sparse::CrsMatrix*>(p_)->nnz();
    case Kind::bsr: return static_cast<const sparse::BsrMatrix*>(p_)->nnz();
    case Kind::stencil:
      return static_cast<const sparse::StencilOperator*>(p_)->nnz();
  }
  return 0;
}

namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffull;
      h *= 0x100000001b3ull;
    }
  }
  void mix_double(double x) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(x));
    std::memcpy(&bits, &x, sizeof(bits));
    mix(bits);
  }
  void mix_complex(complex_t z) {
    mix_double(z.real());
    mix_double(z.imag());
  }
  void mix_complex_f32(std::complex<float> z) {
    std::uint32_t re = 0, im = 0;
    const float r = z.real(), i = z.imag();
    static_assert(sizeof(re) == sizeof(r));
    std::memcpy(&re, &r, sizeof(re));
    std::memcpy(&im, &i, sizeof(im));
    mix((static_cast<std::uint64_t>(im) << 32) | re);
  }
  void mix_string(const std::string& s) {
    mix(s.size());
    for (const char c : s) mix(static_cast<std::uint64_t>(
        static_cast<unsigned char>(c)));
  }
  template <class T>
  void mix_indices(std::span<const T> xs) {
    for (const T x : xs) mix(static_cast<std::uint64_t>(x));
  }
};

}  // namespace

std::uint64_t operator_fingerprint(OperatorRef h, const physics::Scaling& s) {
  Fnv1a f;
  f.mix(static_cast<std::uint64_t>(h.kind()));
  f.mix(static_cast<std::uint64_t>(h.nrows()));
  f.mix(static_cast<std::uint64_t>(h.ncols()));
  f.mix(static_cast<std::uint64_t>(h.nnz()));
  f.mix_double(s.a);
  f.mix_double(s.b);
  // Full content digest for EVERY sweepable format: structure and value bits
  // both fold in, so two operators with the same sparsity pattern but
  // different entries (a new disorder realization, changed hoppings) can
  // never share a print.  The service result cache and the checkpoint
  // restore guards depend on exactly this property.
  switch (h.kind()) {
    case OperatorRef::Kind::crs: {
      const auto& m = h.crs();
      for (global_index i = 0; i < m.nrows(); ++i) {
        const auto cols = m.row_cols(i);
        const auto vals = m.row_values(i);
        for (std::size_t k = 0; k < cols.size(); ++k) {
          f.mix(static_cast<std::uint64_t>(cols[k]));
          f.mix_complex(vals[k]);
        }
      }
      break;
    }
    case OperatorRef::Kind::bsr: {
      // Storage-order walk of the block stream; block_col is the 32-bit
      // ground truth, so the digest is identical whichever index encoding
      // (u16 delta / u32) construction picked.
      const auto& m = h.bsr();
      f.mix(static_cast<std::uint64_t>(m.block_dim()));
      f.mix(static_cast<std::uint64_t>(m.precision()));
      f.mix_indices(m.block_ptr());
      f.mix_indices(m.block_col());
      f.mix_indices(m.block_mask());
      for (const auto z : m.values()) f.mix_complex(z);
      for (const auto z : m.values_f32()) f.mix_complex_f32(z);
      break;
    }
    case OperatorRef::Kind::stencil: {
      const auto& m = h.stencil();
      f.mix_string(m.kind());
      f.mix(static_cast<std::uint64_t>(m.block_dim()));
      f.mix(static_cast<std::uint64_t>(m.row_phase()));
      for (const auto& t : m.terms()) {
        f.mix(static_cast<std::uint64_t>(t.delta));
        f.mix(static_cast<std::uint64_t>(t.mask));
        for (const auto z : t.coeff) f.mix_complex(z);
      }
      f.mix(m.diag().size());
      for (const double d : m.diag()) f.mix_double(d);
      f.mix_indices(m.boundary_ptr());
      f.mix_indices(m.boundary_col());
      for (const auto z : m.boundary_val()) f.mix_complex(z);
      break;
    }
  }
  return f.h == 0 ? 1 : f.h;
}

void OperatorRef::apply(const sparse::AugScalars& s,
                        const blas::BlockVector& v, blas::BlockVector& w,
                        std::span<complex_t> dot_vv,
                        std::span<complex_t> dot_wv) const {
  switch (kind_) {
    case Kind::crs:
      sparse::aug_spmmv(*static_cast<const sparse::CrsMatrix*>(p_), s, v, w,
                        dot_vv, dot_wv);
      return;
    case Kind::bsr:
      sparse::aug_spmmv(*static_cast<const sparse::BsrMatrix*>(p_), s, v, w,
                        dot_vv, dot_wv);
      return;
    case Kind::stencil:
      sparse::aug_spmmv(*static_cast<const sparse::StencilOperator*>(p_), s, v,
                        w, dot_vv, dot_wv);
      return;
  }
}

SweepSession::SweepSession(OperatorRef h, const physics::Scaling& s,
                           blas::BlockVector v0, int num_moments,
                           blas::BlockVector w)
    : h_(h), s_(s), num_moments_(num_moments), w_(std::move(w)) {
  require(num_moments >= 2 && num_moments % 2 == 0,
          "SweepSession: num_moments must be even and >= 2");
  require(h.nrows() == h.ncols(), "SweepSession: matrix must be square");
  require(v0.rows() == h.nrows(), "SweepSession: start block size mismatch");
  require(v0.layout() == blas::Layout::row_major,
          "SweepSession: start block must be row-major");
  require(v0.width() >= 1, "SweepSession: at least one lane");
  const int width = v0.width();
  // The start-up step scales the old |w> by zero, so |w> must hold zeros,
  // not stale values (0 * NaN is NaN): reused storage is cleared, fresh
  // storage arrives zeroed.
  const bool stale = w_.reshape(v0.rows(), width);
  v_ = std::move(v0);
  if (stale) w_.fill(complex_t{});
  lane_of_column_.resize(static_cast<std::size_t>(width));
  for (int r = 0; r < width; ++r) lane_of_column_[static_cast<std::size_t>(r)] = r;
  mu_.resize(static_cast<std::size_t>(width));
  for (auto& m : mu_) m.reserve(static_cast<std::size_t>(num_moments));
  active_.assign(static_cast<std::size_t>(width), 1);
  dvv_.resize(static_cast<std::size_t>(width));
  dwv_.resize(static_cast<std::size_t>(width));
}

SweepSession::SweepSession(OperatorRef h, const physics::Scaling& s,
                           SweepCheckpoint state)
    : h_(h),
      s_(s),
      num_moments_(state.num_moments),
      next_step_(state.next_step),
      v_(std::move(state.v)),
      w_(std::move(state.w)),
      lane_of_column_(std::move(state.lane_of_column)),
      mu_(std::move(state.mu)),
      active_(std::move(state.active)) {
  require(num_moments_ >= 2 && num_moments_ % 2 == 0,
          "SweepSession: checkpoint num_moments must be even and >= 2");
  require(h.nrows() == h.ncols(), "SweepSession: matrix must be square");
  require(v_.rows() == h.nrows(),
          "SweepSession: checkpoint block size mismatch");
  require(v_.width() == w_.width() &&
              lane_of_column_.size() == static_cast<std::size_t>(v_.width()) &&
              mu_.size() == active_.size(),
          "SweepSession: inconsistent checkpoint");
  require(state.fingerprint == 0 || state.fingerprint == fingerprint(),
          "SweepSession: checkpoint fingerprint does not match this "
          "operator/scaling — restoring against a different operator would "
          "silently produce wrong moments");
  dvv_.resize(static_cast<std::size_t>(v_.width()));
  dwv_.resize(static_cast<std::size_t>(v_.width()));
}

std::uint64_t SweepSession::fingerprint() const {
  if (!fingerprint_.has_value()) {
    fingerprint_ = operator_fingerprint(h_, s_);
  }
  return *fingerprint_;
}

int SweepSession::completed() const noexcept {
  return std::min(2 * next_step_, num_moments_);
}

bool SweepSession::done() const noexcept {
  return completed() >= num_moments_ || active_lanes() == 0;
}

int SweepSession::active_lanes() const noexcept {
  int n = 0;
  for (const char a : active_) n += a != 0;
  return n;
}

std::span<const double> SweepSession::mu(int lane) const {
  require(lane >= 0 && lane < lanes(), "SweepSession: lane out of range");
  return mu_[static_cast<std::size_t>(lane)];
}

void SweepSession::deactivate_lane(int lane) {
  require(lane >= 0 && lane < lanes(), "SweepSession: lane out of range");
  active_[static_cast<std::size_t>(lane)] = 0;
}

/// Appends this step's two moments to every live lane.  The arithmetic is
/// byte-for-byte the eta_to_mu conversion of core/moments: mu_0 and mu_1 are
/// the raw dots, later entries are 2*eta - mu_0 (even) / 2*eta - mu_1 (odd).
void SweepSession::record_step(int m) {
  const int width = v_.width();
  for (int c = 0; c < width; ++c) {
    const int lane = lane_of_column_[static_cast<std::size_t>(c)];
    auto& mu = mu_[static_cast<std::size_t>(lane)];
    if (active_[static_cast<std::size_t>(lane)] == 0) continue;
    const double even = dvv_[static_cast<std::size_t>(c)].real();
    const double odd = dwv_[static_cast<std::size_t>(c)].real();
    if (m == 0) {
      mu.push_back(even);
      mu.push_back(odd);
    } else {
      mu.push_back(2.0 * even - mu[0]);
      mu.push_back(2.0 * odd - mu[1]);
    }
  }
}

int SweepSession::advance(int max_steps) {
  const auto rec = sparse::AugScalars::recurrence(s_.a, s_.b);
  for (int taken = 0; taken < max_steps && !done(); ++taken) {
    if (next_step_ == 0) {
      h_.apply(sparse::AugScalars::startup(s_.a, s_.b), v_, w_, dvv_, dwv_);
    } else {
      std::swap(v_, w_);
      h_.apply(rec, v_, w_, dvv_, dwv_);
    }
    record_step(next_step_);
    ++next_step_;
    ++steps_;
    lanes_swept_ += v_.width();
  }
  return completed();
}

int SweepSession::advance_all() {
  while (!done()) advance(1 << 20);
  return completed();
}

bool SweepSession::compact() {
  const int width = v_.width();
  std::vector<int> keep;  // kept columns, ascending
  keep.reserve(static_cast<std::size_t>(width));
  for (int c = 0; c < width; ++c) {
    if (active_[static_cast<std::size_t>(
            lane_of_column_[static_cast<std::size_t>(c)])] != 0) {
      keep.push_back(c);
    }
  }
  const int live = static_cast<int>(keep.size());
  if (live == width || live == 0) return false;
  // Entry (i, keep[j]) moves to (i, j) at the narrower width: flat index
  // i*live + j <= i*width + keep[j], and the sources are read in ascending
  // order, so every source is read before any write can reach it.
  const global_index rows = v_.rows();
  complex_t* const pv = v_.data();
  complex_t* const pw = w_.data();
  for (global_index i = 0; i < rows; ++i) {
    const std::size_t src = static_cast<std::size_t>(i) * width;
    const std::size_t dst = static_cast<std::size_t>(i) * live;
    for (int j = 0; j < live; ++j) {
      const std::size_t from = src + static_cast<std::size_t>(keep[j]);
      pv[dst + static_cast<std::size_t>(j)] = pv[from];
      pw[dst + static_cast<std::size_t>(j)] = pw[from];
    }
  }
  v_.reshape(rows, live);
  w_.reshape(rows, live);
  for (int j = 0; j < live; ++j) {
    lane_of_column_[static_cast<std::size_t>(j)] =
        lane_of_column_[static_cast<std::size_t>(keep[j])];
  }
  lane_of_column_.resize(static_cast<std::size_t>(live));
  dvv_.resize(static_cast<std::size_t>(live));
  dwv_.resize(static_cast<std::size_t>(live));
  return true;
}

SweepBlocks SweepSession::release() && {
  return {std::move(v_), std::move(w_)};
}

SweepCheckpoint SweepSession::checkpoint() const {
  SweepCheckpoint cp;
  cp.v = v_;
  cp.w = w_;
  cp.mu = mu_;
  cp.lane_of_column = lane_of_column_;
  cp.active = active_;
  cp.num_moments = num_moments_;
  cp.next_step = next_step_;
  cp.fingerprint = fingerprint();
  return cp;
}

}  // namespace kpm::core
