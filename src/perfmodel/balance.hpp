// Data traffic and code balance models — paper Table I and Eqs. (4)-(7).
//
// All quantities are *minimum* values: every operand touched exactly once.
// Sd = 16 B (complex double), Si = 4 B (32-bit index), Fa = 2, Fm = 6 flops
// for complex add/multiply (src/util/types.hpp).
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace kpm::perfmodel {

/// Problem size parameters of a KPM run.
struct KpmWorkload {
  double n = 0.0;        ///< matrix dimension N
  double nnz = 0.0;      ///< stored non-zeros
  int num_random = 1;    ///< R
  int num_moments = 0;   ///< M (the paper counts M/2 inner iterations)

  [[nodiscard]] double nnzr() const { return nnz / n; }
  [[nodiscard]] double inner_iterations() const { return num_moments / 2.0; }
};

/// One row of paper Table I.
struct FunctionCost {
  std::string name;
  double calls = 0.0;          ///< total invocations for the whole solver
  double min_bytes_per_call = 0.0;
  double flops_per_call = 0.0;

  [[nodiscard]] double total_bytes() const { return calls * min_bytes_per_call; }
  [[nodiscard]] double total_flops() const { return calls * flops_per_call; }
};

/// The rows of Table I (spmv, axpy, scal, nrm2, dot, and the KPM total).
[[nodiscard]] std::vector<FunctionCost> table1(const KpmWorkload& w);

/// Total flops of the solver (identical for all three stages):
/// RM/2 [ Nnz(Fa+Fm) + N(7Fa/2 + 9Fm/2) ].
[[nodiscard]] double kpm_total_flops(const KpmWorkload& w);

/// Minimum solver traffic V_KPM in bytes for each optimization stage (Eq. 4).
[[nodiscard]] double traffic_naive(const KpmWorkload& w);
[[nodiscard]] double traffic_aug_spmv(const KpmWorkload& w);
[[nodiscard]] double traffic_aug_spmmv(const KpmWorkload& w);

/// Minimum code balance Bmin(R) in bytes/flop (Eq. 5) for the blocked
/// kernel, given the average row population Nnzr.
[[nodiscard]] double bmin(double nnzr, int num_random);

/// Asymptotic balance lim R->inf (Eq. 7).
[[nodiscard]] double bmin_limit(double nnzr);

/// Traffic excess factor Omega = V_measured / V_KPM (Eq. 8 context).
[[nodiscard]] double omega(double measured_bytes, double model_bytes);

/// Storage-format description feeding the per-format balance formulas of
/// DESIGN §5f.  The three knobs are exactly what a block format changes
/// relative to scalar CRS: bytes per stored value (8 for complex float),
/// index-stream bytes amortized per stored value (4 for CRS; index_bits/8
/// plus the 2-byte occupancy word per b^2 values for BSR), and the block
/// fill beta = nnz / stored values (explicit zero fill streams bytes but
/// contributes no useful flops).  Per-block-row decode seeds (4 B / block
/// row on the 16-bit path) are O(1/blocks-per-row) and excluded, matching
/// the other Bmin formulas' neglect of row-pointer traffic.
struct FormatSpec {
  double value_bytes = 16.0;
  double index_bytes_per_value = 4.0;
  double fill = 1.0;
};

/// Scalar CRS: 16 B value + 4 B index per nonzero, no fill.
[[nodiscard]] FormatSpec crs_format();

/// b x b block format (BSR): `fill` from
/// sparse::BsrMatrix::fill_ratio() or matrix_stats, `value_bytes` 16 (f64)
/// or 8 (f32), `index_bits` 32 or 16.  The per-block index share includes
/// the 2-byte occupancy mask the kernel streams alongside the indices.
[[nodiscard]] FormatSpec block_format(int block_dim, double fill,
                                      double value_bytes, int index_bits);

/// Matrix-free stencil (DESIGN §5h): the per-sweep matrix stream collapses
/// to what the operator actually stores — the optional f64 diagonal
/// (8 B/row) plus the O(surface) boundary entry lists and the term
/// descriptors.  Pass StencilOperator::stored_bytes() and nnz(); the spec
/// carries the residual bytes-per-nonzero directly (no index stream, no
/// fill), so the same Bmin / traffic formulas apply.  For a clean stencil
/// (no diagonal) this approaches 0 B/nnz — the Nnz*(Sd+Si) term of Eq. 5
/// eliminated, leaving only the 3*Sd vector term.
[[nodiscard]] FormatSpec stencil_format(double stored_bytes, double nnz);

/// Matrix-stream bytes per scalar nonzero: (Sd' + Si') / beta.  20 for
/// scalar CRS; the analytic floor a compressed block format must undercut
/// for the matrix term of the code balance to improve.
[[nodiscard]] double format_bytes_per_nnz(const FormatSpec& f);

/// Per-format Bmin(R) (Eq. 5 with the matrix term generalized): the
/// vector term 3 Sd and the useful flops (counted on nnz, not on the
/// zero fill) are format-independent.
[[nodiscard]] double bmin_format(const FormatSpec& f, double nnzr,
                                 int num_random);

/// Minimum solver traffic of the blocked kernel on this format (the
/// generalization of traffic_aug_spmmv).
[[nodiscard]] double traffic_aug_spmmv_format(const KpmWorkload& w,
                                              const FormatSpec& f);

/// Minimum code balance of a *general* SpMV (no special matrix properties):
/// one value + one index per non-zero, streamed once, against one
/// multiply-add per non-zero.  The paper's introduction quotes the limits
/// 6 bytes/flop (double) and 2.5 bytes/flop (double complex), which this
/// reproduces with (data_bytes, index_bytes, flops) = (8, 4, 2) and
/// (16, 4, 8).  Vector traffic is neglected (nnzr >> 1 regime).
[[nodiscard]] double general_spmv_balance(double data_bytes,
                                          double index_bytes,
                                          double flops_per_entry);

}  // namespace kpm::perfmodel
