#pragma once

#include "common/matrix.hpp"
#include "common/types.hpp"

/// \file blas.hpp
/// Self-contained dense BLAS-like kernels on column-major views. These are
/// the single-threaded building blocks the batched backend loops over (the
/// paper's CPU path wraps single-threaded BLAS in OpenMP loops; its GPU path
/// calls MAGMA/KBLAS batched equivalents).
///
/// `gemm` auto-dispatches between the cache-blocked, register-tiled engine
/// in gemm_engine.hpp and the retained naive triple-loop reference: large
/// products take the packed path, tiny/skinny (sketching-sized) shapes stay
/// scalar. `trsm_upper_left` and `cholesky_solve` switch to blocked
/// substitution with gemm updates once the system/right-hand-side count is
/// large enough for the engine to win.

namespace h2sketch::la {

/// Transposition selector for gemm/gemv operands.
enum class Op { None, Trans };

/// Dimensions of op(A).
inline index_t op_rows(ConstMatrixView a, Op op) { return op == Op::None ? a.rows : a.cols; }
inline index_t op_cols(ConstMatrixView a, Op op) { return op == Op::None ? a.cols : a.rows; }

/// C = alpha * op(A) * op(B) + beta * C. Dispatches to the blocked engine or
/// the naive reference per shape (see gemm_engine.hpp).
void gemm(real_t alpha, ConstMatrixView a, Op op_a, ConstMatrixView b, Op op_b, real_t beta,
          MatrixView c);

/// Same contract as `gemm`, with an opt-in intra-op parallel path: C is
/// tiled into row panels at the engine's MC boundary and column panels at
/// the NC boundary, and the tiles run concurrently on the persistent pool.
/// Because the panel cuts coincide with the serial engine's own blocking,
/// the result is bitwise identical to `gemm` for every thread count. Falls
/// back to the serial dispatch when the product is too small to split or the
/// pool width is 1. Intended for the few monolithic products (dense sampler
/// applications, densification) that a batched launch cannot subdivide.
void gemm_parallel(real_t alpha, ConstMatrixView a, Op op_a, ConstMatrixView b, Op op_b,
                   real_t beta, MatrixView c);

/// y = alpha * op(A) * x + beta * y. Single right-hand side: always the
/// naive kernels (a packed panel would never be reused).
void gemv(real_t alpha, ConstMatrixView a, Op op_a, const_real_span x, real_t beta, real_span y);

/// Solve op(R) * X = B in place for upper-triangular R (unit_diag selects an
/// implicit unit diagonal). B has R.cols rows.
void trsm_upper_left(ConstMatrixView r, Op op_r, MatrixView b, bool unit_diag = false);

/// Solve op(L) * X = B in place for lower-triangular L. B has L.rows rows.
/// Blocked like trsm_upper_left: scalar substitution on kTrsmBlock diagonal
/// blocks, gemm updates in between.
void trsm_lower_left(ConstMatrixView l, Op op_l, MatrixView b, bool unit_diag = false);

/// Solve X * op(L) = B in place for lower-triangular L (the right-side
/// variant the ULV factorization needs for W = D_sz L^{-T}). B has L.rows
/// columns.
void trsm_lower_right(ConstMatrixView l, Op op_l, MatrixView b, bool unit_diag = false);

/// In-place lower Cholesky factorization A = L L^T of an SPD matrix (the
/// strict upper triangle is left untouched). Throws on a non-positive pivot.
/// Large systems run a blocked right-looking sweep (scalar diagonal factor,
/// right-side trsm panel, gemm trailing update); small ones — the batched
/// per-node blocks — stay on the scalar kernel.
void cholesky(MatrixView a);

/// Solve A X = B in place given the Cholesky factor L (lower) of A.
void cholesky_solve(ConstMatrixView l, MatrixView b);

/// Frobenius norm.
real_t norm_f(ConstMatrixView a);

/// Euclidean norm of a vector.
real_t norm2(const_real_span x);

/// Dot product.
real_t dot(const_real_span x, const_real_span y);

/// y += alpha * x.
void axpy(real_t alpha, const_real_span x, real_span y);

/// x *= alpha.
void scale(real_t alpha, real_span x);

} // namespace h2sketch::la
