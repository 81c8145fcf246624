#include "la/gemm_engine.hpp"

#include <vector>

#include "common/thread_pool.hpp"

namespace h2sketch::la {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define H2S_RESTRICT __restrict__
#else
#define H2S_RESTRICT
#endif

/// C *= beta (beta == 0 clears, beta == 1 is a no-op).
void apply_beta(real_t beta, MatrixView c) {
  if (beta == 1.0) return;
  if (beta == 0.0) {
    set_all(c, 0.0);
    return;
  }
  for (index_t j = 0; j < c.cols; ++j) {
    real_t* ccol = c.data + j * c.ld;
    for (index_t i = 0; i < c.rows; ++i) ccol[i] *= beta;
  }
}

void check_gemm_shapes(ConstMatrixView a, Op op_a, ConstMatrixView b, Op op_b, MatrixView c) {
  H2S_CHECK(op_rows(a, op_a) == c.rows && op_cols(b, op_b) == c.cols &&
                op_cols(a, op_a) == op_rows(b, op_b),
            "gemm: shape mismatch (" << op_rows(a, op_a) << "x" << op_cols(a, op_a) << ") * ("
                                     << op_rows(b, op_b) << "x" << op_cols(b, op_b) << ") -> "
                                     << c.rows << "x" << c.cols);
}

// ---------------------------------------------------------------------------
// Naive reference kernels (the seed repo's triple loops, retained verbatim as
// the correctness oracle and small-shape fast path).
// ---------------------------------------------------------------------------

// C += alpha * A * B, all column-major, stride-1 inner loop over rows of C.
void gemm_nn(real_t alpha, ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  for (index_t j = 0; j < c.cols; ++j) {
    for (index_t k = 0; k < a.cols; ++k) {
      const real_t bkj = alpha * b(k, j);
      if (bkj == 0.0) continue;
      const real_t* acol = a.data + k * a.ld;
      real_t* ccol = c.data + j * c.ld;
      for (index_t i = 0; i < c.rows; ++i) ccol[i] += acol[i] * bkj;
    }
  }
}

void gemm_tn(real_t alpha, ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  // C(i,j) += alpha * sum_k A(k,i) * B(k,j): dot of two columns, stride-1.
  for (index_t j = 0; j < c.cols; ++j) {
    const real_t* bcol = b.data + j * b.ld;
    for (index_t i = 0; i < c.rows; ++i) {
      const real_t* acol = a.data + i * a.ld;
      real_t s = 0.0;
      for (index_t k = 0; k < a.rows; ++k) s += acol[k] * bcol[k];
      c(i, j) += alpha * s;
    }
  }
}

void gemm_nt(real_t alpha, ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  // C(:,j) += alpha * sum_k A(:,k) * B(j,k)
  for (index_t j = 0; j < c.cols; ++j) {
    real_t* ccol = c.data + j * c.ld;
    for (index_t k = 0; k < a.cols; ++k) {
      const real_t bjk = alpha * b(j, k);
      if (bjk == 0.0) continue;
      const real_t* acol = a.data + k * a.ld;
      for (index_t i = 0; i < c.rows; ++i) ccol[i] += acol[i] * bjk;
    }
  }
}

void gemm_tt(real_t alpha, ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  for (index_t j = 0; j < c.cols; ++j) {
    for (index_t i = 0; i < c.rows; ++i) {
      const real_t* acol = a.data + i * a.ld;
      real_t s = 0.0;
      for (index_t k = 0; k < a.rows; ++k) s += acol[k] * b(j, k);
      c(i, j) += alpha * s;
    }
  }
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// op(A)(i, j): the packing routines fold the transpose here so the
/// microkernel only ever sees packed, no-transpose panels.
inline real_t op_at(ConstMatrixView a, Op op, index_t i, index_t j) {
  return op == Op::None ? a(i, j) : a(j, i);
}

/// Pack the mb x kb block of op(A) starting at (i0, k0) into slivers of
/// kGemmMR rows: sliver p holds, for k = 0..kb-1, the kGemmMR contiguous
/// values op(A)(i0 + p*MR + i, k0 + k), zero-padded past mb. The microkernel
/// then streams each sliver with stride-1 loads.
void pack_a(ConstMatrixView a, Op op, index_t i0, index_t k0, index_t mb, index_t kb,
            real_t* H2S_RESTRICT buf) {
  for (index_t p = 0; p < mb; p += kGemmMR) {
    const index_t mr = std::min(kGemmMR, mb - p);
    if (op == Op::None) {
      const real_t* src = a.data + (i0 + p) + k0 * a.ld;
      for (index_t k = 0; k < kb; ++k) {
        const real_t* col = src + k * a.ld;
        for (index_t i = 0; i < mr; ++i) buf[i] = col[i];
        for (index_t i = mr; i < kGemmMR; ++i) buf[i] = 0.0;
        buf += kGemmMR;
      }
    } else {
      for (index_t k = 0; k < kb; ++k) {
        for (index_t i = 0; i < mr; ++i) buf[i] = a(k0 + k, i0 + p + i);
        for (index_t i = mr; i < kGemmMR; ++i) buf[i] = 0.0;
        buf += kGemmMR;
      }
    }
  }
}

/// Pack the kb x nb block of op(B) starting at (k0, j0) into slivers of
/// kGemmNR columns: sliver q holds, for k = 0..kb-1, the kGemmNR values
/// op(B)(k0 + k, j0 + q*NR + j), zero-padded past nb.
void pack_b(ConstMatrixView b, Op op, index_t k0, index_t j0, index_t kb, index_t nb,
            real_t* H2S_RESTRICT buf) {
  for (index_t q = 0; q < nb; q += kGemmNR) {
    const index_t nr = std::min(kGemmNR, nb - q);
    if (op == Op::Trans) {
      // op(B)(k, j) = B(j, k): rows of the sliver are stride-1 in memory.
      const real_t* src = b.data + (j0 + q) + k0 * b.ld;
      for (index_t k = 0; k < kb; ++k) {
        const real_t* col = src + k * b.ld;
        for (index_t j = 0; j < nr; ++j) buf[j] = col[j];
        for (index_t j = nr; j < kGemmNR; ++j) buf[j] = 0.0;
        buf += kGemmNR;
      }
    } else {
      for (index_t k = 0; k < kb; ++k) {
        for (index_t j = 0; j < nr; ++j) buf[j] = b(k0 + k, j0 + q + j);
        for (index_t j = nr; j < kGemmNR; ++j) buf[j] = 0.0;
        buf += kGemmNR;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Microkernel
// ---------------------------------------------------------------------------

/// acc[j * MR + i] = sum_k ap[k * MR + i] * bp[k * NR + j].
/// Fixed trip counts and restrict-qualified, stride-1 panels let the
/// compiler keep the MR x NR accumulator block in vector registers and
/// vectorize over i (the stride-1 direction of C and the packed A sliver).
///
/// The same source body is compiled three times: for the build's baseline
/// ISA and (on x86-64 GCC/Clang) as AVX2+FMA and AVX-512 clones via target
/// attributes. One function pointer is selected per process at first use
/// with __builtin_cpu_supports, so a generic -O2/-O3 build still runs wide
/// FMA kernels on the machines that have them while remaining portable.
/// Kernel choice is fixed for the process lifetime, which keeps results
/// bitwise reproducible across thread counts and backends within a run.
#define H2S_DEFINE_MICRO_KERNEL(NAME, TARGET_ATTR)                                              \
  TARGET_ATTR void NAME(index_t kb, const real_t* H2S_RESTRICT ap,                              \
                        const real_t* H2S_RESTRICT bp, real_t* H2S_RESTRICT acc) {              \
    real_t c[kGemmMR * kGemmNR] = {};                                                           \
    for (index_t k = 0; k < kb; ++k) {                                                          \
      const real_t* H2S_RESTRICT av = ap + k * kGemmMR;                                         \
      const real_t* H2S_RESTRICT bv = bp + k * kGemmNR;                                         \
      for (index_t j = 0; j < kGemmNR; ++j)                                                     \
        for (index_t i = 0; i < kGemmMR; ++i) c[j * kGemmMR + i] += av[i] * bv[j];              \
    }                                                                                           \
    for (index_t x = 0; x < kGemmMR * kGemmNR; ++x) acc[x] = c[x];                              \
  }

H2S_DEFINE_MICRO_KERNEL(micro_kernel_base, )

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define H2S_HAVE_KERNEL_DISPATCH 1
H2S_DEFINE_MICRO_KERNEL(micro_kernel_avx2, __attribute__((target("avx2,fma"))))
H2S_DEFINE_MICRO_KERNEL(micro_kernel_avx512, __attribute__((target("avx512f,avx512vl"))))
#endif

using MicroKernelFn = void (*)(index_t, const real_t*, const real_t*, real_t*);

MicroKernelFn select_micro_kernel() {
#if defined(H2S_HAVE_KERNEL_DISPATCH)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl"))
    return micro_kernel_avx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return micro_kernel_avx2;
#endif
  return micro_kernel_base;
}

MicroKernelFn micro_kernel = select_micro_kernel();

/// C(0:mr, 0:nr) += alpha * acc, where acc is a full MR x NR register tile
/// (zero-padded rows/columns of edge tiles contribute nothing and are simply
/// not written back).
void accumulate_tile(real_t alpha, const real_t* H2S_RESTRICT acc, MatrixView c, index_t r0,
                     index_t c0, index_t mr, index_t nr) {
  for (index_t j = 0; j < nr; ++j) {
    real_t* ccol = c.data + r0 + (c0 + j) * c.ld;
    const real_t* av = acc + j * kGemmMR;
    for (index_t i = 0; i < mr; ++i) ccol[i] += alpha * av[i];
  }
}

} // namespace

bool gemm_use_blocked(index_t m, index_t n, index_t k) {
  // Packing costs O(m*k + k*n) extra traffic plus two buffer allocations;
  // it pays off only when each packed element is reused enough times.
  // Sketching-sized products (tall-thin with n ~ rank + oversampling below
  // one register tile, or tiny k rank updates) stay on the naive kernels.
  if (m < kGemmMR || n < kGemmNR || k < 8) return false;
  return m * n * k >= 32768; // ~32^3: crossover measured by bench_gemm
}

void gemm_naive(real_t alpha, ConstMatrixView a, Op op_a, ConstMatrixView b, Op op_b, real_t beta,
                MatrixView c) {
  check_gemm_shapes(a, op_a, b, op_b, c);
  apply_beta(beta, c);
  if (c.rows == 0 || c.cols == 0 || op_cols(a, op_a) == 0 || alpha == 0.0) return;
  if (op_a == Op::None && op_b == Op::None) gemm_nn(alpha, a, b, c);
  else if (op_a == Op::Trans && op_b == Op::None) gemm_tn(alpha, a, b, c);
  else if (op_a == Op::None && op_b == Op::Trans) gemm_nt(alpha, a, b, c);
  else gemm_tt(alpha, a, b, c);
}

void gemm_blocked(real_t alpha, ConstMatrixView a, Op op_a, ConstMatrixView b, Op op_b,
                  real_t beta, MatrixView c) {
  check_gemm_shapes(a, op_a, b, op_b, c);
  apply_beta(beta, c);
  const index_t m = c.rows, n = c.cols, kk = op_cols(a, op_a);
  if (m == 0 || n == 0 || kk == 0 || alpha == 0.0) return;

  const index_t mc_max = std::min(m, kGemmMC);
  const index_t nc_max = std::min(n, kGemmNC);
  const index_t kc_max = std::min(kk, kGemmKC);
  // Per-call packing buffers, sized to the actual panel extents so products
  // just past the dispatch cutover don't allocate full-MC/NC blocks inside
  // the batched backend's parallel loops.
  std::vector<real_t> a_pack(static_cast<size_t>(((mc_max + kGemmMR - 1) / kGemmMR) * kGemmMR *
                                                 kc_max));
  std::vector<real_t> b_pack(static_cast<size_t>(kc_max * ((nc_max + kGemmNR - 1) / kGemmNR) *
                                                 kGemmNR));
  real_t acc[kGemmMR * kGemmNR];

  for (index_t jc = 0; jc < n; jc += kGemmNC) {
    const index_t nb = std::min(kGemmNC, n - jc);
    for (index_t pc = 0; pc < kk; pc += kGemmKC) {
      const index_t kb = std::min(kGemmKC, kk - pc);
      pack_b(b, op_b, pc, jc, kb, nb, b_pack.data());
      for (index_t ic = 0; ic < m; ic += kGemmMC) {
        const index_t mb = std::min(kGemmMC, m - ic);
        pack_a(a, op_a, ic, pc, mb, kb, a_pack.data());
        for (index_t jr = 0; jr < nb; jr += kGemmNR) {
          const index_t nr = std::min(kGemmNR, nb - jr);
          const real_t* bp = b_pack.data() + (jr / kGemmNR) * kb * kGemmNR;
          for (index_t ir = 0; ir < mb; ir += kGemmMR) {
            const index_t mr = std::min(kGemmMR, mb - ir);
            const real_t* ap = a_pack.data() + (ir / kGemmMR) * kb * kGemmMR;
            micro_kernel(kb, ap, bp, acc);
            accumulate_tile(alpha, acc, c, ic + ir, jc + jr, mr, nr);
          }
        }
      }
    }
  }
}

void gemm_parallel(real_t alpha, ConstMatrixView a, Op op_a, ConstMatrixView b, Op op_b,
                   real_t beta, MatrixView c) {
  const index_t m = c.rows, n = c.cols, kk = op_cols(a, op_a);
  ThreadPool& pool = ThreadPool::global();
  const index_t row_panels = (m + kGemmMC - 1) / kGemmMC;
  const index_t col_panels = (n + kGemmNC - 1) / kGemmNC;
  if (pool.width() <= 1 || !gemm_use_blocked(m, n, kk) || row_panels * col_panels <= 1) {
    gemm(alpha, a, op_a, b, op_b, beta, c);
    return;
  }
  // Tile grid aligned with the serial engine's (ic, jc) blocking: tile
  // (rp, cp) covers C(rp*MC .., cp*NC ..). Each tile runs the full pc loop
  // itself, so its accumulation order — and therefore every bit of C — is
  // exactly the serial engine's. Boundaries depend only on (m, n).
  pool.parallel_for(row_panels * col_panels, [&](index_t t) {
    const index_t rp = t % row_panels, cp = t / row_panels;
    const index_t r0 = rp * kGemmMC, mb = std::min(kGemmMC, m - r0);
    const index_t c0 = cp * kGemmNC, nb = std::min(kGemmNC, n - c0);
    const ConstMatrixView ap =
        op_a == Op::None ? a.block(r0, 0, mb, a.cols) : a.block(0, r0, a.rows, mb);
    const ConstMatrixView bp =
        op_b == Op::None ? b.block(0, c0, b.rows, nb) : b.block(c0, 0, nb, b.cols);
    gemm_blocked(alpha, ap, op_a, bp, op_b, beta, c.block(r0, c0, mb, nb));
  });
}

} // namespace h2sketch::la
