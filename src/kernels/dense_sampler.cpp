#include "kernels/dense_sampler.hpp"

#include <memory>
#include <numeric>

#include "common/parallel.hpp"
#include "la/blas.hpp"

namespace h2sketch::kern {

void DenseMatrixSampler::sample(ConstMatrixView omega, MatrixView y) {
  H2S_CHECK(omega.rows == a_.rows && y.rows == a_.rows && omega.cols == y.cols,
            "DenseMatrixSampler: shape mismatch");
  // The single biggest serial hotspot of a construction run: one monolithic
  // N x N by N x d product per sample round. Batched launches cannot
  // subdivide it, so it takes the intra-op parallel engine path.
  la::gemm_parallel(1.0, a_, la::Op::None, omega, la::Op::None, 0.0, y);
  record_samples(omega.cols);
}

KernelMatVecSampler::KernelMatVecSampler(const tree::ClusterTree& tree,
                                         const KernelFunction& kernel)
    : gen_(tree, kernel), n_(tree.num_points()), iota_(static_cast<size_t>(n_)) {
  std::iota(iota_.begin(), iota_.end(), index_t{0});
}

void KernelMatVecSampler::sample(ConstMatrixView omega, MatrixView y) {
  H2S_CHECK(omega.rows == n_ && y.rows == n_ && omega.cols == y.cols,
            "KernelMatVecSampler: shape mismatch");
  // Evaluate one block-row strip at a time to bound extra memory. Row and
  // column index sets are sub-spans of the precomputed iota_.
  const index_t strip = 256;
  const const_index_span all_cols(iota_);
  const index_t num_strips = (n_ + strip - 1) / strip;

  if (ThreadPool::global().width() <= 1) {
    // Single-lane path: serial strip loop, one reused buffer
    // sized to the widest strip actually taken.
    Matrix row_block(std::min(strip, n_), n_);
    for (index_t r0 = 0; r0 < n_; r0 += strip) {
      const index_t m = std::min(strip, n_ - r0);
      MatrixView rb = row_block.view().block(0, 0, m, n_);
      gen_.generate_block(all_cols.subspan(static_cast<size_t>(r0), static_cast<size_t>(m)),
                          all_cols, rb);
      la::gemm(1.0, rb, la::Op::None, omega, la::Op::None, 0.0, y.row_range(r0, m));
    }
  } else {
    // Strips are independent (disjoint y rows) and each does identical
    // per-strip arithmetic, so running them on the pool keeps the result
    // bitwise equal to the serial loop while both the kernel evaluation
    // and the per-strip gemm scale with cores.
    ThreadPool::global().parallel_for(num_strips, [&](index_t s) {
      const index_t r0 = s * strip;
      const index_t m = std::min(strip, n_ - r0);
      // Uninitialized scratch: generate_block overwrites every entry, and a
      // zeroing Matrix here would memset strip*N doubles per strip per
      // round — measurable against the generation itself.
      std::unique_ptr<real_t[]> buf(new real_t[static_cast<size_t>(m) * static_cast<size_t>(n_)]);
      MatrixView rb(buf.get(), m, n_, m);
      gen_.generate_block(all_cols.subspan(static_cast<size_t>(r0), static_cast<size_t>(m)),
                          all_cols, rb);
      la::gemm(1.0, rb, la::Op::None, omega, la::Op::None, 0.0, y.row_range(r0, m));
    });
  }
  record_samples(omega.cols);
}

} // namespace h2sketch::kern
