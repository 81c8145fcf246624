#include "kernels/entry_gen.hpp"

namespace h2sketch::kern {

KernelEntryGenerator::KernelEntryGenerator(const tree::ClusterTree& tree,
                                           const KernelFunction& kernel)
    : kernel_(&kernel), dim_(tree.dim()) {
  const index_t n = tree.num_points();
  coords_.resize(static_cast<size_t>(n * dim_));
  for (index_t p = 0; p < n; ++p)
    for (index_t d = 0; d < dim_; ++d)
      coords_[static_cast<size_t>(p * dim_ + d)] = tree.coord_permuted(p, d);
}

void KernelEntryGenerator::generate_block(const_index_span rows, const_index_span cols,
                                          MatrixView out) const {
  H2S_CHECK(out.rows == static_cast<index_t>(rows.size()) &&
                out.cols == static_cast<index_t>(cols.size()),
            "generate_block: shape mismatch");
  for (index_t j = 0; j < out.cols; ++j) {
    const real_t* yc = &coords_[static_cast<size_t>(cols[static_cast<size_t>(j)] * dim_)];
    for (index_t i = 0; i < out.rows; ++i) {
      const real_t* xc = &coords_[static_cast<size_t>(rows[static_cast<size_t>(i)] * dim_)];
      out(i, j) = kernel_->evaluate(xc, yc, dim_);
    }
  }
  record_entries(out.rows * out.cols);
}

void DenseEntryGenerator::generate_block(const_index_span rows, const_index_span cols,
                                         MatrixView out) const {
  H2S_CHECK(out.rows == static_cast<index_t>(rows.size()) &&
                out.cols == static_cast<index_t>(cols.size()),
            "generate_block: shape mismatch");
  gather_block(a_, rows, cols, out);
  record_entries(out.rows * out.cols);
}

} // namespace h2sketch::kern
