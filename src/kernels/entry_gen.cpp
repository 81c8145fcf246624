#include "kernels/entry_gen.hpp"

#include <utility>

namespace h2sketch::kern {

std::vector<real_t> permuted_coordinates(const tree::ClusterTree& tree) {
  const index_t n = tree.num_points();
  const index_t dim = tree.dim();
  std::vector<real_t> coords(static_cast<size_t>(n * dim));
  for (index_t p = 0; p < n; ++p)
    for (index_t d = 0; d < dim; ++d)
      coords[static_cast<size_t>(p * dim + d)] = tree.coord_permuted(p, d);
  return coords;
}

KernelEntryGenerator::KernelEntryGenerator(const tree::ClusterTree& tree,
                                           const KernelFunction& kernel)
    : KernelEntryGenerator(permuted_coordinates(tree), tree.dim(), kernel) {}

KernelEntryGenerator::KernelEntryGenerator(std::vector<real_t> coords, index_t dim,
                                           const KernelFunction& kernel)
    : kernel_(&kernel), dim_(dim), coords_(std::move(coords)) {}

void KernelEntryGenerator::generate_block(const_index_span rows, const_index_span cols,
                                          MatrixView out) const {
  H2S_CHECK(out.rows == static_cast<index_t>(rows.size()) &&
                out.cols == static_cast<index_t>(cols.size()),
            "generate_block: shape mismatch");
  for (index_t j = 0; j < out.cols && out.rows > 0; ++j)
    kernel_->evaluate_block(coords_.data(), rows,
                            &coords_[static_cast<size_t>(cols[static_cast<size_t>(j)] * dim_)],
                            dim_, &out(0, j));
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
