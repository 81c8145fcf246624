#pragma once

#include <atomic>
#include <vector>

#include "common/matrix.hpp"
#include "kernels/kernel.hpp"
#include "tree/cluster_tree.hpp"

/// \file entry_gen.hpp
/// Entry generators (the paper's batchedGen, §IV-A): the second input to
/// the construction algorithm, a function that evaluates sub-blocks K(I, J).
/// A batch of requests is evaluated in a single kernel launch by
/// `DeviceBackend::generate`. All index sets are in the cluster tree's
/// permuted position space.

namespace h2sketch::kern {

/// One block to evaluate: out = K(rows, cols).
struct BlockRequest {
  const_index_span rows;
  const_index_span cols;
  MatrixView out;
};

/// Interface for evaluating arbitrary sub-blocks of the (permuted) matrix.
class EntryGenerator {
 public:
  virtual ~EntryGenerator() = default;

  /// Fill out(i, j) = K(rows[i], cols[j]).
  virtual void generate_block(const_index_span rows, const_index_span cols,
                              MatrixView out) const = 0;

  /// Number of entries generated so far (for cost reporting). Thread-safe:
  /// blocks are generated concurrently inside batched launches.
  index_t entries_generated() const { return entries_.load(std::memory_order_relaxed); }

 protected:
  void record_entries(index_t n) const { entries_.fetch_add(n, std::memory_order_relaxed); }
  mutable std::atomic<index_t> entries_{0};
};

/// Point-major coordinates of the tree's points in permuted position order
/// (row p holds the `tree.dim()` coordinates of permuted position p).
std::vector<real_t> permuted_coordinates(const tree::ClusterTree& tree);

/// Entry generator for a kernel matrix over a contiguous coordinate table:
/// K(i, j) = kernel(coords[i], coords[j]). Each block costs one
/// `KernelFunction::evaluate_block` call per column.
class KernelEntryGenerator final : public EntryGenerator {
 public:
  /// Over the tree's points: index i is permuted position i.
  KernelEntryGenerator(const tree::ClusterTree& tree, const KernelFunction& kernel);
  /// Over an arbitrary point-major table of `dim` coordinates per point
  /// (grid points, cluster points extended by proxy points, ...).
  KernelEntryGenerator(std::vector<real_t> coords, index_t dim, const KernelFunction& kernel);

  void generate_block(const_index_span rows, const_index_span cols, MatrixView out) const override;

 private:
  const KernelFunction* kernel_;
  index_t dim_;
  std::vector<real_t> coords_; ///< point-major coordinates
};

/// Entry generator reading from an explicit dense matrix (already permuted):
/// used for frontal matrices and as a test oracle.
class DenseEntryGenerator final : public EntryGenerator {
 public:
  explicit DenseEntryGenerator(ConstMatrixView a) : a_(a) {}

  void generate_block(const_index_span rows, const_index_span cols, MatrixView out) const override;

 private:
  ConstMatrixView a_;
};

} // namespace h2sketch::kern
