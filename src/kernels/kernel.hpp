#pragma once

#include <memory>
#include <string>

#include "common/types.hpp"

/// \file kernel.hpp
/// Kernel function interface: K(x, y) for point pairs. Implementations back
/// the paper's test problems (exponential covariance Eq. (8), Helmholtz
/// volume-IE Eq. (9)) plus extras used by tests and the synthetic frontal
/// matrices.

namespace h2sketch::kern {

/// A translation-invariant (or general) kernel evaluated on coordinate
/// tuples of dimension `dim`.
class KernelFunction {
 public:
  virtual ~KernelFunction() = default;

  /// K(x, y); x and y point to `dim` coordinates each.
  virtual real_t evaluate(const real_t* x, const real_t* y, index_t dim) const = 0;

  /// One column of a kernel block: out[i] = K(coords + rows[i] * dim, y)
  /// for every i, where `coords` is a point-major table of `dim`
  /// coordinates per point. This is the entry point of batched entry
  /// generation (one virtual call per column instead of per entry). Every
  /// override must return exactly the bits `evaluate` returns for each pair
  /// — same operation order, same special cases — so block and per-entry
  /// paths are interchangeable. The default loops over `evaluate`.
  virtual void evaluate_block(const real_t* coords, const_index_span rows, const real_t* y,
                              index_t dim, real_t* out) const {
    for (size_t i = 0; i < rows.size(); ++i) out[i] = evaluate(coords + rows[i] * dim, y, dim);
  }

  /// Human-readable name for reports.
  virtual std::string name() const = 0;
};

} // namespace h2sketch::kern
