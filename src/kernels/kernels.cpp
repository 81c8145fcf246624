#include "kernels/kernels.hpp"

#include <cmath>

namespace h2sketch::kern {

namespace {
inline real_t dist(const real_t* x, const real_t* y, index_t dim) {
  real_t s = 0.0;
  for (index_t d = 0; d < dim; ++d) {
    const real_t e = x[d] - y[d];
    s += e * e;
  }
  return std::sqrt(s);
}

inline bool coincident(const real_t* x, const real_t* y, index_t dim) {
  for (index_t d = 0; d < dim; ++d)
    if (x[d] != y[d]) return false;
  return true;
}

/// out[i] = f(|coords[rows[i]] - y|). D > 0 fixes the dimension at compile
/// time so the distance loop unrolls; the summation order is the same as
/// `dist` at run-time `dim`, so every entry matches `evaluate` bitwise.
template <index_t D, typename F>
inline void distance_loop(const real_t* coords, const_index_span rows, const real_t* y,
                          index_t dim, real_t* out, F f) {
  const index_t stride = D > 0 ? D : dim;
  for (size_t i = 0; i < rows.size(); ++i) out[i] = f(dist(coords + rows[i] * stride, y, stride));
}

/// The one block loop behind every distance kernel's evaluate_block.
template <typename F>
inline void distance_block(const real_t* coords, const_index_span rows, const real_t* y,
                           index_t dim, real_t* out, F f) {
  if (dim == 3)
    distance_loop<3>(coords, rows, y, dim, out, f);
  else
    distance_loop<0>(coords, rows, y, dim, out, f);
}

// Each kernel's entry as a function of the distance r, shared by its
// evaluate and evaluate_block so the two cannot drift apart.
struct Exponential {
  real_t l;
  real_t operator()(real_t r) const { return std::exp(-r / l); }
};
struct HelmholtzCos {
  real_t k, diagonal;
  real_t operator()(real_t r) const { return r == 0.0 ? diagonal : std::cos(k * r) / r; }
};
struct Gaussian {
  real_t l;
  real_t operator()(real_t r) const { return std::exp(-0.5 * r * r / (l * l)); }
};
struct Matern32 {
  real_t l;
  real_t operator()(real_t r) const {
    const real_t a = std::sqrt(3.0) * r / l;
    return (1.0 + a) * std::exp(-a);
  }
};
struct Laplace {
  real_t diagonal;
  real_t operator()(real_t r) const { return r == 0.0 ? diagonal : 1.0 / r; }
};
} // namespace

real_t ExponentialKernel::evaluate(const real_t* x, const real_t* y, index_t dim) const {
  return Exponential{l_}(dist(x, y, dim));
}

void ExponentialKernel::evaluate_block(const real_t* coords, const_index_span rows,
                                       const real_t* y, index_t dim, real_t* out) const {
  distance_block(coords, rows, y, dim, out, Exponential{l_});
}

HelmholtzCosKernel::HelmholtzCosKernel(real_t k, real_t diagonal) : k_(k), diagonal_(diagonal) {
  // Default self term: comparable magnitude to the nearest-neighbour
  // interaction so the diagonal neither dominates nor vanishes.
  if (diagonal_ == 0.0) diagonal_ = 2.0 * k_;
}

real_t HelmholtzCosKernel::evaluate(const real_t* x, const real_t* y, index_t dim) const {
  return HelmholtzCos{k_, diagonal_}(dist(x, y, dim));
}

void HelmholtzCosKernel::evaluate_block(const real_t* coords, const_index_span rows,
                                        const real_t* y, index_t dim, real_t* out) const {
  distance_block(coords, rows, y, dim, out, HelmholtzCos{k_, diagonal_});
}

real_t GaussianKernel::evaluate(const real_t* x, const real_t* y, index_t dim) const {
  return Gaussian{l_}(dist(x, y, dim));
}

void GaussianKernel::evaluate_block(const real_t* coords, const_index_span rows, const real_t* y,
                                    index_t dim, real_t* out) const {
  distance_block(coords, rows, y, dim, out, Gaussian{l_});
}

real_t Matern32Kernel::evaluate(const real_t* x, const real_t* y, index_t dim) const {
  return Matern32{l_}(dist(x, y, dim));
}

void Matern32Kernel::evaluate_block(const real_t* coords, const_index_span rows, const real_t* y,
                                    index_t dim, real_t* out) const {
  distance_block(coords, rows, y, dim, out, Matern32{l_});
}

real_t RidgeKernel::evaluate(const real_t* x, const real_t* y, index_t dim) const {
  const real_t v = base_->evaluate(x, y, dim);
  return coincident(x, y, dim) ? v + sigma_ : v;
}

void RidgeKernel::evaluate_block(const real_t* coords, const_index_span rows, const real_t* y,
                                 index_t dim, real_t* out) const {
  base_->evaluate_block(coords, rows, y, dim, out);
  for (size_t i = 0; i < rows.size(); ++i)
    if (coincident(coords + rows[i] * dim, y, dim)) out[i] += sigma_;
}

real_t Laplace3dKernel::evaluate(const real_t* x, const real_t* y, index_t dim) const {
  return Laplace{diagonal_}(dist(x, y, dim));
}

void Laplace3dKernel::evaluate_block(const real_t* coords, const_index_span rows, const real_t* y,
                                     index_t dim, real_t* out) const {
  distance_block(coords, rows, y, dim, out, Laplace{diagonal_});
}

} // namespace h2sketch::kern
