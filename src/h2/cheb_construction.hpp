#pragma once

#include <memory>

#include "h2/h2_matrix.hpp"
#include "kernels/kernel.hpp"

/// \file cheb_construction.hpp
/// Deterministic H2 construction from tensor Chebyshev interpolation
/// (black-box FMM style). Every cluster carries the same rank q^dim; leaf
/// bases are Lagrange evaluations of the cluster's points at its box's
/// Chebyshev grid, transfer matrices interpolate child grids in parent
/// bases, and coupling blocks are kernel evaluations between grids.
///
/// The build is batched and write-through, the same shape as the sketching
/// builder's near field: every coupling and near-field slot gets its shape,
/// each arena is allocated once, and the blocks are generated straight into
/// the arena slots — one `generate` launch per level for the couplings
/// (a `KernelEntryGenerator` over the level's grid-point table, node i
/// owning rows [i r, (i+1) r)) and one for the near field (over the tree's
/// permuted points), run on a local context over the process default
/// device. Only the small leaf bases and transfers are host-staged and
/// committed. Every block is bitwise independent of the pool width.
///
/// Role in this repo: the paper uses an existing H2Opus-built H2 matrix as
/// the black-box sampler Kblk for the covariance/IE experiments; this
/// construction provides that input operator independently of the sketching
/// algorithm under test (see DESIGN.md substitutions).

namespace h2sketch::h2 {

/// Build a Chebyshev-interpolation H2 matrix with q interpolation nodes per
/// dimension (rank q^dim). Typical q: 4-6 for ~1e-4..1e-7 far-field accuracy
/// at eta <= 0.7.
H2Matrix build_cheb_h2(std::shared_ptr<const tree::ClusterTree> tree,
                       const tree::Admissibility& adm, const kern::KernelFunction& kernel,
                       index_t q);

} // namespace h2sketch::h2
