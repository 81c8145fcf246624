#pragma once

#include <memory>

#include "core/construction.hpp"

/// \file hss_construction.hpp
/// Sketching-based HSS construction (Martinsson 2011, the paper's reference
/// [29]). The paper presents Algorithm 1 as the extension of this
/// construction to strongly-admissible H2, so HSS is Algorithm 1 under weak
/// admissibility: build_hss runs core::construct_h2 with
/// tree::Admissibility::weak() (same black-box sampler, entry generator,
/// adaptive sampling loop, batched row ID and streams). The result is an
/// ordinary h2::H2Matrix whose arenas are the HSS layout (h2_matrix.hpp):
/// coupling slot 2p is the sibling pair's B(2p, 2p+1), its mirror slot
/// 2p+1 is 0 x 0, and dense slot i is leaf i's diagonal block. This is the
/// input the ULV solver (ulv.hpp) factors.

namespace h2sketch::solver {

/// An HSS matrix is a weak-admissibility H2 matrix.
using HssMatrix = h2::H2Matrix;
using HssResult = core::ConstructionResult;

/// Run Algorithm 1 under weak admissibility on the given execution context
/// (construct_h2 validates the result, the mirror-slot rule included).
HssResult build_hss(std::shared_ptr<const tree::ClusterTree> tree, kern::MatVecSampler& sampler,
                    const kern::EntryGenerator& gen, const core::ConstructionOptions& opts,
                    batched::ExecutionContext& ctx);

/// Convenience overload with an internal Batched context.
HssResult build_hss(std::shared_ptr<const tree::ClusterTree> tree, kern::MatVecSampler& sampler,
                    const kern::EntryGenerator& gen, const core::ConstructionOptions& opts);

/// Kernel-matrix entry point with selectable sampling: instantiates the
/// entry generator and a sampler of the requested kind internally
/// (H2SKETCH_SAMPLER=exact|proxy overrides `kind`). The proxy surrogate is
/// always strongly admissible even though the HSS structure is weak — proxy
/// surfaces need a separated far field; the HSS sketches then run against
/// the surrogate's O(N d) matvec. proxy_opts.tol <= 0 inherits opts.tol.
HssResult build_hss(std::shared_ptr<const tree::ClusterTree> tree,
                    const kern::KernelFunction& kernel, const core::ConstructionOptions& opts,
                    kern::SamplerKind kind = kern::SamplerKind::Exact,
                    kern::ProxySamplerOptions proxy_opts = {});

} // namespace h2sketch::solver
