#pragma once

#include <memory>

#include "batched/device.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "kernels/entry_gen.hpp"
#include "kernels/proxy_sampler.hpp"
#include "kernels/sampler.hpp"
#include "solver/hss_matrix.hpp"

/// \file hss_construction.hpp
/// Sketching-based HSS construction (Martinsson 2011, the paper's reference
/// [29]) producing the dedicated HssMatrix storage the ULV solver consumes.
///
/// The paper presents Algorithm 1 as the extension of this construction to
/// strongly-admissible H2, so HSS is Algorithm 1 under weak admissibility:
/// build_hss runs core::construct_h2 with tree::Admissibility::weak() (same
/// black-box sampler, entry generator, adaptive sampling loop, batched row
/// ID and streams) and repacks the result. Under weak admissibility the
/// near field is exactly the leaf diagonals and every node's far row holds
/// only its sibling, so ranks, skeletons, bases (as generators) and the
/// near field (as leaf_diag) move over unchanged, and each sibling pair
/// (2p, 2p+1) keeps the coupling B(2p, 2p+1) of H2 far slot 2p.
///
/// Symmetric-operator contract: HssMatrix represents the (2p+1, 2p) block
/// as B(2p, 2p+1)^T, so the operator must be symmetric (as every kernel of
/// the library is); the H2 twin block B(2p+1, 2p) is dropped in the repack.

namespace h2sketch::solver {

struct HssResult {
  HssMatrix matrix;
  core::ConstructionStats stats;
};

/// Run Algorithm 1 under weak admissibility on the given execution context
/// and repack the result into HssMatrix storage.
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
