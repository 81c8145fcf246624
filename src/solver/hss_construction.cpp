#include "solver/hss_construction.hpp"

#include <utility>

#include "core/construction.hpp"

namespace h2sketch::solver {

namespace {

/// Repack a weak-admissibility H2 build into HssMatrix storage. Ranks,
/// skeletons, bases and the near field move over unchanged: under weak
/// admissibility the near field is exactly the leaf diagonals, so dense
/// slot i is leaf i, and every far row holds one entry, its sibling. Far
/// slot 2p is then B(2p, 2p+1), the pair's coupling; its twin slot 2p+1 is
/// B(2p, 2p+1)^T for a symmetric kernel and is dropped with the H2 result.
HssMatrix repack(h2::H2Matrix&& weak, backend::DeviceBackend& dev) {
  HssMatrix out;
  out.tree = weak.tree;
  out.init_structure();
  out.ranks = std::move(weak.ranks);
  out.skeleton = std::move(weak.skeleton);
  out.leaf_diag = std::move(weak.dense);
  for (index_t l = 0; l < out.num_levels(); ++l) {
    const auto ul = static_cast<size_t>(l);
    out.generators[ul] = std::move(weak.basis[ul]);
    if (l == 0) continue;
    const index_t pairs = out.tree->nodes_at(l) / 2;
    const tree::LevelBlockList& far = weak.mtree.far[ul];
    const backend::BlockArena& src = weak.coupling[ul];
    for (index_t p = 0; p < pairs; ++p) {
      const auto e = static_cast<size_t>(2 * p);
      H2S_ASSERT(far.row_ptr[e] == 2 * p && far.col[e] == 2 * p + 1,
                 "weak-admissibility far slot " << 2 * p << " is not its sibling pair");
      out.coupling[ul].set_shape(p, src.rows(2 * p), src.cols(2 * p));
    }
    out.coupling[ul].allocate(dev);
    for (index_t p = 0; p < pairs; ++p) dev.copy_device(src.dev(2 * p), out.coupling[ul].dev(p));
  }
  return out;
}

} // namespace

HssResult build_hss(std::shared_ptr<const tree::ClusterTree> tree, kern::MatVecSampler& sampler,
                    const kern::EntryGenerator& gen, const core::ConstructionOptions& opts,
                    batched::ExecutionContext& ctx) {
  auto built = core::construct_h2(std::move(tree), tree::Admissibility::weak(), sampler, gen,
                                  opts, ctx);
  HssResult res{repack(std::move(built.matrix), ctx.device()), std::move(built.stats)};
  res.stats.memory_bytes = res.matrix.memory_bytes();
  res.matrix.validate();
  return res;
}

HssResult build_hss(std::shared_ptr<const tree::ClusterTree> tree, kern::MatVecSampler& sampler,
                    const kern::EntryGenerator& gen, const core::ConstructionOptions& opts) {
  batched::ExecutionContext ctx(backend::LaunchMode::Batched);
  return build_hss(std::move(tree), sampler, gen, opts, ctx);
}

HssResult build_hss(std::shared_ptr<const tree::ClusterTree> tree,
                    const kern::KernelFunction& kernel, const core::ConstructionOptions& opts,
                    kern::SamplerKind kind, kern::ProxySamplerOptions proxy_opts) {
  if (proxy_opts.tol <= 0) proxy_opts.tol = opts.tol;
  const kern::KernelEntryGenerator gen(*tree, kernel);
  auto sampler =
      kern::make_kernel_sampler(kern::sampler_kind_from_env(kind), tree, kernel, proxy_opts);
  return build_hss(std::move(tree), *sampler, gen, opts);
}

} // namespace h2sketch::solver
