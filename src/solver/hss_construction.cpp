#include "solver/hss_construction.hpp"

#include <cmath>
#include <numeric>
#include <utility>

#include "backend/device_matrix.hpp"
#include "batched/device.hpp"
#include "common/random.hpp"
#include "la/blas.hpp"
#include "obs/metrics.hpp"

namespace h2sketch::solver {

namespace {

using core::ConstructionOptions;
using core::ConstructionStats;

/// Internal state machine mirroring core::detail::H2SketchBuilder, with the
/// weak-admissibility structure hard-wired and HssMatrix as the output.
class HssBuilder {
 public:
  HssBuilder(std::shared_ptr<const tree::ClusterTree> tree, kern::MatVecSampler& sampler,
             const kern::EntryGenerator& gen, const ConstructionOptions& opts,
             batched::ExecutionContext& ctx)
      : tree_(std::move(tree)), sampler_(sampler), gen_(gen), opts_(opts), ctx_(ctx),
        stream_(opts.seed) {
    H2S_CHECK(sampler_.size() == tree_->num_points(), "sampler size != tree size");
    out_.tree = tree_;
    out_.init_structure();

    const index_t levels = tree_->num_levels();
    yloc_.resize(static_cast<size_t>(levels));
    y_up_.resize(static_cast<size_t>(levels));
    omega_up_.resize(static_cast<size_t>(levels));
    jlocal_.resize(static_cast<size_t>(levels));
    for (index_t l = 0; l < levels; ++l)
      jlocal_[static_cast<size_t>(l)].resize(static_cast<size_t>(tree_->nodes_at(l)));

    const index_t leaf = tree_->leaf_level();
    leaf_positions_.resize(static_cast<size_t>(tree_->nodes_at(leaf)));
    for (index_t i = 0; i < tree_->nodes_at(leaf); ++i) {
      auto& pos = leaf_positions_[static_cast<size_t>(i)];
      pos.resize(static_cast<size_t>(tree_->size(leaf, i)));
      std::iota(pos.begin(), pos.end(), tree_->begin(leaf, i));
    }
  }

  HssResult run() {
    const double t0 = wall_seconds();
    const index_t leaf = tree_->leaf_level();

    // Leaf diagonals generate on the entry-gen stream while the initial
    // sketch round runs the monolithic sampler product.
    generate_leaf_diag();

    if (leaf >= 1) {
      sample_columns(opts_.effective_initial_samples());
      for (index_t l = leaf; l >= 1; --l) {
        extend_yloc(l, 0, d_total_);
        if (opts_.adaptive) {
          while (!level_converged(l)) {
            if (d_total_ + opts_.sample_block > opts_.max_samples) {
              ++stats_.nonconverged_nodes;
              break;
            }
            add_sample_round(l);
          }
        }
        skeletonize_level(l);
        generate_coupling(l);
      }
    }

    ctx_.sync_all();
    finalize_stats(t0);
    out_.validate();
    return HssResult{std::move(out_), stats_};
  }

 private:
  real_t eps_abs() const { return opts_.tol * stats_.norm_estimate; }

  void generate_leaf_diag() {
    PhaseScope scope(stats_.phases, Phase::EntryGen);
    const index_t leaf = tree_->leaf_level();
    std::vector<kern::BlockRequest> reqs;
    reqs.reserve(static_cast<size_t>(tree_->nodes_at(leaf)));
    for (index_t i = 0; i < tree_->nodes_at(leaf); ++i)
      out_.leaf_diag.set_shape(i, tree_->size(leaf, i), tree_->size(leaf, i));
    out_.leaf_diag.allocate(ctx_.device());
    for (index_t i = 0; i < tree_->nodes_at(leaf); ++i)
      reqs.push_back({leaf_positions_[static_cast<size_t>(i)],
                      leaf_positions_[static_cast<size_t>(i)], out_.leaf_diag.dev(i)});
    ctx_.device().generate(ctx_, batched::kEntryGenStream, gen_, std::move(reqs));
  }

  void sample_columns(index_t d_new) {
    PhaseScope scope(stats_.phases, Phase::Sampling);
    // Appending columns reallocates (Omega, Y); in-flight launches may still
    // hold views into them, so this is a barrier — except for the initial
    // round, which overlaps the asynchronous leaf-diagonal generation.
    if (d_total_ > 0) ctx_.sync_all();
    const index_t n = tree_->num_points();
    const index_t c0 = d_total_;
    backend::DeviceBackend& dev = ctx_.device();
    if (omega_global_.rows() == 0) {
      omega_global_.resize(dev, n, c0 + d_new);
      y_global_.resize(dev, n, c0 + d_new);
    } else {
      omega_global_.append_cols(dev, d_new);
      y_global_.append_cols(dev, d_new);
    }
    MatrixView new_omega = omega_global_.view().col_range(c0, d_new);
    ctx_.device().fill_gaussian(ctx_, new_omega, stream_, rand_offset_);
    rand_offset_ += static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(d_new);
    MatrixView new_y = y_global_.view().col_range(c0, d_new);
    {
      // Monolithic Kblk product over the device-resident (Omega, Y) pair.
      backend::KernelScope ks(&dev);
      sampler_.sample(new_omega, new_y);
    }
    d_total_ += d_new;
    ++stats_.sample_rounds;

    if (stats_.sample_rounds == 1) {
      backend::KernelScope ks(&dev);
      stats_.norm_estimate = opts_.norm_est == core::NormEstimate::Given
                                 ? opts_.given_norm
                                 : la::norm_f(new_y) / std::sqrt(static_cast<real_t>(d_new));
      H2S_CHECK(stats_.norm_estimate > 0.0, "norm estimate must be positive");
    }
  }

  /// Assemble (or extend by columns [c0, c0+dn)) the local samples at a
  /// level: Y(I) minus the leaf diagonal contribution at the leaves, stacked
  /// child upsweeps minus the child pair coupling above.
  void extend_yloc(index_t level, index_t c0, index_t dn) {
    // Consumer of the sample, basis and entry-gen pipelines.
    ctx_.sync_all();
    const index_t leaf = tree_->leaf_level();
    const index_t nodes = tree_->nodes_at(level);
    const auto ul = static_cast<size_t>(level);
    auto& yl = yloc_[ul];

    auto yloc_rows = [&](index_t i) {
      if (level == leaf) return tree_->size(level, i);
      return out_.ranks[ul + 1][static_cast<size_t>(2 * i)] +
             out_.ranks[ul + 1][static_cast<size_t>(2 * i + 1)];
    };

    {
      PhaseScope scope(stats_.phases, Phase::Misc);
      if (yl.empty()) {
        H2S_ASSERT(c0 == 0, "first Y_loc build must start at column 0");
        yl.resize(static_cast<size_t>(nodes));
        for (index_t i = 0; i < nodes; ++i)
          yl[static_cast<size_t>(i)].resize(ctx_.device(), yloc_rows(i), dn);
      } else {
        for (index_t i = 0; i < nodes; ++i)
          yl[static_cast<size_t>(i)].append_cols(ctx_.device(), dn);
      }
    }

    if (level == leaf) {
      // Y_loc = Y(I_tau, cols) - D_tau Omega(I_tau, cols): the only near
      // block of a leaf under weak admissibility is its own diagonal.
      {
        PhaseScope scope(stats_.phases, Phase::Misc);
        for (index_t i = 0; i < nodes; ++i)
          ctx_.device().copy_device(
              y_global_.view().block(tree_->begin(level, i), c0, tree_->size(level, i), dn),
              yl[static_cast<size_t>(i)].view().col_range(c0, dn));
      }
      PhaseScope scope(stats_.phases, Phase::BsrGemm);
      std::vector<ConstMatrixView> av, bv;
      std::vector<MatrixView> cv;
      for (index_t i = 0; i < nodes; ++i) {
        av.push_back(out_.leaf_diag.dev(i));
        bv.push_back(
            omega_global_.view().block(tree_->begin(level, i), c0, tree_->size(level, i), dn));
        cv.push_back(yl[static_cast<size_t>(i)].view().col_range(c0, dn));
      }
      // Later consumers of Y_loc launch on the sample stream too; FIFO order
      // stands in for a barrier.
      ctx_.device().gemm(ctx_, batched::kSampleStream, -1.0, std::move(av), la::Op::None,
                         std::move(bv), la::Op::None, 1.0, std::move(cv));
      return;
    }

    // Inner level: stack the children's upswept samples, then subtract the
    // child-level sibling coupling B_i omega_up / B_i^T omega_up.
    const index_t child_level = level + 1;
    const auto uc = static_cast<size_t>(child_level);
    {
      PhaseScope scope(stats_.phases, Phase::Misc);
      for (index_t i = 0; i < nodes; ++i) {
        const index_t r1 = out_.ranks[uc][static_cast<size_t>(2 * i)];
        const index_t r2 = out_.ranks[uc][static_cast<size_t>(2 * i + 1)];
        MatrixView dst = yl[static_cast<size_t>(i)].view();
        if (r1 > 0)
          ctx_.device().copy_device(
              y_up_[uc][static_cast<size_t>(2 * i)].view().col_range(c0, dn),
              dst.block(0, c0, r1, dn));
        if (r2 > 0)
          ctx_.device().copy_device(
              y_up_[uc][static_cast<size_t>(2 * i + 1)].view().col_range(c0, dn),
              dst.block(r1, c0, r2, dn));
      }
    }
    PhaseScope scope(stats_.phases, Phase::BsrGemm);
    // Child pair p = i at the child level couples children (2i, 2i+1) of
    // node i: subtract B_i omega_up(2i+1) from the top rows and
    // B_i^T omega_up(2i) from the bottom rows. Two half-launches on the
    // sample stream (FIFO after the stacking copy above is host-side done).
    for (int side = 0; side < 2; ++side) {
      std::vector<ConstMatrixView> av, bv;
      std::vector<MatrixView> cv;
      for (index_t i = 0; i < nodes; ++i) {
        const index_t r1 = out_.ranks[uc][static_cast<size_t>(2 * i)];
        const index_t r2 = out_.ranks[uc][static_cast<size_t>(2 * i + 1)];
        const index_t rows = side == 0 ? r1 : r2;
        if (rows == 0 || (side == 0 ? r2 : r1) == 0) {
          av.push_back(ConstMatrixView());
          bv.push_back(ConstMatrixView());
          cv.push_back(MatrixView());
          continue;
        }
        av.push_back(out_.coupling[uc].dev(i));
        bv.push_back(omega_up_[uc][static_cast<size_t>(2 * i + (side == 0 ? 1 : 0))]
                         .view()
                         .col_range(c0, dn));
        cv.push_back(yl[static_cast<size_t>(i)].view().block(side == 0 ? 0 : r1, c0, rows, dn));
      }
      ctx_.device().gemm(ctx_, batched::kSampleStream, -1.0, std::move(av),
                         side == 0 ? la::Op::None : la::Op::Trans, std::move(bv), la::Op::None,
                         1.0, std::move(cv));
    }
  }

  /// Row-ID the level's samples into generators/skeletons, then sweep the
  /// samples and random vectors up.
  void skeletonize_level(index_t level) {
    const index_t nodes = tree_->nodes_at(level);
    const index_t leaf = tree_->leaf_level();
    const auto ul = static_cast<size_t>(level);

    std::vector<la::RowID> ids(static_cast<size_t>(nodes));
    {
      PhaseScope scope(stats_.phases, Phase::ID);
      std::vector<ConstMatrixView> ys;
      ys.reserve(static_cast<size_t>(nodes));
      for (index_t i = 0; i < nodes; ++i)
        ys.push_back(yloc_[ul][static_cast<size_t>(i)].view());
      ctx_.device().row_id(ctx_, ys, opts_.id_tol_factor * eps_abs(), /*max_rank=*/-1, ids);
    }

    {
      PhaseScope scope(stats_.phases, Phase::Misc);
      obs::SketchMetric& rank_sketch =
          obs::MetricsRegistry::global().sketch("construction_block_rank");
      for (index_t i = 0; i < nodes; ++i) {
        const auto ui = static_cast<size_t>(i);
        la::RowID& id = ids[ui];
        const index_t k = static_cast<index_t>(id.skeleton.size());
        out_.ranks[ul][ui] = k;
        rank_sketch.record(static_cast<double>(k));
        out_.generators[ul].set_shape(i, id.interp.rows(), id.interp.cols());
        jlocal_[ul][ui] = id.skeleton;

        auto& skel = out_.skeleton[ul][ui];
        skel.resize(static_cast<size_t>(k));
        if (level == leaf) {
          const index_t b = tree_->begin(level, i);
          for (index_t s = 0; s < k; ++s)
            skel[static_cast<size_t>(s)] = b + id.skeleton[static_cast<size_t>(s)];
        } else {
          const auto& s1 = out_.skeleton[ul + 1][static_cast<size_t>(2 * i)];
          const auto& s2 = out_.skeleton[ul + 1][static_cast<size_t>(2 * i + 1)];
          const index_t r1 = static_cast<index_t>(s1.size());
          for (index_t s = 0; s < k; ++s) {
            const index_t j = id.skeleton[static_cast<size_t>(s)];
            skel[static_cast<size_t>(s)] =
                j < r1 ? s1[static_cast<size_t>(j)] : s2[static_cast<size_t>(j - r1)];
          }
        }
      }
    }

    // One packed upload per level: the generators land in the device arena
    // once at build time and never cross the boundary again.
    out_.generators[ul].allocate(ctx_.device());
    for (index_t i = 0; i < nodes; ++i)
      out_.generators[ul].upload(i, ids[static_cast<size_t>(i)].interp.view());

    // Upsweep: y_up = Y_loc(J, :) on the sample stream, omega_up on the
    // basis stream (disjoint state; next level's extend_yloc syncs first).
    PhaseScope scope(stats_.phases, Phase::Upsweep);
    auto& yup = y_up_[ul];
    yup.resize(static_cast<size_t>(nodes));
    {
      std::vector<ConstMatrixView> src;
      std::vector<MatrixView> dst;
      for (index_t i = 0; i < nodes; ++i) {
        const auto ui = static_cast<size_t>(i);
        yup[ui].resize(ctx_.device(), out_.ranks[ul][ui], d_total_);
        src.push_back(yloc_[ul][ui].view());
        dst.push_back(yup[ui].view());
      }
      ctx_.device().gather_rows(ctx_, batched::kSampleStream, std::move(src), jlocal_[ul],
                                std::move(dst));
    }

    auto& oup = omega_up_[ul];
    oup.resize(static_cast<size_t>(nodes));
    for (index_t i = 0; i < nodes; ++i)
      oup[static_cast<size_t>(i)].resize(ctx_.device(), out_.ranks[ul][static_cast<size_t>(i)],
                                         d_total_);
    upsweep_omega(level, 0, d_total_);
  }

  /// omega_up(:, [c0, c0+dn)) for a level whose generators exist: U^T Omega
  /// at the leaf, transfer products above. Launches on the basis stream.
  void upsweep_omega(index_t level, index_t c0, index_t dn) {
    const index_t leaf = tree_->leaf_level();
    const index_t nodes = tree_->nodes_at(level);
    const auto ul = static_cast<size_t>(level);
    if (level == leaf) {
      std::vector<ConstMatrixView> av, bv;
      std::vector<MatrixView> cv;
      for (index_t i = 0; i < nodes; ++i) {
        const auto ui = static_cast<size_t>(i);
        av.push_back(out_.generators[ul].dev(i));
        bv.push_back(
            omega_global_.view().block(tree_->begin(level, i), c0, tree_->size(level, i), dn));
        cv.push_back(omega_up_[ul][ui].view().col_range(c0, dn));
      }
      ctx_.device().gemm(ctx_, batched::kBasisStream, 1.0, std::move(av), la::Op::Trans,
                         std::move(bv), la::Op::None, 0.0, std::move(cv));
      return;
    }
    for (int side = 0; side < 2; ++side) {
      std::vector<ConstMatrixView> av, bv;
      std::vector<MatrixView> cv;
      for (index_t i = 0; i < nodes; ++i) {
        const auto ui = static_cast<size_t>(i);
        const index_t k = out_.ranks[ul][ui];
        const index_t r1 = out_.ranks[ul + 1][static_cast<size_t>(2 * i)];
        const index_t rs = side == 0 ? r1 : out_.ranks[ul + 1][static_cast<size_t>(2 * i + 1)];
        const index_t row0 = side == 0 ? 0 : r1;
        if (k == 0 || rs == 0) {
          // The target columns start zeroed; skipping equals beta=0.
          av.push_back(ConstMatrixView());
          bv.push_back(ConstMatrixView());
          cv.push_back(MatrixView());
          continue;
        }
        av.push_back(out_.generators[ul].dev(i).block(row0, 0, rs, k));
        bv.push_back(omega_up_[ul + 1][static_cast<size_t>(2 * i + side)].view().col_range(c0, dn));
        cv.push_back(omega_up_[ul][ui].view().col_range(c0, dn));
      }
      ctx_.device().gemm(ctx_, batched::kBasisStream, 1.0, std::move(av), la::Op::Trans,
                         std::move(bv), la::Op::None, side == 0 ? 0.0 : 1.0, std::move(cv));
    }
  }

  /// Extend the upswept (y_up, omega_up) of a skeletonized level for new
  /// sample columns [c0, c0+dn).
  void extend_upswept(index_t level, index_t c0, index_t dn) {
    PhaseScope scope(stats_.phases, Phase::Upsweep);
    const index_t nodes = tree_->nodes_at(level);
    const auto ul = static_cast<size_t>(level);
    for (index_t i = 0; i < nodes; ++i) {
      y_up_[ul][static_cast<size_t>(i)].append_cols(ctx_.device(), dn);
      omega_up_[ul][static_cast<size_t>(i)].append_cols(ctx_.device(), dn);
    }
    {
      std::vector<ConstMatrixView> src;
      std::vector<MatrixView> dst;
      for (index_t i = 0; i < nodes; ++i) {
        const auto ui = static_cast<size_t>(i);
        src.push_back(yloc_[ul][ui].view().col_range(c0, dn));
        dst.push_back(y_up_[ul][ui].view().col_range(c0, dn));
      }
      ctx_.device().gather_rows(ctx_, batched::kSampleStream, std::move(src), jlocal_[ul],
                                std::move(dst));
    }
    upsweep_omega(level, c0, dn);
  }

  void add_sample_round(index_t level) {
    const index_t c0 = d_total_;
    const index_t dn = opts_.sample_block;
    sample_columns(dn);
    for (index_t l = tree_->leaf_level(); l > level; --l) {
      extend_yloc(l, c0, dn);
      extend_upswept(l, c0, dn);
    }
    extend_yloc(level, c0, dn);
  }

  bool level_converged(index_t level) {
    PhaseScope scope(stats_.phases, Phase::Convergence);
    const index_t nodes = tree_->nodes_at(level);
    const auto ul = static_cast<size_t>(level);
    // Probe on a working copy of Y_loc whose factorization persists across
    // adaptive rounds: each probe ingests only the appended sample columns
    // (bitwise identical to a from-scratch QR of the full panel), so a
    // level's probes cost O(m d^2) total instead of O(rounds m d^2).
    ctx_.sync(batched::kSampleStream); // Y_loc writers are FIFO on this stream
    if (probe_level_ != level) {
      probe_level_ = level;
      probe_cols_ = 0;
      probe_work_.clear();
      probe_work_.resize(static_cast<size_t>(nodes));
      probe_tau_.assign(static_cast<size_t>(nodes), {});
      for (index_t i = 0; i < nodes; ++i)
        probe_work_[static_cast<size_t>(i)].resize(ctx_.device(),
                                                   yloc_[ul][static_cast<size_t>(i)].rows(), 0);
    }
    const index_t c0 = probe_cols_;
    const index_t dn = d_total_ - c0;
    std::vector<MatrixView> work(static_cast<size_t>(nodes));
    std::vector<index_t> factored(static_cast<size_t>(nodes), c0);
    for (index_t i = 0; i < nodes; ++i) {
      const auto ui = static_cast<size_t>(i);
      probe_work_[ui].append_cols(ctx_.device(), dn);
      ctx_.device().copy_device(yloc_[ul][ui].view().col_range(c0, dn),
                                probe_work_[ui].view().col_range(c0, dn));
      work[ui] = probe_work_[ui].view();
    }
    std::vector<real_t> mins(static_cast<size_t>(nodes));
    ctx_.device().min_r_diag_update(ctx_, work, factored, probe_tau_, mins);
    probe_cols_ = d_total_;
    obs::SketchMetric& residual_sketch =
        obs::MetricsRegistry::global().sketch("construction_probe_residual");
    for (index_t i = 0; i < nodes; ++i) residual_sketch.record(mins[static_cast<size_t>(i)]);
    const real_t eps = eps_abs();
    for (index_t i = 0; i < nodes; ++i) {
      const index_t m = yloc_[ul][static_cast<size_t>(i)].rows();
      if (d_total_ >= m) continue;
      if (mins[static_cast<size_t>(i)] >= eps) return false;
    }
    return true;
  }

  /// Generate the sibling-pair coupling blocks for a skeletonized level on
  /// the entry-gen stream (asynchronous; skeleton lists are stable members).
  void generate_coupling(index_t level) {
    PhaseScope scope(stats_.phases, Phase::EntryGen);
    const auto ul = static_cast<size_t>(level);
    std::vector<kern::BlockRequest> reqs;
    reqs.reserve(static_cast<size_t>(tree_->nodes_at(level) / 2));
    for (index_t p = 0; p < tree_->nodes_at(level) / 2; ++p) {
      const auto& rs = out_.skeleton[ul][static_cast<size_t>(2 * p)];
      const auto& cs = out_.skeleton[ul][static_cast<size_t>(2 * p + 1)];
      out_.coupling[ul].set_shape(p, static_cast<index_t>(rs.size()),
                                  static_cast<index_t>(cs.size()));
    }
    out_.coupling[ul].allocate(ctx_.device());
    for (index_t p = 0; p < tree_->nodes_at(level) / 2; ++p)
      reqs.push_back({out_.skeleton[ul][static_cast<size_t>(2 * p)],
                      out_.skeleton[ul][static_cast<size_t>(2 * p + 1)],
                      out_.coupling[ul].dev(p)});
    ctx_.device().generate(ctx_, batched::kEntryGenStream, gen_, std::move(reqs));
  }

  void finalize_stats(double t0) {
    stats_.total_seconds = wall_seconds() - t0;
    stats_.total_samples = d_total_;
    stats_.kernel_launches = ctx_.kernel_launches();
    stats_.entries_generated = gen_.entries_generated();
    stats_.min_rank = out_.min_rank();
    stats_.max_rank = out_.max_rank();
    stats_.levels = tree_->num_levels();
    stats_.max_rank_per_level.assign(static_cast<size_t>(tree_->num_levels()), 0);
    for (index_t l = 1; l < tree_->num_levels(); ++l)
      for (index_t i = 0; i < tree_->nodes_at(l); ++i)
        stats_.max_rank_per_level[static_cast<size_t>(l)] =
            std::max(stats_.max_rank_per_level[static_cast<size_t>(l)], out_.rank(l, i));
    stats_.memory_bytes = out_.memory_bytes();
    stats_.csp = 1; // weak admissibility: one coupling block per node

    // Same registry feed as the H2 builder (core/construction.cpp).
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("construction_runs").add();
    reg.counter("construction_kernel_launches")
        .add(static_cast<std::uint64_t>(stats_.kernel_launches));
    reg.counter("construction_samples").add(static_cast<std::uint64_t>(stats_.total_samples));
    reg.counter("construction_nonconverged_nodes")
        .add(static_cast<std::uint64_t>(stats_.nonconverged_nodes));
  }

  std::shared_ptr<const tree::ClusterTree> tree_;
  kern::MatVecSampler& sampler_;
  const kern::EntryGenerator& gen_;
  ConstructionOptions opts_;
  batched::ExecutionContext& ctx_;

  HssMatrix out_;
  ConstructionStats stats_;

  GaussianStream stream_;
  std::uint64_t rand_offset_ = 0;
  backend::DeviceMatrix omega_global_; ///< N x d_total, device-resident
  backend::DeviceMatrix y_global_;     ///< N x d_total, device-resident
  index_t d_total_ = 0;

  std::vector<std::vector<backend::DeviceMatrix>> yloc_;
  std::vector<std::vector<backend::DeviceMatrix>> y_up_, omega_up_;
  std::vector<std::vector<std::vector<index_t>>> jlocal_;
  std::vector<std::vector<index_t>> leaf_positions_;

  // Incremental convergence-probe state, valid for probe_level_ only: per
  // node a copy of Y_loc whose first probe_cols_ columns hold their
  // Householder factorization in place (scalars in probe_tau_).
  index_t probe_level_ = -1;
  index_t probe_cols_ = 0;
  std::vector<backend::DeviceMatrix> probe_work_;
  std::vector<std::vector<real_t>> probe_tau_;
};

} // namespace

HssResult build_hss(std::shared_ptr<const tree::ClusterTree> tree, kern::MatVecSampler& sampler,
                    const kern::EntryGenerator& gen, const core::ConstructionOptions& opts,
                    batched::ExecutionContext& ctx) {
  HssBuilder builder(std::move(tree), sampler, gen, opts, ctx);
  // The builder's launches reference its sampling panels; if construction
  // unwinds (e.g. an injected device fault), drain the streams before the
  // builder -- declared above the fence -- is destroyed.
  batched::StreamFence fence(ctx);
  return builder.run();
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
