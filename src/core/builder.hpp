#pragma once

#include <vector>

#include "backend/device_matrix.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "core/construction.hpp"

/// \file builder.hpp
/// Internal state machine for Algorithm 1. Split across construction.cpp
/// (driver, skeletonization, entry generation) and adaptive.cpp (sampling,
/// updateSamples sweep, convergence). Not part of the public API surface,
/// but exposed for white-box tests.

namespace h2sketch::core::detail {

class H2SketchBuilder {
 public:
  H2SketchBuilder(std::shared_ptr<const tree::ClusterTree> tree, const tree::Admissibility& adm,
                  kern::MatVecSampler& sampler, const kern::EntryGenerator& gen,
                  const ConstructionOptions& opts, batched::ExecutionContext& ctx);

  ConstructionResult run();

 private:
  // --- driver phases (construction.cpp) ---
  void generate_dense_blocks();
  void skeletonize_level(index_t level);
  void generate_coupling(index_t level);
  void finalize_stats(double t0);

  // --- sampling & adaptivity (adaptive.cpp) ---
  /// Append d_new fresh columns to the global (Omega, Y) pair.
  void sample_columns(index_t d_new);
  /// Allocate/extend Y_loc at `level` and fill columns [c0, c0 + dn).
  void extend_yloc(index_t level, index_t c0, index_t dn);
  /// Extend the upswept (y_up, omega_up) of a *skeletonized* level for the
  /// new columns [c0, c0 + dn).
  void extend_upswept(index_t level, index_t c0, index_t dn);
  /// One adaptive round while processing `level`: sample, sweep through the
  /// completed levels below, extend the current level's Y_loc.
  void add_sample_round(index_t level);
  /// True iff every node at `level` passes the convergence probe.
  bool level_converged(index_t level);
  real_t eps_abs() const;

  // --- inputs ---
  std::shared_ptr<const tree::ClusterTree> tree_;
  kern::MatVecSampler& sampler_;
  const kern::EntryGenerator& gen_;
  ConstructionOptions opts_;
  batched::ExecutionContext& ctx_;

  // --- output under construction ---
  h2::H2Matrix out_;
  ConstructionStats stats_;

  // --- sketching state (device-resident: the paper keeps the sample
  // matrices on the GPU for the whole construction; host code reaches them
  // only through backend copies or inside kernel launches) ---
  GaussianStream stream_;
  std::uint64_t rand_offset_ = 0;
  backend::DeviceMatrix omega_global_; ///< N x d_total
  backend::DeviceMatrix y_global_;     ///< N x d_total
  index_t d_total_ = 0;

  /// Y_loc per level (allocated when the level is reached, retained so new
  /// sample columns can be appended at every level).
  std::vector<std::vector<backend::DeviceMatrix>> yloc_;
  /// Upswept samples/vectors per skeletonized level: rank x d_total.
  std::vector<std::vector<backend::DeviceMatrix>> y_up_, omega_up_;
  /// Skeleton row indices *local to Y_loc's rows*, per node.
  std::vector<std::vector<std::vector<index_t>>> jlocal_;
  /// Permuted position lists of each leaf cluster (iota over its range).
  std::vector<std::vector<index_t>> leaf_positions_;

  /// Incremental convergence-probe state, valid for probe_level_ only: per
  /// node a copy of Y_loc whose first probe_cols_ columns hold their
  /// Householder factorization in place (scalars in probe_tau_).
  index_t probe_level_ = -1;
  index_t probe_cols_ = 0;
  std::vector<backend::DeviceMatrix> probe_work_;
  std::vector<std::vector<real_t>> probe_tau_;

  friend class BuilderTestPeer;
};

} // namespace h2sketch::core::detail
