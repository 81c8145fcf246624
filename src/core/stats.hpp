#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

/// \file stats.hpp
/// Statistics gathered during a construction run: everything the paper's
/// evaluation section reports (time, total samples for Fig. 5's
/// annotations, rank range and memory for Table II, kernel-launch counts
/// for the batching analysis in §IV-B). The Fig. 7 phase breakdown is read
/// off the construction's trace spans (common/timer.hpp's PhaseScope).

namespace h2sketch::core {

struct ConstructionStats {
  double total_seconds = 0.0;

  index_t total_samples = 0;  ///< columns pushed through Kblk
  index_t sample_rounds = 0;  ///< sampling rounds (1 = fixed-sample behaviour)
  index_t kernel_launches = 0;
  index_t entries_generated = 0; ///< matrix entries evaluated by batchedGen

  index_t min_rank = 0;
  index_t max_rank = 0;
  std::vector<index_t> max_rank_per_level;

  std::size_t memory_bytes = 0;
  real_t norm_estimate = 0.0;
  index_t csp = 0;
  index_t levels = 0;
  /// Nodes that hit the sample cap before meeting the tolerance (0 in a
  /// healthy run).
  index_t nonconverged_nodes = 0;

  /// One-line human-readable summary.
  std::string summary() const;
};

} // namespace h2sketch::core
