#include "core/stats.hpp"

#include <sstream>

namespace h2sketch::core {

std::string ConstructionStats::summary() const {
  std::ostringstream os;
  os << "time " << total_seconds << " s, samples " << total_samples << " (" << sample_rounds
     << " rounds), ranks [" << min_rank << ", " << max_rank << "], memory "
     << static_cast<double>(memory_bytes) / (1024.0 * 1024.0) << " MiB, launches "
     << kernel_launches << ", entries " << entries_generated << ", Csp " << csp << ", levels "
     << levels;
  if (nonconverged_nodes > 0) os << ", NONCONVERGED nodes " << nonconverged_nodes;
  return os.str();
}

} // namespace h2sketch::core
