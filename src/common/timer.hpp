#pragma once

#include <array>
#include <chrono>
#include <string>

#include "common/types.hpp"
#include "obs/trace.hpp"

/// \file timer.hpp
/// Wall-clock timing and the construction phase spans used to reproduce
/// the paper's Fig. 7 construction-time breakdown.

namespace h2sketch {

/// Seconds since an arbitrary epoch, monotonic.
inline double wall_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Simple start/elapsed stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(wall_seconds()) {}
  void reset() { start_ = wall_seconds(); }
  double elapsed() const { return wall_seconds() - start_; }

 private:
  double start_;
};

/// Construction phases, matching the components profiled in the paper's
/// Fig. 7 (sampling, BSR gemm, convergence test, ID, entry generation,
/// miscellaneous marshaling/allocation).
enum class Phase : int {
  Sampling = 0,   ///< batchedRand + Kblk black-box products
  EntryGen,       ///< batchedGen dense/coupling entry evaluation
  BsrGemm,        ///< batchedBSRGemm sample subtraction
  Convergence,    ///< batched QR convergence test
  ID,             ///< batched interpolative decompositions
  Upsweep,        ///< batchedShrink + batchedGemm sample/vector upsweep
  Misc,           ///< marshaling, workspace allocation, bookkeeping
  kCount
};

/// Human-readable phase name.
inline const char* phase_name(Phase p) {
  static constexpr std::array<const char*, static_cast<int>(Phase::kCount)> names = {
      "sampling", "entry_gen", "bsr_gemm", "convergence", "id", "upsweep", "misc"};
  return names[static_cast<size_t>(static_cast<int>(p))];
}

/// A construction phase's trace span (category "construction", named by
/// phase): Fig. 7-style breakdowns are read straight off a captured trace.
class PhaseScope : public obs::TraceSpan {
 public:
  explicit PhaseScope(Phase p) : obs::TraceSpan("construction", phase_name(p)) {}
};

} // namespace h2sketch
