/// Fig. 7: breakdown of construction time by phase (percent of total) for
/// varying problem sizes of the 3D covariance matrix, on both execution
/// backends. Naive (per-block launches) plays the paper's CPU panel (a);
/// Batched (marshaled, one launch per level per op) plays the GPU-shaped
/// panel (b). Phases follow the paper: sampling, entry generation, BSR
/// gemm, convergence test (batched QR), ID, upsweep, misc (marshal/alloc).

#include "bench_common.hpp"
#include "obs/trace.hpp"

using namespace h2sketch;
using namespace h2sketch::bench;

namespace {

/// Phase seconds recovered from the trace: every PhaseScope is also a
/// "construction"-category span, so the breakdown reads off the same event
/// stream a Perfetto view of the run would show.
std::vector<double> phase_seconds_from_trace(const obs::TraceData& trace) {
  std::vector<double> out(static_cast<size_t>(Phase::kCount), 0.0);
  for (const auto& e : trace.events) {
    if (e.cat != "construction" || e.dur_ns < 0) continue;
    for (int p = 0; p < static_cast<int>(Phase::kCount); ++p)
      if (e.name == phase_name(static_cast<Phase>(p))) {
        out[static_cast<size_t>(p)] += static_cast<double>(e.dur_ns) * 1e-9;
        break;
      }
  }
  return out;
}

} // namespace

int main(int argc, char** argv) {
  const bool large = has_flag(argc, argv, "--large");
  std::vector<index_t> sizes = {1024, 2048, 4096};
  if (large) sizes = {8192, 16384, 32768};
  const index_t leaf = large ? 64 : 16;
  const real_t eta = 0.7;
  const index_t cheb_q = large ? 4 : 3;

  std::vector<std::string> cols = {"backend", "N", "total_s"};
  for (int p = 0; p < static_cast<int>(Phase::kCount); ++p)
    cols.push_back(std::string(phase_name(static_cast<Phase>(p))) + "_pct");
  Table table("fig7_breakdown", cols);
  table.print_header();

  for (auto mode : {backend::LaunchMode::Naive, backend::LaunchMode::Batched}) {
    for (index_t n : sizes) {
      KernelWorkload w("cov", n, leaf, eta, cheb_q);
      core::ConstructionOptions opts;
      opts.tol = 1e-6;
      opts.initial_samples = 256;
      opts.sample_block = 64;
      batched::ExecutionContext ctx(mode);
      // batchedGen reads from the input H2 representation (consistent with
      // the sampler). The paper's analytic-kernel batchedGen is cheaper per
      // entry, which shifts ~half of our entry_gen slice into the paper's
      // sampling/BSR slices; see the EXPERIMENTS.md note on Fig. 7.
      obs::start_trace();
      auto res = core::construct_h2(w.tree, tree::Admissibility::general(eta), *w.sampler,
                                    *w.entry_gen, opts, ctx);
      ctx.sync_all();
      const obs::TraceData trace = obs::stop_trace();
      const std::vector<double> phase_s = phase_seconds_from_trace(trace);
      std::vector<std::string> cells = {
          mode == backend::LaunchMode::Naive ? "naive(cpu)" : "batched(gpu-model)", fmt(n),
          fmt(res.stats.total_seconds)};
      double total = 0.0;
      for (double s : phase_s) total += s;
      total = std::max(1e-12, total);
      for (int p = 0; p < static_cast<int>(Phase::kCount); ++p)
        cells.push_back(fmt(100.0 * phase_s[static_cast<size_t>(p)] / total, 3));
      table.row(cells);
      if (trace.dropped > 0)
        std::cout << "  (warning: " << trace.dropped << " trace events dropped)\n";
    }
  }
  std::cout << "\nPhase percentages are aggregated from trace spans (obs::start_trace /\n"
               "stop_trace), not separate stopwatches: the same run can be exported with\n"
               "H2SKETCH_TRACE=path.json and inspected span-by-span in Perfetto.\n";
  std::cout << "\nShape checks (paper Fig. 7): sampling + BSR gemm dominate on both\n"
               "backends; the convergence-test share is larger on the batched/GPU-shaped\n"
               "path at small N and shrinks as N grows; ID stays a small slice.\n";
  return 0;
}
