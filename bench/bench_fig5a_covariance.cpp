/// Fig. 5(a): construction time vs N for the 3D exponential-covariance
/// matrix (l = 0.2, eta = 0.7, tol = 1e-6). Compares Algorithm 1 on the
/// batched (GPU-shaped) and naive (per-block) backends against the two
/// top-down sketching comparators, annotating total sample counts as the
/// paper does. Default axes are laptop-scale; --large restores the paper's.

#include "baselines/topdown.hpp"
#include "bench_common.hpp"

using namespace h2sketch;
using namespace h2sketch::bench;

int main(int argc, char** argv) {
  const bool large = has_flag(argc, argv, "--large");
  std::vector<index_t> sizes = {1024, 2048, 4096};
  if (large) sizes = {8192, 16384, 32768, 65536};
  const index_t leaf = large ? 64 : 16; // deeper trees keep far blocks at small N
  const real_t eta = 0.7;
  const index_t cheb_q = large ? 4 : 3;
  const index_t topdown_cutoff = 2048; // comparators get slow quickly

  Table table("fig5a_covariance",
              {"N", "ours_batched_s", "ours_naive_s", "ours_samples", "ours_err", "colored_s",
               "colored_samples", "peeling_s", "peeling_samples", "peeling_capped", "csp"});
  table.print_header();

  for (index_t n : sizes) {
    KernelWorkload w("cov", n, leaf, eta, cheb_q);
    core::ConstructionOptions opts;
    opts.tol = 1e-6;
    opts.initial_samples = 256; // the paper's fixed budget
    opts.sample_block = 64;

    batched::ExecutionContext ctx_b(backend::LaunchMode::Batched);
    auto res_b = core::construct_h2(w.tree, tree::Admissibility::general(eta), *w.sampler,
                                    *w.entry_gen, opts, ctx_b);
    const real_t err = measure_error(w, res_b.matrix);

    w.sampler->reset_sample_count();
    batched::ExecutionContext ctx_n(backend::LaunchMode::Naive);
    auto res_n = core::construct_h2(w.tree, tree::Admissibility::general(eta), *w.sampler,
                                    *w.entry_gen, opts, ctx_n);

    std::string colored_s = "-", colored_samples = "-", peeling_s = "-", peeling_samples = "-",
                peeling_capped = "-";
    if (n <= topdown_cutoff) {
      h2::H2Sampler s1(w.input);
      baselines::TopDownOptions td;
      td.tol = 1e-6;
      td.sample_block = 64;
      auto rc = baselines::build_topdown_hmatrix(w.tree, tree::Admissibility::general(eta), s1, td);
      colored_s = fmt(rc.stats.seconds);
      colored_samples = fmt(rc.stats.total_samples);

      h2::H2Sampler s2(w.input);
      baselines::TopDownOptions pd;
      pd.tol = 1e-6;
      pd.sample_block = 64;
      pd.max_block_rank = 768;
      auto rp = baselines::build_topdown_hmatrix(w.tree, tree::Admissibility::weak(), s2, pd);
      peeling_s = fmt(rp.stats.seconds);
      peeling_samples = fmt(rp.stats.total_samples);
      peeling_capped = rp.stats.rank_cap_hit ? "yes" : "no";
    }

    table.row({fmt(n), fmt(res_b.stats.total_seconds), fmt(res_n.stats.total_seconds),
               fmt(res_b.stats.total_samples), fmt(err, 2), colored_s, colored_samples, peeling_s,
               peeling_samples, peeling_capped, fmt(res_b.stats.csp)});
  }
  std::cout << "\nShape checks (paper Fig. 5a): ours_samples stays flat (O(1));\n"
               "colored_samples grows like O(log N); peeling_samples grows fastest and hits\n"
               "the rank cap (the paper's OOM analogue). Time scales like O(N * Csp); at\n"
               "laptop sizes Csp is still filling in (see the csp column), so divide the\n"
               "time column by N*Csp to see the flat constant; at paper sizes Csp saturates\n"
               "and the raw time column is linear in N.\n";
  return 0;
}
