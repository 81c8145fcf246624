/// h2sketch benchmark driver: one workload per invocation, measured from the
/// outside of the library. The two black-box interfaces of the paper
/// (`MatVecSampler::sample`, `EntryGenerator::generate_block`) are wrapped in
/// timing/counting decorators; the public entry points (`construct_h2`,
/// `h2_matvec`, `OperatorCache::acquire`, `Coalescer::submit`) are timed at
/// the call site; the public result structs and counters are read back.
///
/// Workloads:
///   h2-cov     Fig. 5(a)/Fig. 7: sketch a Chebyshev-built covariance H2.
///   h2-update  Fig. 5(c): recompress K_H2 + U U^T.
///   gp-serve   cold HSS build + ULV factor through the operator cache, direct
///              applies, closed-loop requests through one coalescer, then
///              open-loop single-RHS serving through it.
///
/// Usage: perfbench --workload <name> --seed <n> --seconds <s> [--trace <0|1>]
///                  [--trace-out <path.json>]
/// Progress goes to stderr; the raw measurements go to stdout as one JSON
/// object, which perfbench/run.py reduces to the reported metrics.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "backend/registry.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "core/construction.hpp"
#include "core/error_est.hpp"
#include "h2/cheb_construction.hpp"
#include "h2/h2_entry_eval.hpp"
#include "h2/h2_matvec.hpp"
#include "h2/update_sampler.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/kernels.hpp"
#include "la/blas.hpp"
#include "obs/trace.hpp"
#include "serve/coalescer.hpp"
#include "serve/operator_cache.hpp"
#include "solver/hss_construction.hpp"
#include "solver/ulv.hpp"

using namespace h2sketch;

namespace {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string array(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += num(v[i]);
  }
  return out + "]";
}

/// Ordered JSON object builder.
class Json {
 public:
  Json& raw(const std::string& k, const std::string& v) {
    items_.emplace_back(k, v);
    return *this;
  }
  Json& put(const std::string& k, double v) { return raw(k, num(v)); }
  Json& put(const std::string& k, const std::vector<double>& v) { return raw(k, array(v)); }
  Json& str(const std::string& k, const std::string& v) { return raw(k, quote(v)); }
  Json& flag(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  std::string dump() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      if (i) out += ',';
      out += quote(items_[i].first);
      out += ':';
      out += items_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

// ---------------------------------------------------------------------------
// Decorators around the two black-box interfaces
// ---------------------------------------------------------------------------

/// Counts calls and columns through a sampler and the wall time spent in it.
class TimedSampler final : public kern::MatVecSampler {
 public:
  explicit TimedSampler(kern::MatVecSampler& inner) : inner_(&inner) {}
  index_t size() const override { return inner_->size(); }
  void sample(ConstMatrixView omega, MatrixView y) override {
    const double t0 = now_s();
    inner_->sample(omega, y);
    busy_ns_.fetch_add(static_cast<std::int64_t>((now_s() - t0) * 1e9), std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
    record_samples(omega.cols);
  }
  double calls() const { return static_cast<double>(calls_.load()); }
  double columns() const { return static_cast<double>(samples_taken()); }
  double busy_s() const { return static_cast<double>(busy_ns_.load()) * 1e-9; }

 private:
  kern::MatVecSampler* inner_;
  std::atomic<std::int64_t> calls_{0};
  std::atomic<std::int64_t> busy_ns_{0};
};

/// Counts blocks and entries through an entry generator and the thread time
/// spent in it (summed over the concurrent callers).
class CountingEntryGenerator final : public kern::EntryGenerator {
 public:
  explicit CountingEntryGenerator(const kern::EntryGenerator& inner) : inner_(&inner) {}
  void generate_block(const_index_span rows, const_index_span cols, MatrixView out) const override {
    const double t0 = now_s();
    inner_->generate_block(rows, cols, out);
    busy_ns_.fetch_add(static_cast<std::int64_t>((now_s() - t0) * 1e9), std::memory_order_relaxed);
    blocks_.fetch_add(1, std::memory_order_relaxed);
    record_entries(out.rows * out.cols);
  }
  double blocks() const { return static_cast<double>(blocks_.load()); }
  double entries() const { return static_cast<double>(entries_generated()); }
  double busy_thread_s() const { return static_cast<double>(busy_ns_.load()) * 1e-9; }

 private:
  const kern::EntryGenerator* inner_;
  mutable std::atomic<std::int64_t> blocks_{0};
  mutable std::atomic<std::int64_t> busy_ns_{0};
};

/// What the two decorators saw during one build.
struct BlackBoxCounts {
  double sampler_calls = 0, sampler_columns = 0, sampler_busy_s = 0;
  double gen_blocks = 0, gen_entries = 0, gen_busy_thread_s = 0;

  BlackBoxCounts() = default;
  BlackBoxCounts(const TimedSampler& s, const CountingEntryGenerator& g)
      : sampler_calls(s.calls()), sampler_columns(s.columns()), sampler_busy_s(s.busy_s()),
        gen_blocks(g.blocks()), gen_entries(g.entries()), gen_busy_thread_s(g.busy_thread_s()) {}
};

/// Black-box sampler over an HSS matrix (for the power-method error).
class HssSampler final : public kern::MatVecSampler {
 public:
  explicit HssSampler(const solver::HssMatrix& a) : a_(&a), ctx_(a.execution_config()) {}
  index_t size() const override { return a_->size(); }
  void sample(ConstMatrixView omega, MatrixView y) override {
    a_->matvec(ctx_, omega, y);
    record_samples(omega.cols);
  }

 private:
  const solver::HssMatrix* a_;
  batched::ExecutionContext ctx_;
};

// ---------------------------------------------------------------------------
// Run bookkeeping
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Everything one invocation reports back to run.py.
struct Report {
  std::vector<double> setup_s, build_s;
  double rel_err = NAN, rel_err_bound = NAN;
  double solve_residual = NAN, solve_residual_bound = NAN;
  double operator_bytes = 0;
  std::vector<double> apply_ms;   ///< single-RHS direct applies
  std::vector<double> block_ms;   ///< 32-RHS blocked applies
  std::vector<double> co_single_ms; ///< single requests through the coalescer
  std::vector<double> co_burst_ms;  ///< bursts of 32 requests through the coalescer
  double block_cols = 0;
  std::vector<std::string> phases; ///< serialized serving phases
  std::vector<std::string> checks; ///< serialized correctness checks
  std::int64_t attempted = 0, failed = 0;
  std::map<std::string, double> layers;

  /// Run `f` as one attempted operation; an exception counts as a failure.
  template <typename F>
  bool attempt(const char* what, F&& f) {
    ++attempted;
    try {
      f();
      return true;
    } catch (const std::exception& e) {
      ++failed;
      std::cerr << "perfbench: " << what << " failed: " << e.what() << "\n";
      return false;
    }
  }

  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back(Json().str("name", name).flag("ok", ok).str("detail", detail).dump());
    if (!ok) std::cerr << "perfbench: check " << name << " FAILED: " << detail << "\n";
  }
};

Matrix gaussian(index_t n, index_t d, std::uint64_t seed) {
  Matrix x(n, d);
  fill_gaussian(x.view(), GaussianStream(seed), 0);
  return x;
}

double max_rel_diff(ConstMatrixView a, ConstMatrixView b) {
  double num_ = 0, den = 0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) {
      num_ = std::max(num_, std::abs(a(i, j) - b(i, j)));
      den = std::max(den, std::abs(b(i, j)));
    }
  return den > 0 ? num_ / den : num_;
}

bool bitwise_equal(ConstMatrixView a, ConstMatrixView b) {
  for (index_t j = 0; j < a.cols; ++j)
    if (std::memcmp(&a(0, j), &b(0, j), static_cast<size_t>(a.rows) * sizeof(real_t)) != 0)
      return false;
  return true;
}

backend::DeviceBackend& device() { return *backend::default_backend().device; }

/// Byte-counter deltas of the default device around a region.
struct ByteDelta {
  backend::DeviceStatsSnapshot before = device().stats();
  void emit(Report& r, const std::string& prefix, bool with_peak) const {
    const auto after = device().stats();
    r.layers[prefix + ".bytes_to_device"] =
        static_cast<double>(after.bytes_to_device - before.bytes_to_device);
    r.layers[prefix + ".bytes_to_host"] =
        static_cast<double>(after.bytes_to_host - before.bytes_to_host);
    r.layers[prefix + ".bytes_on_device"] =
        static_cast<double>(after.bytes_on_device - before.bytes_on_device);
    if (with_peak)
      r.layers[prefix + ".peak_bytes"] =
          static_cast<double>(after.peak_bytes > before.live_bytes
                                  ? after.peak_bytes - before.live_bytes
                                  : 0);
  }
};

/// Single-thread blocked GEMM rate: the ceiling achieved rates are read
/// against and the host-speed check.
double gemm_gflops_1t() {
  const index_t n = 384;
  Matrix a = gaussian(n, n, 11), b = gaussian(n, n, 12), c(n, n);
  std::vector<double> rates;
  for (int rep = 0; rep < 7; ++rep) {
    const double t0 = now_s();
    la::gemm(1.0, a.view(), la::Op::None, b.view(), la::Op::None, 0.0, c.view());
    rates.push_back(2.0 * n * n * n / (now_s() - t0) * 1e-9);
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

// ---------------------------------------------------------------------------
// Stream attribution from launch spans
// ---------------------------------------------------------------------------

const char* const kLabels[] = {"batched_generate",  "bsr_gemm",
                               "batched_gemm",      "batched_gather_rows",
                               "batched_row_id",    "batched_min_r_diag",
                               "batched_min_r_diag_update", "batched_fill_gaussian",
                               "batched_transpose", "batched_potrf",
                               "batched_trsm_lower"};

struct TraceSummary {
  std::map<std::string, double> stream_s, launches;
  double total_stream_s = 0;
  double flush_s = 0, flushes = 0;
  std::uint64_t dropped = 0;
};

/// Charge stream-track launch spans (tid >= kStreamTrackBase) to their op.
TraceSummary summarize(const obs::TraceData& t) {
  TraceSummary s;
  for (const char* l : kLabels) s.stream_s[l] = s.launches[l] = 0;
  for (const auto& e : t.events) {
    if (e.dur_ns < 0) continue;
    if (e.cat == "runtime" && e.tid >= obs::kStreamTrackBase) {
      s.stream_s[e.name] += static_cast<double>(e.dur_ns) * 1e-9;
      s.launches[e.name] += 1;
      s.total_stream_s += static_cast<double>(e.dur_ns) * 1e-9;
    } else if (e.cat == "serve" && e.name == "flush") {
      s.flush_s += static_cast<double>(e.dur_ns) * 1e-9;
      s.flushes += 1;
    }
  }
  s.dropped = t.dropped;
  return s;
}

void merge_into(obs::TraceData& into, obs::TraceData from) {
  into.events.insert(into.events.end(), std::make_move_iterator(from.events.begin()),
                     std::make_move_iterator(from.events.end()));
  into.dropped += from.dropped;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void emit_trace(Report& r, const TraceSummary& s, double overhead) {
  for (const char* l : kLabels) {
    r.layers[std::string("batched.") + l + ".stream_s"] = s.stream_s.at(l);
    r.layers[std::string("batched.") + l + ".launches"] = s.launches.at(l);
  }
  r.layers["batched.total_stream_s"] = s.total_stream_s;
  r.layers["obs.trace_overhead"] = overhead;
  r.layers["obs.trace_dropped"] = static_cast<double>(s.dropped);
  r.check("trace_dropped", s.dropped == 0,
          std::to_string(s.dropped) + " trace events dropped");
}

// ---------------------------------------------------------------------------
// h2-cov / h2-update
// ---------------------------------------------------------------------------

/// The points of both workloads are a fixed data set, as a deployed model's
/// training points are; the run seed makes the apply and request payloads.
/// With seed-made point clouds an operator's cost moved by +-15% between
/// seeds.
constexpr std::uint64_t kPointsSeed = 2025;

constexpr index_t kH2N = 4096;
constexpr index_t kH2Leaf = 32;
constexpr real_t kH2Eta = 0.7;
constexpr index_t kChebQ = 3;
constexpr real_t kTol = 1e-6;
constexpr real_t kRelErrFactor = 100.0; ///< rel_err gate: rel_err <= C * tol (the bound tests/test_update.cpp pins)
constexpr index_t kBlockCols = 32;
constexpr int kSinglesPerRound = 40; ///< single-RHS applies after each build
constexpr int kBlocksPerRound = 12;  ///< 32-RHS applies after each build

struct H2Input {
  std::shared_ptr<tree::ClusterTree> tree;
  std::unique_ptr<kern::ExponentialKernel> kernel;
  h2::H2Matrix input;
  std::optional<la::LowRank> update;
};

H2Input make_h2_input(bool with_update) {
  H2Input in;
  in.tree = std::make_shared<tree::ClusterTree>(
      tree::ClusterTree::build(geo::uniform_random_cube(kH2N, 3, kPointsSeed), kH2Leaf));
  in.kernel = std::make_unique<kern::ExponentialKernel>(0.2);
  in.input = h2::build_cheb_h2(in.tree, tree::Admissibility::general(kH2Eta), *in.kernel, kChebQ);
  if (with_update) {
    la::LowRank lr = la::random_lowrank(kH2N, kH2N, 32, 0.05, kPointsSeed ^ 0x5eedu);
    lr.v = to_matrix(lr.u.view());
    in.update = std::move(lr);
  }
  return in;
}

/// Operator being compressed: the input H2, or the input H2 plus U U^T.
std::unique_ptr<kern::MatVecSampler> make_sampler(const H2Input& in) {
  if (in.update) return std::make_unique<h2::UpdatedH2Sampler>(in.input, *in.update);
  return std::make_unique<h2::H2Sampler>(in.input);
}
std::unique_ptr<kern::EntryGenerator> make_generator(const H2Input& in) {
  if (in.update) return std::make_unique<h2::UpdatedH2EntryGenerator>(in.input, *in.update);
  return std::make_unique<h2::H2EntryGenerator>(in.input);
}

core::ConstructionOptions h2_options() {
  core::ConstructionOptions o;
  o.tol = kTol;
  o.sample_block = 16;
  o.initial_samples = 16;
  o.adaptive = true;
  return o;
}

struct H2Build {
  core::ConstructionResult res;
  double seconds = 0;
  BlackBoxCounts counts;
};

H2Build build_h2(const H2Input& in) {
  auto base_sampler = make_sampler(in);
  auto base_gen = make_generator(in);
  TimedSampler sampler(*base_sampler);
  CountingEntryGenerator gen(*base_gen);
  batched::ExecutionContext ctx;
  const double t0 = now_s();
  std::optional<core::ConstructionResult> res;
  {
    obs::TraceSpan span("perfbench", "construct_h2");
    res = core::construct_h2(in.tree, tree::Admissibility::general(kH2Eta), sampler, gen,
                             h2_options(), ctx);
    ctx.sync_all();
  }
  const double seconds = now_s() - t0;
  return H2Build{std::move(*res), seconds, BlackBoxCounts(sampler, gen)};
}

void emit_build_layers(Report& r, const BlackBoxCounts& c, const core::ConstructionStats& st) {
  r.layers["kernels.sampler.calls"] = c.sampler_calls;
  r.layers["kernels.sampler.columns"] = c.sampler_columns;
  r.layers["kernels.sampler.busy_s"] = c.sampler_busy_s;
  r.layers["kernels.entry_gen.blocks"] = c.gen_blocks;
  r.layers["kernels.entry_gen.entries"] = c.gen_entries;
  r.layers["kernels.entry_gen.busy_thread_s"] = c.gen_busy_thread_s;
  r.layers["core.rounds"] = static_cast<double>(st.sample_rounds);
  r.layers["core.samples"] = static_cast<double>(st.total_samples);
  r.layers["core.max_rank"] = static_cast<double>(st.max_rank);
  r.layers["core.launches"] = static_cast<double>(st.kernel_launches);
  r.layers["core.nonconverged_nodes"] = static_cast<double>(st.nonconverged_nodes);
}

/// One round of applies of the built operator: `singles` single-RHS applies,
/// then `blocks` 32-RHS applies, each checked against the reference block.
void h2_applies(Report& r, const h2::H2Matrix& a, const Matrix& xb, const Matrix& yb,
                int singles, int blocks, bool record) {
  const index_t n = a.size();
  batched::ExecutionContext ctx(a.execution_config());
  Matrix y1(n, 1), y2(n, kBlockCols);
  double worst = 0;
  for (int i = 0; i < singles; ++i) {
    const index_t col = i % kBlockCols;
    r.attempt("h2_matvec", [&] {
      const double t0 = now_s();
      {
        obs::TraceSpan span("perfbench", "h2_matvec", "cols", 1);
        h2::h2_matvec(ctx, a, xb.view().col_range(col, 1), y1.view());
      }
      if (record) r.apply_ms.push_back((now_s() - t0) * 1e3);
      worst = std::max(worst, max_rel_diff(y1.view(), yb.view().col_range(col, 1)));
    });
  }
  for (int i = 0; i < blocks; ++i) {
    r.attempt("h2_matvec", [&] {
      const double t0 = now_s();
      {
        obs::TraceSpan span("perfbench", "h2_matvec", "cols", kBlockCols);
        h2::h2_matvec(ctx, a, xb.view(), y2.view());
      }
      if (record) r.block_ms.push_back((now_s() - t0) * 1e3);
      worst = std::max(worst, max_rel_diff(y2.view(), yb.view()));
    });
  }
  if (worst > 1e-10)
    r.check("apply_consistent", false,
            "max relative difference between repeated applies " + num(worst));
}

void run_h2(const Options& o, Report& r, bool with_update) {
  // Set-up: the input operator, built several times; the median is reported
  // and every repetition must produce the same operator.
  std::optional<H2Input> in;
  double ref_bytes = -1;
  for (int rep = 0; rep < 3; ++rep) {
    in.reset();
    const double t0 = now_s();
    in = make_h2_input(with_update);
    r.setup_s.push_back(now_s() - t0);
    const double bytes = static_cast<double>(in->input.memory_bytes());
    if (ref_bytes >= 0 && bytes != ref_bytes)
      r.check("setup_deterministic", false, "input operator differs between set-ups");
    ref_bytes = bytes;
  }
  std::cerr << "perfbench: set-up done (" << num(r.setup_s.back()) << " s)\n";

  const index_t n = kH2N;
  const Matrix xb = gaussian(n, kBlockCols, o.seed ^ 0xa11u);
  Matrix yb(n, kBlockCols);
  const double t_start = now_s();
  index_t ref_rank = -1, ref_samples = -1;
  // Rounds of (build, applies) until the budget is spent: a slow spell of
  // the host then touches a share of every metric's samples, not all of one.
  do {
    std::optional<H2Build> b;
    ByteDelta build_bytes;
    r.attempt("construct_h2", [&] { b = build_h2(*in); });
    if (!b) {
      r.check("build", false, "construct_h2 failed");
      return;
    }
    r.build_s.push_back(b->seconds);
    const h2::H2Matrix& a = b->res.matrix;
    if (ref_rank < 0) {
      build_bytes.emit(r, "backend.build", true);
      emit_build_layers(r, b->counts, b->res.stats);
      r.operator_bytes = static_cast<double>(a.device_bytes());
      ref_rank = b->res.stats.max_rank;
      ref_samples = b->res.stats.total_samples;
      r.attempt("rel_err", [&] {
        auto exact = make_sampler(*in);
        h2::H2Sampler approx(a);
        r.rel_err = core::relative_error_2norm(*exact, approx, 10, 0x902);
      });
      r.rel_err_bound = kRelErrFactor * kTol;
      r.check("rel_err", std::isfinite(r.rel_err) && r.rel_err <= r.rel_err_bound,
              "rel_err " + num(r.rel_err) + " vs bound " + num(r.rel_err_bound));
      r.check("nonconverged_nodes", b->res.stats.nonconverged_nodes == 0,
              std::to_string(b->res.stats.nonconverged_nodes) + " nodes hit the sample cap");
      ByteDelta apply_bytes;
      batched::ExecutionContext ctx(a.execution_config());
      Matrix y(n, 1);
      r.attempt("h2_matvec", [&] { h2::h2_matvec(ctx, a, xb.view().col_range(0, 1), y.view()); });
      apply_bytes.emit(r, "backend.apply", false);
      // Reference block: every later apply must reproduce it.
      r.attempt("h2_matvec", [&] { h2::h2_matvec(ctx, a, xb.view(), yb.view()); });
    } else if (b->res.stats.max_rank != ref_rank || b->res.stats.total_samples != ref_samples) {
      r.check("build_deterministic", false, "repeated builds differ in rank or samples");
    }
    std::cerr << "perfbench: round " << r.build_s.size() << ": build " << num(b->seconds)
              << " s\n";
    h2_applies(r, a, xb, yb, kSinglesPerRound, kBlocksPerRound, true);
  } while (r.build_s.size() < 3 || now_s() - t_start < o.seconds);
  r.block_cols = kBlockCols;

  if (o.trace) {
    // Separate traced build + applies: launch spans on the stream tracks
    // charge execution time to each batched op.
    obs::start_trace();
    std::optional<H2Build> traced;
    r.attempt("construct_h2 (traced)", [&] { traced = build_h2(*in); });
    obs::TraceData t = obs::stop_trace();
    if (traced) {
      // Applies get their own window so the build's spans keep the rings.
      obs::start_trace();
      h2_applies(r, traced->res.matrix, xb, yb, 4, 2, false);
      merge_into(t, obs::stop_trace());
    }
    if (!o.trace_out.empty()) t.write_json(o.trace_out);
    const TraceSummary s = summarize(t);
    emit_trace(r, s, traced ? traced->seconds / median(r.build_s) : NAN);
    if (!with_update) {
      std::string top;
      double best = -1;
      for (const auto& [label, sec] : s.stream_s)
        if (sec > best) best = sec, top = label;
      r.check("generate_dominates", top == "batched_generate",
              "largest stream share: " + top + " (" + num(best / s.total_stream_s) + ")");
    }
  }
}

// ---------------------------------------------------------------------------
// gp-serve
// ---------------------------------------------------------------------------

constexpr index_t kGpN = 4096;
constexpr index_t kGpLeaf = 64;
constexpr real_t kRidge = 10.0;
/// A set-up takes about a millisecond, so each round repeats it and the
/// median over the whole run is reported: a slow spell of the host then
/// touches a share of the samples, not all of them.
constexpr int kGpSetupsPerRound = 10;
constexpr real_t kSolveResidualBound = 1e-4;
constexpr index_t kInputs = 64;      ///< distinct request payloads
constexpr index_t kOutSlots = 2048;  ///< in-flight response buffers
constexpr int kIsolatedPerRound = 32; ///< coalesced single requests after each cold build
constexpr int kBurstsPerRound = 12;   ///< coalesced bursts of 32 after each cold build

/// The served model's set-up: its points and their cluster tree.
struct GpInput {
  geo::PointCloud points;
  std::shared_ptr<tree::ClusterTree> tree; ///< reference clustering
};

GpInput make_gp_input() {
  GpInput in;
  in.points = geo::uniform_random_cube(kGpN, 2, kPointsSeed);
  in.tree = std::make_shared<tree::ClusterTree>(tree::ClusterTree::build(in.points, kGpLeaf));
  return in;
}

/// Times kGpSetupsPerRound set-ups into r.setup_s; returns the last one.
GpInput timed_gp_setups(Report& r) {
  std::optional<GpInput> in;
  for (int rep = 0; rep < kGpSetupsPerRound; ++rep) {
    in.reset();
    const double t0 = now_s();
    in = make_gp_input();
    r.setup_s.push_back(now_s() - t0);
  }
  return std::move(*in);
}

/// The exact K + ridge I in the tree's permuted order: the reference the
/// rel_err and solve_residual gates compare against (not part of set-up).
Matrix dense_reference(const tree::ClusterTree& tree, const kern::KernelFunction& kernel) {
  kern::KernelEntryGenerator gen(tree, kernel);
  Matrix dense(kGpN, kGpN);
  std::vector<index_t> all(static_cast<size_t>(kGpN));
  std::iota(all.begin(), all.end(), index_t{0});
  const index_t strip = 256;
  parallel_for(kGpN / strip, [&](index_t s) {
    gen.generate_block(all, const_index_span(all).subspan(static_cast<size_t>(s * strip),
                                                          static_cast<size_t>(strip)),
                       dense.view().col_range(s * strip, strip));
  });
  return dense;
}

serve::ServeBuildOptions gp_options() {
  serve::ServeBuildOptions o;
  o.leaf_size = kGpLeaf;
  o.construction.tol = kTol;
  o.construction.sample_block = 32;
  o.construction.initial_samples = 64;
  return o;
}

struct GpBuildInfo {
  double hss_s = 0, ulv_s = 0;
  BlackBoxCounts counts;
};

/// serve::build_served_operator's steps with the black boxes decorated and a
/// barrier after each phase so the phases can be timed apart. Run once per
/// run for the per-layer record; build_s times the library's own builder.
serve::ServedOperator instrumented_build(const GpInput& in, const kern::KernelFunction& kernel,
                                         const std::string& backend_name, GpBuildInfo& info) {
  const auto opts = gp_options();
  auto tree = std::make_shared<tree::ClusterTree>(tree::ClusterTree::build(in.points, kGpLeaf));
  kern::KernelMatVecSampler base_sampler(*tree, kernel);
  kern::KernelEntryGenerator base_gen(*tree, kernel);
  TimedSampler sampler(base_sampler);
  CountingEntryGenerator gen(base_gen);
  batched::ExecutionContext ctx(backend::shared_backend(backend_name));
  serve::ServedOperator op;
  double t0 = now_s();
  auto result = solver::build_hss(tree, sampler, gen, opts.construction, ctx);
  ctx.sync_all();
  info.hss_s = now_s() - t0;
  t0 = now_s();
  op.factor = solver::ulv_factor(result.matrix, ctx);
  ctx.sync_all();
  info.ulv_s = now_s() - t0;
  op.tree = std::move(tree);
  op.matrix = std::move(result.matrix);
  op.build_stats = std::move(result.stats);
  op.backend = backend_name;
  op.bytes = op.matrix.device_bytes() + op.factor.device_bytes();
  info.counts = BlackBoxCounts(sampler, gen);
  return op;
}

/// Everything a request needs: the cache to acquire through, the coalescer
/// to submit to, the payloads, their direct answers and the response buffers.
struct ServeRig {
  serve::OperatorCache& cache;
  const serve::OperatorKey& key;
  const serve::OperatorCache::Builder& builder;
  serve::Coalescer& co;
  const Matrix& xs;      ///< kInputs payloads
  const Matrix& refs_mv; ///< direct blocked matvec of xs
  const Matrix& refs_sv; ///< direct solve_many of xs
  Matrix& out;           ///< kOutSlots response buffers

  std::future<void> submit(int kind, index_t input, index_t slot) const {
    const index_t n = xs.rows();
    obs::TraceSpan span("perfbench", "request", "kind", static_cast<std::uint64_t>(kind));
    serve::OperatorHandle h = cache.acquire(key, builder);
    return co.submit(h, kind == 0 ? serve::RequestKind::Matvec : serve::RequestKind::Solve,
                     const_real_span(xs.data() + input * n, static_cast<size_t>(n)),
                     real_span(out.data() + slot * n, static_cast<size_t>(n)));
  }
  double error(int kind, index_t input, index_t slot) const {
    const Matrix& ref = kind == 0 ? refs_mv : refs_sv;
    return max_rel_diff(out.view().col_range(slot, 1), ref.view().col_range(input, 1));
  }
};

/// Closed-loop requests through the coalescer: `isolated` single requests one
/// after another (3 matvec : 1 solve; each flushes on the max-delay timer),
/// then `bursts` bursts of 32 same-kind requests (each one full launch).
/// A burst must be bitwise equal to the same blocked launch issued directly.
void closed_loop(Report& r, const ServeRig& rig, int isolated, int bursts,
                 const Matrix& burst_mv, const Matrix& burst_sv) {
  double worst = 0;
  for (int i = 0; i < isolated; ++i) {
    const int kind = i % 4 == 3 ? 1 : 0;
    const index_t input = i % kInputs;
    r.attempt("serve request", [&] {
      const double t0 = now_s();
      rig.submit(kind, input, 0).get();
      r.co_single_ms.push_back((now_s() - t0) * 1e3);
      worst = std::max(worst, rig.error(kind, input, 0));
    });
  }
  const serve::OperatorHandle op = rig.cache.acquire(rig.key, rig.builder);
  for (int b = 0; b < bursts; ++b) {
    const int kind = b % 4 == 3 ? 1 : 0;
    r.attempted += kBlockCols;
    try {
      const std::uint64_t batches = op->metrics->snapshot().batches;
      const double t0 = now_s();
      std::vector<std::future<void>> futs;
      for (index_t j = 0; j < kBlockCols; ++j) futs.push_back(rig.submit(kind, j, j));
      for (auto& f : futs) f.get();
      r.co_burst_ms.push_back((now_s() - t0) * 1e3);
      for (index_t j = 0; j < kBlockCols; ++j) worst = std::max(worst, rig.error(kind, j, j));
      // Bitwise equality holds for the same launch shape; a host stall
      // longer than max_delay mid-burst splits it into two launches.
      if (op->metrics->snapshot().batches - batches != 1) {
        r.layers["serve.split_bursts"] += 1;
        continue;
      }
      const Matrix& ref = kind == 0 ? burst_mv : burst_sv;
      if (!bitwise_equal(rig.out.view().col_range(0, kBlockCols), ref.view()))
        r.check(kind == 0 ? "bitwise_matvec" : "bitwise_solve", false,
                "coalesced burst of 32 differs from the direct blocked launch");
    } catch (const std::exception& e) {
      r.failed += kBlockCols;
      std::cerr << "perfbench: burst failed: " << e.what() << "\n";
    }
  }
  if (worst > 1e-10)
    r.check("serve_closed_loop_responses", false,
            "max relative difference to direct applies " + num(worst));
}

/// Direct applies of the served operator on the caller's context, as the
/// coalescer's launches issue them: `singles` single-RHS and `blocks` 32-RHS
/// launches, three matvecs to one solve. A block must be bitwise equal to
/// the reference launch of the same shape.
void direct_applies(Report& r, const serve::ServedOperator& op, const Matrix& xs,
                    const Matrix& refs_mv, const Matrix& refs_sv, const Matrix& burst_mv,
                    const Matrix& burst_sv, int singles, int blocks) {
  const index_t n = xs.rows();
  batched::ExecutionContext ctx(backend::shared_backend(op.backend));
  Matrix y1(n, 1), yb(n, kBlockCols);
  double worst = 0;
  for (int i = 0; i < singles; ++i) {
    const bool solve = i % 4 == 3;
    const index_t input = i % kInputs;
    r.attempt("apply", [&] {
      const ConstMatrixView x = xs.view().col_range(input, 1);
      const double t0 = now_s();
      if (solve)
        op.factor.solve_many(x, y1.view(), ctx);
      else
        op.matrix.matvec(ctx, x, y1.view());
      r.apply_ms.push_back((now_s() - t0) * 1e3);
      const Matrix& ref = solve ? refs_sv : refs_mv;
      worst = std::max(worst, max_rel_diff(y1.view(), ref.view().col_range(input, 1)));
    });
  }
  const ConstMatrixView xb = xs.view().col_range(0, kBlockCols);
  for (int b = 0; b < blocks; ++b) {
    const bool solve = b % 4 == 3;
    r.attempt("apply", [&] {
      const double t0 = now_s();
      if (solve)
        op.factor.solve_many(xb, yb.view(), ctx);
      else
        op.matrix.matvec(ctx, xb, yb.view());
      r.block_ms.push_back((now_s() - t0) * 1e3);
      if (!bitwise_equal(yb, solve ? burst_sv : burst_mv))
        r.check("apply_deterministic", false, "repeated blocked launches differ");
    });
  }
  if (worst > 1e-10)
    r.check("apply_consistent", false, "max relative difference to blocked applies " + num(worst));
}

struct Request {
  double due = 0, submit = 0, done = 0;
  int kind = 0;
  bool ok = false;
  index_t slot = 0;
  std::future<void> fut;
};

/// Open-loop load: one generator thread submits single-RHS requests
/// (3 matvec : 1 solve) at fixed spacing and polls for completions while it
/// waits for the next due time. Latency is measured from the due time, so a
/// generator that falls behind its schedule still charges the delay.
std::string run_phase(Report& r, const ServeRig& rig, const char* name, double rate,
                      double seconds) {
  const auto count = static_cast<size_t>(rate * seconds);
  std::vector<Request> reqs(count);
  std::vector<index_t> slot_owner(static_cast<size_t>(kOutSlots), -1);
  std::deque<index_t> pending[2];
  double worst = 0;

  auto complete = [&](index_t i, double t) {
    Request& q = reqs[static_cast<size_t>(i)];
    q.done = t;
    r.attempt("serve request", [&] {
      q.fut.get();
      worst = std::max(worst, rig.error(q.kind, i % kInputs, q.slot));
      q.ok = true;
    });
    slot_owner[static_cast<size_t>(q.slot)] = -1;
  };
  // Requests of one kind complete in submission order: poll the fronts.
  auto poll = [&] {
    const double t = now_s();
    for (auto& dq : pending)
      while (!dq.empty() &&
             reqs[static_cast<size_t>(dq.front())].fut.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        complete(dq.front(), t);
        dq.pop_front();
      }
  };

  const double t0 = now_s() + 0.005;
  for (size_t i = 0; i < count; ++i) {
    Request& q = reqs[i];
    q.due = t0 + static_cast<double>(i) / rate;
    q.kind = (i % 4 == 3) ? 1 : 0;
    q.slot = static_cast<index_t>(i % static_cast<size_t>(kOutSlots));
    for (;;) {
      poll();
      const double t = now_s();
      if (t >= q.due && slot_owner[static_cast<size_t>(q.slot)] < 0) break;
      if (q.due - t > 3e-4) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    q.submit = now_s();
    slot_owner[static_cast<size_t>(q.slot)] = static_cast<index_t>(i);
    // A refused submission is a failed operation; an accepted one is
    // counted when its future resolves.
    try {
      q.fut = rig.submit(q.kind, static_cast<index_t>(i) % kInputs, q.slot);
      pending[q.kind].push_back(static_cast<index_t>(i));
    } catch (const std::exception& e) {
      ++r.attempted;
      ++r.failed;
      std::cerr << "perfbench: submit failed: " << e.what() << "\n";
      slot_owner[static_cast<size_t>(q.slot)] = -1;
      q.done = now_s();
    }
  }
  const double t_last = now_s();
  while (!pending[0].empty() || !pending[1].empty()) {
    poll();
    if (now_s() - t_last > 60.0) {
      // A request that never resolves counts as failed, not as a hang.
      for (auto& dq : pending) {
        r.attempted += static_cast<std::int64_t>(dq.size());
        r.failed += static_cast<std::int64_t>(dq.size());
        dq.clear();
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  r.check(std::string("serve_") + name + "_responses", worst <= 1e-10,
          "max relative difference to direct applies " + num(worst));

  std::vector<double> due, submit, done, ok;
  for (const auto& q : reqs) {
    due.push_back(q.due - t0);
    submit.push_back(q.submit - t0);
    done.push_back(q.done - t0);
    ok.push_back(q.ok ? 1 : 0);
  }
  return Json()
      .str("name", name)
      .put("rate", rate)
      .put("seconds", seconds)
      .put("due", due)
      .put("submit", submit)
      .put("done", done)
      .put("ok", ok)
      .dump();
}

void run_gp(const Options& o, Report& r) {
  kern::ExponentialKernel base(0.2);
  kern::RidgeKernel kernel(base, kRidge);
  const std::string backend_name = backend::default_backend_name();

  const GpInput in = timed_gp_setups(r);
  const serve::OperatorKey key =
      serve::make_operator_key(in.points, kernel, gp_options(), backend_name);
  std::cerr << "perfbench: set-up done (" << num(median(r.setup_s)) << " s)\n";
  const Matrix dense = dense_reference(*in.tree, kernel);

  // Per-layer record of one build, outside the timed rounds.
  {
    GpBuildInfo info;
    const serve::ServedOperator op = instrumented_build(in, kernel, backend_name, info);
    emit_build_layers(r, info.counts, op.build_stats);
    r.layers["solver.hss_build_s"] = info.hss_s;
    r.layers["solver.ulv_factor_s"] = info.ulv_s;
    r.layers["solver.max_rank"] = static_cast<double>(op.matrix.max_rank());
    r.layers["solver.samples"] = static_cast<double>(op.build_stats.total_samples);
  }

  const index_t n = kGpN;
  const serve::OperatorCache::Builder builder = [&] {
    return serve::build_served_operator(in.points, kernel, gp_options(), backend_name);
  };
  const Matrix xs = gaussian(n, kInputs, o.seed ^ 0x5e7u);
  Matrix refs_mv(n, kInputs), refs_sv(n, kInputs), out(n, kOutSlots);
  Matrix burst_mv(n, kBlockCols), burst_sv(n, kBlockCols);
  serve::CoalescerOptions copts;
  copts.max_batch = kBlockCols;
  copts.max_delay_seconds = 2e-3;
  copts.lanes = 1;
  serve::Coalescer co(copts);

  // Rounds of (cold acquire on a fresh cache, closed-loop requests) for
  // three quarters of the budget; the open-loop phases take the rest.
  const double t_start = now_s();
  std::unique_ptr<serve::OperatorCache> cache;
  serve::OperatorHandle op;
  serve::CacheStats cache_stats;
  do {
    if (!r.build_s.empty() && timed_gp_setups(r).tree->perm() != in.tree->perm())
      r.check("setup_deterministic", false, "set-ups differ in their clustering");
    op = serve::OperatorHandle();
    cache = std::make_unique<serve::OperatorCache>();
    ByteDelta build_bytes;
    const double t0 = now_s();
    r.attempt("acquire (cold)", [&] { op = cache->acquire(key, builder); });
    if (!op) {
      r.check("build", false, "cold acquire failed");
      return;
    }
    r.build_s.push_back(now_s() - t0);
    if (r.build_s.size() == 1) {
      build_bytes.emit(r, "backend.build", true);
      r.operator_bytes = static_cast<double>(op->bytes);
      r.check("same_clustering", op->tree->perm() == in.tree->perm(),
              "served operator and reference share the permutation");

      // Accuracy: power-method error against the exact operator, and the
      // solve residual against the exact kernel.
      r.attempt("rel_err", [&] {
        kern::DenseMatrixSampler exact(dense.view());
        HssSampler approx(op->matrix);
        r.rel_err = core::relative_error_2norm(exact, approx, 10, 0x902);
      });
      r.rel_err_bound = kRelErrFactor * kTol;
      r.check("rel_err", std::isfinite(r.rel_err) && r.rel_err <= r.rel_err_bound,
              "rel_err " + num(r.rel_err) + " vs bound " + num(r.rel_err_bound));
      r.attempt("solve", [&] {
        const Matrix b = gaussian(n, 1, o.seed ^ 0xb0bu);
        Matrix x(n, 1), kx(n, 1);
        op->factor.solve_many(b.view(), x.view());
        la::gemm(1.0, dense.view(), la::Op::None, x.view(), la::Op::None, 0.0, kx.view());
        double rr = 0, bb = 0;
        for (index_t i = 0; i < n; ++i) {
          rr += (kx(i, 0) - b(i, 0)) * (kx(i, 0) - b(i, 0));
          bb += b(i, 0) * b(i, 0);
        }
        r.solve_residual = std::sqrt(rr / bb);
      });
      r.solve_residual_bound = kSolveResidualBound;
      r.layers["solver.solve_residual"] = r.solve_residual;
      r.check("solve_residual",
              std::isfinite(r.solve_residual) && r.solve_residual <= r.solve_residual_bound,
              "solve residual " + num(r.solve_residual) + " vs bound " +
                  num(r.solve_residual_bound));

      // Direct (uncoalesced, blocked) answers for every payload and burst.
      batched::ExecutionContext ctx(backend::shared_backend(backend_name));
      {
        ByteDelta apply_bytes;
        Matrix y(n, 1);
        r.attempt("matvec", [&] { op->matrix.matvec(ctx, xs.view().col_range(0, 1), y.view()); });
        apply_bytes.emit(r, "backend.apply", false);
      }
      r.attempt("matvec", [&] { op->matrix.matvec(ctx, xs.view(), refs_mv.view()); });
      r.attempt("solve_many", [&] { op->factor.solve_many(xs.view(), refs_sv.view(), ctx); });
      const ConstMatrixView xb = xs.view().col_range(0, kBlockCols);
      r.attempt("matvec", [&] { op->matrix.matvec(ctx, xb, burst_mv.view()); });
      r.attempt("solve_many", [&] { op->factor.solve_many(xb, burst_sv.view(), ctx); });
    }
    std::cerr << "perfbench: round " << r.build_s.size() << ": cold acquire "
              << num(r.build_s.back()) << " s\n";
    direct_applies(r, *op, xs, refs_mv, refs_sv, burst_mv, burst_sv, kSinglesPerRound,
                   kBlocksPerRound);
    const ServeRig rig{*cache, key, builder, co, xs, refs_mv, refs_sv, out};
    closed_loop(r, rig, kIsolatedPerRound, kBurstsPerRound, burst_mv, burst_sv);
    const auto cs = cache->stats();
    cache_stats.hits += cs.hits;
    cache_stats.misses += cs.misses;
  } while (r.build_s.size() < 3 || now_s() - t_start < 0.75 * o.seconds);
  r.block_cols = kBlockCols;

  // Open-loop phases on the last operator (per-layer record).
  const double left = std::max(3.0, o.seconds - (now_s() - t_start));
  const ServeRig rig{*cache, key, builder, co, xs, refs_mv, refs_sv, out};
  const serve::MetricsSnapshot s0 = op->metrics->snapshot();
  r.phases.push_back(run_phase(r, rig, "light", 150.0, 0.35 * left));
  const serve::MetricsSnapshot s_light = op->metrics->snapshot();
  r.phases.push_back(run_phase(r, rig, "heavy", 800.0, 0.35 * left));
  const serve::MetricsSnapshot s_heavy = op->metrics->snapshot();
  r.phases.push_back(run_phase(r, rig, "overload", 2000.0, 0.3 * left));
  const serve::MetricsSnapshot s1 = op->metrics->snapshot();
  const auto cs = cache->stats();
  r.layers["serve.cache_hits"] = static_cast<double>(cache_stats.hits + cs.hits);
  r.layers["serve.cache_misses"] = static_cast<double>(cache_stats.misses);
  const auto mean_batch = [](const serve::MetricsSnapshot& a, const serve::MetricsSnapshot& b) {
    const double batches = static_cast<double>(b.batches - a.batches);
    return batches > 0 ? static_cast<double>(b.coalesced_rhs - a.coalesced_rhs) / batches : 0.0;
  };
  r.layers["serve.light_mean_batch"] = mean_batch(s0, s_light);
  r.layers["serve.mean_batch"] = mean_batch(s_light, s_heavy);
  r.layers["serve.batches"] = static_cast<double>(s1.batches - s0.batches);
  r.layers["serve.flush_full"] = static_cast<double>(s1.flush_full - s0.flush_full);
  r.layers["serve.flush_timeout"] = static_cast<double>(s1.flush_timeout - s0.flush_timeout);
  r.layers["serve.split_bursts"] += 0;  // present even when no burst split
  r.layers["serve.deadline_expired"] =
      static_cast<double>(s1.deadline_expired - s0.deadline_expired);

  if (o.trace) {
    // Traced cold acquire plus a short heavy burst on its operator.
    op = serve::OperatorHandle();
    cache.reset();
    serve::OperatorCache traced_cache;
    obs::start_trace();
    const double t0 = now_s();
    serve::OperatorHandle top;
    r.attempt("acquire (traced)", [&] {
      obs::TraceSpan span("perfbench", "acquire");
      top = traced_cache.acquire(key, builder);
    });
    const double traced_build = now_s() - t0;
    if (top) {
      const ServeRig traced{traced_cache, key, builder, co, xs, refs_mv, refs_sv, out};
      r.phases.push_back(run_phase(r, traced, "traced", 800.0, 0.5));
    }
    const obs::TraceData t = obs::stop_trace();
    if (!o.trace_out.empty()) t.write_json(o.trace_out);
    const TraceSummary s = summarize(t);
    emit_trace(r, s, top ? traced_build / median(r.build_s) : NAN);
    r.layers["serve.flush_ms"] = s.flushes > 0 ? s.flush_s / s.flushes * 1e3 : 0;
  }
  co.stop();
}

} // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload")
      o.workload = v;
    else if (k == "--seed")
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds")
      o.seconds = std::atof(v.c_str());
    else if (k == "--trace")
      o.trace = v == "1";
    else if (k == "--trace-out")
      o.trace_out = v;
    else {
      std::cerr << "perfbench: unknown option " << k << "\n";
      return 2;
    }
  }
  if (o.workload != "h2-cov" && o.workload != "h2-update" && o.workload != "gp-serve") {
    std::cerr << "usage: perfbench --workload h2-cov|h2-update|gp-serve --seed N --seconds S "
                 "[--trace 0|1] [--trace-out path]\n";
    return 2;
  }

  Report r;
  const double gflops = gemm_gflops_1t();
  r.layers["la.gemm_gflops_1t"] = gflops;
  r.layers["env.hardware_threads"] = std::thread::hardware_concurrency();
  r.layers["env.pool_width"] = num_threads();
  try {
    if (o.workload == "gp-serve")
      run_gp(o, r);
    else
      run_h2(o, r, o.workload == "h2-update");
  } catch (const std::exception& e) {
    ++r.attempted;
    ++r.failed;
    r.check("workload", false, std::string("uncaught: ") + e.what());
  }

  std::string checks = "[";
  for (size_t i = 0; i < r.checks.size(); ++i) checks += (i ? "," : "") + r.checks[i];
  checks += "]";
  std::string phases = "[";
  for (size_t i = 0; i < r.phases.size(); ++i) phases += (i ? "," : "") + r.phases[i];
  phases += "]";
  Json layers;
  for (const auto& [k, v] : r.layers) layers.put(k, v);

  Json out;
  out.str("workload", o.workload)
      .put("seed", static_cast<double>(o.seed))
      .put("hardware_threads", std::thread::hardware_concurrency())
      .put("pool_width", num_threads())
      .put("gemm_gflops_1t", gflops)
      .put("setup_s", r.setup_s)
      .put("build_s", r.build_s)
      .put("rel_err", r.rel_err)
      .put("rel_err_bound", r.rel_err_bound)
      .put("solve_residual", r.solve_residual)
      .put("solve_residual_bound", r.solve_residual_bound)
      .put("operator_bytes", r.operator_bytes)
      .put("apply_ms", r.apply_ms)
      .put("block_ms", r.block_ms)
      .put("co_single_ms", r.co_single_ms)
      .put("co_burst_ms", r.co_burst_ms)
      .put("block_cols", r.block_cols)
      .raw("phases", phases)
      .raw("checks", checks)
      .put("attempted", static_cast<double>(r.attempted))
      .put("failed", static_cast<double>(r.failed))
      .raw("layers", layers.dump());
  std::cout << out.dump() << std::endl;
  return 0;
}
