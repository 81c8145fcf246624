#include "batched/device.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/random.hpp"
#include "core/construction.hpp"
#include "h2/h2_dense.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/kernels.hpp"
#include "test_common.hpp"

/// ExecutionContext Naive-vs-Batched parity: the paper's §IV-A ablation
/// mechanism. Both backends must produce bit-identical construction output;
/// only the kernel-launch accounting differs (one launch per batch vs one
/// launch per batch entry), which is what the ablation benchmarks report.

namespace h2sketch::batched {
namespace {

using backend::LaunchMode;
using tree::Admissibility;

TEST(ExecutionContext, RunBatchLaunchAccountingIsExact) {
  const std::vector<index_t> batch_sizes = {7, 1, 0, 12, 3};
  index_t expected_naive = 0, expected_batched = 0;
  for (index_t b : batch_sizes) {
    expected_naive += b;
    if (b > 0) ++expected_batched;
  }

  for (LaunchMode mode : {LaunchMode::Naive, LaunchMode::Batched}) {
    ExecutionContext ctx(mode);
    std::atomic<index_t> visits{0};
    for (index_t b : batch_sizes)
      ctx.run_batch(b, [&](index_t) { visits.fetch_add(1, std::memory_order_relaxed); });
    // Every entry executes exactly once regardless of backend.
    EXPECT_EQ(visits.load(), expected_naive);
    EXPECT_EQ(ctx.kernel_launches(),
              mode == LaunchMode::Naive ? expected_naive : expected_batched);
  }
}

TEST(ExecutionContext, RunBatchVisitsEveryIndexOnce) {
  for (LaunchMode mode : {LaunchMode::Naive, LaunchMode::Batched}) {
    ExecutionContext ctx(mode);
    std::vector<std::atomic<int>> hits(64);
    ctx.run_batch(64, [&](index_t i) { hits[static_cast<size_t>(i)].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ExecutionContext, EmptyLaunchesRecordNoLaunchInEitherBackend) {
  // Regression for the empty-level accounting: a batch of size 0 (an empty
  // level, an empty near/far list) must cost zero launches uniformly —
  // Naive counting per entry and Batched counting per launch agree at 0.
  for (LaunchMode mode : {LaunchMode::Naive, LaunchMode::Batched}) {
    ExecutionContext ctx(mode);
    ctx.run_batch(0, [](index_t) { FAIL() << "empty batch must not execute"; });
    ctx.run_batch(kSampleStream, 0, [](index_t) { FAIL(); });
    ctx.run_batch(
        kBasisStream, 0, [](index_t) { return index_t{1}; }, [](index_t) { FAIL(); });
    ctx.run_batch(-3, [](index_t) { FAIL(); });
    ctx.sync_all();
    EXPECT_EQ(ctx.kernel_launches(), 0) << (mode == LaunchMode::Naive ? "naive" : "batched");
  }
}

TEST(ExecutionContext, EmptyGaussianFillRecordsNoLaunch) {
  ExecutionContext ctx(LaunchMode::Batched);
  Matrix empty;
  GaussianStream stream(7);
  ctx.device().fill_gaussian(ctx, empty.view(), stream, 0);
  EXPECT_EQ(ctx.kernel_launches(), 0);
  Matrix some(3, 2);
  ctx.device().fill_gaussian(ctx, some.view(), stream, 0);
  EXPECT_EQ(ctx.kernel_launches(), 1);
}

TEST(ExecutionContext, SameStreamLaunchesRunInFifoOrder) {
  // The stream contract replacing implicit launch barriers: launch k+1 on a
  // stream must observe every write of launch k. Chain 50 dependent
  // launches; any reordering or overlap corrupts the running sum (recorded
  // in a flag — launch bodies may run off the main thread, so no gtest
  // assertions inside).
  ExecutionContext ctx(LaunchMode::Batched);
  std::vector<index_t> acc(8, 0);
  std::atomic<bool> order_violated{false};
  for (int k = 0; k < 50; ++k)
    ctx.run_batch(kSampleStream, 8, [&acc, &order_violated, k](index_t i) {
      if (acc[static_cast<size_t>(i)] != k) order_violated.store(true); // launch k-1 unfinished
      ++acc[static_cast<size_t>(i)];
    });
  ctx.sync(kSampleStream);
  EXPECT_FALSE(order_violated.load());
  for (index_t v : acc) EXPECT_EQ(v, 50);
  EXPECT_EQ(ctx.stream_launches(kSampleStream), 50);
  EXPECT_EQ(ctx.kernel_launches(), 50);
}

TEST(ExecutionContext, IndependentStreamsAllCompleteAtSyncAll) {
  ExecutionContext ctx(LaunchMode::Batched);
  std::array<std::atomic<index_t>, static_cast<size_t>(kNumStreams)> per_stream{};
  for (StreamId s = 0; s < kNumStreams; ++s)
    for (int k = 0; k < 5; ++k)
      ctx.run_batch(s, 16, [&per_stream, s](index_t) {
        per_stream[static_cast<size_t>(s)].fetch_add(1, std::memory_order_relaxed);
      });
  ctx.sync_all();
  for (StreamId s = 0; s < kNumStreams; ++s) {
    EXPECT_EQ(per_stream[static_cast<size_t>(s)].load(), 5 * 16);
    EXPECT_EQ(ctx.stream_launches(s), 5);
  }
  EXPECT_EQ(ctx.kernel_launches(), 5 * kNumStreams);
}

TEST(ExecutionContext, LaunchExceptionSurfacesNoLaterThanSync) {
  ExecutionContext ctx(LaunchMode::Batched);
  auto issue_and_sync = [&ctx] {
    ctx.run_batch(kSampleStream, 32, [](index_t i) {
      if (i == 13) throw std::runtime_error("entry 13 failed");
    });
    ctx.sync(kSampleStream);
  };
  EXPECT_THROW(issue_and_sync(), std::runtime_error);
  // The stream is usable again after the error is consumed.
  std::atomic<int> ran{0};
  ctx.run_batch(kSampleStream, 4, [&ran](index_t) { ran.fetch_add(1); });
  ctx.sync(kSampleStream);
  EXPECT_EQ(ran.load(), 4);
}

TEST(ExecutionContext, CostChunkedLaunchExecutesEveryEntryOnce) {
  // Wildly skewed per-entry costs (every 10th entry pretends to be 1000x
  // the rest) must not drop, duplicate, or reorder entry effects.
  ExecutionContext ctx(LaunchMode::Batched);
  std::vector<index_t> out(100, 0);
  ctx.run_batch(
      kSampleStream, 100, [](index_t i) { return (i % 10 == 0) ? index_t{1000} : index_t{1}; },
      [&out](index_t i) { out[static_cast<size_t>(i)] += i * i; });
  ctx.sync(kSampleStream);
  for (index_t i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
}

/// A construction whose tree has levels with no admissible blocks must not
/// charge launches for them: pin the exact launch count of a near-field-only
/// problem (two leaves, everything inadmissible) in both backends.
TEST(ExecutionContext, NearFieldOnlyConstructionLaunchCountsArePinned) {
  auto tr = test_util::build_cube_tree(32, 1, 5, 16); // 2 leaves, 1D line
  kern::ExponentialKernel k(0.2);
  const Matrix kd = test_util::dense_kernel_matrix(*tr, k);
  kern::KernelEntryGenerator gen(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-6;

  // eta = 0 admissibility: nothing is admissible, every level is "empty".
  for (LaunchMode mode : {LaunchMode::Naive, LaunchMode::Batched}) {
    kern::DenseMatrixSampler sampler(kd.view());
    ExecutionContext ctx(mode);
    auto res = core::construct_h2(tr, Admissibility::general(0.0), sampler, gen, opts, ctx);
    ASSERT_FALSE(res.matrix.mtree.has_any_far());
    // Only owner entries (row <= col) store and generate a block.
    const auto& near = res.matrix.mtree.near_leaf;
    index_t stored_blocks = 0;
    for (index_t r = 0; r < tr->nodes_at(tr->leaf_level()); ++r)
      for (index_t j = 0; j < near.row_count(r); ++j)
        if (!h2::is_mirror(r, near.col_at(r, j))) ++stored_blocks;
    ASSERT_EQ(stored_blocks, 3);
    // Exactly one operation runs: the near-field entry generation. Batched:
    // one launch total. Naive: one launch per stored near block. Empty far
    // levels contribute zero in both backends.
    EXPECT_EQ(res.stats.kernel_launches, mode == LaunchMode::Batched ? 1 : stored_blocks);
  }
}

/// Full-construction parity on a 3D adaptive build (multiple sample rounds):
/// the counter-based RNG and identical per-entry arithmetic make the two
/// backends bit-identical end to end.
TEST(ExecutionContext, ConstructionParityNaiveVsBatched3D) {
  auto tr = test_util::build_cube_tree(512, 3, 77, 16);
  kern::Matern32Kernel k(0.3);
  const Matrix kd = test_util::dense_kernel_matrix(*tr, k);
  kern::KernelEntryGenerator gen(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-7;
  opts.sample_block = 16;
  opts.initial_samples = 32;

  kern::DenseMatrixSampler sn(kd.view()), sb(kd.view());
  ExecutionContext cn(LaunchMode::Naive), cb(LaunchMode::Batched);
  auto rn = core::construct_h2(tr, Admissibility::general(0.7), sn, gen, opts, cn);
  auto rb = core::construct_h2(tr, Admissibility::general(0.7), sb, gen, opts, cb);

  EXPECT_EQ(max_abs_diff(h2::densify(rn.matrix).view(), h2::densify(rb.matrix).view()), 0.0);
  EXPECT_EQ(rn.stats.total_samples, rb.stats.total_samples);
  EXPECT_EQ(rn.stats.sample_rounds, rb.stats.sample_rounds);
  EXPECT_GT(rn.stats.kernel_launches, rb.stats.kernel_launches);
}

/// The mechanism behind the paper's GPU speedups: naive launches scale with
/// the number of blocks (so roughly linearly in N), batched launches with
/// levels x operations (logarithmically). Growing N must widen the gap.
TEST(ExecutionContext, LaunchGapWidensWithProblemSize) {
  kern::ExponentialKernel k(0.2);
  core::ConstructionOptions opts;
  opts.tol = 1e-6;

  auto launches = [&](index_t n, LaunchMode mode) {
    auto tr = test_util::build_cube_tree(n, 2, 78, 16);
    const Matrix kd = test_util::dense_kernel_matrix(*tr, k);
    kern::DenseMatrixSampler sampler(kd.view());
    kern::KernelEntryGenerator gen(*tr, k);
    ExecutionContext ctx(mode);
    auto res = core::construct_h2(tr, Admissibility::general(0.7), sampler, gen, opts, ctx);
    return res.stats.kernel_launches;
  };

  const index_t naive_small = launches(256, LaunchMode::Naive);
  const index_t naive_big = launches(1024, LaunchMode::Naive);
  const index_t batched_small = launches(256, LaunchMode::Batched);
  const index_t batched_big = launches(1024, LaunchMode::Batched);

  ASSERT_GT(batched_small, 0);
  ASSERT_GT(naive_small, batched_small);
  // Naive launch count grows much faster than the batched one (O(N) blocks
  // vs O(levels) batches): compare growth factors at 4x the points.
  const double naive_growth = static_cast<double>(naive_big) / static_cast<double>(naive_small);
  const double batched_growth =
      static_cast<double>(batched_big) / static_cast<double>(batched_small);
  EXPECT_GT(naive_growth, 2.0);
  EXPECT_LT(batched_growth, naive_growth);
}

} // namespace
} // namespace h2sketch::batched
