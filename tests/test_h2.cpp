#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numbers>
#include <optional>

#include "backend/registry.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "h2/cheb_construction.hpp"
#include "h2/h2_dense.hpp"
#include "h2/h2_entry_eval.hpp"
#include "h2/h2_matvec.hpp"
#include "h2/update_sampler.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/kernels.hpp"
#include "la/blas.hpp"
#include "test_common.hpp"

namespace h2sketch::h2 {
namespace {

using test_util::dense_kernel_matrix;
using test_util::rel_fro_error;

struct ChebCase {
  index_t n;
  index_t dim;
  index_t leaf;
  index_t q;
  real_t eta;
  real_t expected_err; ///< loose bound on relative Frobenius error
  std::uint64_t seed;
};

class ChebH2 : public ::testing::TestWithParam<ChebCase> {
 protected:
  void SetUp() override {
    const auto p = GetParam();
    tree_ = test_util::build_cube_tree(p.n, p.dim, p.seed, p.leaf);
    kernel_ = std::make_unique<kern::ExponentialKernel>(0.2);
    a_ = build_cheb_h2(tree_, tree::Admissibility::general(p.eta), *kernel_, p.q);
  }
  std::shared_ptr<tree::ClusterTree> tree_;
  std::unique_ptr<kern::ExponentialKernel> kernel_;
  H2Matrix a_;
};

TEST_P(ChebH2, DensifyApproximatesKernelMatrix) {
  const Matrix kd = dense_kernel_matrix(*tree_, *kernel_);
  const Matrix ad = densify(a_);
  EXPECT_LT(rel_fro_error(ad.view(), kd.view()), GetParam().expected_err);
}

TEST_P(ChebH2, MatvecMatchesDensify) {
  const Matrix ad = densify(a_);
  const index_t n = tree_->num_points();
  Matrix x(n, 3), y(n, 3), ref(n, 3);
  fill_gaussian(x.view(), GaussianStream(11));
  h2_matvec(a_, x.view(), y.view());
  la::gemm(1.0, ad.view(), la::Op::None, x.view(), la::Op::None, 0.0, ref.view());
  EXPECT_LT(max_abs_diff(y.view(), ref.view()), test_util::kMatvecRelTol * la::norm_f(ad.view()));
}

TEST_P(ChebH2, EntryEvalMatchesDensify) {
  const Matrix ad = densify(a_);
  const H2EntryGenerator gen(a_);
  const index_t n = tree_->num_points();
  SmallRng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const index_t i = rng.next_index(n), j = rng.next_index(n);
    EXPECT_NEAR(gen.entry(i, j), ad(i, j), test_util::kEntryTol) << "(" << i << "," << j << ")";
  }
}

TEST_P(ChebH2, BlockEntryEvalMatchesDensify) {
  const Matrix ad = densify(a_);
  const H2EntryGenerator gen(a_);
  const index_t n = tree_->num_points();
  SmallRng rng(17);
  std::vector<index_t> rows, cols;
  for (int i = 0; i < 7; ++i) rows.push_back(rng.next_index(n));
  for (int j = 0; j < 5; ++j) cols.push_back(rng.next_index(n));
  Matrix out(7, 5);
  gen.generate_block(rows, cols, out.view());
  for (index_t i = 0; i < 7; ++i)
    for (index_t j = 0; j < 5; ++j)
      EXPECT_NEAR(out(i, j), ad(rows[static_cast<size_t>(i)], cols[static_cast<size_t>(j)]), test_util::kEntryTol);
}

TEST_P(ChebH2, ValidatePassesAndMemoryIsAccounted) {
  a_.validate();
  EXPECT_GT(a_.memory_bytes(), 0u);
  EXPECT_EQ(a_.max_rank(), static_cast<index_t>(std::pow(GetParam().q, GetParam().dim)));
}

INSTANTIATE_TEST_SUITE_P(
    KernelsEtaDims, ChebH2,
    ::testing::Values(ChebCase{256, 3, 32, 4, 0.7, 2e-3, 1}, ChebCase{256, 3, 32, 5, 0.7, 5e-4, 2},
                      ChebCase{300, 2, 32, 5, 0.7, 1e-4, 3}, ChebCase{200, 3, 32, 4, 0.5, 1e-3, 4},
                      ChebCase{128, 1, 16, 6, 0.7, 1e-7, 5}));

TEST(ChebH2Single, HelmholtzKernelAlsoCompresses) {
  auto tr = test_util::build_cube_tree(256, 3, 21, 32);
  kern::HelmholtzCosKernel k(3.0);
  const H2Matrix a = build_cheb_h2(tr, tree::Admissibility::general(0.7), k, 5);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  EXPECT_LT(rel_fro_error(densify(a).view(), kd.view()), 5e-3);
}

/// Per-entry reference for build_cheb_h2, written out independently of the
/// batched build: 1D Chebyshev-Gauss nodes per box dimension, tensor
/// Lagrange bases, and one kernel.evaluate call per coupling/near entry.
class ChebReference {
 public:
  ChebReference(const tree::ClusterTree& t, index_t level, index_t node, index_t q)
      : q_(q), dim_(t.dim()) {
    const geo::BoundingBox& box = t.box(level, node);
    for (index_t d = 0; d < dim_; ++d) {
      const real_t lo = box.lo[static_cast<size_t>(d)], hi = box.hi[static_cast<size_t>(d)];
      const real_t c = 0.5 * (lo + hi);
      const real_t h = std::max(0.5 * (hi - lo), 1e-8 * (1.0 + std::abs(c)));
      std::vector<real_t> x(static_cast<size_t>(q));
      for (index_t m = 0; m < q; ++m)
        x[static_cast<size_t>(m)] =
            c + h * std::cos(std::numbers::pi * (2.0 * m + 1.0) / (2.0 * q));
      nodes_.push_back(std::move(x));
    }
  }
  index_t rank() const { return static_cast<index_t>(std::pow(q_, dim_) + 0.5); }
  void point(index_t m, real_t* out) const {
    for (index_t d = 0; d < dim_; ++d, m /= q_)
      out[d] = nodes_[static_cast<size_t>(d)][static_cast<size_t>(m % q_)];
  }
  real_t basis(index_t m, const real_t* x) const {
    real_t v = 1.0;
    for (index_t d = 0; d < dim_; ++d, m /= q_) {
      const auto& nd = nodes_[static_cast<size_t>(d)];
      const auto k0 = static_cast<size_t>(m % q_);
      real_t l = 1.0;
      for (size_t k = 0; k < nd.size(); ++k)
        if (k != k0) l *= (x[d] - nd[k]) / (nd[k0] - nd[k]);
      v *= l;
    }
    return v;
  }

 private:
  index_t q_;
  index_t dim_;
  std::vector<std::vector<real_t>> nodes_;
};

/// Every block of a Chebyshev H2, computed entry by entry.
struct ChebBlocks {
  std::vector<std::vector<Matrix>> basis, coupling; ///< [level][node / far block]
  std::vector<Matrix> dense;
};

ChebBlocks reference_cheb_blocks(const H2Matrix& a, const kern::KernelFunction& k, index_t q) {
  const tree::ClusterTree& t = *a.tree;
  const index_t dim = t.dim(), leaf = t.leaf_level();
  const auto grid = [&](index_t l, index_t i) { return ChebReference(t, l, i, q); };
  const auto coords = [&](index_t pos, real_t* x) {
    for (index_t d = 0; d < dim; ++d) x[d] = t.coord_permuted(pos, d);
  };
  ChebBlocks ref;
  ref.basis.resize(static_cast<size_t>(t.num_levels()));
  ref.coupling.resize(static_cast<size_t>(t.num_levels()));
  for (index_t l = 0; l < t.num_levels(); ++l) {
    for (index_t i = 0; i < t.nodes_at(l); ++i) {
      const ChebReference g = grid(l, i);
      const index_t r = g.rank();
      Matrix b(l == leaf ? t.size(l, i) : 2 * r, r);
      for (index_t p = 0; p < b.rows(); ++p) {
        real_t x[3] = {0, 0, 0};
        if (l == leaf)
          coords(t.begin(l, i) + p, x);
        else
          grid(l + 1, 2 * i + p / r).point(p % r, x);
        for (index_t m = 0; m < r; ++m) b(p, m) = g.basis(m, x);
      }
      ref.basis[static_cast<size_t>(l)].push_back(std::move(b));
    }
    const auto& far = a.mtree.far[static_cast<size_t>(l)];
    for (index_t s = 0; s < t.nodes_at(l); ++s)
      for (index_t e = far.row_ptr[static_cast<size_t>(s)];
           e < far.row_ptr[static_cast<size_t>(s) + 1]; ++e) {
        const ChebReference gs = grid(l, s), gc = grid(l, far.col[static_cast<size_t>(e)]);
        Matrix b(gs.rank(), gc.rank());
        for (index_t mt = 0; mt < b.cols(); ++mt)
          for (index_t ms = 0; ms < b.rows(); ++ms) {
            real_t x[3] = {0, 0, 0}, y[3] = {0, 0, 0};
            gs.point(ms, x);
            gc.point(mt, y);
            b(ms, mt) = k.evaluate(x, y, dim);
          }
        ref.coupling[static_cast<size_t>(l)].push_back(std::move(b));
      }
  }
  const auto& near = a.mtree.near_leaf;
  for (index_t s = 0; s < t.nodes_at(leaf); ++s)
    for (index_t e = near.row_ptr[static_cast<size_t>(s)];
         e < near.row_ptr[static_cast<size_t>(s) + 1]; ++e) {
      const index_t c = near.col[static_cast<size_t>(e)];
      Matrix b(t.size(leaf, s), t.size(leaf, c));
      for (index_t jj = 0; jj < b.cols(); ++jj)
        for (index_t ii = 0; ii < b.rows(); ++ii) {
          real_t x[3] = {0, 0, 0}, y[3] = {0, 0, 0};
          coords(t.begin(leaf, s) + ii, x);
          coords(t.begin(leaf, c) + jj, y);
          b(ii, jj) = k.evaluate(x, y, dim);
        }
      ref.dense.push_back(std::move(b));
    }
  return ref;
}

/// Bitwise block equality (distinguishes -0.0 and NaN payloads).
::testing::AssertionResult same_bits(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols())
    return ::testing::AssertionFailure() << "shape " << got.rows() << "x" << got.cols()
                                         << " vs " << want.rows() << "x" << want.cols();
  for (index_t j = 0; j < got.cols(); ++j)
    for (index_t i = 0; i < got.rows(); ++i)
      if (std::bit_cast<std::uint64_t>(got(i, j)) != std::bit_cast<std::uint64_t>(want(i, j)))
        return ::testing::AssertionFailure()
               << "(" << i << "," << j << "): " << got(i, j) << " vs " << want(i, j);
  return ::testing::AssertionSuccess();
}

/// Device bytes of an arena laid out by host staging: the layout the
/// batched build's write-through arenas must reproduce. With `list`, the
/// blocks are that list's per-entry references and mirror entries stage
/// nothing (the one-block-per-symmetric-pair rule).
std::size_t staged_bytes(const std::vector<Matrix>& blocks,
                         const tree::LevelBlockList* list = nullptr) {
  backend::BlockArena arena;
  arena.reset(static_cast<index_t>(blocks.size()));
  if (list != nullptr)
    for_each_owner(*list, [&](index_t e, index_t, index_t) {
      arena.stage(e, to_matrix(blocks[static_cast<size_t>(e)].view()));
    });
  else
    for (size_t i = 0; i < blocks.size(); ++i)
      arena.stage(static_cast<index_t>(i), to_matrix(blocks[i].view()));
  arena.commit(*backend::default_backend().device);
  return arena.device_bytes();
}

/// Every CSR entry of `list` against its per-entry reference: a stored
/// slot bitwise, a mirror slot 0 x 0 with its owner's transpose bitwise.
::testing::AssertionResult list_matches(const tree::LevelBlockList& list,
                                        const backend::BlockArena& arena,
                                        const std::vector<Matrix>& ref) {
  if (arena.count() != static_cast<index_t>(ref.size()))
    return ::testing::AssertionFailure() << "slot count " << arena.count();
  for (index_t r = 0; r + 1 < static_cast<index_t>(list.row_ptr.size()); ++r)
    for (index_t j = 0; j < list.row_count(r); ++j) {
      const index_t c = list.col_at(r, j);
      const index_t e = list.row_ptr[static_cast<size_t>(r)] + j;
      ::testing::AssertionResult ok = ::testing::AssertionSuccess();
      if (!is_mirror(r, c)) {
        ok = same_bits(arena.host(e), ref[static_cast<size_t>(e)]);
      } else if (arena.rows(e) != 0 || arena.cols(e) != 0) {
        ok = ::testing::AssertionFailure() << "mirror slot is stored";
      } else {
        const Matrix& owner = arena.host(list.find(c, r));
        Matrix t(owner.cols(), owner.rows());
        copy_transposed(owner.view(), t.view());
        ok = same_bits(t, ref[static_cast<size_t>(e)]);
      }
      if (!ok) return ok << " at entry " << e << " (" << r << ", " << c << ")";
    }
  return ::testing::AssertionSuccess();
}

TEST(ChebH2Reference, EveryBlockIsBitwiseThePerEntryReferenceAtWidths124) {
  const int saved_width = num_threads();
  const kern::ExponentialKernel exp_kernel(0.2);
  const kern::HelmholtzCosKernel helmholtz(3.0);
  for (index_t dim : {2, 3}) {
    auto tr = test_util::build_cube_tree(dim == 2 ? 400 : 600, dim, 40 + dim, 32);
    for (const kern::KernelFunction* k :
         {static_cast<const kern::KernelFunction*>(&exp_kernel),
          static_cast<const kern::KernelFunction*>(&helmholtz)}) {
      SCOPED_TRACE(k->name() + " dim " + std::to_string(dim));
      std::optional<ChebBlocks> ref;
      std::size_t ref_bytes = 0;
      for (int width : {1, 2, 4}) {
        SCOPED_TRACE("width " + std::to_string(width));
        set_num_threads(width);
        const H2Matrix a = build_cheb_h2(tr, tree::Admissibility::general(0.7), *k, 3);
        ASSERT_TRUE(a.mtree.has_any_far());
        if (!ref) {
          ref = reference_cheb_blocks(a, *k, 3);
          for (size_t l = 0; l < ref->basis.size(); ++l)
            ref_bytes += staged_bytes(ref->basis[l]) +
                         staged_bytes(ref->coupling[l], &a.mtree.far[l]);
          ref_bytes += staged_bytes(ref->dense, &a.mtree.near_leaf);
        }
        for (size_t l = 0; l < ref->basis.size(); ++l) {
          for (size_t i = 0; i < ref->basis[l].size(); ++i)
            ASSERT_TRUE(same_bits(a.basis[l].host(static_cast<index_t>(i)), ref->basis[l][i]))
                << "basis/transfer level " << l << " node " << i;
          ASSERT_TRUE(list_matches(a.mtree.far[l], a.coupling[l], ref->coupling[l]))
              << "coupling level " << l;
        }
        ASSERT_TRUE(list_matches(a.mtree.near_leaf, a.dense, ref->dense)) << "near field";
        EXPECT_EQ(a.device_bytes(), ref_bytes);
      }
    }
  }
  set_num_threads(saved_width);
}

TEST(H2Sampler, CountsSamplesAndMatchesMatvec) {
  auto tr = test_util::build_cube_tree(200, 3, 22, 32);
  kern::ExponentialKernel k(0.2);
  const H2Matrix a = build_cheb_h2(tr, tree::Admissibility::general(0.7), k, 4);
  H2Sampler s(a);
  EXPECT_EQ(s.size(), 200);
  Matrix omega(200, 5), y(200, 5), ref(200, 5);
  fill_gaussian(omega.view(), GaussianStream(23));
  s.sample(omega.view(), y.view());
  h2_matvec(a, omega.view(), ref.view());
  EXPECT_EQ(max_abs_diff(y.view(), ref.view()), 0.0);
  EXPECT_EQ(s.samples_taken(), 5);
}

TEST(UpdatedH2, SamplerAndEntryGenAreConsistent) {
  auto tr = test_util::build_cube_tree(150, 3, 24, 32);
  kern::ExponentialKernel k(0.2);
  const H2Matrix a = build_cheb_h2(tr, tree::Admissibility::general(0.7), k, 4);
  const la::LowRank lr = la::random_lowrank(150, 150, 8, 0.5, 99);

  UpdatedH2Sampler sampler(a, lr);
  UpdatedH2EntryGenerator gen(a, lr);

  // Dense reference: densify(a) + lr.
  Matrix ref = densify(a);
  const Matrix lrd = lr.densify();
  for (index_t j = 0; j < 150; ++j)
    for (index_t i = 0; i < 150; ++i) ref(i, j) += lrd(i, j);

  Matrix omega(150, 3), y(150, 3), yref(150, 3);
  fill_gaussian(omega.view(), GaussianStream(25));
  sampler.sample(omega.view(), y.view());
  la::gemm(1.0, ref.view(), la::Op::None, omega.view(), la::Op::None, 0.0, yref.view());
  EXPECT_LT(max_abs_diff(y.view(), yref.view()), 1e-10);

  SmallRng rng(26);
  for (int trial = 0; trial < 100; ++trial) {
    const index_t i = rng.next_index(150), j = rng.next_index(150);
    Matrix out(1, 1);
    std::vector<index_t> ri = {i}, cj = {j};
    gen.generate_block(ri, cj, out.view());
    EXPECT_NEAR(out(0, 0), ref(i, j), test_util::kEntryTol);
  }
}

TEST(H2Matrix, SingleLevelDenseOnlyMatrixWorks) {
  // N small enough that the tree is a single node: everything is dense.
  auto tr = test_util::build_cube_tree(40, 3, 27, 64);
  kern::ExponentialKernel k(0.2);
  const H2Matrix a = build_cheb_h2(tr, tree::Admissibility::general(0.7), k, 3);
  EXPECT_FALSE(a.mtree.has_any_far());
  const Matrix kd = dense_kernel_matrix(*tr, k);
  const Matrix ad = densify(a);
  EXPECT_LT(max_abs_diff(ad.view(), kd.view()), test_util::kExactTol);
  Matrix x(40, 2), y(40, 2), ref(40, 2);
  fill_gaussian(x.view(), GaussianStream(28));
  h2_matvec(a, x.view(), y.view());
  la::gemm(1.0, kd.view(), la::Op::None, x.view(), la::Op::None, 0.0, ref.view());
  EXPECT_LT(max_abs_diff(y.view(), ref.view()), 1e-12);
}

TEST(H2Matrix, MemoryGrowsWithProblemSize) {
  kern::ExponentialKernel k(0.2);
  std::size_t prev = 0;
  for (index_t n : {256, 512, 1024}) {
    auto tr = test_util::build_cube_tree(n, 3, 29, 32);
    const H2Matrix a = build_cheb_h2(tr, tree::Admissibility::general(0.7), k, 3);
    EXPECT_GT(a.memory_bytes(), prev);
    prev = a.memory_bytes();
  }
}

} // namespace
} // namespace h2sketch::h2
