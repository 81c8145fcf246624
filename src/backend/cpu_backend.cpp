#include "backend/cpu_backend.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <new>
#include <utility>

#include "batched/device.hpp"
#include "la/qr.hpp"

namespace h2sketch::backend {

namespace {

/// Owned marshaled operands of an in-flight launch (the stream API moves
/// the caller's view vectors here so the caller's stack can unwind before
/// the launch runs).
struct GemmLaunch {
  std::vector<ConstMatrixView> a, b;
  std::vector<MatrixView> c;
};

struct GatherLaunch {
  std::vector<ConstMatrixView> src;
  std::vector<std::vector<index_t>> rows;
  std::vector<MatrixView> dst;
};

struct BsrLaunch {
  std::vector<index_t> row_ptr, col;
  std::vector<ConstMatrixView> blocks;
  std::vector<la::Op> ops;
  std::vector<ConstMatrixView> x;
  std::vector<MatrixView> y;
};

struct SolveLaunch {
  std::vector<ConstMatrixView> l;
  std::vector<MatrixView> b;
};

/// Trace label of an op's launches: op_name's views are string literals,
/// so the data is NUL-terminated and outlives every launch.
const char* label(OpKind kind) { return op_name(kind).data(); }

} // namespace

void* CpuBackend::do_allocate(std::size_t bytes) {
  return ::operator new(bytes, std::align_val_t{64});
}

void CpuBackend::do_deallocate(void* ptr, std::size_t bytes) {
  ::operator delete(ptr, bytes, std::align_val_t{64});
}

std::shared_ptr<CpuBackend> make_cpu_backend() {
  return std::shared_ptr<CpuBackend>(new CpuBackend());
}

void CpuBackend::gemm(batched::ExecutionContext& ctx, batched::StreamId stream, real_t alpha,
                      std::vector<ConstMatrixView> a, la::Op op_a,
                      std::vector<ConstMatrixView> b, la::Op op_b, real_t beta,
                      std::vector<MatrixView> c) {
  H2S_CHECK(a.size() == b.size() && a.size() == c.size(), "batched_gemm: batch size mismatch");
  auto st = std::make_shared<GemmLaunch>(GemmLaunch{std::move(a), std::move(b), std::move(c)});
  const auto batch = static_cast<index_t>(st->c.size());
  // Per-entry cost: the m x n x k flop product. Each entry goes through
  // la::gemm's shape dispatch, so large entries hit the blocked
  // pack-and-compute engine while sketching-sized ones stay on the naive
  // kernels — per-entry kernel selection as in the paper's CPU path.
  ctx.run_batch(
      stream, batch,
      [&g = *st, op_a](index_t i) {
        const auto ui = static_cast<size_t>(i);
        return g.c[ui].rows * g.c[ui].cols * la::op_cols(g.a[ui], op_a);
      },
      [st, alpha, op_a, op_b, beta](index_t i) {
        const auto ui = static_cast<size_t>(i);
        if (st->c[ui].empty()) return;
        la::gemm(alpha, st->a[ui], op_a, st->b[ui], op_b, beta, st->c[ui]);
      }, label(OpKind::Gemm));
}

void CpuBackend::gather_rows(batched::ExecutionContext& ctx, batched::StreamId stream,
                             std::vector<ConstMatrixView> src,
                             std::vector<std::vector<index_t>> rows,
                             std::vector<MatrixView> dst) {
  H2S_CHECK(src.size() == rows.size() && src.size() == dst.size(),
            "batched_gather_rows: batch size mismatch");
  auto st = std::make_shared<GatherLaunch>(
      GatherLaunch{std::move(src), std::move(rows), std::move(dst)});
  const auto batch = static_cast<index_t>(st->dst.size());
  ctx.run_batch(
      stream, batch,
      [&g = *st](index_t i) {
        const auto ui = static_cast<size_t>(i);
        return g.dst[ui].rows * g.dst[ui].cols;
      },
      [st](index_t i) {
        const auto ui = static_cast<size_t>(i);
        if (st->dst[ui].empty()) return;
        h2sketch::gather_rows(st->src[ui], st->rows[ui], st->dst[ui]);
      }, label(OpKind::GatherRows));
}

index_t CpuBackend::bsr_gemm(batched::ExecutionContext& ctx, batched::StreamId stream,
                             real_t alpha, std::vector<index_t> row_ptr,
                             std::vector<index_t> col, std::vector<ConstMatrixView> blocks,
                             std::vector<la::Op> ops, std::vector<ConstMatrixView> x,
                             std::vector<MatrixView> y) {
  H2S_CHECK(!row_ptr.empty(), "bsr_gemm: row_ptr must have at least one entry");
  const index_t rows = static_cast<index_t>(row_ptr.size()) - 1;
  H2S_CHECK(static_cast<index_t>(y.size()) == rows, "bsr_gemm: output count mismatch");
  H2S_CHECK(col.size() == blocks.size() && ops.size() == blocks.size(),
            "bsr_gemm: block count mismatch");

  index_t max_per_row = 0;
  for (index_t r = 0; r < rows; ++r)
    max_per_row = std::max(max_per_row,
                           row_ptr[static_cast<size_t>(r + 1)] - row_ptr[static_cast<size_t>(r)]);

  auto st = std::make_shared<BsrLaunch>(BsrLaunch{std::move(row_ptr), std::move(col),
                                                  std::move(blocks), std::move(ops), std::move(x),
                                                  std::move(y)});

  // Sub-launch k: the k-th block of each row (rows with fewer blocks skip).
  // Each y[r] is touched by exactly one batch entry per sub-launch, and the
  // sub-launches run FIFO on `stream`. The per-block products route through
  // la::gemm's engine dispatch, so wide sample blocks are computed by the
  // blocked GEMM engine.
  for (index_t k = 0; k < max_per_row; ++k) {
    ctx.run_batch(
        stream, rows,
        [&g = *st, k](index_t r) -> index_t {
          const index_t base = g.row_ptr[static_cast<size_t>(r)];
          if (base + k >= g.row_ptr[static_cast<size_t>(r + 1)]) return 0;
          const auto e = static_cast<size_t>(base + k);
          return g.blocks[e].rows * g.blocks[e].cols * g.x[static_cast<size_t>(g.col[e])].cols;
        },
        [st, alpha, k](index_t r) {
          const index_t base = st->row_ptr[static_cast<size_t>(r)];
          if (base + k >= st->row_ptr[static_cast<size_t>(r + 1)]) return;
          const auto e = static_cast<size_t>(base + k);
          const index_t c = st->col[e];
          if (st->y[static_cast<size_t>(r)].empty() || st->blocks[e].empty()) return;
          la::gemm(alpha, st->blocks[e], st->ops[e], st->x[static_cast<size_t>(c)],
                   la::Op::None, 1.0, st->y[static_cast<size_t>(r)]);
        }, label(OpKind::BsrGemm));
  }
  return max_per_row;
}

void CpuBackend::min_r_diag(batched::ExecutionContext& ctx, std::span<const ConstMatrixView> a,
                            std::span<real_t> out) {
  H2S_CHECK(a.size() == out.size(), "batched_min_r_diag: batch size mismatch");
  ctx.run_batch(static_cast<index_t>(a.size()), [&](index_t i) {
    const auto ui = static_cast<size_t>(i);
    out[ui] = la::min_abs_r_diag(a[ui]);
  }, label(OpKind::MinRDiag));
}

void CpuBackend::min_r_diag_update(batched::ExecutionContext& ctx,
                                   std::span<const MatrixView> work,
                                   std::span<const index_t> factored,
                                   std::span<std::vector<real_t>> tau, std::span<real_t> out) {
  H2S_CHECK(work.size() == out.size() && work.size() == factored.size() &&
                work.size() == tau.size(),
            "batched_min_r_diag_update: batch size mismatch");
  // Synchronous (the probe gates the adaptive loop) and cost-chunked: per
  // entry the continuation replays k reflectors over dn appended columns and
  // factors them, O(m k dn + m dn^2) — the dominant m-range spans orders of
  // magnitude across a level.
  ctx.run_batch(
      batched::kSampleStream, static_cast<index_t>(work.size()),
      [&](index_t i) {
        const auto& v = work[static_cast<size_t>(i)];
        const index_t dn = v.cols - factored[static_cast<size_t>(i)];
        return v.rows * dn * (std::min(v.rows, v.cols) + dn);
      },
      [&](index_t i) {
        const auto ui = static_cast<size_t>(i);
        const MatrixView& v = work[ui];
        if (v.rows == 0 || v.cols == 0) {
          out[ui] = 0.0;
          return;
        }
        la::householder_qr_continue(v, tau[ui], factored[ui]);
        const index_t kmax = std::min(v.rows, v.cols);
        real_t mn = std::abs(v(0, 0));
        for (index_t d = 1; d < kmax; ++d) mn = std::min(mn, std::abs(v(d, d)));
        out[ui] = mn;
      }, label(OpKind::MinRDiagUpdate));
  ctx.sync(batched::kSampleStream);
}

void CpuBackend::row_id(batched::ExecutionContext& ctx, std::span<const ConstMatrixView> y,
                        real_t abs_tol, index_t max_rank, std::span<la::RowID> out) {
  H2S_CHECK(y.size() == out.size(), "batched_row_id: batch size mismatch");
  // Synchronous (the IDs gate the level sweep), but cost-chunked: a level's
  // sample blocks differ in row count by orders of magnitude, and the ID is
  // O(m * n * min(m, n)) per entry.
  ctx.run_batch(
      batched::kSampleStream, static_cast<index_t>(y.size()),
      [&y](index_t i) {
        const auto& v = y[static_cast<size_t>(i)];
        return v.rows * v.cols * std::min(v.rows, v.cols);
      },
      [&](index_t i) {
        const auto ui = static_cast<size_t>(i);
        out[ui] = la::row_id(y[ui], abs_tol, max_rank);
      }, label(OpKind::RowId));
  ctx.sync(batched::kSampleStream);
}

void CpuBackend::fill_gaussian(batched::ExecutionContext& ctx, MatrixView a,
                               const GaussianStream& stream, std::uint64_t offset) {
  // An empty fill is no launch — mirrors run_batch's uniform batch <= 0
  // early-return so empty levels cost zero launches in either launch mode.
  if (a.empty()) return;
  // Parallelize across columns; element addressing keeps the result
  // order-independent. The caller's thread holds a kernel scope for the
  // whole monolithic launch (the pool workers inherit the process-wide
  // unlock).
  ctx.count_launch(1);
  KernelScope ks(this);
  parallel_for(a.cols, [&](index_t j) {
    for (index_t i = 0; i < a.rows; ++i)
      a(i, j) = stream(offset + static_cast<std::uint64_t>(j) * a.rows + i);
  });
}

void CpuBackend::fill_gaussian_blocks(batched::ExecutionContext& ctx,
                                      std::span<const MatrixView> blocks,
                                      const GaussianStream& stream,
                                      std::span<const std::uint64_t> offsets) {
  H2S_CHECK(blocks.size() == offsets.size(), "batched_fill_gaussian: batch size mismatch");
  ctx.run_batch(static_cast<index_t>(blocks.size()), [&](index_t i) {
    const auto u = static_cast<size_t>(i);
    h2sketch::fill_gaussian(blocks[u], stream, offsets[u]);
  }, label(OpKind::FillGaussian));
}

void CpuBackend::transpose(batched::ExecutionContext& ctx, std::span<const ConstMatrixView> in,
                           std::span<const MatrixView> out) {
  H2S_CHECK(in.size() == out.size(), "batched_transpose: batch size mismatch");
  ctx.run_batch(static_cast<index_t>(in.size()), [&](index_t idx) {
    const auto u = static_cast<size_t>(idx);
    copy_transposed(in[u], out[u]);
  }, label(OpKind::Transpose));
}

void CpuBackend::potrf(batched::ExecutionContext& ctx, batched::StreamId stream,
                       std::vector<MatrixView> a) {
  const auto batch = static_cast<index_t>(a.size());
  if (batch == 0) return;
  auto st = std::make_shared<std::vector<MatrixView>>(std::move(a));
  ctx.run_batch(
      stream, batch,
      [&v = *st](index_t i) {
        const index_t n = v[static_cast<size_t>(i)].rows;
        return n * n * n / 3 + 1;
      },
      [st](index_t i) {
        MatrixView& v = (*st)[static_cast<size_t>(i)];
        if (v.empty()) return;
        la::cholesky(v);
      }, label(OpKind::Potrf));
}

void CpuBackend::trsm_lower(batched::ExecutionContext& ctx, batched::StreamId stream,
                            TrsmSide side, la::Op op, std::vector<ConstMatrixView> l,
                            std::vector<MatrixView> b) {
  H2S_CHECK(l.size() == b.size(), "batched_trsm_lower: batch size mismatch");
  const auto batch = static_cast<index_t>(l.size());
  if (batch == 0) return;
  auto st = std::make_shared<SolveLaunch>(SolveLaunch{std::move(l), std::move(b)});
  ctx.run_batch(
      stream, batch,
      [&g = *st](index_t i) {
        const auto ui = static_cast<size_t>(i);
        const index_t n = g.l[ui].rows;
        const index_t nrhs = std::max(g.b[ui].rows, g.b[ui].cols);
        return n * n * nrhs + 1;
      },
      [st, side, op](index_t i) {
        const auto ui = static_cast<size_t>(i);
        if (st->l[ui].empty() || st->b[ui].empty()) return;
        if (side == TrsmSide::Left)
          la::trsm_lower_left(st->l[ui], op, st->b[ui]);
        else
          la::trsm_lower_right(st->l[ui], op, st->b[ui]);
      }, label(OpKind::TrsmLower));
}

void CpuBackend::generate(batched::ExecutionContext& ctx, batched::StreamId stream,
                          const kern::EntryGenerator& gen,
                          std::vector<kern::BlockRequest> requests) {
  auto st = std::make_shared<std::vector<kern::BlockRequest>>(std::move(requests));
  const auto batch = static_cast<index_t>(st->size());
  // Cost = entries evaluated; kernel evaluations dominate this launch.
  ctx.run_batch(
      stream, batch,
      [&reqs = *st](index_t i) {
        const auto& r = reqs[static_cast<size_t>(i)];
        return r.out.rows * r.out.cols;
      },
      [st, &gen](index_t i) {
        const auto& r = (*st)[static_cast<size_t>(i)];
        if (r.out.empty()) return;
        gen.generate_block(r.rows, r.cols, r.out);
      }, label(OpKind::EntryGen));
}

} // namespace h2sketch::backend
