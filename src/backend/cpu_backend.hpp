#pragma once

#include "backend/device_backend.hpp"

/// \file cpu_backend.hpp
/// The host-pool backend: the batched primitive set executed on the
/// persistent work-stealing pool through ExecutionContext's cost-chunked
/// stream launches, each labelled with its op_name. Device memory is host
/// memory — allocation is a 64-byte-aligned heap allocation and every copy
/// is a memcpy.

namespace h2sketch::backend {

class CpuBackend : public DeviceBackend {
 public:
  std::string_view name() const override { return "cpu"; }
  bool is_device() const override { return false; }

  void gemm(batched::ExecutionContext& ctx, batched::StreamId stream, real_t alpha,
            std::vector<ConstMatrixView> a, la::Op op_a, std::vector<ConstMatrixView> b,
            la::Op op_b, real_t beta, std::vector<MatrixView> c) override;

  void gather_rows(batched::ExecutionContext& ctx, batched::StreamId stream,
                   std::vector<ConstMatrixView> src, std::vector<std::vector<index_t>> rows,
                   std::vector<MatrixView> dst) override;

  index_t bsr_gemm(batched::ExecutionContext& ctx, batched::StreamId stream, real_t alpha,
                   std::vector<index_t> row_ptr, std::vector<index_t> col,
                   std::vector<ConstMatrixView> blocks, std::vector<la::Op> ops,
                   std::vector<ConstMatrixView> x, std::vector<MatrixView> y) override;

  void min_r_diag(batched::ExecutionContext& ctx, std::span<const ConstMatrixView> a,
                  std::span<real_t> out) override;

  void min_r_diag_update(batched::ExecutionContext& ctx, std::span<const MatrixView> work,
                         std::span<const index_t> factored, std::span<std::vector<real_t>> tau,
                         std::span<real_t> out) override;

  void row_id(batched::ExecutionContext& ctx, std::span<const ConstMatrixView> y, real_t abs_tol,
              index_t max_rank, std::span<la::RowID> out) override;

  void fill_gaussian(batched::ExecutionContext& ctx, MatrixView a, const GaussianStream& stream,
                     std::uint64_t offset) override;

  void fill_gaussian_blocks(batched::ExecutionContext& ctx, std::span<const MatrixView> blocks,
                            const GaussianStream& stream,
                            std::span<const std::uint64_t> offsets) override;

  void transpose(batched::ExecutionContext& ctx, std::span<const ConstMatrixView> in,
                 std::span<const MatrixView> out) override;

  void potrf(batched::ExecutionContext& ctx, batched::StreamId stream,
             std::vector<MatrixView> a) override;

  void trsm_lower(batched::ExecutionContext& ctx, batched::StreamId stream, TrsmSide side,
                  la::Op op, std::vector<ConstMatrixView> l, std::vector<MatrixView> b) override;

  void generate(batched::ExecutionContext& ctx, batched::StreamId stream,
                const kern::EntryGenerator& gen,
                std::vector<kern::BlockRequest> requests) override;

 protected:
  CpuBackend() = default;

  void* do_allocate(std::size_t bytes) override;
  void do_deallocate(void* ptr, std::size_t bytes) override;

  friend std::shared_ptr<CpuBackend> make_cpu_backend();
};

/// Create a CpuBackend (backends are always shared: DeviceBuffers keep
/// their backend alive).
std::shared_ptr<CpuBackend> make_cpu_backend();

} // namespace h2sketch::backend
