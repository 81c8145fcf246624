#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "backend/fwd.hpp"
#include "common/matrix.hpp"
#include "common/random.hpp"
#include "kernels/entry_gen.hpp"
#include "la/blas.hpp"
#include "la/id.hpp"

/// \file device_backend.hpp
/// The pluggable device-backend seam of the library (paper §IV-A).
///
/// A `DeviceBackend` owns the two halves of what a GPU runtime provides:
///
///  1. **A device memory model** — `DeviceBuffer` allocation from a
///     backend-owned heap, explicit host↔device and device↔device copies,
///     and a zero-fill primitive (the cudaMalloc / cudaMemcpy / cudaMemset
///     analogues). On `CpuBackend` device memory *is* host memory; on
///     `SimulatedDevice` it is a separate heap that host code must not
///     dereference directly.
///
///  2. **The batched primitive set** — every batched operation the H2
///     construction, matvec and ULV solver launch (gemm, gather_rows,
///     bsr_gemm, min-R-diag QR probe, row ID, Gaussian fill, transpose,
///     potrf, trsm, kernel entry generation) as named, dispatchable virtual
///     ops. Call sites invoke them directly as `ctx.device().<op>(ctx, ...)`,
///     so a CUDA/HIP backend drops in by overriding ops without touching
///     any call site. Each op issues its launches through
///     `ExecutionContext::run_batch`, labelled with `op_name` of its kind.
///
/// Compute that touches device memory may only run inside a **kernel
/// scope** (`kernel_scope()`): the RAII handle brackets the body of a
/// launch, a monolithic sampler product, or an internal copy. On
/// `SimulatedDevice` with poisoning enabled, device pages are inaccessible
/// outside kernel scopes, so a stray host-side dereference of marshaled
/// device data faults instead of silently working — "a GPU could run
/// behind this API" becomes a tested invariant.

namespace h2sketch::backend {

/// Launch granularity: one launch per batch entry (the per-block code path
/// a non-batched implementation would use) vs one launch per batch (the
/// GPU-shaped path).
enum class LaunchMode {
  Naive,  ///< per-block execution: O(#blocks) kernel launches
  Batched ///< one launch per level per operation: O(Csp log N) launches
};

/// Which side of the unknown the triangular matrix sits on in a trsm.
enum class TrsmSide { Left, Right };

/// The named batched primitives a backend dispatches. One entry per virtual
/// op on DeviceBackend; `op_name` / `all_ops` let tests and tools iterate
/// the dispatch table without knowing the ops ahead of time.
enum class OpKind {
  Gemm,         ///< non-uniform batched C = alpha op(A) op(B) + beta C
  GatherRows,   ///< dst[i] = src[i](rows[i], :) — the paper's batchedShrink
  BsrGemm,      ///< block-sparse-row accumulation, <= Csp sub-launches
  MinRDiag,       ///< min |diag(R)| QR probe (adaptive convergence test)
  MinRDiagUpdate, ///< incremental MinRDiag over appended sample columns
  RowId,        ///< batched row interpolative decomposition
  FillGaussian, ///< counter-based batched Gaussian generation
  Transpose,    ///< batched out[i] = in[i]^T
  Potrf,        ///< batched in-place lower Cholesky
  TrsmLower,    ///< batched lower-triangular solve (left/right)
  EntryGen,     ///< batched kernel entry generation (batchedGen)
};

/// Stable primitive name for logs, benches and registry-driven tests; also
/// the trace label of the op's launches. Always a string literal.
std::string_view op_name(OpKind kind);

/// Every op in the dispatch table, in declaration order.
std::span<const OpKind> all_ops();

/// Monotonic counters a backend records about its memory traffic. All
/// byte counts are cumulative since construction.
struct DeviceStatsSnapshot {
  std::uint64_t bytes_to_device = 0; ///< explicit host → device copies
  std::uint64_t bytes_to_host = 0;   ///< explicit device → host copies
  std::uint64_t bytes_on_device = 0; ///< device → device copies + zero fills
  std::uint64_t allocations = 0;     ///< DeviceBuffer allocations served
  std::uint64_t deallocations = 0;
  std::uint64_t live_bytes = 0; ///< currently allocated device bytes
  std::uint64_t peak_bytes = 0; ///< high-water mark of live_bytes
};

class DeviceBackend;

/// A runnable backend configuration: the device backend that owns memory
/// and primitive implementations, plus the launch-granularity mode. The
/// registry (backend/registry.hpp) maps names ("cpu", "naive",
/// "simdevice") to these.
struct ExecutionConfig {
  std::shared_ptr<DeviceBackend> device;
  LaunchMode mode = LaunchMode::Batched;
};

/// Move-only RAII handle to one device allocation. Holds shared ownership
/// of its backend, so buffers may outlive the ExecutionContext that
/// allocated them (e.g. ULV factors stored in solver objects).
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(std::shared_ptr<DeviceBackend> backend, void* ptr, std::size_t bytes)
      : backend_(std::move(backend)), ptr_(ptr), bytes_(bytes) {}
  ~DeviceBuffer() { release(); }

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  DeviceBuffer(DeviceBuffer&& o) noexcept
      : backend_(std::move(o.backend_)), ptr_(std::exchange(o.ptr_, nullptr)),
        bytes_(std::exchange(o.bytes_, 0)) {}
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      release();
      backend_ = std::move(o.backend_);
      ptr_ = std::exchange(o.ptr_, nullptr);
      bytes_ = std::exchange(o.bytes_, 0);
    }
    return *this;
  }

  /// Device address. On SimulatedDevice this pointer must not be
  /// dereferenced by host code outside a kernel scope.
  void* data() const { return ptr_; }
  std::size_t bytes() const { return bytes_; }
  bool empty() const { return ptr_ == nullptr; }
  DeviceBackend* backend() const { return backend_.get(); }
  const std::shared_ptr<DeviceBackend>& backend_ptr() const { return backend_; }

  void release();

 private:
  std::shared_ptr<DeviceBackend> backend_;
  void* ptr_ = nullptr;
  std::size_t bytes_ = 0;
};

/// RAII bracket around compute that touches device memory (the body of a
/// kernel launch, a monolithic sampler product, an internal copy). On
/// backends with poisoning, device pages are accessible exactly while at
/// least one scope is alive.
class KernelScope {
 public:
  explicit KernelScope(const DeviceBackend* b);
  ~KernelScope();
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  const DeviceBackend* b_;
};

/// Abstract device backend: memory model + batched-primitive dispatch
/// table. Always create concrete backends through their factory functions
/// (make_cpu_backend / make_sim_device) or the registry — DeviceBuffers
/// keep their backend alive through shared ownership.
class DeviceBackend : public std::enable_shared_from_this<DeviceBackend> {
 public:
  virtual ~DeviceBackend() = default;

  virtual std::string_view name() const = 0;
  /// True when device buffers live in a separate address space (host code
  /// must marshal through explicit copies).
  virtual bool is_device() const = 0;

  /// The backend whose heap this backend's allocations physically live in.
  /// Identity for concrete backends; decorators (FaultInjectingDevice)
  /// forward to the wrapped backend, so affinity checks ("may this context
  /// touch these panels?") compare memory owners instead of raw backend
  /// pointers — a factor built through a decorator stays solvable through
  /// the undecorated base (the graceful-degradation path).
  virtual const DeviceBackend* memory_owner() const { return this; }

  // --- memory model -------------------------------------------------------

  /// Allocate `bytes` of device memory (64-byte aligned).
  DeviceBuffer allocate(std::size_t bytes);

  /// Explicit copies across the marshaling boundary. Byte counts feed the
  /// ablation benchmark; SimulatedDevice additionally unlocks its heap for
  /// the duration of the copy.
  void copy_to_device(void* dst_dev, const void* src_host, std::size_t bytes);
  void copy_to_host(void* dst_host, const void* src_dev, std::size_t bytes);
  void copy_on_device(void* dst_dev, const void* src_dev, std::size_t bytes);
  /// Device memset-to-zero (cudaMemset analogue).
  void fill_zero(void* dst_dev, std::size_t bytes);

  /// Column-wise strided-view forms of the copies above.
  void upload(ConstMatrixView host, MatrixView dev);
  void download(ConstMatrixView dev, MatrixView host);
  void copy_device(ConstMatrixView src, MatrixView dst);
  void fill_zero(MatrixView dev);

  /// Enter/leave compute that touches device memory.
  KernelScope kernel_scope() const { return KernelScope(this); }

  DeviceStatsSnapshot stats() const;

  // --- batched primitive dispatch table -----------------------------------
  //
  // Ops taking a `stream` are asynchronous: view vectors are moved into the
  // launch, and the buffers they reference must stay alive until the stream
  // is synced. Launches on one stream run FIFO, so a pipeline on one stream
  // needs no intermediate barriers. Ops without a stream complete on
  // return. Every op is one launch in Batched mode (bsr_gemm: one per
  // sub-launch), cost-chunked by per-entry flop estimates so a level mixing
  // a few large nodes with many small ones load-balances. Empty entries are
  // skipped.

  /// Non-uniform batched gemm (the MAGMA vbatched stand-in):
  /// c[i] = alpha * op(a[i]) * op(b[i]) + beta * c[i], entries of any shape.
  virtual void gemm(batched::ExecutionContext& ctx, batched::StreamId stream, real_t alpha,
                    std::vector<ConstMatrixView> a, la::Op op_a, std::vector<ConstMatrixView> b,
                    la::Op op_b, real_t beta, std::vector<MatrixView> c) = 0;

  /// dst[i] = src[i](rows[i], :) — the paper's batchedShrink, which
  /// restricts samples to the skeleton rows the ID selected when sweeping to
  /// the next level.
  virtual void gather_rows(batched::ExecutionContext& ctx, batched::StreamId stream,
                           std::vector<ConstMatrixView> src,
                           std::vector<std::vector<index_t>> rows,
                           std::vector<MatrixView> dst) = 0;

  /// Block-sparse-row product, the paper's batchedBSRGemm (§IV-A): given a
  /// CSR block pattern over the nodes of a level,
  ///     y[r] += alpha * sum_j op_e(blocks[e]) * x[col[e]],  e = row_ptr[r]+j,
  /// with op_e = ops[e] (one per block). Symmetric operators store one
  /// block per unordered pair, so a mirror entry passes its owner's block
  /// with Op::Trans.
  /// Split into at most Csp sub-launches, all on `stream`: sub-launch k
  /// handles the k-th block of every row, so each y[r] is written by at
  /// most one entry per launch (no atomics) and stream FIFO order makes the
  /// accumulation race-free without an internal barrier. Since Csp is a
  /// constant, a level costs O(Csp) launches. Returns the number of
  /// sub-launches (== max blocks per row).
  virtual index_t bsr_gemm(batched::ExecutionContext& ctx, batched::StreamId stream, real_t alpha,
                           std::vector<index_t> row_ptr, std::vector<index_t> col,
                           std::vector<ConstMatrixView> blocks, std::vector<la::Op> ops,
                           std::vector<ConstMatrixView> x, std::vector<MatrixView> y) = 0;

  /// QR probe (the KBLAS batched-QR stand-in): out[i] = min |diag(R)| of the
  /// unpivoted QR of a[i]. The adaptive construction only needs the smallest
  /// diagonal entry per node to decide convergence (paper §III-B).
  virtual void min_r_diag(batched::ExecutionContext& ctx, std::span<const ConstMatrixView> a,
                          std::span<real_t> out) = 0;

  /// Incremental MinRDiag: work[i] holds a Householder-factored prefix of
  /// factored[i] columns (reflector scalars in tau[i]) followed by freshly
  /// appended sample columns. Extends the factorization in place over the
  /// new columns (tau[i] grows) and writes min |diag(R)| to out[i] —
  /// bitwise identical to min_r_diag of the full panel, at
  /// O(m k dn + m dn^2) instead of O(m d^2) per probe.
  virtual void min_r_diag_update(batched::ExecutionContext& ctx, std::span<const MatrixView> work,
                                 std::span<const index_t> factored,
                                 std::span<std::vector<real_t>> tau, std::span<real_t> out) = 0;

  /// Batched row ID (the paper's batchedID): out[i] = row interpolative
  /// decomposition of y[i] at absolute tolerance abs_tol, rank-capped by
  /// max_rank when positive. The GPU path transposes each sample block and
  /// runs a column-pivoted QR; each entry runs the same path here.
  virtual void row_id(batched::ExecutionContext& ctx, std::span<const ConstMatrixView> y,
                      real_t abs_tol, index_t max_rank, std::span<la::RowID> out) = 0;

  /// Gaussian fill (the paper's batchedRand) of one matrix from a
  /// counter-based stream starting at `offset`: one launch regardless of
  /// size, results independent of the parallelization and of the backend.
  virtual void fill_gaussian(batched::ExecutionContext& ctx, MatrixView a,
                             const GaussianStream& stream, std::uint64_t offset) = 0;

  /// Fill each block from the stream at its own offset; one launch total.
  virtual void fill_gaussian_blocks(batched::ExecutionContext& ctx,
                                    std::span<const MatrixView> blocks,
                                    const GaussianStream& stream,
                                    std::span<const std::uint64_t> offsets) = 0;

  /// out[i] = in[i]^T (out[i] must be cols x rows). The GPU path transposes
  /// sample blocks before the pivoted QR for coalesced access (§IV-A).
  virtual void transpose(batched::ExecutionContext& ctx, std::span<const ConstMatrixView> in,
                         std::span<const MatrixView> out) = 0;

  /// In-place lower Cholesky a[i] = L_i L_i^T (strict upper triangle left
  /// untouched). Throws at sync on a non-positive pivot in any entry.
  virtual void potrf(batched::ExecutionContext& ctx, batched::StreamId stream,
                     std::vector<MatrixView> a) = 0;

  /// Solve op(L_i) X_i = B_i (Left) or X_i op(L_i) = B_i (Right) in place
  /// for lower-triangular L_i.
  virtual void trsm_lower(batched::ExecutionContext& ctx, batched::StreamId stream, TrsmSide side,
                          la::Op op, std::vector<ConstMatrixView> l,
                          std::vector<MatrixView> b) = 0;

  /// Batched entry generation (the paper's batchedGen): out = K(rows, cols)
  /// for every request, in one launch (Batched) or one per block (Naive).
  /// The index sets and output buffers the requests reference must stay
  /// alive until the stream is synced.
  virtual void generate(batched::ExecutionContext& ctx, batched::StreamId stream,
                        const kern::EntryGenerator& gen,
                        std::vector<kern::BlockRequest> requests) = 0;

 protected:
  DeviceBackend() = default;

  // Byte-level hooks a concrete backend implements. The public wrappers
  // above add stats accounting (and, via kernel scopes, poisoning).
  virtual void* do_allocate(std::size_t bytes) = 0;
  virtual void do_deallocate(void* ptr, std::size_t bytes) = 0;

  /// Called by every public copy/fill entry point before the transfer runs
  /// — the injection point a decorator overrides to simulate failed
  /// cudaMemcpy/cudaMemset calls. No-op by default.
  virtual void on_transfer(std::size_t bytes) const { (void)bytes; }

  // Protected-member passthroughs for decorator backends: a sibling
  // subclass cannot call another instance's protected virtuals directly,
  // but any DeviceBackend subclass can route through these statics.
  static void* forward_allocate(DeviceBackend& b, std::size_t bytes) {
    return b.do_allocate(bytes);
  }
  static void forward_deallocate(DeviceBackend& b, void* ptr, std::size_t bytes) {
    b.do_deallocate(ptr, bytes);
  }
  static void forward_kernel_enter(const DeviceBackend& b) { b.kernel_enter(); }
  static void forward_kernel_exit(const DeviceBackend& b) { b.kernel_exit(); }

  friend class KernelScope;
  friend class DeviceBuffer;
  /// Poisoning hooks; no-ops by default.
  virtual void kernel_enter() const {}
  virtual void kernel_exit() const {}

 private:
  mutable std::atomic<std::uint64_t> bytes_to_device_{0};
  mutable std::atomic<std::uint64_t> bytes_to_host_{0};
  mutable std::atomic<std::uint64_t> bytes_on_device_{0};
  mutable std::atomic<std::uint64_t> allocations_{0};
  mutable std::atomic<std::uint64_t> deallocations_{0};
  mutable std::atomic<std::uint64_t> live_bytes_{0};
  mutable std::atomic<std::uint64_t> peak_bytes_{0};
};

} // namespace h2sketch::backend
