#pragma once

#include <memory>
#include <vector>

#include "backend/block_arena.hpp"
#include "common/matrix.hpp"
#include "tree/matrix_tree.hpp"

/// \file h2_matrix.hpp
/// The H2 matrix data structure (paper §II-A, Figs. 1-3): nested cluster
/// bases stored level by level.
///
///  * Leaf nodes store explicit bases U_tau (n_tau x r_tau).
///  * Inner nodes store stacked transfer matrices [E_left; E_right]
///    ((r_left + r_right) x r_tau), implicitly defining
///    U_tau = diag(U_left, U_right) [E_left; E_right]  (Eq. (2)).
///  * Each admissible pair (s, t) at its level has a coupling matrix
///    B_{s,t} (r_s x r_t); each inadmissible leaf pair has a dense block.
///
/// The matrix is symmetric (V = U), so every block list stores **one block
/// per unordered pair**: the CSR lists and slot numbering keep every
/// (s, t) entry, but only an owner entry (s <= t) holds its block; a
/// mirror entry (s > t) has a 0 x 0 slot (no device bytes) and readers
/// apply the (t, s) slot transposed. All blocks are indexed in the cluster
/// tree's permuted position space, following the matrix tree's CSR lists.
///
/// Under weak admissibility (tree::Admissibility::weak()) this is exactly
/// the HSS layout the ULV solver (solver/ulv.hpp) consumes: every far row
/// holds only its sibling, so coupling slot 2p is B(2p, 2p+1) and slot
/// 2p+1 is its mirror, and the near field is the leaf diagonal (dense
/// slot i is leaf i).
///
/// Storage is **device-resident**: each per-level family of blocks lives
/// packed in one `backend::BlockArena` (one DeviceBuffer per level per
/// kind), so the matvec reads operands in place and steady-state per-apply
/// host<->device traffic is just the x upload and y download. Host-side
/// consumers (densify, io, entry evaluation) go through the arenas' lazy
/// `host(i)` mirrors. The matrix is move-only and pinned to the backend it
/// was built on (`execution_config()`).

namespace h2sketch::h2 {

class H2Matrix {
 public:
  std::shared_ptr<const tree::ClusterTree> tree; ///< cluster geometry
  tree::MatrixTree mtree;                        ///< block partitioning

  /// ranks[l][i]: basis rank of node i at level l.
  std::vector<std::vector<index_t>> ranks;

  /// basis[l], slot i: at the leaf level, U_i (cluster_size x rank). At
  /// inner levels, the stacked transfer [E_left; E_right]
  /// ((rank(l+1,2i) + rank(l+1,2i+1)) x rank(l,i)).
  std::vector<backend::BlockArena> basis;

  /// coupling[l], slot e: B for the e-th CSR entry of mtree.far[l]
  /// (0 x 0 for a mirror entry).
  std::vector<backend::BlockArena> coupling;

  /// Slot e: D for the e-th CSR entry of mtree.near_leaf (0 x 0 for a
  /// mirror entry).
  backend::BlockArena dense;

  /// skeleton[l][i]: permuted positions selected as skeleton indices for
  /// node i at level l (size == ranks[l][i]). Produced by sketching
  /// construction; interpolation-based constructions leave it empty.
  std::vector<std::vector<std::vector<index_t>>> skeleton;

  index_t size() const { return tree ? tree->num_points() : 0; }
  index_t num_levels() const { return tree ? tree->num_levels() : 0; }
  index_t leaf_level() const { return tree->leaf_level(); }

  index_t rank(index_t level, index_t node) const {
    return ranks[static_cast<size_t>(level)][static_cast<size_t>(node)];
  }

  /// Allocate empty per-level containers sized to the trees.
  void init_structure();

  /// Smallest/largest rank over all nodes at levels that carry far blocks
  /// (the paper's "rank range" in Table II).
  index_t min_rank() const;
  index_t max_rank() const;

  /// Logical payload bytes of U/E/B/D blocks plus skeleton index lists.
  std::size_t memory_bytes() const;

  /// Real device-resident bytes across all arenas (alignment padding
  /// included) — what the serving cache budgets and eviction frees.
  std::size_t device_bytes() const;

  /// Backend the arenas live on; null when nothing is allocated yet.
  std::shared_ptr<backend::DeviceBackend> storage_backend() const;

  /// Backend the arenas live on (from the first allocated arena; the
  /// process default if nothing is allocated yet). Contexts applying this
  /// matrix must share its device heap.
  backend::ExecutionConfig execution_config() const;

  /// y = A * x through h2_matvec (h2_matvec.hpp).
  void matvec(batched::ExecutionContext& ctx, ConstMatrixView x, MatrixView y) const;

  /// Structural consistency: every dimension implied by ranks, cluster
  /// sizes and CSR lists must match, and every mirror slot is 0 x 0 with
  /// its owner present. Throws on violation.
  void validate() const;
};

/// The storage rule: entry (s, t) of a block list is a mirror of (t, s).
inline bool is_mirror(index_t s, index_t t) { return s > t; }

/// Calls fn(e, s, t) for every owner entry (s <= t) of `list`, in CSR
/// order: the entries whose blocks a producer generates.
template <typename Fn>
void for_each_owner(const tree::LevelBlockList& list, Fn&& fn) {
  for (index_t s = 0; s + 1 < static_cast<index_t>(list.row_ptr.size()); ++s)
    for (index_t e = list.row_ptr[static_cast<size_t>(s)];
         e < list.row_ptr[static_cast<size_t>(s + 1)]; ++e)
      if (const index_t t = list.col[static_cast<size_t>(e)]; !is_mirror(s, t)) fn(e, s, t);
}

/// Every entry's operand of one block list in CSR order, for bsr_gemm: the
/// entry's own slot of `arena` with Op::None, or for a mirror entry its
/// owner's slot with Op::Trans.
struct BsrOperands {
  std::vector<ConstMatrixView> blocks;
  std::vector<la::Op> ops;
};
BsrOperands bsr_operands(const tree::LevelBlockList& list, const backend::BlockArena& arena);

} // namespace h2sketch::h2
