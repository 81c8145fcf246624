#include "h2/h2_entry_eval.hpp"

namespace h2sketch::h2 {

H2EntryGenerator::H2EntryGenerator(const H2Matrix& a) : a_(&a) {
  const tree::ClusterTree& t = *a.tree;
  const index_t leaf = t.leaf_level();
  leaf_of_.resize(static_cast<size_t>(t.num_points()));
  for (index_t i = 0; i < t.nodes_at(leaf); ++i)
    for (index_t p = t.begin(leaf, i); p < t.end(leaf, i); ++p)
      leaf_of_[static_cast<size_t>(p)] = i;
}

std::vector<std::vector<real_t>> H2EntryGenerator::basis_row_chain(index_t p) const {
  const tree::ClusterTree& t = *a_->tree;
  const index_t leaf = t.leaf_level();
  std::vector<std::vector<real_t>> chain(static_cast<size_t>(leaf + 1));

  index_t node = leaf_of_[static_cast<size_t>(p)];
  // Leaf row: U(p_local, :).
  {
    const Matrix& u = a_->basis[static_cast<size_t>(leaf)].host(node);
    const index_t r = a_->rank(leaf, node);
    auto& row = chain[static_cast<size_t>(leaf)];
    row.resize(static_cast<size_t>(r));
    const index_t loc = p - t.begin(leaf, node);
    for (index_t k = 0; k < r; ++k) row[static_cast<size_t>(k)] = u(loc, k);
  }
  // Climb: row_l = row_{l+1} * E_child-block of the parent's stacked transfer.
  for (index_t l = leaf - 1; l >= 0; --l) {
    const index_t child = node;
    node = child / 2;
    const Matrix& tr = a_->basis[static_cast<size_t>(l)].host(node);
    const index_t r_parent = a_->rank(l, node);
    const index_t r_left = a_->rank(l + 1, 2 * node);
    const index_t row0 = (child % 2 == 0) ? 0 : r_left;
    const auto& prev = chain[static_cast<size_t>(l + 1)];
    auto& row = chain[static_cast<size_t>(l)];
    row.assign(static_cast<size_t>(r_parent), 0.0);
    for (index_t k = 0; k < r_parent; ++k) {
      real_t s = 0.0;
      for (index_t m = 0; m < static_cast<index_t>(prev.size()); ++m)
        s += prev[static_cast<size_t>(m)] * tr(row0 + m, k);
      row[static_cast<size_t>(k)] = s;
    }
  }
  return chain;
}

real_t H2EntryGenerator::entry(index_t i, index_t j) const {
  std::vector<index_t> one_i = {i}, one_j = {j};
  Matrix out(1, 1);
  generate_block(one_i, one_j, out.view());
  return out(0, 0);
}

void H2EntryGenerator::generate_block(const_index_span rows, const_index_span cols,
                                      MatrixView out) const {
  H2S_CHECK(out.rows == static_cast<index_t>(rows.size()) &&
                out.cols == static_cast<index_t>(cols.size()),
            "generate_block: shape mismatch");
  const tree::ClusterTree& t = *a_->tree;
  const index_t leaf = t.leaf_level();

  // Cache the basis-row chains of every requested row and column position.
  std::vector<std::vector<std::vector<real_t>>> rchain, cchain;
  rchain.reserve(rows.size());
  cchain.reserve(cols.size());
  for (index_t i : rows) rchain.push_back(basis_row_chain(i));
  for (index_t j : cols) cchain.push_back(basis_row_chain(j));

  for (index_t jj = 0; jj < out.cols; ++jj) {
    const index_t j = cols[static_cast<size_t>(jj)];
    const index_t jleaf = leaf_of_[static_cast<size_t>(j)];
    for (index_t ii = 0; ii < out.rows; ++ii) {
      const index_t i = rows[static_cast<size_t>(ii)];
      const index_t ileaf = leaf_of_[static_cast<size_t>(i)];

      // Near-field dense block? A mirror entry reads its owner transposed.
      const auto& near = a_->mtree.near_leaf;
      if (const index_t ne = near.find(ileaf, jleaf); ne >= 0) {
        const index_t pi = i - t.begin(leaf, ileaf), pj = j - t.begin(leaf, jleaf);
        out(ii, jj) = is_mirror(ileaf, jleaf) ? a_->dense.host(near.find(jleaf, ileaf))(pj, pi)
                                              : a_->dense.host(ne)(pi, pj);
        continue;
      }
      // Otherwise the pair meets a coupling block at some level: B_{s,c},
      // or B_{c,s}^T for a mirror entry (same summation order either way).
      real_t val = 0.0;
      bool found = false;
      index_t s = ileaf, c = jleaf;
      for (index_t l = leaf; l >= 0; --l) {
        const auto& far = a_->mtree.far[static_cast<size_t>(l)];
        const index_t fe = far.find(s, c);
        if (fe >= 0) {
          const bool mirror = is_mirror(s, c);
          const Matrix& b = a_->coupling[static_cast<size_t>(l)].host(mirror ? far.find(c, s) : fe);
          const index_t br = mirror ? b.cols() : b.rows(), bc = mirror ? b.rows() : b.cols();
          const auto& ur = rchain[static_cast<size_t>(ii)][static_cast<size_t>(l)];
          const auto& vc = cchain[static_cast<size_t>(jj)][static_cast<size_t>(l)];
          for (index_t q = 0; q < bc; ++q) {
            real_t s_acc = 0.0;
            for (index_t p = 0; p < br; ++p)
              s_acc += ur[static_cast<size_t>(p)] * (mirror ? b(q, p) : b(p, q));
            val += s_acc * vc[static_cast<size_t>(q)];
          }
          found = true;
          break;
        }
        s /= 2;
        c /= 2;
      }
      H2S_CHECK(found, "H2 entry (" << i << "," << j << ") not covered by any block");
      out(ii, jj) = val;
    }
  }
  record_entries(out.rows * out.cols);
}

} // namespace h2sketch::h2
