// Shared structure learning of the tree-structured classifiers.
//
// TAN (tan.h) and the outlier density model (outlier.h) both fit a
// Chow-Liu tree: the maximum-weight spanning tree over the attributes,
// weighted by pairwise (for TAN, class-conditional) mutual information,
// with conditional tables along its edges. Everything they learn is a
// function of integer counts — per class bucket, each attribute's
// marginal and each attribute pair's joint — so PairCounts gathers all
// of them in one pass over the rows.
//
// The mutual information is computed from Laplace-smoothed counts. A
// smoothed cell starts at alpha (joint), alpha * k_j (marginal of i in
// the pair (i, j)) or alpha * k_i * k_j (the pair's total), and the
// definition adds 1.0 once per matching row. For a non-dyadic or
// subnormal alpha those additions round, so start + m is not the value
// m additions leave; mutual_information() replays them once per
// distinct start value into a table and reads every cell from it, which
// gives the per-row loop's bits for any alpha (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "models/dataset.h"

namespace prepare {

/// Parent of the root of a tree.
inline constexpr std::size_t kTreeRoot = static_cast<std::size_t>(-1);

class PairCounts {
 public:
  /// Counts `data` in one pass: into two buckets by label (bucket 1 is
  /// abnormal) with `by_class`, else into one; pair joints only with
  /// `pairs`. Checks every row against the alphabet.
  PairCounts(const LabeledDataset& data, bool by_class, bool pairs);

  /// Rows counted into `bucket`.
  std::size_t rows(std::size_t bucket) const { return rows_[bucket]; }

  /// Smoothed mutual information I(A_i; A_j) over the rows of `bucket`,
  /// for every pair: result[i][j] == result[j][i], diagonal 0. Each
  /// pair's sum runs over (vi, vj) in row-major order, skipping cells
  /// whose probability is 0. Requires `pairs`.
  std::vector<std::vector<double>> mutual_information(std::size_t bucket,
                                                      double alpha) const;

  /// Raw counts of attribute i in `bucket` given its tree parent:
  /// [parent value][value], row-major (one row of marginals when
  /// `parent` is kTreeRoot). Requires `pairs` unless i is the root.
  std::vector<double> conditional_table(std::size_t bucket, std::size_t i,
                                        std::size_t parent) const;

 private:
  /// Attribute i's value v is the symbol offset_[i] + v.
  std::uint32_t marginal(std::size_t bucket, std::size_t i,
                         std::size_t v) const {
    return marginal_[bucket * symbols_ + offset_[i] + v];
  }
  /// Joint cell of symbols a < b of two different attributes.
  std::size_t cell(std::size_t bucket, std::size_t a, std::size_t b) const {
    return (bucket * symbols_ + a) * symbols_ + b;
  }

  std::vector<std::size_t> alphabet_;
  /// First symbol of each attribute; symbols_ in all.
  std::vector<std::size_t> offset_;
  std::size_t symbols_ = 0;
  std::vector<std::size_t> rows_;
  /// [bucket][symbol].
  std::vector<std::uint32_t> marginal_;
  /// [bucket][symbol][symbol], the upper triangle of each attribute pair
  /// block used; empty without `pairs`.
  std::vector<std::uint32_t> joint_;
};

/// Maximum-weight spanning tree over the symmetric `weights` (Prim),
/// rooted at vertex 0: parents[v] is the tree vertex through which v was
/// attached, kTreeRoot for the root. Ties go to the lower index.
std::vector<std::size_t> max_spanning_tree(
    const std::vector<std::vector<double>>& weights);

}  // namespace prepare
