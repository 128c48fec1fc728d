// Order-n Markov value prediction for every attribute of one component
// (paper Section II-B, Fig. 2).
//
// Each attribute has its own order-n chain over its discretized values:
// the combined state is the tuple of the last `order` symbols, and each
// step maps (x1..xn) -> (x2..xn, c) with probability P(c | x1..xn).
// Order 1 is the simple chain of the authors' earlier ALERT work (the
// Fig. 11 baseline), order 2 the paper's 2-dependent model; higher
// orders capture longer patterns but need alphabet^order transition rows
// of training data (the `abl_markov_n` bench). A k-step prediction pushes
// the one-hot current state k steps and marginalizes the result onto the
// newest symbol.
//
// The bank runs that look-ahead for all attributes at once. Attributes
// are packed 16 to a lane group; the smoothed transition rows are stored
// lane-major, P[state][next][lane], each 128-byte row on a cache line,
// so one step loads a source state's 16 lanes once and multiply-adds
// them into several destination states held in registers, at the
// widest vector width the CPU supports (markov_kernel.h). The marginal
// onto the newest symbol, and its mode, are read the same way, 16 lanes
// at once; the per-step path keeps only the modes. Every context
// index uses the widest alphabet of the bank as its radix; narrower
// alphabets and the unused lanes of the last group are padded with
// all-zero rows that no state ever reaches. See DESIGN.md §11 for why
// the result is bit-identical to a per-attribute scalar push, at every
// vector width.
#pragma once

#include <cstddef>
#include <vector>

#include "common/analyze_annotations.h"
#include "common/units.h"
#include "models/distribution.h"
#include "models/markov_kernel.h"

namespace prepare {

class MarkovBank {
 public:
  /// Transition-row statistics of one attribute for model introspection
  /// (obs/model_introspect.h): how spread the learned rows are and how
  /// much of the state space training actually visited. Entropy is in
  /// nats over the *smoothed* rows, restricted to rows with at least one
  /// observed transition (a never-visited row is uniform by smoothing
  /// and would drown the signal).
  struct RowStats {
    std::size_t rows = 0;           ///< transition rows in the model
    std::size_t occupied_rows = 0;  ///< rows with observed transitions
    double entropy_sum = 0.0;       ///< over occupied rows
    double entropy_max = 0.0;       ///< over occupied rows
    double count_total = 0.0;       ///< raw transition observations
  };

  /// `order` >= 1 context length; one attribute per `alphabets` entry
  /// (at least one), each >= 2 symbols; `alpha` > 0 is the Laplace
  /// smoothing pseudo-count. With `sequences`, the bank starts as
  /// train(sequences) leaves it; without, every row is uniform.
  MarkovBank(std::size_t order, std::vector<std::size_t> alphabets,
             double alpha = 0.5,
             const std::vector<std::vector<std::size_t>>& sequences = {});

  /// Batch-trains every attribute on its symbol sequence
  /// (`sequences[i]` for attribute i, all of one length): resets the
  /// counts and leaves the context at the end of the sequences.
  void train(const std::vector<std::vector<std::size_t>>& sequences);

  /// Feeds one runtime row, one symbol per attribute. With `learn` the
  /// transition counts are updated too (the paper's periodic model
  /// update); without, only the context advances.
  void observe(const std::vector<std::size_t>& row, bool learn);

  /// Writes attribute i's value distribution `steps` (>= 1) intervals
  /// ahead into (*dists)[i], and its mode into (*mode_row)[i]: the
  /// lowest symbol of the largest probability, equal to
  /// (*dists)[i].mode(). With a non-null `modes`, also writes the mode
  /// at every step s + 1 = 1..steps into (*modes)[s * attributes() + i],
  /// equal to predict(s + 1)[i].mode(). Requires ready().
  PREPARE_HOT void predict_into(TickIndex steps,
                                std::vector<Distribution>* dists,
                                std::vector<std::size_t>* mode_row,
                                std::vector<std::size_t>* modes) const;
  /// The distributions of predict_into(), into a fresh vector.
  std::vector<Distribution> predict(TickIndex steps) const;

  /// Whether `order` rows have been seen, so every context is full.
  bool ready() const { return seen_ == order_; }
  std::size_t order() const { return order_; }
  std::size_t attributes() const { return alphabets_.size(); }
  std::size_t alphabet(std::size_t attribute) const;

  /// Smoothed P(next | context) of one attribute; `context` holds
  /// `order` symbols, oldest first.
  Probability transition(std::size_t attribute,
                         const std::vector<std::size_t>& context,
                         BinIndex next) const;

  /// Row statistics of one attribute's transition table. A row's
  /// entropy is computed again only when the row changed since the
  /// previous call.
  RowStats row_stats(std::size_t attribute) const;

 private:
  using LaneRow = markov_kernel::LaneRow;
  static constexpr std::size_t kLanes = markov_kernel::kLanes;
  /// Bound on width^(order+1), the cells of one lane's table.
  static constexpr std::size_t kMaxCellsPerLane = std::size_t{1} << 16;

  /// Transition rows of one attribute: alphabet^order.
  std::size_t rows(std::size_t attribute) const;
  /// Context index (radix width_) of the attribute-radix row `row`.
  std::size_t padded_context(std::size_t row, std::size_t alphabet) const;
  /// Index of count cell (attribute, context, next).
  std::size_t count_index(std::size_t attribute, std::size_t context,
                          std::size_t next) const {
    return (attribute * states_ + context) * width_ + next;
  }
  /// The stored count total of row (attribute, context).
  double row_total(std::size_t attribute, std::size_t context) const;
  /// Stored smoothed P(next | context) of one attribute.
  double probability(std::size_t attribute, std::size_t context,
                     std::size_t next) const;
  /// Recomputes one attribute's smoothed row P(· | context) from its
  /// counts.
  void rebuild_row(std::size_t attribute, std::size_t context);
  /// rebuild_row() for every attribute's every row.
  void rebuild_rows();
  /// Writes the lane group's marginal distributions of state vector `v`
  /// to out[0..lanes) when `fill`, and their modes to modes[0..lanes).
  /// Runs markov_kernel::marginal; where it declines,
  /// Distribution::normalize() of the sums it left, which uses `out` as
  /// storage even without `fill`.
  void marginalize(const LaneRow* v, std::size_t first, std::size_t lanes,
                   bool fill, Distribution* out, std::size_t* modes) const;

  std::size_t order_;
  std::vector<std::size_t> alphabets_;
  double alpha_;
  std::size_t width_ = 0;   ///< widest alphabet: the radix of contexts
  std::size_t states_ = 1;  ///< width_^order
  std::size_t groups_ = 0;  ///< lane groups of kLanes attributes
  /// Raw transition counts, [attribute][context][next].
  std::vector<double> counts_;
  /// Each row's count total, [attribute][context]: train() sets it and a
  /// learning observe() raises it by 1.0. Counts are whole numbers, so
  /// it equals the row's summed counts in any order.
  std::vector<double> row_totals_;
  /// Smoothed transition rows, [group][context][next].
  std::vector<LaneRow> probs_;
  /// Per-attribute rolling context index (radix width_).
  std::vector<std::size_t> context_;
  std::size_t seen_ = 0;  ///< rows observed, saturating at order_
  /// The widest step kernel this CPU runs, picked at construction.
  markov_kernel::Kernel kernel_;
  /// Per-predict ping-pong state vectors of one lane group, [context],
  /// and the marginal of one, [symbol], sized in the constructor so the
  /// look-ahead allocates nothing.
  mutable std::vector<LaneRow> scratch_v_, scratch_next_, scratch_p_;
  /// row_stats()'s entropy of each occupied row and the count total it
  /// was computed at, [attribute][context]; empty until the first call
  /// after construction or train(). observe() raises the total of every
  /// row it counts into by exactly 1.0, so a row whose total matches is
  /// unchanged.
  struct RowEntropy {
    double total = -1.0;
    double entropy = 0.0;
  };
  mutable std::vector<RowEntropy> row_entropy_;
};

}  // namespace prepare
