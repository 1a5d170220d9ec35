// Independent reference for the benchmark's output checks.
//
// Recomputes, from nothing but the unweighted edge lists and the raw
// feature rows, what NAI inference must answer for a node:
//   * Eq. 1 normalization Â = D̃^(γ-1) (A + I) D̃^(-γ), D̃ = diag(d + 1);
//   * full-graph propagation X^(l) = Â X^(l-1), accumulated in double;
//   * the rank-1 stationary rows X^(∞)_i = (d_i+1)^γ · g with
//     g = Σ_j (d_j+1)^(1-γ) X_j / (2m + n) (Eqs. 6-7);
//   * the relative NAPd exit rule (Eqs. 8-9): the first depth l in
//     [T_min, T_max) with ||X^(l)_i − X^(∞)_i|| / ||X^(∞)_i|| < T_s, else
//     T_max;
// then classifies the exit-depth rows with the program's own classifier
// bank (ClassifierStack::Logits — the model is an input, not what is
// checked). Nothing here calls the program's normalization, propagation,
// stationary or NAP code.
#ifndef NAI_BENCHMARK_REFERENCE_H_
#define NAI_BENCHMARK_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/classifier_stack.h"

namespace naibench {

/// An undirected simple graph as symmetric CSR without self-loops, plus
/// dense row-major features. Borrowed pointers; the owner outlives it.
struct RefInput {
  std::int64_t num_nodes = 0;
  const std::int64_t* row_ptr = nullptr;  ///< num_nodes + 1 entries
  const std::int32_t* col_idx = nullptr;  ///< neighbors; values ignored
  const float* features = nullptr;        ///< num_nodes x dim
  std::size_t dim = 0;
  float gamma = 0.5f;
};

/// The NAPd knobs of one inference configuration.
struct NapRule {
  float threshold = 0.1f;
  int t_min = 1;
  int t_max = 1;  ///< already resolved against the bank depth
};

/// X^(0..depth) and X^(∞) of a set of nodes, as computed by the reference.
struct RefRows {
  std::vector<std::int32_t> nodes;
  /// x[l][i * dim + c] = X^(l) of nodes[i], l = 0..depth.
  std::vector<std::vector<double>> x;
  std::vector<double> x_inf;  ///< nodes.size() x dim
  std::size_t dim = 0;

  /// Relative distance ||X^(l) − X^(∞)|| / ||X^(∞)|| of row i.
  double RelDistance(std::size_t i, int l) const;
};

/// Propagates the whole graph `depth` hops and keeps the rows of `nodes`.
/// Memory is two n x dim float buffers; rows are accumulated in double.
/// `threads` >= 1 splits each hop's rows across that many threads.
RefRows Propagate(const RefInput& in, int depth,
                  const std::vector<std::int32_t>& nodes, int threads = 1);

/// Share of the checked answers that near-ties may excuse (at least one is
/// always allowed). A near-tie is a decision distance within a small ε of
/// T_s, or a top-2 logit margin below ε (the two ε are in reference.cc): an
/// answer that float rounding may legitimately flip.
constexpr double kMaxExcusedShare = 0.01;

/// What the reference says one node must be answered with under one rule.
struct Expected {
  std::int32_t exit_depth = 0;
  std::int32_t prediction = -1;
  bool distance_tie = false;  ///< some decision distance was within ε of T_s
  bool margin_tie = false;    ///< top-2 logits at the exit depth within ε
};

/// Applies the exit rule to every row of `rows`, then classifies each row
/// at its exit depth with `classifiers` (one Logits call per depth).
std::vector<Expected> ExpectedAnswers(const RefRows& rows, const NapRule& rule,
                                      nai::core::ClassifierStack& classifiers);

/// Running tally of served answers compared against the reference.
struct CheckTally {
  std::int64_t checked = 0;
  std::int64_t mismatches = 0;       ///< unexcused disagreements
  std::int64_t excused_distance = 0; ///< disagreements on a distance tie
  std::int64_t excused_margin = 0;   ///< disagreements on a logit tie
  std::vector<std::string> examples; ///< first few mismatches, for the log

  /// Compares one served answer; returns false on an unexcused mismatch.
  bool Check(std::int32_t node, const Expected& want, std::int32_t got_depth,
             std::int32_t got_prediction);
  std::int64_t excused() const { return excused_distance + excused_margin; }
  /// True when there is no unexcused mismatch and the excused ones stay
  /// within kMaxExcusedShare of the checked answers.
  bool Passed() const;
};

/// Deterministic 64-bit generator for the benchmark's own inputs
/// (SplitMix64): every input of a run derives from the --seed argument
/// through streams of this generator.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

}  // namespace naibench

#endif  // NAI_BENCHMARK_REFERENCE_H_
