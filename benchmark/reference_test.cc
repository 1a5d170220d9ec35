// Tests of the benchmark's independent reference (reference.h):
//   * propagation, stationary rows and relative distances on a 3-node path
//     whose values are worked out by hand in the comments below;
//   * the exit rule on that path for two thresholds;
//   * the answer check: exact answers pass, a corrupted prediction and an
//     off-by-one exit depth each fail, and near-ties are excused only up to
//     the bound;
//   * agreement with the program's engine on a small generated graph, and
//     that a single corrupted engine answer is caught.
// Run with `python3 benchmark/run.py --self-test`; exits non-zero on failure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "benchmark/reference.h"
#include "src/core/classifier_stack.h"
#include "src/core/inference.h"
#include "src/graph/delta.h"
#include "src/graph/generators.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++g_failures;                                                   \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
    }                                                                 \
  } while (0)

bool Near(double a, double b, double tol = 1e-6) { return std::fabs(a - b) <= tol; }

using naibench::CheckTally;
using naibench::Expected;
using naibench::NapRule;
using naibench::Propagate;
using naibench::RefInput;
using naibench::RefRows;

// Path 0 - 1 - 2, γ = 0.5, so d̃ = (2, 3, 2) and Â_ij = 1 / sqrt(d̃_i d̃_j).
// Features X = [[1, 0], [0, 0], [0, 1]].
const std::vector<std::int64_t> kRowPtr = {0, 1, 3, 4};
const std::vector<std::int32_t> kCols = {1, 0, 2, 1};
const std::vector<float> kFeatures = {1, 0, 0, 0, 0, 1};

RefInput PathInput() {
  RefInput in;
  in.num_nodes = 3;
  in.row_ptr = kRowPtr.data();
  in.col_idx = kCols.data();
  in.features = kFeatures.data();
  in.dim = 2;
  in.gamma = 0.5f;
  return in;
}

void TestHandWorkedPath() {
  const RefRows rows = Propagate(PathInput(), 2, {2, 0, 1, 1});
  EXPECT(rows.nodes == (std::vector<std::int32_t>{0, 1, 2}));
  const double s6 = 1.0 / std::sqrt(6.0);
  // X^(1): row 0 = ½·x0 = (½, 0); row 1 = (x0 + x2)/√6; row 2 = (0, ½).
  EXPECT(Near(rows.x[1][0], 0.5) && Near(rows.x[1][1], 0.0));
  EXPECT(Near(rows.x[1][2], s6) && Near(rows.x[1][3], s6));
  EXPECT(Near(rows.x[1][4], 0.0) && Near(rows.x[1][5], 0.5));
  // X^(2): row 0 = ½·(½, 0) + (1/√6)·(1/√6, 1/√6) = (5/12, 1/6);
  // row 1 = (1/√6)(½, 0) + ⅓(1/√6, 1/√6) + (1/√6)(0, ½) = (5/6)(1/√6)(1, 1).
  EXPECT(Near(rows.x[2][0], 5.0 / 12.0) && Near(rows.x[2][1], 1.0 / 6.0));
  EXPECT(Near(rows.x[2][2], 5.0 / 6.0 * s6) && Near(rows.x[2][3], 5.0 / 6.0 * s6));
  // Stationary: 2m + n = 7, g = √2 (x0 + x2) / 7 = (√2/7)(1, 1);
  // X^(∞)_0 = √2 g = (2/7, 2/7), X^(∞)_1 = √3 g = (√6/7)(1, 1).
  EXPECT(Near(rows.x_inf[0], 2.0 / 7.0) && Near(rows.x_inf[1], 2.0 / 7.0));
  EXPECT(Near(rows.x_inf[2], std::sqrt(6.0) / 7.0));
  // Relative distances: node 1 at depth 1 is (1/√6)/(√6/7) − 1 = 1/6; at
  // depth 2 it is 1 − (5/6)(7/6) = 1/36. Node 0 at depth 1:
  // |(3/14, −2/7)| / |(2/7, 2/7)| = (5/14) / (2√2/7) = 5/(4√2).
  EXPECT(Near(rows.RelDistance(1, 1), 1.0 / 6.0));
  EXPECT(Near(rows.RelDistance(1, 2), 1.0 / 36.0));
  EXPECT(Near(rows.RelDistance(0, 1), 5.0 / (4.0 * std::sqrt(2.0))));
}

nai::core::ClassifierStack TinyClassifiers(std::size_t dim, int depth,
                                           std::uint64_t seed) {
  nai::models::ModelConfig mc;
  mc.depth = depth;
  mc.feature_dim = dim;
  mc.num_classes = 3;
  mc.hidden_dims = {8};
  return nai::core::ClassifierStack(mc, seed);
}

void TestExitRuleOnPath() {
  const RefRows rows = Propagate(PathInput(), 2, {0, 1, 2});
  nai::core::ClassifierStack classifiers = TinyClassifiers(2, 2, 3);
  // T = 0.5: node 1 exits at depth 1 (1/6 < 0.5); nodes 0 and 2
  // (5/(4√2) ≈ 0.88) run to T_max = 2.
  std::vector<Expected> e = ExpectedAnswers(rows, NapRule{0.5f, 1, 2}, classifiers);
  EXPECT(e[0].exit_depth == 2 && e[1].exit_depth == 1 && e[2].exit_depth == 2);
  // T = 0.1: nobody is that smooth at depth 1.
  e = ExpectedAnswers(rows, NapRule{0.1f, 1, 2}, classifiers);
  EXPECT(e[0].exit_depth == 2 && e[1].exit_depth == 2 && e[2].exit_depth == 2);
  // A threshold on top of node 1's distance is flagged as a near-tie.
  e = ExpectedAnswers(rows, NapRule{static_cast<float>(1.0 / 6.0), 1, 2}, classifiers);
  EXPECT(e[1].distance_tie && !e[0].distance_tie);
  // Predictions are the argmax of the bank's logits on the exit-depth row.
  for (const Expected& x : e) EXPECT(x.prediction >= 0 && x.prediction < 3);
}

void TestCheckRejectsCorruptAnswers() {
  const Expected want{2, 1, false, false};
  {
    CheckTally t;
    EXPECT(t.Check(7, want, 2, 1));
    EXPECT(t.Passed() && t.mismatches == 0);
  }
  {  // corrupted prediction
    CheckTally t;
    EXPECT(!t.Check(7, want, 2, 0));
    EXPECT(!t.Passed() && t.mismatches == 1);
  }
  {  // off-by-one exit depth, in both directions
    CheckTally t;
    EXPECT(!t.Check(7, want, 3, 1));
    EXPECT(!t.Check(7, want, 1, 1));
    EXPECT(!t.Passed() && t.mismatches == 2);
  }
  {  // near-ties are excused and counted, but only up to the bound
    CheckTally t;
    const Expected tie{2, 1, true, false};
    const Expected margin{2, 1, false, true};
    EXPECT(t.Check(7, tie, 1, 0));
    EXPECT(t.Check(8, margin, 2, 0));
    EXPECT(!t.Check(9, margin, 1, 1));  // a logit tie does not excuse depth
    EXPECT(t.excused_distance == 1 && t.excused_margin == 1 && t.mismatches == 1);
    // Exactly the bound's share of 1,000 checked answers passes; one more
    // excused answer fails.
    const int allowed = static_cast<int>(naibench::kMaxExcusedShare * 1000);
    CheckTally many;
    for (int i = 0; i < 1000 - allowed; ++i) many.Check(i, want, 2, 1);
    for (int i = 0; i < allowed; ++i) many.Check(i, tie, 1, 0);
    EXPECT(many.checked == 1000 && many.Passed());
    many.Check(0, tie, 1, 0);
    EXPECT(!many.Passed());
  }
}

void TestAgreesWithEngine() {
  nai::graph::GeneratorConfig gen;
  gen.num_nodes = 400;
  gen.num_edges = 2400;
  gen.feature_dim = 8;
  gen.num_classes = 3;
  gen.seed = 5;
  nai::graph::SyntheticDataset ds = nai::graph::GenerateDataset(gen);
  const int k = 3;
  nai::core::ClassifierStack classifiers = TinyClassifiers(8, k, 11);
  std::vector<std::int32_t> nodes;
  for (std::int32_t v = 0; v < 400; ++v) nodes.push_back(v);

  RefInput in;
  const nai::graph::CsrView adj = ds.graph.adjacency().view();
  in.num_nodes = adj.rows;
  in.row_ptr = adj.row_ptr;
  in.col_idx = adj.col_idx;
  in.features = ds.features.data();
  in.dim = 8;
  in.gamma = 0.5f;
  const RefRows rows = Propagate(in, k, nodes, 2);

  auto snapshot = nai::graph::MakeSnapshot(ds.graph, ds.features, 0.5f);
  nai::core::NaiEngine engine =
      nai::core::NaiEngine::FromSnapshot(snapshot, classifiers);
  for (const int t_min : {1, 2}) {
    // Threshold at the median distance at depth t_min, so some nodes exit
    // early and some run to T_max.
    std::vector<double> dist;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      dist.push_back(rows.RelDistance(i, t_min));
    }
    std::sort(dist.begin(), dist.end());
    const float threshold = static_cast<float>(dist[dist.size() / 2]);
    nai::core::InferenceConfig config;
    config.nap = nai::core::NapKind::kDistance;
    config.relative_distance = true;
    config.threshold = threshold;
    config.t_min = t_min;
    config.t_max = k;
    config.batch_size = 64;
    const nai::core::InferenceResult got = engine.Infer(nodes, config);
    const std::vector<Expected> want =
        ExpectedAnswers(rows, NapRule{threshold, t_min, k}, classifiers);
    CheckTally tally;
    std::vector<int> depth_seen(k + 1, 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      tally.Check(nodes[i], want[i], got.exit_depths[i], got.predictions[i]);
      ++depth_seen[want[i].exit_depth];
    }
    EXPECT(tally.Passed() && tally.mismatches == 0);
    // The thresholds are chosen so the rule is exercised, not vacuous.
    EXPECT(depth_seen[k] > 0 && depth_seen[k] < static_cast<int>(nodes.size()));

    CheckTally corrupted;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::int32_t pred = i == 17 ? (got.predictions[i] + 1) % 3 : got.predictions[i];
      corrupted.Check(nodes[i], want[i], got.exit_depths[i], pred);
    }
    EXPECT(!corrupted.Passed() && corrupted.mismatches == 1);
  }
}

}  // namespace

int main() {
  TestHandWorkedPath();
  TestExitRuleOnPath();
  TestCheckRejectsCorruptAnswers();
  TestAgreesWithEngine();
  if (g_failures > 0) {
    std::fprintf(stderr, "reference_test: %d failures\n", g_failures);
    return 1;
  }
  std::printf("reference_test: all checks passed\n");
  return 0;
}
