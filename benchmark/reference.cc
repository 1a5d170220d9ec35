#include "benchmark/reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace naibench {
namespace {

// Near-tie widths: a distance within kDistanceTie · T_s of T_s, or a top-2
// logit margin below kLogitTie.
constexpr double kDistanceTie = 1e-4;
constexpr double kLogitTie = 1e-4;

}  // namespace

double RefRows::RelDistance(std::size_t i, int l) const {
  const double* xl = x[static_cast<std::size_t>(l)].data() + i * dim;
  const double* xi = x_inf.data() + i * dim;
  double diff = 0.0;
  double norm = 0.0;
  for (std::size_t c = 0; c < dim; ++c) {
    diff += (xl[c] - xi[c]) * (xl[c] - xi[c]);
    norm += xi[c] * xi[c];
  }
  return std::sqrt(diff) / (std::sqrt(norm) + 1e-12);
}

RefRows Propagate(const RefInput& in, int depth,
                  const std::vector<std::int32_t>& nodes, int threads) {
  const std::int64_t n = in.num_nodes;
  const std::size_t f = in.dim;
  RefRows out;
  out.dim = f;
  out.nodes = nodes;
  std::sort(out.nodes.begin(), out.nodes.end());
  out.nodes.erase(std::unique(out.nodes.begin(), out.nodes.end()),
                  out.nodes.end());
  std::vector<std::int32_t> slot(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < out.nodes.size(); ++i) slot[out.nodes[i]] = i;
  out.x.assign(static_cast<std::size_t>(depth) + 1,
               std::vector<double>(out.nodes.size() * f, 0.0));
  for (std::size_t i = 0; i < out.nodes.size(); ++i) {
    const float* row = in.features + static_cast<std::size_t>(out.nodes[i]) * f;
    std::copy(row, row + f, out.x[0].begin() + i * f);
  }

  // Eq. 1 degree scalers from the unweighted degree with self-loop.
  std::vector<double> left(static_cast<std::size_t>(n));
  std::vector<double> right(static_cast<std::size_t>(n));
  const double gamma = in.gamma;
  for (std::int64_t v = 0; v < n; ++v) {
    const double dt = static_cast<double>(in.row_ptr[v + 1] - in.row_ptr[v]) + 1;
    left[v] = std::pow(dt, gamma - 1.0);
    right[v] = std::pow(dt, -gamma);
  }

  // Stationary state (Eqs. 6-7), rank-1: X^(∞)_i = (d_i+1)^γ g.
  const double denom = static_cast<double>(in.row_ptr[n] + n);  // 2m + n
  std::vector<double> g(f, 0.0);
  for (std::int64_t v = 0; v < n; ++v) {
    const double dt = static_cast<double>(in.row_ptr[v + 1] - in.row_ptr[v]) + 1;
    const double w = std::pow(dt, 1.0 - gamma) / denom;
    const float* row = in.features + static_cast<std::size_t>(v) * f;
    for (std::size_t c = 0; c < f; ++c) g[c] += w * row[c];
  }
  out.x_inf.resize(out.nodes.size() * f);
  for (std::size_t i = 0; i < out.nodes.size(); ++i) {
    const std::int32_t v = out.nodes[i];
    const double u = std::pow(
        static_cast<double>(in.row_ptr[v + 1] - in.row_ptr[v]) + 1, gamma);
    for (std::size_t c = 0; c < f; ++c) out.x_inf[i * f + c] = u * g[c];
  }

  // Hop by hop: X^(l)_i = left_i Σ_{j ∈ N(i) ∪ {i}} right_j X^(l-1)_j.
  std::vector<float> buf_a;
  std::vector<float> buf_b;
  const float* cur = in.features;
  threads = std::max(1, threads);
  for (int l = 1; l <= depth; ++l) {
    std::vector<float>& next = (l % 2 == 1) ? buf_a : buf_b;
    if (l < depth) next.resize(static_cast<std::size_t>(n) * f);
    auto hop = [&](std::int64_t begin, std::int64_t end) {
      std::vector<double> acc(f);
      for (std::int64_t i = begin; i < end; ++i) {
        const float* self = cur + static_cast<std::size_t>(i) * f;
        for (std::size_t c = 0; c < f; ++c) acc[c] = right[i] * self[c];
        for (std::int64_t p = in.row_ptr[i]; p < in.row_ptr[i + 1]; ++p) {
          const std::int32_t j = in.col_idx[p];
          const float* nb = cur + static_cast<std::size_t>(j) * f;
          for (std::size_t c = 0; c < f; ++c) acc[c] += right[j] * nb[c];
        }
        for (std::size_t c = 0; c < f; ++c) acc[c] *= left[i];
        if (l < depth) {
          float* dst = next.data() + static_cast<std::size_t>(i) * f;
          for (std::size_t c = 0; c < f; ++c) dst[c] = static_cast<float>(acc[c]);
        }
        if (slot[i] >= 0) {
          std::copy(acc.begin(), acc.end(),
                    out.x[l].begin() + static_cast<std::size_t>(slot[i]) * f);
        }
      }
    };
    std::vector<std::thread> pool;
    const std::int64_t chunk = (n + threads - 1) / threads;
    for (int t = 1; t < threads; ++t) {
      pool.emplace_back(hop, std::min(n, t * chunk), std::min(n, (t + 1) * chunk));
    }
    hop(0, std::min(n, chunk));
    for (std::thread& th : pool) th.join();
    cur = next.data();
  }
  return out;
}

std::vector<Expected> ExpectedAnswers(const RefRows& rows, const NapRule& rule,
                                      nai::core::ClassifierStack& classifiers) {
  const std::size_t count = rows.nodes.size();
  const std::size_t f = rows.dim;
  const int t_max = rule.t_max;
  const int t_min = std::clamp(rule.t_min, 1, t_max);
  std::vector<Expected> out(count);
  std::vector<std::vector<std::size_t>> by_depth(t_max + 1);
  for (std::size_t i = 0; i < count; ++i) {
    Expected& e = out[i];
    e.exit_depth = t_max;
    for (int l = t_min; l < t_max; ++l) {
      const double d = rows.RelDistance(i, l);
      if (std::fabs(d - rule.threshold) <= kDistanceTie * rule.threshold) {
        e.distance_tie = true;
      }
      if (d < rule.threshold) {
        e.exit_depth = l;
        break;
      }
    }
    by_depth[e.exit_depth].push_back(i);
  }
  for (int l = 1; l <= t_max; ++l) {
    const std::vector<std::size_t>& members = by_depth[l];
    if (members.empty()) continue;
    nai::core::GatheredStack gathered;
    for (int t = 0; t <= l; ++t) {
      nai::tensor::Matrix m(members.size(), f);
      for (std::size_t r = 0; r < members.size(); ++r) {
        const double* src = rows.x[t].data() + members[r] * f;
        for (std::size_t c = 0; c < f; ++c) m.at(r, c) = static_cast<float>(src[c]);
      }
      gathered.mats.push_back(std::move(m));
    }
    const nai::tensor::Matrix logits = classifiers.Logits(l, gathered);
    for (std::size_t r = 0; r < members.size(); ++r) {
      const float* z = logits.row(r);
      std::size_t best = 0;
      for (std::size_t c = 1; c < logits.cols(); ++c) {
        if (z[c] > z[best]) best = c;
      }
      double second = -1e300;
      for (std::size_t c = 0; c < logits.cols(); ++c) {
        if (c != best) second = std::max(second, static_cast<double>(z[c]));
      }
      Expected& e = out[members[r]];
      e.prediction = static_cast<std::int32_t>(best);
      e.margin_tie = static_cast<double>(z[best]) - second < kLogitTie;
    }
  }
  return out;
}

bool CheckTally::Check(std::int32_t node, const Expected& want,
                       std::int32_t got_depth, std::int32_t got_prediction) {
  ++checked;
  if (got_depth == want.exit_depth && got_prediction == want.prediction) {
    return true;
  }
  if (want.distance_tie) {
    ++excused_distance;
    return true;
  }
  if (got_depth == want.exit_depth && want.margin_tie) {
    ++excused_margin;
    return true;
  }
  ++mismatches;
  if (examples.size() < 5) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "node %d: served depth %d class %d, reference depth %d "
                  "class %d",
                  node, got_depth, got_prediction, want.exit_depth,
                  want.prediction);
    examples.emplace_back(buf);
  }
  return false;
}

bool CheckTally::Passed() const {
  const double allowed =
      std::max(1.0, kMaxExcusedShare * static_cast<double>(checked));
  return mismatches == 0 && static_cast<double>(excused()) <= allowed;
}

std::uint64_t SeedRng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace naibench
