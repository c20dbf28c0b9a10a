#include "src/core/opinion_state.h"

#include <algorithm>
#include <cmath>

#include "src/support/assert.h"

namespace opindyn {

OpinionState::OpinionState(const Graph& graph, std::vector<double> initial,
                           bool track_extrema)
    : graph_(&graph),
      values_(std::move(initial)),
      track_extrema_(track_extrema) {
  OPINDYN_EXPECTS(values_.size() ==
                      static_cast<std::size_t>(graph.node_count()),
                  "initial value vector size must equal node count");
  stationary_.resize(values_.size());
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    stationary_[static_cast<std::size_t>(u)] = graph.stationary(u);
    pi_max_ = std::max(pi_max_, stationary_[static_cast<std::size_t>(u)]);
  }
  recompute();
}

double OpinionState::average() const noexcept {
  return sum_ / static_cast<double>(node_count());
}

double OpinionState::phi() const noexcept { return wsum_sq_ - wsum_ * wsum_; }

double OpinionState::phi_exact() const {
  const double center = wsum_;
  double total = 0.0;
  for (NodeId u = 0; u < node_count(); ++u) {
    const double d = values_[static_cast<std::size_t>(u)] - center;
    total += stationary_[static_cast<std::size_t>(u)] * d * d;
  }
  return total;
}

double OpinionState::phi_plain() const noexcept {
  return sum_sq_ - sum_ * sum_ / static_cast<double>(node_count());
}

bool OpinionState::phi_provably_above(double epsilon,
                                      bool plain) const noexcept {
  // The constants of the proof in the header comment.
  constexpr double kUnitRoundoff = 0x1p-53;
  constexpr double kBoundFloor = 0x1p-960;
  if (!(bound_sq_ >= kBoundFloor)) {
    return false;  // underflow territory (or NaN): defer
  }
  const double n = static_cast<double>(node_count());
  const double terms =
      n + static_cast<double>(updates_since_recompute_) + 1.0;
  const double weight = plain ? 3.0 / n : 4.0 * pi_max_;
  const double d = (1.0 + weight) * terms * kUnitRoundoff;
  const double estimate = plain ? phi_plain() : phi();
  const double mean = std::abs(plain ? average() : wsum_);
  const double b0 = std::sqrt(bound_sq_);
  const double drift = 3.0 * d * b0 * (b0 + 2.0 * mean) * (plain ? n : 1.0) +
                       2.0 * kUnitRoundoff * std::abs(estimate);
  const double gamma = 2.0 * (n + 4.0) * kUnitRoundoff;
  // NaN anywhere compares false, i.e. defers to the exact pass.
  return estimate - drift > epsilon * (1.0 + gamma);
}

double OpinionState::phi_plain_exact() const {
  const double center = average();
  double total = 0.0;
  for (const double v : values_) {
    const double d = v - center;
    total += d * d;
  }
  return total;
}

double OpinionState::discrepancy() const {
  return max_value() - min_value();
}

double OpinionState::min_value() const {
  OPINDYN_EXPECTS(!values_.empty(), "empty state");
  if (track_extrema_) {
    if (!extrema_valid_) {
      refresh_extrema();
    }
    return min_;
  }
  return *std::min_element(values_.begin(), values_.end());
}

double OpinionState::max_value() const {
  OPINDYN_EXPECTS(!values_.empty(), "empty state");
  if (track_extrema_) {
    if (!extrema_valid_) {
      refresh_extrema();
    }
    return max_;
  }
  return *std::max_element(values_.begin(), values_.end());
}

void OpinionState::refresh_extrema() const {
  double lo = values_[0];
  double hi = values_[0];
  for (const double v : values_) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  min_ = lo;
  max_ = hi;
  extrema_valid_ = true;
}

void OpinionState::recompute() {
  sum_ = 0.0;
  sum_sq_ = 0.0;
  wsum_ = 0.0;
  wsum_sq_ = 0.0;
  double bound_sq = bound_sq_;
  for (NodeId u = 0; u < node_count(); ++u) {
    const double v = values_[static_cast<std::size_t>(u)];
    const double pi = stationary_[static_cast<std::size_t>(u)];
    sum_ += v;
    sum_sq_ += v * v;
    wsum_ += pi * v;
    wsum_sq_ += pi * v * v;
    bound_sq = std::max(bound_sq, v * v);
  }
  bound_sq_ = bound_sq;
  if (track_extrema_) {
    refresh_extrema();
  }
  updates_since_recompute_ = 0;
}

}  // namespace opindyn
