// The value vector xi(t) plus O(1)-per-update tracking of every quantity
// the paper's analysis monitors:
//
//   Avg(t)   = (1/n)       sum_u xi_u(t)                       (Eq. 1)
//   M(t)     = sum_u (d_u / 2m) xi_u(t)                        (Eq. 1)
//   phi(t)   = <xi,xi>_pi - <1,xi>_pi^2                        (Eq. 3)
//   phi_V(t) = sum_u xi_u^2 - (sum_u xi_u)^2 / n               (Prop. D.1)
//   K(t)     = max_u xi_u - min_u xi_u (discrepancy)
//
// Only one node changes per process step, so all running sums update in
// O(1).  Floating-point drift is controlled two ways: accumulators are
// rebuilt from scratch every `recompute_interval` updates, and
// `phi_exact()` evaluates the potential in centered two-pass form, which
// does not suffer the catastrophic cancellation of the S2 - S1^2 formula
// near convergence.  Extremum tracking (for K) is opt-in and lazy: an
// update that displaces the cached min/max merely invalidates them, and
// the next read rescans once.  Displacing an extremum needs the updated
// node to *hold* it (probability ~1/n per step), so tracking costs O(1)
// amortized per update with zero allocations -- the step kernels stay
// malloc-free.
//
// Convergence screen.  `phi_provably_above(eps)` lets a stop check skip
// the O(n) exact pass when the running potential alone proves that
// phi_exact() > eps.  It never answers "converged": when it cannot
// decide, the caller runs the exact pass, so stop steps and every
// reported value are those of an unscreened loop.  The proof, with
// u = 2^-53, k = updates since the last recompute(), B a bound on every
// |xi_u| held since then, and p = max_u pi_u:
//
//  * Forward error of the running estimate.  Let S1 = sum pi_u xi_u,
//    S2 = sum pi_u xi_u^2 (exact arithmetic over the stored doubles),
//    P = S2 - S1^2, and D = (1 + 4p)(n + k + 1) u.  The rebuild sums n
//    terms (error <= 1.011 (n+1) u B^2 on S2, 1.01 n u B on S1); each
//    update's bookkeeping adds at most (1.01 + 4.01 p) u B^2 to S2 and
//    (1.01 + 4.01 p) u B to S1 (sum pi_u <= 1 + u).  So the errors are
//    e2 <= 1.02 D B^2 and e1 <= 1.02 D B.  With m = |weighted_average()|,
//    squaring S1 costs e1 (2m + e1) + u m^2, the final subtraction
//    1.01 u |phi()|.  Since n < 2^31 and k <= 2^20, D < 2^-19 and
//    u <= D/2, so the second-order terms fold into the constants:
//        |phi() - P| <= D (1.03 B^2 + 3.07 B m) + 1.01 u |phi()|.
//    The plain form is the same with every sum n times larger, 1 + 3/n
//    in place of 1 + 4p, and m = |average()|:
//        |phi_plain() - P_V| <= n D (1.03 B^2 + 3.07 B m)
//                               + 1.01 u |phi_plain()|.
//  * Centering.  phi_exact() sums Q(c) = sum pi_u (xi_u - c)^2 about
//    c = weighted_average(); Q(c) >= P - u (m + e1)^2 because sum pi_u
//    is 1 to within u (pi_u = d_u / 2m rounded), a term included above.
//    phi_plain_exact() centers on the rounded mean, and
//    sum (xi_u - c)^2 >= P_V exactly.  Every summand is nonnegative
//    with relative error <= 4u, so the two-pass results are at least
//    Q(c) (1 - (n+3) u): gamma = 2 (n+4) u covers that rounding.
//  * B.  The state keeps B0^2 = the largest squared value it has held at
//    construction, at each recompute(), and at each set_value() write.
//    Every write that bypasses set_value comes from a burst kernel
//    (node, edge, Hegselmann-Krause, weighted median), and each such
//    write is a rounded convex combination of current values: a mean of
//    K <= 8 samples mixed with the old value (node, edge; at most 12
//    roundings), a mean of at most d_u + 1 values (HK; d_u + 1
//    roundings), or a copied sample (median; none).  Each rounding
//    inflates the magnitude by at most a factor (1 + u), and an update
//    rounds fewer than 2^31 times, so over the <= 2^20 updates between
//    rebuilds |xi_u| <= B0 (1+u)^(2^51) <= e^(1/4) B0 < 1.285 B0.  The
//    synchronous rules (DeGroot, and Friedkin-Johnsen, whose anchors
//    s_u = xi(0) are bounded by B0 from construction), gossip and the
//    generic node/median loops for other K write through set_value, so
//    B0 covers them exactly.
//
// With B < 1.285 B0 the bound is below D B0 (1.70 B0 + 3.95 m).  The
// screen takes E = 3 D B0 (B0 + 2m) + 2u |phi()| (times n, with the
// plain D, for phi_V); the ~1.5x to spare absorbs the rounding of the
// screen's own arithmetic.  It returns true iff  phi() - E > eps (1 +
// gamma).  It stops deciding -- E outgrows the margin and every check
// runs the exact pass -- when B0^2 is large next to eps (wide-ranging
// or far-from-zero values), late in a long stretch since the last
// recompute(), or at large n.  NaN or infinite values, and B0^2 <
// 2^-960 (where underflow would void the relative error model), always
// defer.
#ifndef OPINDYN_CORE_OPINION_STATE_H
#define OPINDYN_CORE_OPINION_STATE_H

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/support/assert.h"

namespace opindyn {

class OpinionState {
 public:
  /// `graph` must outlive the state.  `initial.size() == node_count`.
  OpinionState(const Graph& graph, std::vector<double> initial,
               bool track_extrema = false);

  const Graph& graph() const noexcept { return *graph_; }
  NodeId node_count() const noexcept { return graph_->node_count(); }

  double value(NodeId u) const {
    OPINDYN_HOT_EXPECTS(u >= 0 && u < node_count(), "node id out of range");
    return values_[static_cast<std::size_t>(u)];
  }
  const std::vector<double>& values() const noexcept { return values_; }

  /// Replaces the value at u, updating all running statistics.  Inline:
  /// this is the one mutation every process step performs, so the burst
  /// kernels must not pay a call (or, in optimised builds, a range
  /// check) for it.
  void set_value(NodeId u, double x) {
    OPINDYN_HOT_EXPECTS(u >= 0 && u < node_count(), "node id out of range");
    const auto idx = static_cast<std::size_t>(u);
    const double old = values_[idx];
    const double pi = stationary_[idx];
    sum_ += x - old;
    sum_sq_ += x * x - old * old;
    wsum_ += pi * (x - old);
    wsum_sq_ += pi * (x * x - old * old);
    if (track_extrema_ && extrema_valid_) {
      // A node that held an extremum and stays on its side of it keeps
      // the cache valid (x <= min_ is the new min even if other nodes
      // share the old one); only an extremum holder moving inward hides
      // where the extremum went, so only that invalidates -- the next
      // read rescans once.  Near-converged states, where many nodes
      // share the extremal values, thus stay O(1) instead of rescanning
      // every step.
      bool displaced = false;
      if (old == min_) {
        if (x <= min_) {
          min_ = x;
        } else {
          displaced = true;
        }
      } else if (x < min_) {
        min_ = x;
      }
      if (old == max_) {
        if (x >= max_) {
          max_ = x;
        } else {
          displaced = true;
        }
      } else if (x > max_) {
        max_ = x;
      }
      if (displaced) {
        extrema_valid_ = false;
      }
    }
    if (x * x > bound_sq_) {
      bound_sq_ = x * x;  // explicit writes may leave the convex hull
    }
    values_[idx] = x;
    if (++updates_since_recompute_ >= recompute_interval_) {
      recompute();
    }
  }

  /// Plain average Avg(t).
  double average() const noexcept;
  /// Degree-weighted average M(t) = <1, xi>_pi -- the NodeModel martingale.
  double weighted_average() const noexcept { return wsum_; }
  /// Potential phi (Eq. 3), from running sums: O(1), but off from the
  /// true value by up to ~u B^2 (n + k) (see the header comment), which
  /// near convergence can exceed phi itself.
  double phi() const noexcept;
  /// Potential phi in centered two-pass form: exact at any magnitude.
  double phi_exact() const;
  /// phi_V of Prop. D.1 (unweighted analogue), from running sums; off
  /// by up to n times the bound of phi().
  double phi_plain() const noexcept;
  /// phi_V in centered two-pass form.
  double phi_plain_exact() const;
  /// True only if the running potential proves that phi_exact() (or
  /// phi_plain_exact() when `plain`) exceeds `epsilon`: phi() minus its
  /// drift bound E must clear epsilon (1 + gamma).  False means "cannot
  /// tell", never "converged".  O(1).
  bool phi_provably_above(double epsilon, bool plain) const noexcept;
  /// sum_u xi_u(t)^2.
  double l2_squared() const noexcept { return sum_sq_; }
  /// Discrepancy K(t) = max - min.  O(1) amortized when extremum
  /// tracking is on, O(n) otherwise.
  double discrepancy() const;
  double min_value() const;
  double max_value() const;

  bool tracks_extrema() const noexcept { return track_extrema_; }

  /// Rebuilds all accumulators from the value vector and raises B0^2 to
  /// the largest squared value now held.
  void recompute();

  // --- Burst cursor -------------------------------------------------
  // The burst kernels update values by the thousand; going through
  // set_value would reload and re-store every accumulator through the
  // member pointer each step.  A BurstCursor holds the accumulators in
  // locals (registers) for the duration of a burst and performs the
  // EXACT arithmetic of set_value in the exact order, so flushing it
  // back is bit-identical to having called set_value throughout.  The
  // kernel owns the state between begin_burst and end_burst: it writes
  // values through mutable_values() itself and must not call any other
  // accessor in between.
  class BurstCursor {
   public:
    /// Bookkeeping for one value replacement (old -> x at a node with
    /// stationary probability pi), mirroring set_value line for line.
    /// Call BEFORE storing x.  Does NOT count the update: the kernels
    /// track the recompute cadence in bulk via the countdown below, so
    /// the hot loop carries no per-step counter check.  Track must
    /// equal the state's tracks_extrema() -- it is a template argument
    /// so the (majority) non-tracking kernels carry no per-step branch
    /// for it; the kernels dispatch one instantiation per value.
    template <bool Track>
    void update(double pi, double old, double x) noexcept {
      sum_ += x - old;
      sum_sq_ += x * x - old * old;
      wsum_ += pi * (x - old);
      wsum_sq_ += pi * (x * x - old * old);
      if (Track && valid_) {
        bool displaced = false;
        if (old == min_) {
          if (x <= min_) {
            min_ = x;
          } else {
            displaced = true;
          }
        } else if (x < min_) {
          min_ = x;
        }
        if (old == max_) {
          if (x >= max_) {
            max_ = x;
          } else {
            displaced = true;
          }
        } else if (x > max_) {
          max_ = x;
        }
        if (displaced) {
          valid_ = false;
        }
      }
    }

    /// Updates remaining until the periodic accumulator rebuild is due
    /// -- the same cadence as set_value's tail recompute.  A kernel
    /// chunk of c updates that fits (countdown() > c) settles with one
    /// advance(c); otherwise it checks advance_one() per update, and on
    /// true must make the value vector current, call recompute() on
    /// the state, and restart the cursor (begin_burst again).
    std::int64_t countdown() const noexcept { return countdown_; }
    void advance(std::int64_t n) noexcept { countdown_ -= n; }
    bool advance_one() noexcept { return --countdown_ <= 0; }

   private:
    friend class OpinionState;
    double sum_ = 0.0;
    double sum_sq_ = 0.0;
    double wsum_ = 0.0;
    double wsum_sq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::int64_t countdown_ = 0;
    bool track_ = false;
    bool valid_ = false;
  };

  /// Snapshots the accumulators into a register-resident cursor.
  BurstCursor begin_burst() noexcept {
    BurstCursor c;
    c.sum_ = sum_;
    c.sum_sq_ = sum_sq_;
    c.wsum_ = wsum_;
    c.wsum_sq_ = wsum_sq_;
    c.min_ = min_;
    c.max_ = max_;
    c.countdown_ = recompute_interval_ - updates_since_recompute_;
    c.track_ = track_extrema_;
    c.valid_ = extrema_valid_;
    return c;
  }

  /// Writes a cursor's accumulators back.  The value vector must
  /// already hold every value the cursor accounted for.
  void end_burst(const BurstCursor& c) noexcept {
    sum_ = c.sum_;
    sum_sq_ = c.sum_sq_;
    wsum_ = c.wsum_;
    wsum_sq_ = c.wsum_sq_;
    min_ = c.min_;
    max_ = c.max_;
    updates_since_recompute_ = recompute_interval_ - c.countdown_;
    extrema_valid_ = c.valid_;
  }

  /// Raw storage for the burst kernels (paired with begin_burst /
  /// end_burst; all bookkeeping goes through the cursor).
  double* mutable_values() noexcept { return values_.data(); }
  const double* stationary_data() const noexcept {
    return stationary_.data();
  }

 private:
  /// Rescans the value vector into the cached extrema (tracking only).
  void refresh_extrema() const;

  const Graph* graph_;
  std::vector<double> values_;
  std::vector<double> stationary_;  // pi_u = d_u / 2m, cached per node
  bool track_extrema_;
  // Lazily maintained extrema cache; mutable because reads refresh it.
  mutable bool extrema_valid_ = false;
  mutable double min_ = 0.0;
  mutable double max_ = 0.0;

  double sum_ = 0.0;       // sum xi
  double sum_sq_ = 0.0;    // sum xi^2
  double wsum_ = 0.0;      // sum pi_u xi_u  (= M(t))
  double wsum_sq_ = 0.0;   // sum pi_u xi_u^2
  double bound_sq_ = 0.0;  // B0^2 of the convergence screen
  double pi_max_ = 0.0;    // max_u pi_u, for the screen's drift bound

  std::int64_t updates_since_recompute_ = 0;
  static constexpr std::int64_t recompute_interval_ = 1 << 20;
};

}  // namespace opindyn

#endif  // OPINDYN_CORE_OPINION_STATE_H
