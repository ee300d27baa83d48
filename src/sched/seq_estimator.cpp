#include "sched/seq_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace cdse {

double seq_spend(double delta, std::size_t look) {
  if (look == 0) look = 1;
  const double w = static_cast<double>(look);
  return delta / (w * (w + 1.0));
}

double seq_hoeffding_radius(double scale, double delta) {
  if (scale <= 0.0) return 0.0;  // exact side (all strata settled)
  if (delta <= 0.0 || delta >= 1.0) return 1.0;
  return std::sqrt(std::log(2.0 / delta) * scale / 2.0);
}

namespace {

/// seq_bernstein_radius at a fixed (scale, delta), with everything that
/// does not depend on the mean computed once: a look evaluates it for
/// both sides of every observed cell at one scale and one slice.
class BernsteinRadius {
 public:
  BernsteinRadius(double scale, double delta) : scale_(scale) {
    if (scale <= 0.0) {
      fixed_ = 0.0;
      return;
    }
    if (delta <= 0.0 || delta >= 1.0) {
      fixed_ = 1.0;
      return;
    }
    const double n = 1.0 / scale;
    hoeffding_ = seq_hoeffding_radius(scale, delta);
    if (n < 2.0) {
      fixed_ = hoeffding_;
      return;
    }
    lg_ = std::log(4.0 / delta);
    bias_ = 7.0 * lg_ / (3.0 * (n - 1.0));
  }

  double operator()(double mean) const {
    if (fixed_ >= 0.0) return fixed_;
    // Maurer-Pontil, two-sided (delta/2 per tail hence ln(4/delta)), with
    // the plug-in witness-event variance p(1-p). The additive bias term
    // decays as 1/n, so for small p the bound beats Hoeffding's sqrt(1/n)
    // long before the asymptotic regime.
    const double p = std::clamp(mean, 0.0, 1.0);
    const double bernstein =
        std::sqrt(2.0 * p * (1.0 - p) * lg_ * scale_) + bias_;
    return std::min(bernstein, hoeffding_);
  }

 private:
  double scale_;
  double fixed_ = -1.0;  ///< the radius when it does not depend on the mean
  double hoeffding_ = 0.0;
  double lg_ = 0.0;
  double bias_ = 0.0;
};

}  // namespace

double seq_bernstein_radius(double mean, double scale, double delta) {
  return BernsteinRadius(scale, delta)(mean);
}

SeqDecision SeqEstimator::look(const Disc<Perception, double>& counts_l,
                               std::uint64_t live_l,
                               const Disc<Perception, double>& counts_r,
                               std::uint64_t live_r, std::size_t n,
                               std::uint64_t draws) {
  if (last_.verdict != SeqVerdict::kUndecided) return last_;
  if (n == 0) return last_;
  const double dn = static_cast<double>(n);

  // First pass: count the observed support (distinct perceptions across
  // both tallies). The per-cell confidence slice adapts to it, so small
  // supports get sharp radii while huge trace supports pay for their
  // own width -- the plug-in TV estimate is biased up by roughly
  // sqrt(support / n), and a support-blind bound would turn that bias
  // into false kAboveThreshold verdicts on identical pairs.
  std::size_t observed = 0;
  {
    auto il = counts_l.entries().begin();
    auto ir = counts_r.entries().begin();
    while (il != counts_l.entries().end() && ir != counts_r.entries().end()) {
      if (il->first < ir->first) {
        ++il;
      } else if (ir->first < il->first) {
        ++ir;
      } else {
        ++il;
        ++ir;
      }
      ++observed;
    }
    observed += static_cast<std::size_t>(
        std::distance(il, counts_l.entries().end()));
    observed += static_cast<std::size_t>(
        std::distance(ir, counts_r.entries().end()));
  }

  ++looks_;
  const double dw = seq_spend(policy_.delta, looks_);
  // One union-bound slice per observed cell per side, plus two slices
  // per side for the missing-mass bounds (Good-Turing deviation and the
  // fresh-draw saturation test).
  const double dc =
      dw / (2.0 * (static_cast<double>(observed) + 2.0));
  const double scale = 1.0 / dn;

  // Second pass: plug-in TV over observed cells plus sound one-sided
  // envelopes.
  //   lower: cells whose gap survives both per-cell radii; unobserved
  //          cells only add nonnegative TV mass, so this lower-bounds
  //          the terminal TV distance.
  //   upper: plug-in + per-cell radii + Good-Turing missing mass
  //          (singletons/n per side, with a Berend-Kontorovich-style
  //          sqrt(3 ln(3/dc) / n) deviation allowance) covering the
  //          unobserved cells' contribution.
  double eps_term = 0.0;   // (1/2) sum |p_l - p_r| over observed cells
  double gap_sum = 0.0;    // (1/2) sum max(0, |d| - rl - rr)
  double rad_sum = 0.0;    // (1/2) sum (rl + rr)
  double singles_l = 0.0, singles_r = 0.0;
  // Both radii at this look's (scale, dc), hoisted out of the cell loop.
  const bool use_bernstein = policy_.bound == SeqBound::kEmpiricalBernstein;
  const BernsteinRadius bernstein(scale, dc);
  const double hoeffding = seq_hoeffding_radius(scale, dc);
  auto cell_radius = [&](double mean) {
    return use_bernstein ? bernstein(mean) : hoeffding;
  };
  auto account = [&](double cl, double cr) {
    if (cl == 1.0) singles_l += 1.0;
    if (cr == 1.0) singles_r += 1.0;
    const double pl = cl / dn;
    const double pr = cr / dn;
    const double d = std::abs(pl - pr);
    const double rl = cell_radius(pl);
    const double rr = cell_radius(pr);
    eps_term += 0.5 * d;
    gap_sum += 0.5 * std::max(0.0, d - rl - rr);
    rad_sum += 0.5 * (rl + rr);
  };
  {
    auto il = counts_l.entries().begin();
    auto ir = counts_r.entries().begin();
    while (il != counts_l.entries().end() && ir != counts_r.entries().end()) {
      if (il->first < ir->first) {
        account(il->second, 0.0);
        ++il;
      } else if (ir->first < il->first) {
        account(0.0, ir->second);
        ++ir;
      } else {
        account(il->second, ir->second);
        ++il;
        ++ir;
      }
    }
    for (; il != counts_l.entries().end(); ++il) account(il->second, 0.0);
    for (; ir != counts_r.entries().end(); ++ir) account(0.0, ir->second);
  }

  const double slack =
      static_cast<double>(live_l + live_r) / dn;
  const double terminal_l = dn - static_cast<double>(live_l);
  const double terminal_r = dn - static_cast<double>(live_r);
  const bool dc_ok = dc > 0.0 && dc < 1.0;
  // Missing mass per side, two sound bounds per side (min is valid --
  // each spends its own dc slice):
  //   (a) Good-Turing: singletons/n plus a sqrt(3 ln(3/dc) / n)
  //       deviation allowance (Berend-Kontorovich style).
  //   (b) Saturation: when no new cell appeared since the previous
  //       look, the m fresh terminal draws since then all landed inside
  //       the previously observed support, so any missing set of mass
  //       eps survived m independent chances: eps <= ln(1/dc) / m.
  //       Linear in m, which is what lets small saturated supports
  //       certify kBelowThreshold at tight margins.
  const double dev = dc_ok ? std::sqrt(3.0 * std::log(3.0 / dc) / dn) : 1.0;
  double miss_l = singles_l / dn + dev;
  double miss_r = singles_r / dn + dev;
  if (have_prev_ && observed == prev_observed_ && dc_ok) {
    const double m_l = terminal_l - prev_terminal_l_;
    const double m_r = terminal_r - prev_terminal_r_;
    if (m_l > 0.0) miss_l = std::min(miss_l, std::log(1.0 / dc) / m_l);
    if (m_r > 0.0) miss_r = std::min(miss_r, std::log(1.0 / dc) / m_r);
  }
  have_prev_ = true;
  prev_observed_ = observed;
  prev_terminal_l_ = terminal_l;
  prev_terminal_r_ = terminal_r;
  const double missing = 0.5 * (miss_l + miss_r);
  const double lower = gap_sum - slack;
  const double upper = eps_term + rad_sum + missing + slack;

  SeqDecision dec;
  dec.estimate = eps_term;
  dec.radius = std::max(upper - eps_term, eps_term - lower);
  dec.censor_slack = slack;
  dec.trials = n;
  dec.looks = looks_;
  dec.draws = draws;
  if (policy_.sequential()) {
    if (lower > policy_.threshold) {
      dec.verdict = SeqVerdict::kAboveThreshold;
    } else if (upper < policy_.threshold) {
      dec.verdict = SeqVerdict::kBelowThreshold;
    }
  }
  last_ = dec;
  return dec;
}

SeqDecision SeqEstimator::look_scaled(double estimate, double slack,
                                      double mean_l, double scale_l,
                                      double mean_r, double scale_r,
                                      std::size_t n, std::uint64_t draws) {
  if (last_.verdict != SeqVerdict::kUndecided) return last_;
  ++looks_;
  const double dw = seq_spend(policy_.delta, looks_);
  const double d_side = dw / 2.0;  // one union-bound slice per side
  double radius;
  if (policy_.bound == SeqBound::kEmpiricalBernstein) {
    radius = seq_bernstein_radius(mean_l, scale_l, d_side) +
             seq_bernstein_radius(mean_r, scale_r, d_side);
  } else {
    radius = seq_hoeffding_radius(scale_l, d_side) +
             seq_hoeffding_radius(scale_r, d_side);
  }

  SeqDecision dec;
  dec.estimate = estimate;
  dec.radius = radius;
  dec.censor_slack = slack;
  dec.trials = n;
  dec.looks = looks_;
  dec.draws = draws;
  if (policy_.sequential()) {
    if (estimate - slack - radius > policy_.threshold) {
      dec.verdict = SeqVerdict::kAboveThreshold;
    } else if (estimate + slack + radius < policy_.threshold) {
      dec.verdict = SeqVerdict::kBelowThreshold;
    }
  }
  last_ = dec;
  return dec;
}

}  // namespace cdse
