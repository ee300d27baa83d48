#pragma once
// Discrete (sub-)probability measures -- Disc(S) and SubDisc(S) of
// paper Section 2.1 and Def 3.1.
//
// Disc<T, W> is a finite-support measure over T with weights W, stored as
// a sorted association vector (canonical form: support sorted by T, no
// zero weights). W = double for the sampling engine, W = Rational for the
// exact cone enumerator -- exactness is what lets experiments assert
// "epsilon is literally zero" (Lemma D.1) instead of "epsilon is small".
//
// Total weight 1 is a *checked property* (is_probability), not an
// invariant: schedulers return sub-probability measures that may halt
// with the residual mass (Def 3.1), so the same type serves both.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rational.hpp"

namespace cdse {

namespace detail {
inline bool weight_is_zero(double w) { return w == 0.0; }
inline bool weight_is_zero(const Rational& w) { return w.is_zero(); }
inline double weight_one(double) { return 1.0; }
inline Rational weight_one(const Rational&) { return Rational(1); }

/// Accumulates weight w on t in a sorted association vector, preserving
/// the canonical form (support sorted by T, no zero weights). This is
/// the one exact-sum merge primitive: Disc::add delegates here, and the
/// snapshot quotient builder and the bisimulation partition refiner use
/// it directly on raw entry vectors, so "merge exact rows" means the
/// same thing everywhere.
template <typename T, typename W>
void accumulate_sorted(std::vector<std::pair<T, W>>& entries, const T& t,
                       const W& w) {
  if (weight_is_zero(w)) return;
  auto it = std::lower_bound(
      entries.begin(), entries.end(), t,
      [](const std::pair<T, W>& e, const T& key) { return e.first < key; });
  if (it != entries.end() && it->first == t) {
    it->second += w;
    if (weight_is_zero(it->second)) entries.erase(it);
  } else {
    entries.insert(it, {t, w});
  }
}

/// Bulk form of accumulate_sorted: adds fn(w) for every (t, w) of `src`
/// into `dst`, both canonical (`src` sorted by T with unique keys). Each
/// key gets dst's old weight plus fn(w), the sum calling
/// accumulate_sorted(dst, t, fn(w)) entry by entry would form, so the
/// result is bit-identical to that loop -- in O(n + m) comparisons
/// instead of one sorted insert (O(n) moves) per new key, and with no
/// second buffer: a forward pass adds shared keys in place and counts
/// the new ones, `dst` grows once, and a backward pass opens the gaps
/// from the end. An rvalue `src` surrenders its keys instead of copying
/// them.
template <typename T, typename W, typename Src, typename F>
void merge_sorted(std::vector<std::pair<T, W>>& dst, Src&& src, F&& fn) {
  constexpr bool kMoveKeys = !std::is_lvalue_reference_v<Src>;
  bool zeroed = false;
  std::size_t fresh = 0;
  {
    auto d = dst.begin();
    for (const auto& e : src) {
      while (d != dst.end() && d->first < e.first) ++d;
      if (d != dst.end() && d->first == e.first) {
        d->second += fn(e.second);
        zeroed = zeroed || weight_is_zero(d->second);
        ++d;
      } else {
        ++fresh;
      }
    }
  }
  if (fresh > 0) {
    std::size_t i = dst.size();  // read cursor: old entries [0, i)
    dst.resize(i + fresh);
    std::size_t w = dst.size();  // write cursor: placed entries [w, end)
    std::size_t j = src.size();
    // Every step places one entry. Stop when the cursors meet: the rest
    // of dst is already in place, and moving an entry onto itself is not
    // a no-op (libstdc++ empties a long std::string move-assigned onto
    // itself).
    while (w > i) {
      auto& s = src[j - 1];
      if (i > 0 && !(dst[i - 1].first < s.first)) {
        if (dst[i - 1].first == s.first) --j;  // shared: summed above
        dst[--w] = std::move(dst[--i]);
      } else {
        --w;
        if constexpr (kMoveKeys) {
          dst[w].first = std::move(s.first);
        } else {
          dst[w].first = s.first;
        }
        dst[w].second = fn(s.second);
        zeroed = zeroed || weight_is_zero(dst[w].second);
        --j;
      }
    }
  }
  if (zeroed) {
    dst.erase(std::remove_if(dst.begin(), dst.end(),
                             [](const std::pair<T, W>& e) {
                               return weight_is_zero(e.second);
                             }),
              dst.end());
  }
}
}  // namespace detail

template <typename T, typename W = double>
class Disc {
 public:
  using Entry = std::pair<T, W>;

  Disc() = default;

  /// Dirac measure on {t} (Section 2.1).
  static Disc dirac(T t) {
    Disc d;
    d.entries_.emplace_back(std::move(t), detail::weight_one(W{}));
    return d;
  }

  /// Accumulates weight w on t (merging with any existing mass on t).
  void add(const T& t, const W& w) { detail::accumulate_sorted(entries_, t, w); }

  /// Adds every entry of `other` (add(t, w) for each, bit-identically)
  /// in one linear pass (detail::merge_sorted).
  void merge(const Disc& other) {
    detail::merge_sorted(entries_, other.entries_,
                         [](const W& w) -> const W& { return w; });
  }
  void merge(Disc&& other) {
    if (entries_.empty()) {
      entries_ = std::move(other.entries_);
    } else {
      detail::merge_sorted(entries_, std::move(other.entries_),
                           [](const W& w) -> const W& { return w; });
    }
    other.entries_.clear();
  }
  /// Adds fn(w) on t for every entry (t, w) of `other`, which may carry
  /// another weight type: add(t, fn(w)) entry by entry, in one pass.
  template <typename V, typename F>
  void merge(const Disc<T, V>& other, F&& fn) {
    detail::merge_sorted(entries_, other.entries(), fn);
  }

  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  std::size_t support_size() const { return entries_.size(); }

  /// supp(eta): the points carrying nonzero mass.
  std::vector<T> support() const {
    std::vector<T> s;
    s.reserve(entries_.size());
    for (const auto& [t, w] : entries_) s.push_back(t);
    return s;
  }

  W mass(const T& t) const {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), t,
        [](const Entry& e, const T& key) { return e.first < key; });
    if (it != entries_.end() && it->first == t) return it->second;
    return W{};
  }

  W total() const {
    W acc{};
    for (const auto& [t, w] : entries_) acc += w;
    return acc;
  }

  bool is_probability(double tol = 1e-12) const {
    if constexpr (std::is_same_v<W, Rational>) {
      (void)tol;
      return total() == Rational(1);
    } else {
      const double t = total();
      return t > 1.0 - tol && t < 1.0 + tol;
    }
  }

  /// Image measure under f (Def 3.5 uses this for f-dist).
  template <typename U, typename F>
  Disc<U, W> map(F&& f) const {
    Disc<U, W> out;
    for (const auto& [t, w] : entries_) out.add(f(t), w);
    return out;
  }

  /// Product measure combined through `pair_fn` (Section 2.1; Def 2.5
  /// builds eta_1 (x) ... (x) eta_n this way for composite transitions).
  template <typename U, typename V, typename F>
  static Disc product(const Disc<U, W>& a, const Disc<V, W>& b, F&& pair_fn) {
    Disc out;
    for (const auto& [u, wu] : a.entries()) {
      for (const auto& [v, wv] : b.entries()) {
        out.add(pair_fn(u, v), wu * wv);
      }
    }
    return out;
  }

  /// Scales every weight (used when sequencing scheduler choices).
  Disc scaled(const W& c) const {
    Disc out;
    for (const auto& [t, w] : entries_) out.add(t, w * c);
    return out;
  }

  /// Conditions on total mass (normalizes); throws when empty.
  Disc normalized() const {
    const W tot = total();
    if (detail::weight_is_zero(tot))
      throw std::domain_error("Disc::normalized: zero mass");
    Disc out;
    for (const auto& [t, w] : entries_) out.add(t, w / tot);
    return out;
  }

  /// Samples from a probability measure given u ~ Uniform[0,1).
  /// Only available with double weights.
  const T& sample(double u) const {
    static_assert(std::is_same_v<W, double>,
                  "sampling requires double weights");
    double acc = 0.0;
    for (const auto& [t, w] : entries_) {
      acc += w;
      if (u < acc) return t;
    }
    return entries_.back().first;  // guard against fp round-off at u ~ 1
  }

  friend bool operator==(const Disc& a, const Disc& b) {
    return a.entries_ == b.entries_;
  }

 private:
  std::vector<Entry> entries_;
};

template <typename T>
using ExactDisc = Disc<T, Rational>;

/// Balance distance of Def 3.6: the supremum over index families
/// (zeta_i)_{i in I} of |sum_i (mu(zeta_i) - nu(zeta_i))|, which for
/// finite-support measures is max(sum of positive pointwise differences,
/// sum of negative pointwise differences). For two probability measures
/// the two sums are equal and this is the total-variation distance.
template <typename T, typename W>
W balance_distance(const Disc<T, W>& mu, const Disc<T, W>& nu) {
  W pos{};
  W neg{};
  auto ia = mu.entries().begin();
  auto ib = nu.entries().begin();
  auto account = [&](const W& d) {
    if (d < W{}) {
      neg -= d;
    } else {
      pos += d;
    }
  };
  while (ia != mu.entries().end() && ib != nu.entries().end()) {
    if (ia->first < ib->first) {
      account(ia->second);
      ++ia;
    } else if (ib->first < ia->first) {
      account(-ib->second);
      ++ib;
    } else {
      account(ia->second - ib->second);
      ++ia;
      ++ib;
    }
  }
  for (; ia != mu.entries().end(); ++ia) account(ia->second);
  for (; ib != nu.entries().end(); ++ib) account(-ib->second);
  return pos < neg ? neg : pos;
}

/// Total-variation distance (coincides with balance_distance on
/// probability measures; kept as a named operation for readability).
template <typename T, typename W>
W tv_distance(const Disc<T, W>& mu, const Disc<T, W>& nu) {
  return balance_distance(mu, nu);
}

/// Lossy conversion used when comparing exact results to sampled ones.
template <typename T>
Disc<T, double> to_double(const ExactDisc<T>& d) {
  Disc<T, double> out;
  for (const auto& [t, w] : d.entries()) out.add(t, w.to_double());
  return out;
}

}  // namespace cdse
