#pragma once
// MemoPsioa: the memoized transition engine shared by every wrapper
// automaton (composition, hiding, renaming, PCA-derived PSIOA, dummy
// adversaries).
//
// Wrapper signatures and transition distributions are pure functions of
// the interned (state, action) pair, yet the wrappers historically
// re-derived composed signatures and re-multiplied ExactDisc<Rational>
// products on every call -- on every step of every sampled trial.
// MemoPsioa separates the exact semantic layer from the evaluation
// layer: subclasses implement compute_signature / compute_transition
// once, and the base caches per reachable state the resolved Signature
// and per (state, action) a CompiledRow holding the exact StateDist, a
// compiled double-CDF over its support (the serial walk) and a split row
// (the batched sampler's multinomial class splits), so the sampling
// fast-paths never touch Rational arithmetic or re-run composition
// products. signature() / transition() return the cached *exact*
// objects, which keeps the exact cone enumerator byte-identical:
// memoization is semantics-neutral by construction, and the property
// suite in tests/memo_test.cpp asserts that a warm instance (rows served
// from the memo) matches a cold clone (every row computed) on random
// PSIOA and on composed/hidden/renamed/structured stacks.
//
// Caches are per-instance and unsynchronized: the one-thread-per-
// instance rule of psioa.hpp covers compiled rows too. The guarded
// sampler clones automata via factories, so each worker owns (and
// warms) its own tables. Memoization is always on; clear_memo() drops
// the tables, so the next access recomputes each row once.
//
// freeze() (psioa/snapshot.hpp) lifts a warmed instance's tables into an
// immutable CompiledSnapshot that thin SnapshotPsioa views share
// read-only across sampler workers; signature_ref/compiled_row are
// virtual so those views can serve frozen rows without copying them into
// per-worker tables.

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "psioa/psioa.hpp"
#include "util/multinomial.hpp"

namespace cdse {

class CompiledSnapshot;

/// Compiled sampling row for one (state, action): the exact transition
/// distribution plus a running double-CDF over its support, built once.
/// sample() walks the CDF exactly the way the sampler historically
/// walked to_double() partial sums, so the refactor is draw-for-draw
/// reproducible at fixed seed. The row also carries a split row over the
/// same support (util/multinomial.hpp), built at the same compile time
/// and frozen (immutably shared across workers) together with the CDF:
/// the batched sampler divides a whole trajectory class over the targets
/// through it with one binomial per slot, equivalent to `count` calls of
/// sample() in distribution but not draw-for-draw.
struct CompiledRow {
  StateDist dist;             ///< exact eta_{(A,q,a)}, canonical form
  std::vector<State> targets; ///< dist support, in entry order
  std::vector<double> cdf;    ///< running sums of dist weights as doubles
  SplitRow split;             ///< multinomial class splits, same support

  static CompiledRow compile(StateDist d) {
    CompiledRow row;
    row.targets.reserve(d.entries().size());
    row.cdf.reserve(d.entries().size());
    std::vector<double> weights;
    weights.reserve(d.entries().size());
    double acc = 0.0;
    for (const auto& [q2, w] : d.entries()) {
      const double wd = w.to_double();
      acc += wd;
      row.targets.push_back(q2);
      row.cdf.push_back(acc);
      weights.push_back(wd);
    }
    row.split = SplitRow::build(weights);
    row.dist = std::move(d);
    return row;
  }

  /// Draws a target given u ~ Uniform[0,1); the final target absorbs
  /// any floating-point round-off shortfall at u ~ 1 (the CDF of an
  /// exact probability row can round short of 1.0 -- e.g. repeated 1/10
  /// weights -- so falling off the scan must clamp, never wrap).
  State sample(double u) const {
    for (std::size_t i = 0; i < cdf.size(); ++i) {
      if (u < cdf[i]) return targets[i];
    }
    return targets.back();
  }
};

/// Cache counters, exposed for the regression tests and the E10 bench.
/// `*_computes` count invocations of the underlying compute_* virtuals;
/// a warm cache keeps them flat while `*_hits` grow.
struct MemoStats {
  std::size_t sig_computes = 0;
  std::size_t sig_hits = 0;
  std::size_t row_computes = 0;
  std::size_t row_hits = 0;
};

class MemoPsioa : public Psioa {
 public:
  using Psioa::Psioa;

  Signature signature(State q) final;
  StateDist transition(State q, ActionId a) final;

  /// The cached signature by reference (computes on miss). Invalidated
  /// by clear_memo(). Virtual so snapshot views can serve a shared
  /// frozen table ahead of the local memo.
  virtual const Signature& signature_ref(State q);

  /// The compiled sampling row for (q, a) (computes on miss). The
  /// reference stays valid until clear_memo() or invalidate_states()
  /// drops the row. Virtual for the same reason as signature_ref.
  virtual const CompiledRow& compiled_row(State q, ActionId a);

  /// The cached exact transition distribution by reference: what
  /// transition(q, a) returns, without the per-call StateDist copy. The
  /// exact cone enumerator's hot loop reads rows through this hook (the
  /// reference lifetime matches compiled_row's).
  const StateDist& transition_dist(State q, ActionId a) {
    return compiled_row(q, a).dist;
  }

  void clear_memo();

  /// Session-GC hook: drops every cached signature/row of a state for
  /// which `dead` returns true, and every cached row whose transition
  /// *targets* such a state. Without this, a memoized row could keep
  /// serving a retired handle after the interner has reclaimed (and a
  /// reopened session has re-issued) it. Returns rows dropped.
  std::size_t invalidate_states(const std::function<bool(State)>& dead);

  /// True while the snapshot returned by the most recent freeze() is
  /// still alive. Snapshots pin this instance's handle space, so session
  /// GC (DynamicPca::retire_states_of) refuses to run while one is
  /// outstanding. Tracks the latest freeze only -- callers layering
  /// multiple snapshots over one instance must sequence GC themselves.
  bool snapshot_outstanding() const { return !last_snapshot_.expired(); }

  /// Copies the currently cached signatures and compiled rows into an
  /// immutable CompiledSnapshot (psioa/snapshot.hpp) that SnapshotPsioa
  /// views share read-only across sampler workers. The snapshot captures
  /// this instance's state-handle space: views are only meaningful
  /// together with a SnapshotResidue built over this same instance.
  std::shared_ptr<const CompiledSnapshot> freeze();

  const MemoStats& memo_stats() const { return stats_; }

 protected:
  /// The uncached semantics, implemented by each wrapper. Called at most
  /// once per reachable state / (state, action) between clear_memo()s.
  virtual Signature compute_signature(State q) = 0;
  virtual StateDist compute_transition(State q, ActionId a) = 0;

 private:
  struct StateMemo {
    std::optional<Signature> sig;
    std::unordered_map<ActionId, CompiledRow> rows;
  };

  MemoStats stats_;
  std::unordered_map<State, StateMemo> memo_;
  std::weak_ptr<const CompiledSnapshot> last_snapshot_;  // freeze() guard
};

/// Memoizing view over any automaton, sharing its state handles: wraps
/// leaf automata (table-driven, protocol, crypto) that are not worth
/// migrating onto the base class.
class MemoView : public MemoPsioa {
 public:
  explicit MemoView(PsioaPtr inner)
      : MemoPsioa("memo(" + inner->name() + ")"), inner_(std::move(inner)) {}

  State start_state() override { return inner_->start_state(); }
  BitString encode_state(State q) override { return inner_->encode_state(q); }
  std::string state_label(State q) override { return inner_->state_label(q); }

  InternStats intern_stats() const override { return inner_->intern_stats(); }
  void reserve_interning(std::size_t expected_states) override {
    inner_->reserve_interning(expected_states);
  }

  Psioa& inner() { return *inner_; }
  PsioaPtr inner_ptr() const { return inner_; }

 protected:
  Signature compute_signature(State q) override {
    return inner_->signature(q);
  }
  StateDist compute_transition(State q, ActionId a) override {
    return inner_->transition(q, a);
  }

 private:
  PsioaPtr inner_;
};

inline std::shared_ptr<MemoView> memoize(PsioaPtr a) {
  return std::make_shared<MemoView>(std::move(a));
}

}  // namespace cdse
