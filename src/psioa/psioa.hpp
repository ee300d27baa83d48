#pragma once
// PSIOA: probabilistic signature input/output automata (Def 2.1).
//
// A PSIOA is an automaton with a countable state space, a unique start
// state, a state-dependent signature, and for every enabled action a
// unique discrete transition distribution. We expose states as opaque
// uint64 handles local to each automaton instance; implementations intern
// lazily-discovered states, which realizes "countable state space explored
// on demand" without materializing it.
//
// Transition probabilities are exact rationals (util/rational.hpp): the
// exact cone-measure enumerator depends on it. Wrapper automata derive
// from MemoPsioa (psioa/memo.hpp), which caches per reachable
// (state, action) the resolved Signature, the exact StateDist, and a
// compiled double-CDF row; the Monte-Carlo sampler draws from those
// compiled rows and never touches Rational on its hot path. Leaf
// automata that implement Psioa directly are sampled through the
// historical convert-per-step path (or wrapped in a MemoView).
//
// Methods are non-const by design: signature/transition may intern new
// states or memoize. One automaton instance must be driven by one
// thread -- this covers the memo tables and compiled rows as well,
// which are per-instance and unsynchronized. Parallel sampling respects
// the rule two ways (see sched/sampler): the clone-per-worker path gives
// every worker its own factory-built instance, and the shared-snapshot
// path (psioa/snapshot.hpp) hands workers thin views over one frozen,
// immutable table set -- concurrent reads of frozen state need no
// synchronization, and the single mutable residue instance is serialized
// behind a mutex.

#include <cstdint>
#include <memory>
#include <string>

#include "measure/disc.hpp"
#include "psioa/signature.hpp"
#include "util/bitstring.hpp"
#include "util/state_interner.hpp"

namespace cdse {

using State = std::uint64_t;

/// Transition target distribution: eta_{(A,q,a)} in Disc(Q_A).
using StateDist = ExactDisc<State>;

class Psioa {
 public:
  explicit Psioa(std::string name) : name_(std::move(name)) {}
  virtual ~Psioa() = default;

  Psioa(const Psioa&) = delete;
  Psioa& operator=(const Psioa&) = delete;

  /// Automaton identifier (the paper's Autids name).
  const std::string& name() const { return name_; }

  /// \bar{q}_A, the unique start state.
  virtual State start_state() = 0;

  /// sig(A)(q). Must be valid() for every reachable q.
  virtual Signature signature(State q) = 0;

  /// eta_{(A,q,a)}. Precondition: a in sig(A)(q).all(); implementations
  /// throw std::logic_error otherwise (action-enabling assumption E1).
  virtual StateDist transition(State q, ActionId a) = 0;

  /// Bit-string representation <q> (Section 4). The default encodes the
  /// raw handle; automata with structured states override it so that
  /// representation length reflects genuine description size.
  virtual BitString encode_state(State q) { return BitString::from_uint(q); }

  /// Human-readable state label for traces and error messages.
  virtual std::string state_label(State q) { return std::to_string(q); }

  /// Aggregate state-interning counters for this automaton and every
  /// automaton it wraps (util/state_interner.hpp). Zero for leaves
  /// without a handle store; interning automata add their own interner's
  /// stats and wrappers forward to their components. The E10 bench reads
  /// this to report warm-up allocator traffic.
  virtual InternStats intern_stats() const { return {}; }

  /// Pre-sizes interning tables for an expected number of reachable
  /// states, so BFS warm-up (sched/sampler's warm_automaton) discovers
  /// states without mid-walk rehashes. Advisory; forwarded through
  /// wrappers like intern_stats.
  virtual void reserve_interning(std::size_t expected_states) {
    (void)expected_states;
  }

  // -- convenience helpers -------------------------------------------------

  /// All actions executable at q.
  ActionSet enabled(State q) { return signature(q).all(); }

  /// True when (q, a, q') in steps(A), i.e. q' in supp(eta_{(A,q,a)}).
  bool is_step(State q, ActionId a, State q2);

 private:
  std::string name_;
};

using PsioaPtr = std::shared_ptr<Psioa>;

/// Factory producing fresh, independent instances of the same automaton;
/// the unit of work distribution for the parallel sampler.
using PsioaFactory = std::function<PsioaPtr()>;

}  // namespace cdse
