#pragma once
// Insight functions and external perception (Def 3.4, Def 3.5).
//
// An insight function maps a (finite, halted) execution of E||A to a
// value in a perception space that depends on E only -- the device the
// paper uses to compare systems through an environment's eyes. We use
// strings as the perception space G_E; f-dist is then an (exact or
// sampled) discrete measure over strings.
//
// Implementations:
//   TraceInsight  -- the full external trace (the classic trace function).
//   AcceptInsight -- "1" iff a designated accept action occurs ([3]/[4]).
//   PrintInsight  -- the trace restricted to a designated action set
//                    (the print function of [7]; the set plays the role
//                    of the environment's dedicated print actions).
//
// All three are stable by composition (Def 3.7) *when their designated
// actions belong to the environment*: composing a context B onto A never
// changes what they report about E's actions. Tests verify this.
//
// All three are also TraceFunctions: their perception depends on the
// execution only through its trace, so a sampled verdict needs one
// perception per distinct trace, not one per distinct execution. The
// batched sampler exploits this through a PerceptionTable: a trie of the
// traces its classes walk, memoizing one perception id per trie node.

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "measure/disc.hpp"
#include "psioa/execution.hpp"

namespace cdse {

using Perception = std::string;

class InsightFunction {
 public:
  virtual ~InsightFunction() = default;
  virtual Perception apply(Psioa& automaton,
                           const ExecFragment& alpha) const = 0;
  virtual std::string name() const = 0;
};

/// An insight function that reads nothing of an execution but its trace
/// (Def 2.2: the actions external at their source state). The property
/// is carried by the type: apply() is final and only hands of_trace the
/// trace, so a subclass cannot read states. Sampled verdicts evaluate
/// of_trace once per distinct trace (PerceptionTable); any other
/// InsightFunction is applied once per distinct terminal execution.
class TraceFunction : public InsightFunction {
 public:
  /// The perception of every execution whose trace is `trace`.
  virtual Perception of_trace(const std::vector<ActionId>& trace) const = 0;
  Perception apply(Psioa& automaton, const ExecFragment& alpha) const final {
    return of_trace(trace_of(automaton, alpha));
  }
};

class TraceInsight : public TraceFunction {
 public:
  Perception of_trace(const std::vector<ActionId>& trace) const override;
  std::string name() const override { return "trace"; }
};

class AcceptInsight : public TraceFunction {
 public:
  explicit AcceptInsight(ActionId accept_action) : acc_(accept_action) {}
  Perception of_trace(const std::vector<ActionId>& trace) const override;
  std::string name() const override { return "accept"; }

 private:
  ActionId acc_;
};

class PrintInsight : public TraceFunction {
 public:
  explicit PrintInsight(ActionSet print_actions)
      : print_(std::move(print_actions)) {}
  Perception of_trace(const std::vector<ActionId>& trace) const override;
  std::string name() const override { return "print"; }

 private:
  ActionSet print_;
};

/// Interned perceptions of one sampled verdict, keyed by dense integer
/// ids, plus the trie of the traces its samplers walk.
///
/// The trie maps (node, external action) to a node; node kEmptyTrace is
/// the empty trace, so every trie node names exactly one trace. A
/// TraceFunction's perception is memoized per node (of_node), so
/// of_trace runs once per distinct trace for the table's lifetime.
/// Perceptions are interned to ids 0, 1, ... in first-seen order, each
/// string stored once; order() lists the ids sorted by their string, the
/// order every Disc<Perception, ...> uses, so id-keyed tallies can be
/// read cell by cell exactly as the string-keyed ones were.
///
/// One table serves one insight function. It is not thread-safe: a
/// table is used by one thread at a time (the samplers stepped on it and
/// the looks that read it).
class PerceptionTable {
 public:
  using Id = std::uint32_t;
  static constexpr std::int32_t kEmptyTrace = 0;

  PerceptionTable();
  PerceptionTable(const PerceptionTable&) = delete;
  PerceptionTable& operator=(const PerceptionTable&) = delete;

  /// The trie node of `node`'s trace followed by the external action `a`.
  std::int32_t extend(std::int32_t node, ActionId a);
  /// The trace named by trie node `node`.
  std::vector<ActionId> trace(std::int32_t node) const;

  /// The id of f.of_trace(trace(node)), evaluated on the node's first
  /// query only. The memo belongs to the first f queried: passing
  /// another throws std::logic_error.
  Id of_node(std::int32_t node, const TraceFunction& f);
  /// The id of `p`, interning it on first sight.
  Id intern(Perception p);

  std::size_t size() const { return strings_.size(); }
  const Perception& perception(Id id) const { return strings_[id]; }

  /// Every id, ascending by perception string. Ids interned since the
  /// previous call are sorted among themselves and merged in: O(K + m
  /// log m) for m new ids among K.
  const std::vector<Id>& order();

  /// The measure putting fn(counts[id]) on perception(id) for every id
  /// with a nonzero count (ids past counts.size() count 0).
  template <typename F>
  Disc<Perception, double> to_disc(const std::vector<double>& counts,
                                   F&& fn) {
    Disc<Perception, double> out;
    for (Id id : order()) {
      if (id < counts.size() && counts[id] != 0.0) {
        out.add(strings_[id], fn(counts[id]));
      }
    }
    return out;
  }

 private:
  static constexpr Id kNoId = ~Id{0};

  // Trie, one entry per node: parent and incoming action, children as a
  // first-child / next-sibling list (a node has one child per distinct
  // external action that follows its trace, so extend() scans a short
  // list instead of hashing), and the memoized perception id.
  std::vector<std::int32_t> parent_;
  std::vector<ActionId> action_;
  std::vector<std::int32_t> first_child_;
  std::vector<std::int32_t> next_sibling_;
  std::vector<Id> node_id_;
  const TraceFunction* memo_owner_ = nullptr;

  // Interning: a deque never moves its elements, so the views keying
  // ids_ stay valid as strings are added.
  std::deque<Perception> strings_;
  std::unordered_map<std::string_view, Id> ids_;
  std::vector<Id> order_;
};

/// One (perception id, count) pair per terminal class: the id-keyed
/// counts a batched sampler hands out. Equal ids may repeat.
using PerceptionCounts = std::vector<std::pair<PerceptionTable::Id,
                                               std::uint64_t>>;

/// Adds every pair of `delta` to the dense tally (tally[id] += count),
/// growing it as needed. Integer counts sum exactly in doubles, so the
/// tally does not depend on how the deltas were cut.
void add_counts(std::vector<double>& tally, const PerceptionCounts& delta);

}  // namespace cdse
