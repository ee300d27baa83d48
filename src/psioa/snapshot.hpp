#pragma once
// Frozen compiled-transition snapshots shared by parallel samplers.
//
// The memo layer (psioa/memo.hpp) made single-instance sampling cheap,
// but the parallel sampler still cloned the automaton stack per worker
// and re-warmed a private memo in every chunk: O(workers x reachable
// states) memory and a cold start per worker. This layer splits a warmed
// instance into an immutable majority and a mutable residue:
//
//   CompiledSnapshot -- a read-only copy of the warm instance's resolved
//       Signatures and CompiledRow CDFs, held behind shared_ptr<const>
//       and shared by every worker without synchronization. One copy,
//       regardless of worker count.
//   SnapshotResidue  -- the warm instance itself plus a mutex. The warm
//       instance is the *handle authority*: every State handle in the
//       snapshot was interned by it, and any state discovered after the
//       freeze must be interned by it too, or handles would stop naming
//       the same states across workers. Residue access is serialized,
//       which preserves the one-thread-per-instance rule for the only
//       mutable piece left.
//   SnapshotPsioa    -- a thin per-worker view: snapshot lookups are
//       lock-free; misses fall back to a worker-local overflow memo and,
//       on a cold miss, to one locked compute on the residue. Workers
//       own a view each, so the one-thread-per-instance rule holds for
//       the view's overflow tables exactly as it does for MemoPsioa.
//
// Determinism. Frozen rows are byte-copies of the warm instance's rows,
// so a view's draws are draw-for-draw identical to a clone warmed by the
// same deterministic warm-up (tests/snapshot_test.cpp proves this
// differentially against the clone recomputing its rows as well). Overflow
// rows are compiled with their targets ordered by encode_state() rather
// than by State handle: post-freeze handle values depend on which worker
// faults a cold region first, but state encodings are structural, so the
// overflow draw mapping -- and with it every sampled result -- stays
// reproducible at fixed seeds even when workers race on the residue.

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "psioa/memo.hpp"

namespace cdse {

/// A partition of a snapshot's states into blocks. Block ids are dense
/// in [0, blocks) and double as the State handles of the quotient
/// snapshot, so the remap IS the handle translation. Producers (the
/// bisimulation partitioner of impl/bisim.hpp, tests building identity
/// partitions by hand) assign ids in sorted-original-handle
/// first-encounter order, which keeps quotient row orders -- and with
/// them the compiled CDFs -- deterministic.
struct SnapshotPartition {
  std::unordered_map<State, std::size_t> block_of;
  std::size_t blocks = 0;
};

class QuotientSnapshot;

/// Immutable post-warmup tables of one MemoPsioa instance. Constructed
/// by MemoPsioa::freeze(); never mutated afterwards, so concurrent reads
/// need no synchronization.
class CompiledSnapshot {
 public:
  struct FrozenState {
    std::optional<Signature> sig;
    std::unordered_map<ActionId, CompiledRow> rows;
  };

  CompiledSnapshot(State start, std::string source,
                   std::unordered_map<State, FrozenState> states);

  /// Start state of the source instance (valid in its handle space).
  State start_state() const { return start_; }

  /// Name of the automaton the snapshot was frozen from.
  const std::string& source() const { return source_; }

  /// Frozen signature for q, or nullptr when q was not warmed.
  const Signature* find_signature(State q) const;

  /// Frozen compiled row for (q, a), or nullptr when not warmed.
  const CompiledRow* find_row(State q, ActionId a) const;

  /// The whole frozen table, for offline passes that walk every state
  /// (the bisimulation partitioner, the quotient builder).
  const std::unordered_map<State, FrozenState>& frozen_states() const {
    return states_;
  }

  /// Collapses this snapshot along `partition`: the quotient's states
  /// are the blocks, its rows are the representative member's rows with
  /// targets remapped block-wise and weights merged exactly (Rational
  /// sums through the canonical sorted-merge of measure/disc.hpp). The
  /// result is an ordinary immutable snapshot -- shareable across
  /// workers like any frozen snapshot, just smaller. Throws
  /// std::invalid_argument when the partition does not cover every
  /// state, contains an out-of-range id, or has an empty block.
  QuotientSnapshot quotient(const SnapshotPartition& partition) const;

  std::size_t state_count() const { return states_.size(); }
  std::size_t row_count() const { return row_count_; }

 private:
  State start_;
  std::string source_;
  std::unordered_map<State, FrozenState> states_;
  std::size_t row_count_ = 0;
};

/// A minimized snapshot plus the remap that produced it. `reduced` owns
/// copies of the merged rows, so it stays valid after the source
/// snapshot (and the warm instance behind it) are gone.
class QuotientSnapshot {
 public:
  std::shared_ptr<const CompiledSnapshot> reduced;
  /// Original handle -> block handle (the block id, as a State).
  std::unordered_map<State, State> block_of;
  std::size_t original_states = 0;
  std::size_t blocks = 0;
  /// Rows of frontier (incompletely warmed) states dropped because a
  /// target was never interned into the snapshot; a covering warm-up
  /// (horizon >= enumeration depth, no state-cap hit) leaves this 0 for
  /// every block the enumeration can expand.
  std::size_t dropped_rows = 0;
};

/// The mutable residue behind a snapshot: the warm instance (handle
/// authority for every state, frozen or not) serialized by a mutex.
/// Shared by all views of one snapshot.
struct SnapshotResidue {
  explicit SnapshotResidue(std::shared_ptr<MemoPsioa> warm_instance)
      : warm(std::move(warm_instance)) {}

  std::mutex mu;
  std::shared_ptr<MemoPsioa> warm;
};

/// Per-view counters, exposed for the E10 bench and the differential
/// suite. hits are served lock-free from the frozen tables; misses fell
/// past them; overflows are the subset of misses that needed a locked
/// compute on the residue (the rest were worker-local overflow hits).
struct SnapshotStats {
  std::size_t sig_hits = 0;
  std::size_t sig_misses = 0;
  std::size_t sig_overflows = 0;
  std::size_t row_hits = 0;
  std::size_t row_misses = 0;
  std::size_t row_overflows = 0;

  SnapshotStats& operator+=(const SnapshotStats& o);

  friend bool operator==(const SnapshotStats& a, const SnapshotStats& b) {
    return a.sig_hits == b.sig_hits && a.sig_misses == b.sig_misses &&
           a.sig_overflows == b.sig_overflows && a.row_hits == b.row_hits &&
           a.row_misses == b.row_misses && a.row_overflows == b.row_overflows;
  }
};

/// Compiles a row with targets ordered by their bit-string encoding
/// instead of entry (handle) order. Used on the overflow path, where
/// handle values are assigned under a racing lock and therefore must not
/// influence the draw mapping. `encoder` supplies encode_state and must
/// be the residue's warm instance (caller holds the residue lock).
CompiledRow compile_row_by_encoding(StateDist d, Psioa& encoder);

/// Thin per-worker view over a shared snapshot. Exactly one thread may
/// drive a view (its overflow memo is unsynchronized, like any
/// MemoPsioa); any number of views may share one snapshot + residue.
class SnapshotPsioa final : public MemoPsioa {
 public:
  SnapshotPsioa(std::shared_ptr<const CompiledSnapshot> snapshot,
                std::shared_ptr<SnapshotResidue> residue);

  State start_state() override { return snap_->start_state(); }

  const Signature& signature_ref(State q) override;
  const CompiledRow& compiled_row(State q, ActionId a) override;

  BitString encode_state(State q) override;
  std::string state_label(State q) override;

  const CompiledSnapshot& snapshot() const { return *snap_; }
  const SnapshotStats& snapshot_stats() const { return sstats_; }

  /// Interning counters of the shared handle authority (the residue's
  /// warm instance), taken under the residue lock. Views intern nothing
  /// themselves, so this is the whole stack's arena footprint.
  InternStats intern_stats() const override;

 protected:
  // Cold-miss path: one serialized compute on the residue's warm
  // instance, which also interns any newly discovered states so handles
  // stay consistent across every view of this snapshot.
  Signature compute_signature(State q) override;
  StateDist compute_transition(State q, ActionId a) override;

 private:
  struct RowKey {
    State q;
    ActionId a;
    friend bool operator==(const RowKey& x, const RowKey& y) {
      return x.q == y.q && x.a == y.a;
    }
  };
  struct RowKeyHash {
    std::size_t operator()(const RowKey& k) const {
      std::size_t h = std::hash<State>{}(k.q);
      h ^= std::hash<ActionId>{}(k.a) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
      return h;
    }
  };

  std::shared_ptr<const CompiledSnapshot> snap_;
  std::shared_ptr<SnapshotResidue> residue_;
  std::unordered_map<State, Signature> over_sigs_;
  std::unordered_map<RowKey, CompiledRow, RowKeyHash> over_rows_;
  SnapshotStats sstats_;
};

/// Frozen-only view over a quotient snapshot: state handles are block
/// ids, rows are the exactly-merged block rows. Unlike SnapshotPsioa
/// there is no residue -- blocks exist only in the quotient's handle
/// space, so there is no warm instance that could compute a missed row.
/// A lookup outside the frozen tables therefore throws std::logic_error:
/// it means the enumeration left the minimized horizon, and silently
/// recomputing would break the exactness contract. Callers guarantee
/// coverage by quotienting a snapshot whose warm-up horizon is at least
/// the enumeration depth (reduce_for_enumeration enforces this).
///
/// Views carry no mutable state beyond the base counters, but workers
/// still get one instance each (one-thread-per-instance, as everywhere).
class QuotientPsioa final : public MemoPsioa {
 public:
  explicit QuotientPsioa(std::shared_ptr<const CompiledSnapshot> reduced);

  State start_state() override { return snap_->start_state(); }

  const Signature& signature_ref(State q) override;
  const CompiledRow& compiled_row(State q, ActionId a) override;

  /// Blocks are synthetic: the id is the whole structural content.
  BitString encode_state(State q) override { return BitString::from_uint(q); }
  std::string state_label(State q) override {
    return "block" + std::to_string(q);
  }

  const CompiledSnapshot& snapshot() const { return *snap_; }

 protected:
  // No fallback engine exists for a quotient; see the class comment.
  Signature compute_signature(State q) override;
  StateDist compute_transition(State q, ActionId a) override;

 private:
  std::shared_ptr<const CompiledSnapshot> snap_;
};

}  // namespace cdse
