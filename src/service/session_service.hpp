#pragma once
// MacSessionService: the million-session face of the dynamic MAC service.
//
// make_mac_service_pair (crypto/service.hpp) proves the *semantics* of
// run-time session creation: one DynamicPca whose creation policy spawns
// a session automaton per open and whose reduce() destroys it on the
// empty-signature sentinel (Def 2.12). That construction is exact and
// per-instance -- perfect for the emulation theorems, hopeless as a
// service: a PCA with n potential sessions has 5^n configurations, and
// one instance is single-threaded by contract.
//
// This class is the service reading of the same object. Sessions are
// statistically independent (the composed service's per-session forgery
// advantage is exactly 2^-k regardless of the other sessions -- the
// whole point of the composition theorems), so a million-session service
// is a million *cursors* over ONE frozen single-session template:
//
//   template  -- make_mac_service_pair({k}, tag).real_pca, warmed over
//                its 5 reachable states and frozen (MemoPsioa::freeze
//                hands its rows over) into a CompiledSnapshot every
//                worker shares read-only.
//                Forge rows sample through CompiledRow::sample, so the
//                hot path performs no Rational arithmetic.
//   session   -- a record in a sharded table: template-state cursor, a
//                per-session RNG stream (Xoshiro256::for_stream(seed,
//                sid)), and the handles of its interned per-session
//                state keys. Outcomes are a pure function of (seed,
//                sid): independent of worker count, interleaving, and
//                GC -- which is what the GC-on/off differential pins.
//   interner  -- a ShardedStateInterner holding one key [sid,
//                template-state] per state a session visits: the
//                service-scale analogue of DynamicPca's configuration
//                interning, and the thing session GC must reclaim.
//
// GC follows the epoch discipline end to end: close() retires the
// session's keys (fresh handles for a reopened sid from then on), and
// advance_epoch() -- called by the driver at quiescent wave boundaries
// -- collects the interner, releasing arena chunks whose every key
// belongs to dead sessions and compacting shards whose garbage fraction
// crossed the threshold. Compaction renumbers local handles; the remap
// callback rewrites the stored handles of sessions still live, so
// holding a session open across any number of epochs is safe.
//
// Overload robustness: open() applies a bounded admission test and
// rejects with kRejected (backpressure) instead of queueing without
// bound; crash-stop injection (drill mode) marks sessions crashed at
// open so later ops return kCrashed and the driver can abandon them
// gracefully.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/service.hpp"
#include "psioa/snapshot.hpp"
#include "util/rng.hpp"
#include "util/sharded_interner.hpp"

namespace cdse {

/// Result of a session operation. No exceptions on the hot path: the
/// driver branches on the status and keeps the wave moving.
enum class OpStatus {
  kOk,
  kRejected,  ///< admission bound hit (backpressure) -- open() only
  kCrashed,   ///< session is crash-stopped (fault drill)
  kNotFound,  ///< unknown/already-closed sid
  kBadState,  ///< op does not match the session's phase
};

/// Aggregate service counters (monotonic; read with stats()).
struct ServiceStats {
  std::uint64_t opened = 0;
  std::uint64_t rejected = 0;
  std::uint64_t authed = 0;
  std::uint64_t forged_attempts = 0;
  std::uint64_t forgeries = 0;  ///< forge draws that hit win (prob 2^-k)
  std::uint64_t closed = 0;
  std::uint64_t abandoned = 0;  ///< crash-stop sessions torn down
  std::uint64_t live = 0;       ///< open right now
  /// XOR of a per-session outcome fingerprint, accumulated at close.
  /// Order-independent, so it is identical for any interleaving, worker
  /// count, and GC schedule at a fixed (seed, sid set): the differential
  /// test's one-word witness.
  std::uint64_t outcome_digest = 0;
  /// Empty-signature destructions observed on the template PCA while
  /// warming (Def 2.12 wiring witness).
  std::uint64_t template_destructions = 0;
};

class MacSessionService {
 public:
  struct Options {
    std::uint32_t k = 10;           ///< forgery advantage 2^-k per session
    std::uint64_t seed = 0x5e55101ULL;
    std::size_t shards = 0;         ///< interner + table shards (0 = auto)
    std::size_t max_admitted = 1 << 20;  ///< admission bound (live sessions)
    bool gc = true;                 ///< retire/collect dead-session state
    double compact_threshold = 0.5; ///< shard garbage fraction to compact
    double crash_prob = 0.0;        ///< crash-stop injection (drill mode)
    std::string tag = "svc";
  };

  explicit MacSessionService(const Options& opts);

  // -- the op classes (thread-safe; sharded locking) -----------------------
  //
  // `view` is the calling worker's private SnapshotPsioa over the shared
  // template snapshot (worker_view()); exactly one thread may use a view.

  OpStatus open(SnapshotPsioa& view, std::uint64_t sid);
  OpStatus auth(SnapshotPsioa& view, std::uint64_t sid);
  /// The probabilistic op: draws win/lose from the frozen forge row with
  /// the session's own RNG stream.
  OpStatus forge(SnapshotPsioa& view, std::uint64_t sid);
  /// Fires the session's output (forged/rejected), destroying it. With
  /// GC on, the session's interned keys are retired (memory returns at
  /// the next advance_epoch). `was_forgery` (optional) reports the
  /// outcome.
  OpStatus close(SnapshotPsioa& view, std::uint64_t sid,
                 bool* was_forgery = nullptr);

  /// Tears down a crash-stopped (or stuck) session without firing its
  /// output: retires its keys and frees the slot. The fault drill's
  /// recovery path.
  OpStatus abandon(std::uint64_t sid);

  /// Re-derives the session's RNG stream from a rotated seed
  /// (seed + (attempt+1) * golden-gamma): the retry-on-timeout policy,
  /// same rotation the guarded sampler uses.
  OpStatus rotate_seed(std::uint64_t sid, std::size_t attempt);

  /// True iff `sid` is currently open.
  bool is_open(std::uint64_t sid) const;

  /// Interned-key handles a live session currently holds (empty vector
  /// for unknown sids). For the GC unit tests.
  std::vector<ShardedStateInterner::Handle> session_handles(
      std::uint64_t sid) const;

  // -- epoch GC ------------------------------------------------------------

  /// Quiescent epoch boundary: collect retired keys, release dead arena
  /// chunks, compact garbage-heavy shards (rewriting live sessions'
  /// stored handles through the remap). MUST NOT run concurrently with
  /// ops. No-op (zero result) when gc was disabled.
  ShardedStateInterner::CollectResult advance_epoch();

  // -- introspection -------------------------------------------------------

  /// A fresh per-worker view over the frozen template. One thread per
  /// view; any number of views.
  std::shared_ptr<SnapshotPsioa> worker_view() const;

  ServiceStats stats() const;
  InternStats intern_stats() const { return interner_.stats(); }
  std::size_t interner_live_keys() const { return interner_.live_keys(); }
  std::size_t interner_size() const { return interner_.size(); }
  bool gc_enabled() const { return opts_.gc; }
  const Options& options() const { return opts_; }

  /// The template's forgery advantage, 2^-k.
  double advantage() const { return advantage_; }

 private:
  enum class Phase : std::uint8_t { kOpened, kAuthed, kResolved };

  struct Session {
    Phase phase = Phase::kOpened;
    bool win = false;
    bool crashed = false;
    Xoshiro256 rng{0};
    // Keys interned so far: one per visited template state
    // (opened/authed/resolved), kInvalidHandle until visited.
    std::array<ShardedStateInterner::Handle, 3> keys{
        ShardedStateInterner::kInvalidHandle,
        ShardedStateInterner::kInvalidHandle,
        ShardedStateInterner::kInvalidHandle};
    std::uint8_t key_count = 0;
  };

  struct TableShard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, Session> sessions;
    // Shard-local counters, merged by stats(); avoids a global atomic
    // ping-pong on every op.
    ServiceStats counters;
  };

  TableShard& shard_for(std::uint64_t sid) {
    return *table_[sid & table_mask_];
  }
  const TableShard& shard_for(std::uint64_t sid) const {
    return *table_[sid & table_mask_];
  }

  ShardedStateInterner::Handle intern_key(std::uint64_t sid, State tstate);
  void retire_session_keys(Session& s);

  Options opts_;
  double advantage_ = 0.0;

  // The frozen single-session template.
  MacServicePair pair_;
  std::shared_ptr<const CompiledSnapshot> snapshot_;
  std::shared_ptr<SnapshotResidue> residue_;
  std::uint64_t template_destructions_ = 0;

  // Template geography, resolved once at construction.
  State q_start_ = 0, q_idle_ = 0, q_authed_ = 0, q_win_ = 0, q_lose_ = 0;
  ActionId a_open_ = 0, a_auth_ = 0, a_forge_ = 0, a_forged_ = 0,
           a_rejected_ = 0;

  ShardedStateInterner interner_;
  std::vector<std::unique_ptr<TableShard>> table_;
  std::uint64_t table_mask_ = 0;
  std::atomic<std::uint64_t> live_{0};
};

/// Resident set size of this process in bytes (Linux: /proc/self/statm;
/// 0 where unsupported). The soak driver samples it per wave to verify
/// GC keeps memory flat over hundreds of thousands of session cycles.
std::size_t process_rss_bytes();

}  // namespace cdse
