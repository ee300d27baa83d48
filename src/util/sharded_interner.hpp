#pragma once
// ShardedStateInterner: the concurrent handle store for the session
// service (src/service).
//
// A single StateInterner is per-instance and unsynchronized -- correct
// for one automaton driven by one thread, a global bottleneck for a
// service whose workers discover session state concurrently. This class
// stripes the key space over a power-of-two number of shards, each a
// (mutex, StateInterner) pair; a key's shard is chosen from the top bits
// of its hash (the slot index inside a shard uses the low bits, so the
// two consultations stay uncorrelated), and a worker only contends with
// workers interning into the same shard.
//
// Handles are global: (local handle << shard_bits) | shard. Local
// handles are dense per shard, so global handles are *not* dense -- the
// service stores them opaquely (session records hold their own handles),
// which is exactly the representation-independence the paper's emulation
// machinery licenses.
//
// Session GC runs the epoch discipline of StateInterner, service-wide:
// retire() is callable concurrently with interning (it takes the shard
// lock), while collect() must run at a *quiescent* epoch boundary -- no
// op in flight -- because a shard whose garbage fraction crossed the
// compaction threshold is rebuilt with renumbered local handles and the
// owner is handed the old->new map to rewrite every stored handle.
// Compaction is what bounds the service's RSS over millions of session
// open/close cycles: retire+collect alone returns key bytes (arena
// chunks) but the per-key entry rows would still grow without bound.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/state_interner.hpp"

namespace cdse {

class ShardedStateInterner {
 public:
  using Handle = std::uint64_t;
  static constexpr Handle kInvalidHandle = ~Handle{0};

  /// Called once per compacted shard, after that shard's lock is released
  /// (collect() runs quiescently, so nothing observes the shard between
  /// compaction and remap): old_to_new_local[old local handle] is the new
  /// local handle, or StateInterner::kInvalidHandle for retired keys. The
  /// owner must rewrite every stored global handle of this shard (see
  /// remap()).
  using RemapFn = std::function<void(
      std::size_t shard, const std::vector<Handle>& old_to_new_local)>;

  struct CollectResult {
    std::size_t keys_collected = 0;
    std::size_t shards_compacted = 0;
    std::size_t bytes_reclaimed = 0;  ///< delta this collect
  };

  /// `shards` is rounded up to a power of two; 0 picks a default sized
  /// to the hardware concurrency (clamped to [4, 64]).
  explicit ShardedStateInterner(std::size_t shards = 0);

  std::size_t shard_count() const { return shards_.size(); }

  Handle intern_bytes(const void* data, std::size_t len);
  Handle intern_tuple(const std::uint64_t* words, std::size_t n) {
    return intern_bytes(words, n * sizeof(std::uint64_t));
  }

  /// Marks the handle dead (fresh handle for an equal key from now on).
  /// Memory returns at the next collect(). Safe concurrently with
  /// interning. Returns false for unknown/already-retired handles.
  bool retire(Handle h);

  bool is_live(Handle h) const;

  /// Key bytes of a live handle (throws std::out_of_range otherwise).
  /// The pointer is stable until the owning shard is compacted.
  std::pair<const std::byte*, std::size_t> key(Handle h) const;

  /// Epoch boundary. Collects every shard; shards whose dead fraction
  /// exceeds `compact_threshold` (of handles ever issued in the shard)
  /// are compacted, invoking `remap` so the owner can rewrite stored
  /// handles. MUST run quiescently: no concurrent intern/retire/key
  /// calls (a racing op could observe handles from before and after a
  /// remap).
  CollectResult collect(double compact_threshold = 0.5,
                        const RemapFn& remap = nullptr);

  /// Rewrites a global handle through a shard's old->new local map (the
  /// inverse convenience of RemapFn's contract).
  Handle remap(Handle h, const std::vector<Handle>& old_to_new_local) const;

  std::size_t shard_of(Handle h) const {
    return static_cast<std::size_t>(h & shard_mask_);
  }
  Handle local_of(Handle h) const { return h >> shard_bits_; }

  /// InternStats aggregated across every shard (the tentpole contract:
  /// one row of allocator-traffic truth for the whole service).
  InternStats stats() const;

  std::size_t size() const;       ///< keys currently indexed (sum of shards)
  std::size_t live_keys() const;  ///< live handles across shards

 private:
  struct Shard {
    mutable std::mutex mu;
    StateInterner interner;
    std::size_t compactions = 0;
  };

  Handle global_handle(std::size_t shard, Handle local) const {
    return (local << shard_bits_) | static_cast<Handle>(shard);
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_bits_ = 0;
  Handle shard_mask_ = 0;
};

}  // namespace cdse
