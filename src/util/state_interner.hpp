#pragma once
// Arena-backed state interning: one allocator-free handle store shared by
// every wrapper automaton that maps discovered structures to dense State
// handles (composed tuples, PCA configurations, fault-wrapper keys).
//
// The paper's representation independence (and the CRDT-emulation
// observation it echoes) is what licenses this layer: a handle store may
// change freely as long as the bijection between structures and handles
// is preserved. Handles here are dense and assigned in discovery order --
// exactly the order the legacy per-instance maps assigned them -- so the
// migration was semantics-neutral down to draw-for-draw seed
// reproducibility (tests/intern_test.cpp pins the handle assignment
// against a std::map oracle).
//
// Two pieces:
//   Arena         -- a chunked bump allocator. Chunks are never moved, so
//                    pointers into the arena stay stable across later
//                    allocation; chunk sizes grow geometrically so
//                    reserved bytes track used bytes within a small
//                    constant factor. Chunks carry a live-byte balance:
//                    a chunk whose every allocation has been returned via
//                    deallocate_from() releases its memory (the chunk
//                    record stays, so chunk indices remain stable) --
//                    the unit of reclamation for session GC.
//   StateInterner -- an open-addressing hash table over variable-length
//                    keys stored *inline* in the arena (one copy, no
//                    per-key node allocation), with an entry table giving
//                    O(1) handle -> key access. Keys are byte strings;
//                    word-aligned tuple keys get a typed TupleRef view.
//
// Thread-safety: none (per-instance, like the maps it replaces); the
// one-thread-per-instance rule of psioa.hpp covers it.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace cdse {

/// Interner/arena counters, exposed per automaton via
/// Psioa::intern_stats() and summed over wrapper stacks so the E10 bench
/// can report allocator traffic next to throughput.
struct InternStats {
  std::size_t keys = 0;       ///< interned keys ever (== handles issued)
  std::size_t lookups = 0;    ///< intern() calls
  std::size_t probes = 0;     ///< slot probe steps across all lookups
  std::size_t rehashes = 0;   ///< table growths (reinsert passes)
  std::size_t arena_bytes = 0;  ///< bytes the interner *currently holds*
                                ///< for keys+tables (drops as GC frees)
  std::size_t arena_chunks = 0;  ///< held arena chunks
  std::size_t keys_retired = 0;  ///< handles retired by session GC
  std::size_t bytes_live = 0;    ///< key bytes owned by live handles only
  std::size_t bytes_reclaimed = 0;  ///< cumulative bytes returned by GC
                                    ///< (freed chunks / compaction)

  InternStats& operator+=(const InternStats& o) {
    keys += o.keys;
    lookups += o.lookups;
    probes += o.probes;
    rehashes += o.rehashes;
    arena_bytes += o.arena_bytes;
    arena_chunks += o.arena_chunks;
    keys_retired += o.keys_retired;
    bytes_live += o.bytes_live;
    bytes_reclaimed += o.bytes_reclaimed;
    return *this;
  }
};

/// Chunked bump allocator. allocate() never fails over to moving old
/// chunks, so returned pointers are stable for as long as their chunk is
/// held. Individual allocations are never freed in place; instead each
/// chunk keeps a live-byte balance (charged by allocate, discharged by
/// deallocate_from), and a chunk whose balance reaches zero -- and which
/// is no longer the bump target -- releases its memory wholesale. That
/// is the GC granularity session retirement needs: destroyed-session
/// keys drain their chunks, and epoch collection returns whole chunks.
class Arena {
 public:
  static constexpr std::size_t kFirstChunkBytes = std::size_t{1} << 12;
  static constexpr std::size_t kMaxChunkBytes = std::size_t{1} << 20;
  static constexpr std::uint32_t kNoChunk = 0xffffffffu;

  explicit Arena(std::size_t first_chunk_bytes = kFirstChunkBytes);

  /// Returns `bytes` bytes aligned to `align` (a power of two). When
  /// `chunk_out` is given it receives the index of the owning chunk, the
  /// token deallocate_from() later takes.
  void* allocate(std::size_t bytes, std::size_t align,
                 std::uint32_t* chunk_out = nullptr);

  /// Discharges `bytes` of live mass from chunk `chunk` (as charged by
  /// the matching allocate). When the chunk's balance reaches zero and it
  /// is not the current bump target, its memory is released; the chunk
  /// record survives so indices stay stable. Returns the bytes this call
  /// released back to the OS (the chunk size, or 0).
  std::size_t deallocate_from(std::uint32_t chunk, std::size_t bytes);

  /// Releases every fully-dead held chunk except the bump target
  /// (deallocate_from already frees eagerly; this sweep catches chunks
  /// that drained while they *were* the bump target and were then
  /// passed over by growth). Returns bytes released.
  std::size_t release_dead_chunks();

  /// Ensures the current chunk chain can absorb `bytes` more bytes.
  void reserve(std::size_t bytes);

  std::size_t bytes_used() const { return used_; }
  std::size_t bytes_reserved() const { return reserved_; }
  /// Bytes currently held (reserved minus chunks released by GC).
  std::size_t bytes_held() const { return reserved_ - released_; }
  /// Live-allocation balance across held chunks.
  std::size_t bytes_live() const { return live_; }
  /// Cumulative bytes released by dead-chunk reclamation.
  std::size_t bytes_released() const { return released_; }
  std::size_t chunk_count() const { return chunks_.size(); }
  /// Chunks still holding memory.
  std::size_t held_chunk_count() const { return chunks_.size() - freed_chunks_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
    std::size_t live = 0;  // charged minus discharged bytes
  };

  Chunk& grow(std::size_t min_bytes);

  std::vector<Chunk> chunks_;
  std::size_t next_chunk_bytes_;
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
  std::size_t released_ = 0;
  std::size_t live_ = 0;
  std::size_t freed_chunks_ = 0;
};

/// Borrowed view of a word-sized interned key (a component-state tuple or
/// any other State-array key). Valid for the interner's lifetime: keys
/// live in the arena and never move.
struct TupleRef {
  const std::uint64_t* ptr = nullptr;
  std::size_t len = 0;

  std::size_t size() const { return len; }
  bool empty() const { return len == 0; }
  std::uint64_t operator[](std::size_t i) const { return ptr[i]; }
  const std::uint64_t* begin() const { return ptr; }
  const std::uint64_t* end() const { return ptr + len; }
};

class StateInterner {
 public:
  using Handle = std::uint64_t;
  static constexpr Handle kInvalidHandle = ~Handle{0};

  /// Interns an arbitrary byte-string key; returns its dense handle
  /// (size() - 1 on first sight, the prior handle on every later call).
  /// A key equal to a *retired* key does not resurrect the old handle:
  /// it is interned afresh under a new one (session GC depends on this
  /// -- reopening a session id must yield fresh handles).
  Handle intern_bytes(const void* data, std::size_t len);

  /// Same, with the caller-computed hash_bytes(data, len). The sharded
  /// interner hashes once to pick a shard and forwards the hash here.
  Handle intern_bytes_hashed(const void* data, std::size_t len,
                             std::uint64_t hash);

  /// Interns a word-array key (component-state tuples, packed POD keys).
  Handle intern_tuple(const std::uint64_t* words, std::size_t n);
  Handle intern_tuple(const std::vector<std::uint64_t>& t) {
    return intern_tuple(t.data(), t.size());
  }

  /// O(1) handle -> key. key() returns the raw bytes; tuple() the typed
  /// word view (the key must have been interned via intern_tuple).
  /// Both throw std::out_of_range on an unknown handle.
  std::pair<const std::byte*, std::size_t> key(Handle h) const;
  TupleRef tuple(Handle h) const;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // -- session GC ----------------------------------------------------------
  //
  // Epoch discipline: retire() is cheap and immediate in its *naming*
  // effect (the handle stops resolving, the key can be re-interned under
  // a fresh handle), while the *memory* effect is deferred to collect(),
  // which the owner calls at an epoch boundary when no consumer still
  // holds retired handles. compact() additionally renumbers live handles
  // densely; it is opt-in because it breaks handle stability and must be
  // paired with a remap of every stored handle (the sharded interner
  // does exactly that through its remap callback).

  /// Marks `h` dead: key()/tuple() throw for it from now on, and an
  /// equal key interns fresh. Memory is reclaimed by the next collect().
  /// Returns false when `h` is unknown or already retired.
  bool retire(Handle h);

  /// True for an issued, un-retired handle.
  bool is_live(Handle h) const;

  /// Handles issued and not retired.
  std::size_t live_keys() const { return entries_.size() - retired_; }

  /// Applies pending retirements: discharges dead keys from the arena
  /// (releasing fully-dead chunks) and rebuilds the slot table without
  /// them. Returns keys collected.
  std::size_t collect();

  /// Rebuilds the interner from live keys only, renumbering them densely
  /// in handle order. `old_to_new` (if given) is resized to the old
  /// handle count; retired handles map to kInvalidHandle. Implies
  /// collect(). Cumulative counters (lookups/probes/rehashes/
  /// bytes_reclaimed) survive.
  void compact(std::vector<Handle>* old_to_new = nullptr);

  /// Pre-sizes the table for `expected_keys`, so a BFS discovery burst
  /// (warm_automaton) does not rehash mid-walk.
  void reserve(std::size_t expected_keys);

  /// FNV-1a over the key bytes, seeded with the key length and finished
  /// with a splitmix64 avalanche. Seeding with the length is load-bearing:
  /// the retired ComposedPsioa::TupleHash ignored arity, so equal-prefix
  /// tuples of different lengths collided more than they should.
  static std::uint64_t hash_bytes(const void* data, std::size_t len);
  static std::uint64_t hash_tuple(const std::uint64_t* words, std::size_t n) {
    return hash_bytes(words, n * sizeof(std::uint64_t));
  }

  InternStats stats() const;

 private:
  struct Entry {
    const std::byte* ptr;  // key bytes (arena slot)
    std::uint64_t hash;
    std::uint32_t len;    // in bytes
    std::uint32_t chunk;  // owning arena chunk | kDeadBit when retired
  };
  // Retirement flag, OR'd into Entry::chunk (chunk indices stay < 2^31).
  static constexpr std::uint32_t kDeadBit = 0x80000000u;
  // Entry::chunk sentinel for keys without an owning arena chunk
  // (zero-length keys). Deliberately NOT Arena::kNoChunk: that bit
  // pattern contains kDeadBit, and a live entry must not read as retired.
  static constexpr std::uint32_t kNoEntryChunk = 0x7fffffffu;

  static bool entry_dead(const Entry& e) { return (e.chunk & kDeadBit) != 0; }

  void grow_table(std::size_t min_slots);
  void rebuild_slots();

  // Handle -> key table.
  std::vector<Entry> entries_;

  // Inline key storage + open addressing. Slot values are handle + 1; 0
  // marks an empty slot.
  Arena arena_;
  std::vector<std::uint32_t> slots_;
  std::uint64_t slot_mask_ = 0;

  // Session-GC bookkeeping.
  std::vector<Handle> pending_retired_;  // retired, not yet collected
  std::size_t retired_ = 0;              // dead handles (pending + collected)
  std::size_t bytes_reclaimed_ = 0;      // cumulative, survives compact()

  std::size_t lookups_ = 0;
  std::size_t probes_ = 0;
  std::size_t rehashes_ = 0;
};

}  // namespace cdse
