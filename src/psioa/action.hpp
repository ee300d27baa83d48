#pragma once
// Actions and the process-wide action table.
//
// Automata built independently (e.g. a protocol and its environment) must
// agree on action identity for composition (Def 2.3-2.5) to mean anything,
// so action names are interned in one process-wide table. ActionId is a
// dense 32-bit handle; ActionSet is a sorted-vector set (util/sorted_set).
//
// Thread-safety: name() and size() take no lock. Names live in
// append-only segments that grow geometrically (segment k holds 64 << k
// names), so an id maps to its slot arithmetically and a slot never
// moves once written; the name count is stored with release ordering
// after the slot is written and loaded with acquire ordering before any
// slot is read, so every id below size() reads a complete name. This is
// what trace building hits, once per action of every perception.
// intern() and lookup() keep a shared_mutex over the name-to-id map:
// intern() takes a shared (read) lock on its fast path -- the
// overwhelmingly common already-interned case, including every act()
// call made while parallel workers replay automata whose names the main
// thread interned -- and only upgrades to an exclusive lock (with a
// double-check) to append a genuinely new name. The map's keys are
// string_views of the stored names, so the fast path allocates nothing.
// name() returns a reference that stays valid and unchanged across later
// interning.

#include <array>
#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/sorted_set.hpp"

namespace cdse {

using ActionId = std::uint32_t;
inline constexpr ActionId kInvalidAction = ~ActionId{0};

using ActionSet = SortedSet<ActionId>;

class ActionTable {
 public:
  static ActionTable& instance();

  ActionId intern(std::string_view name);
  ActionId lookup(std::string_view name) const;
  const std::string& name(ActionId id) const;
  std::size_t size() const { return count_.load(std::memory_order_acquire); }

  ActionTable(const ActionTable&) = delete;
  ActionTable& operator=(const ActionTable&) = delete;
  ~ActionTable();

 private:
  static constexpr std::size_t kFirstSegment = 64;
  static constexpr std::size_t kSegments = 27;
  static_assert(kFirstSegment * ((std::size_t{1} << kSegments) - 1) >=
                    kInvalidAction,
                "segments must cover every ActionId");

  ActionTable() = default;
  mutable std::shared_mutex mu_;  // guards ids_ and appends
  // Keys view the names in the segments, which never move.
  std::unordered_map<std::string_view, ActionId> ids_;
  std::array<std::atomic<std::string*>, kSegments> segments_{};
  std::atomic<std::size_t> count_{0};
};

/// Shorthand used throughout tests/examples.
ActionId act(std::string_view name);

/// Interns a whole set at once.
ActionSet acts(std::initializer_list<std::string_view> names);

/// Renders a set for diagnostics: "{a, b, c}".
std::string to_string(const ActionSet& s);

}  // namespace cdse
