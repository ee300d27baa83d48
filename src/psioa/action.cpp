#include "psioa/action.hpp"

#include <bit>
#include <mutex>
#include <stdexcept>

namespace cdse {

namespace {

/// Segment index and offset of `id`: segment k holds first << k slots
/// and starts at id first * (2^k - 1).
std::size_t segment_of(std::size_t id, std::size_t first,
                       std::size_t& offset) {
  const std::size_t k = std::bit_width(id / first + 1) - 1;
  offset = id - first * ((std::size_t{1} << k) - 1);
  return k;
}

}  // namespace

ActionTable& ActionTable::instance() {
  static ActionTable table;
  return table;
}

ActionTable::~ActionTable() {
  for (auto& seg : segments_) delete[] seg.load(std::memory_order_relaxed);
}

ActionId ActionTable::intern(std::string_view name) {
  {
    // Fast path: already interned -- shared lock, string_view probe,
    // zero allocation. This is every intern call after the first for a
    // given name, i.e. the steady state of sampling and composition.
    std::shared_lock<std::shared_mutex> lk(mu_);
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lk(mu_);
  // Double-check: another thread may have interned it between the locks.
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const std::size_t id = count_.load(std::memory_order_relaxed);
  if (id >= kInvalidAction) throw std::length_error("ActionTable: full");
  std::size_t offset = 0;
  const std::size_t k = segment_of(id, kFirstSegment, offset);
  std::string* seg = segments_[k].load(std::memory_order_relaxed);
  if (seg == nullptr) {
    seg = new std::string[kFirstSegment << k];
    segments_[k].store(seg, std::memory_order_release);
  }
  seg[offset].assign(name);
  ids_.emplace(seg[offset], static_cast<ActionId>(id));
  // Publish: a reader that sees the new count sees the written slot.
  count_.store(id + 1, std::memory_order_release);
  return static_cast<ActionId>(id);
}

ActionId ActionTable::lookup(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  auto it = ids_.find(name);
  return it == ids_.end() ? kInvalidAction : it->second;
}

const std::string& ActionTable::name(ActionId id) const {
  if (id >= size()) throw std::out_of_range("ActionTable::name: unknown id");
  std::size_t offset = 0;
  const std::size_t k = segment_of(id, kFirstSegment, offset);
  return segments_[k].load(std::memory_order_acquire)[offset];
}

ActionId act(std::string_view name) {
  return ActionTable::instance().intern(name);
}

ActionSet acts(std::initializer_list<std::string_view> names) {
  ActionSet s;
  s.reserve(names.size());
  for (auto n : names) s.push_back(act(n));
  set::normalize(s);
  return s;
}

std::string to_string(const ActionSet& s) {
  std::string out = "{";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) out += ", ";
    out += ActionTable::instance().name(s[i]);
  }
  out += "}";
  return out;
}

}  // namespace cdse
