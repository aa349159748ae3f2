/// \file name_index.hpp
/// Name -> dense id index over names kept elsewhere (a table's own name
/// column). Open addressing over 8-byte (hash, id) slots: an entry allocates
/// nothing, and a probe compares strings only when the hashes match, so an
/// insert into a table of 100k names costs about one cache miss instead of
/// the several of a node-based hash map.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace sg::xbt {

class NameIndex {
public:
  /// Id of `name`, or -1. `name_of(id)` returns the stored name of an id.
  template <typename NameOf>
  int find(std::string_view name, const NameOf& name_of) const {
    return slots_.empty() ? -1 : slots_[probe(name, hash(name), name_of)].id;
  }

  /// Map `name` to `id` unless `name` is already mapped; returns false (and
  /// changes nothing) when it is. `id` need not have a stored name yet.
  template <typename NameOf>
  bool insert(std::string_view name, int id, const NameOf& name_of) {
    if ((count_ + 1) * 2 > slots_.size()) {  // load <= 1/2 keeps probe runs short
      std::vector<Slot> old = std::move(slots_);
      slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
      const size_t mask = slots_.size() - 1;
      for (const Slot& s : old) {
        if (s.id < 0)
          continue;
        size_t i = s.hash & mask;
        while (slots_[i].id >= 0)
          i = (i + 1) & mask;
        slots_[i] = s;
      }
    }
    const std::uint32_t h = hash(name);
    Slot& slot = slots_[probe(name, h, name_of)];
    if (slot.id >= 0)
      return false;
    slot = Slot{h, id};
    ++count_;
    return true;
  }

private:
  struct Slot {
    std::uint32_t hash = 0;
    std::int32_t id = -1;  ///< -1: free
  };

  static std::uint32_t hash(std::string_view s) {
    const std::uint64_t h = std::hash<std::string_view>{}(s);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }

  /// The slot holding `name`, or the free slot that ends its probe run.
  template <typename NameOf>
  size_t probe(std::string_view name, std::uint32_t h, const NameOf& name_of) const {
    const size_t mask = slots_.size() - 1;
    size_t i = h & mask;
    while (slots_[i].id >= 0 && !(slots_[i].hash == h && name_of(slots_[i].id) == name))
      i = (i + 1) & mask;
    return i;
  }

  std::vector<Slot> slots_;  ///< power-of-2 size
  size_t count_ = 0;
};

}  // namespace sg::xbt
