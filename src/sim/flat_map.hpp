// Deterministic open-addressing hash map for the NIC/GM hot paths.
//
// std::unordered_map served the connection, group and pending-op tables
// but charged the packet path a heap node plus pointer chase per entry,
// rehash churn as clusters grow, and an iteration order that follows the
// implementation's hash seed (the repo's unordered-iteration lint exists
// because of that).  FlatMap replaces it with three flat arrays:
//
//   - a linear-probe bucket index storing (key, slot) inline — lookups
//     touch consecutive cache lines, and backward-shift deletion keeps
//     probe chains short with no tombstone buildup;
//   - a chunked slot pool of Entry{first, second} values — chunks are
//     never moved or freed, so entry references and iterators stay
//     stable across insert/erase/growth, matching the node-based map
//     this replaces (NIC callbacks hold GroupState& across scheduling);
//   - an intrusive doubly-linked insertion-order list threaded through
//     the slots — iteration order is a pure function of the operation
//     sequence, never of the hash function or its seed.
//
// The API subset mirrors std::unordered_map (find/end/at/contains/
// operator[]/emplace/erase/size/iteration with it->first, it->second)
// so call sites swap types without edits.  Erased values are reset to a
// default-constructed state immediately (resources release eagerly, as
// with erase on a node map) and their slots recycle through a free list.
//
// Constraints: Key is an integral type where every bit pattern is a
// valid key (emptiness is tracked by the slot field, not a sentinel
// key); T is default-constructible and move-assignable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace nicmcast::sim {

template <typename Key, typename T>
class FlatMap {
  static_assert(std::is_integral_v<Key>,
                "FlatMap keys are packed integers (conn keys, handles, ids)");

 public:
  using key_type = Key;
  using mapped_type = T;

  /// Stored entry, named like std::pair so unordered_map call sites
  /// (it->first / it->second, structured bindings) compile unchanged.
  struct Entry {
    Key first{};
    T second{};
  };

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kNoBucket = ~std::size_t{0};
  // 8 entries per chunk: small enough that a NIC whose tables hold a
  // handful of peers (the common soak/short-run shape) touches one small
  // allocation per map, not a 64-entry arena it then default-destroys.
  // Entries over 256 bytes (the NIC's GroupState) get one-entry chunks, so
  // a NIC in one group allocates one entry, not eight.
  static constexpr std::size_t kChunkShift = sizeof(Entry) > 256 ? 0 : 3;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;

  struct Bucket {
    Key key{};
    std::uint32_t slot = kNil;  // kNil marks the bucket empty
  };
  // Doubly-linked insertion-order list; `next` doubles as the free chain
  // for recycled slots (a freed slot is never on both lists).
  struct Link {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  template <typename EntryT, typename MapT>
  class Iter {
   public:
    Iter() = default;
    EntryT& operator*() const { return map_->entry_at(slot_); }
    EntryT* operator->() const { return &map_->entry_at(slot_); }
    Iter& operator++() {
      slot_ = map_->links_[slot_].next;
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.slot_ == b.slot_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) {
      return a.slot_ != b.slot_;
    }

   private:
    friend class FlatMap;
    Iter(MapT* map, std::uint32_t slot) : map_(map), slot_(slot) {}
    MapT* map_ = nullptr;
    std::uint32_t slot_ = kNil;
  };

 public:
  using iterator = Iter<Entry, FlatMap>;
  using const_iterator = Iter<const Entry, const FlatMap>;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Index rehashes triggered by insertion since construction — the churn
  /// reserve() exists to avoid.  reserve() itself never counts.
  [[nodiscard]] std::uint64_t growths() const { return growths_; }

  /// Mirrors every future growth into `counter` (e.g. a NicStats field) so
  /// owners expose the churn without polling.  nullptr detaches.
  void bind_growth_counter(std::uint64_t* counter) {
    growth_counter_ = counter;
  }

  /// Pre-sizes the index for `n` entries so the insert path stays
  /// rehash-free up to that population.  Entry chunks still allocate on
  /// demand: a map that never reaches `n` entries (a NIC on a mostly-idle
  /// node) should not pay for — or default-destroy — slots it never used.
  void reserve(std::size_t n) {
    if (n == 0) return;
    std::size_t cap = buckets_.empty() ? kMinBuckets : buckets_.size();
    while (cap * 3 < n * 4) cap *= 2;  // keep load factor under 3/4
    if (cap != buckets_.size()) rehash(cap);
    links_.reserve(n);
  }

  // ---- Iteration (insertion order) ----

  iterator begin() { return {this, head_}; }
  iterator end() { return {this, kNil}; }
  const_iterator begin() const { return {this, head_}; }
  const_iterator end() const { return {this, kNil}; }

  // ---- Lookup ----

  iterator find(Key key) { return {this, slot_of(key)}; }
  const_iterator find(Key key) const { return {this, slot_of(key)}; }
  [[nodiscard]] bool contains(Key key) const { return slot_of(key) != kNil; }
  [[nodiscard]] std::size_t count(Key key) const { return contains(key); }

  T& at(Key key) {
    const std::uint32_t slot = slot_of(key);
    if (slot == kNil) throw std::out_of_range("FlatMap::at: missing key");
    return entry_at(slot).second;
  }
  const T& at(Key key) const {
    const std::uint32_t slot = slot_of(key);
    if (slot == kNil) throw std::out_of_range("FlatMap::at: missing key");
    return entry_at(slot).second;
  }

  // ---- Insertion ----

  T& operator[](Key key) { return entry_at(insert_slot(key).first).second; }

  /// Inserts value-constructed-from-args under `key`; an existing entry is
  /// left untouched (same as std::unordered_map).
  template <typename... Args>
  std::pair<iterator, bool> emplace(Key key, Args&&... args) {
    const auto [slot, inserted] = insert_slot(key);
    if (inserted) entry_at(slot).second = T(std::forward<Args>(args)...);
    return {iterator{this, slot}, inserted};
  }

  // ---- Erasure ----

  std::size_t erase(Key key) {
    const std::size_t bucket = bucket_of(key);
    if (bucket == kNoBucket) return 0;
    erase_bucket(bucket);
    return 1;
  }

  /// Erases the pointed-to entry and returns its insertion-order successor
  /// (same contract as std::unordered_map::erase for loop use).
  iterator erase(iterator it) {
    const std::uint32_t next = links_[it.slot_].next;
    erase_bucket(bucket_of(it->first));
    return {this, next};
  }

  void clear() {
    while (head_ != kNil) erase_bucket(bucket_of(entry_at(head_).first));
  }

 private:
  static constexpr std::size_t kMinBuckets = 16;

  /// splitmix64 finalizer: fixed, seedless, and strong enough that the
  /// packed (port, peer, peer_port) keys spread over the low index bits.
  static std::uint64_t mix(Key key) {
    return mix64(static_cast<std::uint64_t>(key));
  }

  Entry& entry_at(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }
  const Entry& entry_at(std::uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  std::size_t bucket_of(Key key) const {
    if (buckets_.empty()) return kNoBucket;
    std::size_t i = static_cast<std::size_t>(mix(key)) & mask_;
    for (;;) {
      const Bucket& b = buckets_[i];
      if (b.slot == kNil) return kNoBucket;
      if (b.key == key) return i;
      i = (i + 1) & mask_;
    }
  }

  std::uint32_t slot_of(Key key) const {
    const std::size_t bucket = bucket_of(key);
    return bucket == kNoBucket ? kNil : buckets_[bucket].slot;
  }

  std::pair<std::uint32_t, bool> insert_slot(Key key) {
    if (buckets_.empty()) rehash(kMinBuckets);
    std::size_t i = static_cast<std::size_t>(mix(key)) & mask_;
    for (;;) {
      const Bucket& b = buckets_[i];
      if (b.slot == kNil) break;
      if (b.key == key) return {b.slot, false};
      i = (i + 1) & mask_;
    }
    if ((size_ + 1) * 4 > buckets_.size() * 3) {
      rehash(buckets_.size() * 2);
      ++growths_;
      if (growth_counter_ != nullptr) ++*growth_counter_;
      i = static_cast<std::size_t>(mix(key)) & mask_;
      while (buckets_[i].slot != kNil) i = (i + 1) & mask_;
    }
    const std::uint32_t slot = alloc_slot();
    entry_at(slot).first = key;
    buckets_[i] = Bucket{key, slot};
    link_tail(slot);
    ++size_;
    return {slot, true};
  }

  std::uint32_t alloc_slot() {
    if (free_head_ != kNil) {
      const std::uint32_t slot = free_head_;
      free_head_ = links_[slot].next;
      return slot;
    }
    const std::uint32_t slot = static_cast<std::uint32_t>(links_.size());
    links_.emplace_back();
    if ((static_cast<std::size_t>(slot) >> kChunkShift) >= chunks_.size()) {
      chunks_.push_back(std::make_unique<Entry[]>(kChunkSize));
    }
    return slot;
  }

  void link_tail(std::uint32_t slot) {
    links_[slot] = Link{tail_, kNil};
    if (tail_ != kNil) {
      links_[tail_].next = slot;
    } else {
      head_ = slot;
    }
    tail_ = slot;
  }

  void unlink(std::uint32_t slot) {
    const Link l = links_[slot];
    if (l.prev != kNil) {
      links_[l.prev].next = l.next;
    } else {
      head_ = l.next;
    }
    if (l.next != kNil) {
      links_[l.next].prev = l.prev;
    } else {
      tail_ = l.prev;
    }
  }

  void erase_bucket(std::size_t bucket) {
    // Checked here, not at class scope: values nested in a still-open class
    // (Nic's GroupState) only become default-constructible once their
    // enclosing class closes, and method bodies instantiate lazily.
    static_assert(std::is_default_constructible_v<T> &&
                      std::is_move_assignable_v<T>,
                  "FlatMap values live in a recycled pool");
    const std::uint32_t slot = buckets_[bucket].slot;
    unlink(slot);
    Entry& e = entry_at(slot);
    e.first = Key{};
    e.second = T{};  // release the value's resources now, like node erase
    links_[slot].next = free_head_;
    free_head_ = slot;
    --size_;
    backward_shift(bucket);
  }

  /// Refills the hole at `hole` by shifting later probe-chain members back
  /// towards their home buckets — the classic tombstone-free deletion for
  /// linear probing.  An element at k may fill the hole at j iff its probe
  /// path from home(k) reaches j no later than k.
  void backward_shift(std::size_t hole) {
    std::size_t j = hole;  // current hole position
    std::size_t k = hole;  // scan cursor over the rest of the probe chain
    for (;;) {
      k = (k + 1) & mask_;
      const Bucket& bk = buckets_[k];
      if (bk.slot == kNil) break;
      const std::size_t home = static_cast<std::size_t>(mix(bk.key)) & mask_;
      if (((k - home) & mask_) >= ((k - j) & mask_)) {
        buckets_[j] = bk;
        j = k;  // the hole moved to k; keep scanning past it
      }
    }
    buckets_[j] = Bucket{};
  }

  /// Rebuilds the index at `new_cap` buckets (a power of two).  Entries are
  /// reinserted in insertion order, so the rebuilt probe layout — like
  /// everything else observable — is a pure function of the op sequence.
  void rehash(std::size_t new_cap) {
    buckets_.assign(new_cap, Bucket{});
    mask_ = new_cap - 1;
    for (std::uint32_t s = head_; s != kNil; s = links_[s].next) {
      const Key key = entry_at(s).first;
      std::size_t i = static_cast<std::size_t>(mix(key)) & mask_;
      while (buckets_[i].slot != kNil) i = (i + 1) & mask_;
      buckets_[i] = Bucket{key, s};
    }
  }

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::vector<Link> links_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::uint32_t free_head_ = kNil;
  std::size_t size_ = 0;
  std::uint64_t growths_ = 0;
  std::uint64_t* growth_counter_ = nullptr;
};

}  // namespace nicmcast::sim
