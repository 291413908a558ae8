// Immutable refcounted payload buffer.
//
// GM's zero-copy design keeps one copy of a message and hands out
// references; the simulator mirrors that.  A Buffer is an (owner, offset,
// length) view over a shared byte block: copying a Buffer or slicing a
// fragment out of it bumps a refcount instead of duplicating bytes, so NIC
// multicast forwarding, retransmission from send records and per-link
// transit all share the single allocation made when the host posted the
// send.  The bytes are immutable for the Buffer's whole lifetime — fault
// injection marks a packet corrupted via its flag, never by mutating the
// shared bytes (which would corrupt every other holder of the block).
//
// Copies happen in exactly two places, both explicit: copy_of() (host
// posts, reduction accumulators) and to_vector() (landing a payload in
// host memory).  Everything else is slice() and Buffer copies.
//
// Shard safety: the refcount is a std::atomic so a slice posted to another
// shard of the PDES engine can be released there while siblings are still
// referenced on the owning shard.  Increments are relaxed (a new reference
// is always created from an existing one, which keeps the block alive);
// the decrement is acq_rel so the deleting thread observes every write
// made before each release.  The *bytes* need no synchronization — they
// are const from construction on.  This protocol is part of the
// machine-checked concurrency contract (DESIGN.md §4.9): every atomic
// access here carries its explicit memory_order, which the
// nicmcast-memory-order-audit check enforces tree-wide, and the
// release-side `fetch_sub == 1 → delete` shape is exactly the publication
// pattern a relaxed load must never guard.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace nicmcast::net {

class Buffer {
 public:
  /// Empty view; data() is nullptr, size() is 0.
  Buffer() = default;

  // noexcept: a copy only bumps the refcount.  A closure holding a const
  // Buffer moves by copying, so this keeps such a closure nothrow-movable
  // and inside sim::InlineFunction's inline storage.
  Buffer(const Buffer& other) noexcept
      : block_(other.block_), offset_(other.offset_), size_(other.size_) {
    acquire(block_);
  }

  Buffer(Buffer&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)),
        offset_(std::exchange(other.offset_, 0)),
        size_(std::exchange(other.size_, 0)) {}

  Buffer& operator=(const Buffer& other) {
    if (this != &other) {
      acquire(other.block_);  // before release: self-assign-safe ordering
      release(block_);
      block_ = other.block_;
      offset_ = other.offset_;
      size_ = other.size_;
    }
    return *this;
  }

  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      release(block_);
      block_ = std::exchange(other.block_, nullptr);
      offset_ = std::exchange(other.offset_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~Buffer() { release(block_); }

  /// Takes ownership of `bytes` without copying: the vector becomes the
  /// shared block.  This is the host-post boundary — the single allocation
  /// every downstream packet/record slice refers back to.  Kept out of
  /// line: GCC 12's -Wfree-nonheap-object misfires on the moved-from
  /// vector when the allocation is inlined into callers at -O2.
  [[nodiscard]] [[gnu::noinline]] static Buffer take(
      std::vector<std::byte>&& bytes) {
    if (bytes.empty()) return Buffer{};
    Block* block = new Block(std::move(bytes));  // refs == 1
    return Buffer{block, 0, block->bytes.size()};
  }

  /// Copies `count` bytes into a fresh block (explicit copy point).
  [[nodiscard]] static Buffer copy_of(const std::byte* bytes,
                                      std::size_t count) {
    return take(std::vector<std::byte>(bytes, bytes + count));
  }

  [[nodiscard]] static Buffer copy_of(const std::vector<std::byte>& bytes) {
    return take(std::vector<std::byte>(bytes));
  }

  /// A fresh block of `count` copies of `value` (tests, padding).
  [[nodiscard]] [[gnu::noinline]] static Buffer filled(std::size_t count,
                                                       std::byte value) {
    return take(std::vector<std::byte>(count, value));
  }

  /// A narrower view of the same block: refcount bump, no byte copies.
  /// This is how a packet carries one MTU-sized fragment of a message.
  [[nodiscard]] Buffer slice(std::size_t offset, std::size_t count) const {
    if (offset + count > size_) {
      throw std::out_of_range("Buffer::slice: range outside view");
    }
    acquire(block_);
    return Buffer{block_, offset_ + offset, count};
  }

  [[nodiscard]] const std::byte* data() const {
    return block_ ? block_->bytes.data() + offset_ : nullptr;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] const std::byte* begin() const { return data(); }
  [[nodiscard]] const std::byte* end() const { return data() + size_; }

  [[nodiscard]] std::byte operator[](std::size_t index) const {
    return data()[index];
  }

  /// Copies the viewed bytes out into host memory (explicit copy point).
  [[nodiscard]] std::vector<std::byte> to_vector() const {
    return std::vector<std::byte>(begin(), end());
  }

  /// True when both views share one block — the zero-copy assertion used
  /// by tests (content equality is operator==).
  [[nodiscard]] bool shares_block_with(const Buffer& other) const {
    return block_ != nullptr && block_ == other.block_;
  }

  /// Live references to this view's block (0 for the empty view).  Test
  /// observability only — by the time a caller acts on the value another
  /// shard may have changed it.
  [[nodiscard]] std::uint64_t block_ref_count() const {
    return block_ ? block_->refs.load(std::memory_order_relaxed) : 0;
  }

  /// Content equality (byte-wise over the viewed ranges).
  friend bool operator==(const Buffer& a, const Buffer& b) {
    if (a.size_ != b.size_) return false;
    if (a.size_ == 0) return true;
    return std::memcmp(a.data(), b.data(), a.size_) == 0;
  }

 private:
  struct Block {
    explicit Block(std::vector<std::byte>&& b) : bytes(std::move(b)) {}
    const std::vector<std::byte> bytes;
    std::atomic<std::uint64_t> refs{1};
  };

  Buffer(Block* block, std::size_t offset, std::size_t size)
      : block_(block), offset_(offset), size_(size) {}

  static void acquire(Block* block) {
    if (block != nullptr) {
      // Relaxed: the caller already holds a reference, so the count can't
      // hit zero concurrently with this increment.
      block->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  static void release(Block* block) {
    if (block != nullptr &&
        block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete block;
    }
  }

  Block* block_ = nullptr;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

}  // namespace nicmcast::net
