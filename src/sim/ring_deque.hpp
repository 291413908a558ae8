// Allocation-stable FIFO window.
//
// A power-of-two ring buffer with deque surface (push_back / pop_front /
// front / back / bidirectional iteration).  Unlike std::deque — which in
// libstdc++ allocates a map and a 512-byte chunk on construction and
// returns chunks to the heap as the window drains — a RingDeque allocates
// nothing before its first push and keeps its capacity across drain/refill
// cycles, so a Go-back-N send window that oscillates between empty and a
// few in-flight records settles into zero steady-state allocation.  Used
// for the NIC's unacked-record windows and sim::Channel's queues.
#pragma once

#include <cstddef>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>

namespace nicmcast::sim {

template <typename T>
class RingDeque {
 public:
  RingDeque() = default;
  RingDeque(RingDeque&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  RingDeque& operator=(RingDeque&& other) noexcept {
    if (this != &other) {
      destroy_storage();
      slots_ = std::exchange(other.slots_, nullptr);
      capacity_ = std::exchange(other.capacity_, 0);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  RingDeque(const RingDeque&) = delete;
  RingDeque& operator=(const RingDeque&) = delete;
  ~RingDeque() { destroy_storage(); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots currently reserved (never shrinks — that is the point).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    ::new (slot(head_ + size_)) T(std::move(value));
    ++size_;
  }

  void pop_front() {
    slot(head_)->~T();
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  [[nodiscard]] T& front() { return *slot(head_); }
  [[nodiscard]] const T& front() const { return *slot(head_); }
  [[nodiscard]] T& back() { return *slot(head_ + size_ - 1); }
  [[nodiscard]] const T& back() const { return *slot(head_ + size_ - 1); }

  [[nodiscard]] T& operator[](std::size_t i) { return *slot(head_ + i); }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return *slot(head_ + i);
  }

  /// Destroys the elements; capacity is retained.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) slot(head_ + i)->~T();
    head_ = 0;
    size_ = 0;
  }

  template <bool Const>
  class Iterator {
   public:
    using Ring = std::conditional_t<Const, const RingDeque, RingDeque>;
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using reference = std::conditional_t<Const, const T&, T&>;
    using pointer = std::conditional_t<Const, const T*, T*>;

    Iterator() = default;
    Iterator(Ring* ring, std::size_t index) : ring_(ring), index_(index) {}
    /// Iterator -> const_iterator conversion.
    template <bool WasConst, typename = std::enable_if_t<Const && !WasConst>>
    Iterator(const Iterator<WasConst>& other)
        : ring_(other.ring_), index_(other.index_) {}

    reference operator*() const { return (*ring_)[index_]; }
    pointer operator->() const { return &(*ring_)[index_]; }
    Iterator& operator++() { ++index_; return *this; }
    Iterator operator++(int) { Iterator t = *this; ++index_; return t; }
    Iterator& operator--() { --index_; return *this; }
    Iterator operator--(int) { Iterator t = *this; --index_; return t; }
    Iterator& operator+=(difference_type n) { index_ += n; return *this; }
    Iterator& operator-=(difference_type n) { index_ -= n; return *this; }
    friend Iterator operator+(Iterator it, difference_type n) {
      return it += n;
    }
    friend Iterator operator-(Iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const Iterator& a, const Iterator& b) {
      return static_cast<difference_type>(a.index_) -
             static_cast<difference_type>(b.index_);
    }
    reference operator[](difference_type n) const {
      return (*ring_)[index_ + n];
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.index_ == b.index_;
    }
    friend auto operator<=>(const Iterator& a, const Iterator& b) {
      return a.index_ <=> b.index_;
    }

   private:
    friend class RingDeque;
    template <bool>
    friend class Iterator;
    Ring* ring_ = nullptr;
    std::size_t index_ = 0;  // logical offset from front
  };

  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;
  using reverse_iterator = std::reverse_iterator<iterator>;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  [[nodiscard]] iterator begin() { return {this, 0}; }
  [[nodiscard]] iterator end() { return {this, size_}; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }
  [[nodiscard]] reverse_iterator rbegin() { return reverse_iterator{end()}; }
  [[nodiscard]] reverse_iterator rend() { return reverse_iterator{begin()}; }
  [[nodiscard]] const_reverse_iterator rbegin() const {
    return const_reverse_iterator{end()};
  }
  [[nodiscard]] const_reverse_iterator rend() const {
    return const_reverse_iterator{begin()};
  }

 private:
  [[nodiscard]] static T* allocate(std::size_t count) {
    return static_cast<T*>(
        operator new[](count * sizeof(T), std::align_val_t{alignof(T)}));
  }
  static void deallocate(T* p) {
    operator delete[](p, std::align_val_t{alignof(T)});
  }

  [[nodiscard]] T* slot(std::size_t logical) const {
    return slots_ + (logical & (capacity_ - 1));
  }

  void destroy_storage() {
    clear();
    deallocate(slots_);
    slots_ = nullptr;
    capacity_ = 0;
  }

  void grow() {
    // Relocation has no exception path: a move that threw halfway would
    // leave elements in both rings.
    static_assert(std::is_nothrow_move_constructible_v<T>,
                  "RingDeque relocates elements with noexcept moves");
    const std::size_t next = capacity_ == 0 ? 4 : capacity_ * 2;
    T* fresh = allocate(next);
    for (std::size_t i = 0; i < size_; ++i) {
      T* src = slot(head_ + i);
      ::new (fresh + i) T(std::move(*src));
      src->~T();
    }
    deallocate(slots_);
    slots_ = fresh;
    capacity_ = next;
    head_ = 0;
  }

  T* slots_ = nullptr;        // raw storage, manual lifetimes
  std::size_t capacity_ = 0;  // always zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace nicmcast::sim
