// Minimal stand-in declarations so the check fixtures read standalone:
// nicmcast_lint skips #include lines and reads the declarations the
// fixtures make themselves.
//
// Only what the fixtures touch is declared, with the same names, shapes
// and namespaces as the real types.
#pragma once

namespace std {

using size_t = decltype(sizeof(0));
using uint64_t = unsigned long long;
using uintptr_t = unsigned long;

template <typename T>
struct hash {
  size_t operator()(const T&) const;
};

template <typename T1, typename T2>
struct pair {
  T1 first;
  T2 second;
};

template <typename T>
class vector {
 public:
  void push_back(const T&);
  template <typename... A>
  void emplace_back(A&&...);
  T* begin();
  T* end();
  const T* begin() const;
  const T* end() const;
  size_t size() const;
};

template <typename K, typename V, typename H = hash<K>>
class unordered_map {
 public:
  using value_type = pair<const K, V>;
  struct iterator {
    value_type& operator*() const;
    iterator& operator++();
    bool operator!=(const iterator&) const;
  };
  iterator begin() const;
  iterator end() const;
  V& operator[](const K&);
  size_t size() const;
};

template <typename K, typename H = hash<K>>
class unordered_set {
 public:
  struct iterator {
    const K& operator*() const;
    iterator& operator++();
    bool operator!=(const iterator&) const;
  };
  iterator begin() const;
  iterator end() const;
};

template <typename K, typename V>
class map {
 public:
  V& operator[](const K&);
};

template <typename K>
class set {
 public:
  void insert(const K&);
};

namespace chrono {
struct steady_clock {
  struct time_point {
    long ticks;
  };
  static time_point now();
};
struct system_clock {
  struct time_point {
    long ticks;
  };
  static time_point now();
};
struct high_resolution_clock {
  struct time_point {
    long ticks;
  };
  static time_point now();
};
}  // namespace chrono

struct random_device {
  unsigned operator()();
};

// C++17-style plain enum: both engines key on the `memory_order` name and
// the `memory_order_*` enumerator spellings.
enum memory_order {
  memory_order_relaxed,
  memory_order_consume,
  memory_order_acquire,
  memory_order_release,
  memory_order_acq_rel,
  memory_order_seq_cst,
};

template <typename T>
class atomic {
 public:
  atomic();
  atomic(T);
  T load(memory_order = memory_order_seq_cst) const;
  void store(T, memory_order = memory_order_seq_cst);
  T exchange(T, memory_order = memory_order_seq_cst);
  T fetch_add(T, memory_order = memory_order_seq_cst);
  T fetch_sub(T, memory_order = memory_order_seq_cst);
  bool compare_exchange_weak(T&, T, memory_order = memory_order_seq_cst);
  bool compare_exchange_strong(T&, T, memory_order = memory_order_seq_cst);
  T operator=(T);
  T operator++();
  T operator++(int);
  T operator--();
  T operator+=(T);
  operator T() const;
};

class thread {
 public:
  class id {
   public:
    bool operator==(const id&) const;
  };
  thread();
  template <typename F>
  explicit thread(F);
  id get_id() const;
  void join();
};

class jthread {
 public:
  jthread();
  template <typename F>
  explicit jthread(F);
  thread::id get_id() const;
  void join();
};

namespace this_thread {
thread::id get_id();
}  // namespace this_thread

class mutex {
 public:
  void lock();
  void unlock();
};

template <typename M>
class lock_guard {
 public:
  explicit lock_guard(M&);
};

}  // namespace std

struct fixture_timeval;
struct fixture_timezone;
extern "C" {
unsigned long pthread_self(void);
int gettid(void);
long time(long*);
int rand(void);
void srand(unsigned);
long clock(void);
int gettimeofday(fixture_timeval*, fixture_timezone*);
}

namespace nicmcast {

namespace sim {
template <typename Signature, std::size_t InlineBytes = 88>
class InlineFunction;

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes> {
 public:
  InlineFunction();
  InlineFunction(InlineFunction&&);
  InlineFunction& operator=(InlineFunction&&);
  // Implicit converting constructor, like the real one: assigning a lambda
  // constructs a temporary here first, which is what the check matches.
  template <typename F>
  InlineFunction(F&& f);  // NOLINT(google-explicit-constructor): mirrors the real type
  R operator()(Args...);
};
}  // namespace sim

namespace net {
class Buffer {
 public:
  Buffer();
  const unsigned char* data() const;
  std::size_t size() const;
};
}  // namespace net

namespace nic {
struct PacketDescriptor;

class DescriptorRef {
 public:
  PacketDescriptor* operator->() const;
  PacketDescriptor& operator*() const;
  explicit operator bool() const;
};

struct PacketDescriptor {
  sim::InlineFunction<void(DescriptorRef), 48> on_tx_complete;
  int header;
};
}  // namespace nic

}  // namespace nicmcast
