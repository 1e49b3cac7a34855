#include "reference.hpp"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "spans.hpp"

namespace perfbench {
namespace {

constexpr int kEvents = 1'200'000;  // per thread; about 0.15 s on x86-64
constexpr int kBarrierEvery = 2000;
constexpr int kCopyEvery = 256;
constexpr std::size_t kCopyBytes = 32 * 1024;
constexpr int kHandlers = 64;
constexpr int kPending = 1024;

volatile std::uint64_t g_ref_sink = 0;  // keeps the work from being elided

/// Sense-reversing spin barrier for `n` threads.
class SpinBarrier {
 public:
  explicit SpinBarrier(int n) : n_(n) {}
  void arrive() {
    const int gen = gen_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) == n_ - 1) {
      arrived_.store(0, std::memory_order_relaxed);
      gen_.store(gen + 1, std::memory_order_release);
      return;
    }
    while (gen_.load(std::memory_order_acquire) == gen) {
    }
  }

 private:
  const int n_;
  std::atomic<int> arrived_{0};
  std::atomic<int> gen_{0};
};

/// Runs the event loop; stores a checksum of its work in `*sum`.
void event_loop(std::uint64_t seed, SpinBarrier* barrier,
                std::uint64_t* sum) {
  std::uint64_t state = seed;
  auto next = [&state] {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  struct Event {
    std::uint64_t at;
    std::uint32_t id;
    bool operator>(const Event& o) const { return at > o.at; }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::uint64_t acc = 0;
  std::vector<std::function<void(std::uint64_t)>> handlers;
  for (int i = 0; i < kHandlers; ++i) {
    handlers.emplace_back([&acc, &table, i](std::uint64_t t) {
      acc += t * static_cast<std::uint64_t>(i);
      table[t & 0xFFFF] += static_cast<std::uint64_t>(i);
    });
  }
  std::vector<char> from(kCopyBytes, 1), to(kCopyBytes);
  for (int i = 0; i < kPending; ++i) {
    queue.push({next() & 0xFFFF, static_cast<std::uint32_t>(i)});
  }
  for (int i = 0; i < kEvents; ++i) {
    const Event e = queue.top();
    queue.pop();
    handlers[e.id % kHandlers](e.at);
    if (i % kCopyEvery == 0) {
      std::memcpy(to.data(), from.data(), kCopyBytes);
      acc += static_cast<std::uint64_t>(
          to[static_cast<std::size_t>(i) % 1024]);
    }
    queue.push({e.at + (next() & 0xFFF), e.id});
    if (barrier != nullptr && i % kBarrierEvery == kBarrierEvery - 1) {
      barrier->arrive();
    }
  }
  *sum = acc + table.size();
}

}  // namespace

double reference_s(int threads) {
  if (threads < 1) threads = 1;
  SpinBarrier barrier(threads);
  SpinBarrier* shared = threads > 1 ? &barrier : nullptr;
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(threads), 0);
  const double t0 = now_s();
  std::vector<std::thread> others;
  for (int t = 1; t < threads; ++t) {
    others.emplace_back(event_loop, 3 + 4 * static_cast<std::uint64_t>(t),
                        shared, &sums[static_cast<std::size_t>(t)]);
  }
  event_loop(3, shared, &sums[0]);
  for (std::thread& t : others) t.join();
  const double elapsed = now_s() - t0;
  for (const std::uint64_t sum : sums) g_ref_sink = g_ref_sink + sum;
  return elapsed;
}

}  // namespace perfbench
