// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around the calls it
// makes into the simulator's public API: World/ServiceSim construction,
// MPI init (run start until a rank enters its body), each rank body, each
// Mpi call, finalize (body exit until World::run returns) and teardown.
//
// Two shapes keep the hot path cheap:
//   * coarse spans (a few per rank per repetition) are stored as intervals
//     with a parent index;
//   * Mpi call spans are aggregated per rank and call kind (count, total
//     wall) as they close, so a run with a million calls stores no more
//     than a fixed-size table. A rank's calls are sequential inside its
//     body, so their summed duration is exactly the part of the body
//     interval they cover.
//
// Self time of a span = its duration minus the part of its interval that
// its children cover (the union of the child intervals, clipped to the
// parent, plus any aggregated child time). Children of one rank never
// overlap, but the per-rank children of World::run do: every rank's
// fiber runs inside the same event loop, so their intervals interleave
// and the union, not the sum, is what they cover.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Wall seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int rank = -1;    // -1 = not rank-specific
  int parent = -1;  // index into the span list, -1 = root
  double t0 = 0;
  double t1 = 0;
  /// Child time reported in aggregate (disjoint from explicit children).
  double agg_child_s = 0;
  double duration() const { return t1 - t0; }
};

/// Self time of every span, in list order.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double a = std::max(s.t0, p.t0);
    const double b = std::min(s.t1, p.t1);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double end = -1e300;
    for (const auto& [a, b] : iv) {
      const double start = std::max(a, end);
      if (b > start) covered += b - start;
      end = std::max(end, b);
    }
    out[i] = spans[i].duration() - covered - spans[i].agg_child_s;
  }
  return out;
}

/// Mpi calls the workloads make. Non-blocking calls post work and return;
/// blocking calls suspend the rank and run the event loop meanwhile.
enum class Call : std::uint8_t {
  kIsend,
  kIrecv,
  kTest,
  kSend,
  kRecv,
  kWaitany,
  kWaitall,
  kCompute,  // Mpi::compute: sleeps the rank in virtual time
  kCount
};
inline constexpr std::size_t kCalls = static_cast<std::size_t>(Call::kCount);

inline const char* call_name(Call c) {
  static const char* const kNames[kCalls] = {
      "mpi.isend", "mpi.irecv",   "mpi.test",    "mpi.send",
      "mpi.recv",  "mpi.waitany", "mpi.waitall", "mpi.compute"};
  return kNames[static_cast<std::size_t>(c)];
}
inline bool is_blocking(Call c) { return c >= Call::kSend; }

/// Per-rank call aggregate; touched only by the thread running the rank.
struct CallTable {
  std::array<std::uint64_t, kCalls> count{};
  std::array<double, kCalls> total_s{};

  double sum_s() const {
    double s = 0;
    for (const double t : total_s) s += t;
    return s;
  }
  void merge(const CallTable& o) {
    for (std::size_t i = 0; i < kCalls; ++i) {
      count[i] += o.count[i];
      total_s[i] += o.total_s[i];
    }
  }
};

/// Times one call into `table` (no-op when `table` is null: untraced runs
/// pay one branch per call).
class CallScope {
 public:
  CallScope(CallTable* table, Call c) : table_(table), call_(c) {
    if (table_ != nullptr) t0_ = now_s();
  }
  ~CallScope() {
    if (table_ == nullptr) return;
    const auto i = static_cast<std::size_t>(call_);
    ++table_->count[i];
    table_->total_s[i] += now_s() - t0_;
  }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  CallTable* table_;
  Call call_;
  double t0_ = 0;
};

/// Writes the span list and the merged call table as a JSON document.
inline std::string spans_json(const std::vector<Span>& spans,
                              const CallTable& calls) {
  const std::vector<double> self = self_times(spans);
  std::string out = "{\n  \"spans\": [";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"id\": %zu, \"name\": \"%s\", \"rank\": %d, "
                  "\"parent\": %d, \"dur_s\": %.9f, \"self_s\": %.9f}",
                  i == 0 ? "" : ",", i, s.name.c_str(), s.rank, s.parent,
                  s.duration(), self[i]);
    out += buf;
  }
  out += "\n  ],\n  \"calls\": [";
  bool first = true;
  for (std::size_t i = 0; i < kCalls; ++i) {
    if (calls.count[i] == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"name\": \"%s\", \"blocking\": %s, \"count\": "
                  "%llu, \"total_s\": %.9f, \"self_s\": %.9f}",
                  first ? "" : ",", call_name(static_cast<Call>(i)),
                  is_blocking(static_cast<Call>(i)) ? "true" : "false",
                  static_cast<unsigned long long>(calls.count[i]),
                  calls.total_s[i], calls.total_s[i]);
    out += buf;
    first = false;
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace perfbench
