// Self-test of the span recorder's self-time arithmetic (spans.hpp).
// Exits 0 when every check holds; run by perfbench/test_harness.py.
#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.hpp"

namespace {

int g_failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12) {
    std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++g_failures;
  }
}

using perfbench::Span;
using perfbench::self_times;

void sequential_children() {
  const std::vector<Span> s = {{"p", -1, -1, 0, 10, 0},
                               {"a", -1, 0, 1, 3, 0},
                               {"b", -1, 0, 4, 6, 0}};
  const auto self = self_times(s);
  expect_near(self[0], 6, "sequential: parent");
  expect_near(self[1], 2, "sequential: first child");
  expect_near(self[2], 2, "sequential: second child");
}

void overlapping_children_count_once() {
  // Interleaved rank fibers: [1,5] and [3,7] cover 6 s of the parent.
  const std::vector<Span> s = {{"run", -1, -1, 0, 10, 0},
                               {"r0", 0, 0, 1, 5, 0},
                               {"r1", 1, 0, 3, 7, 0},
                               {"r2", 2, 0, 4, 5, 0}};
  expect_near(self_times(s)[0], 4, "overlap: parent");
}

void child_clipped_to_parent() {
  const std::vector<Span> s = {{"p", -1, -1, 0, 10, 0},
                               {"c", -1, 0, 8, 12, 0}};
  expect_near(self_times(s)[0], 8, "clip: parent");
}

void aggregated_child_time() {
  const std::vector<Span> s = {{"body", 0, -1, 0, 10, 3},
                               {"c", 0, 0, 0, 2, 0}};
  expect_near(self_times(s)[0], 5, "aggregate: parent");
}

void nested_grandchild() {
  const std::vector<Span> s = {{"root", -1, -1, 0, 10, 0},
                               {"child", -1, 0, 2, 8, 0},
                               {"grandchild", -1, 1, 3, 4, 0}};
  const auto self = self_times(s);
  expect_near(self[0], 4, "nested: root");
  expect_near(self[1], 5, "nested: child");
  expect_near(self[2], 1, "nested: grandchild");
}

void call_scope_records_only_with_a_table() {
  perfbench::CallTable t;
  { perfbench::CallScope off(nullptr, perfbench::Call::kSend); }
  { perfbench::CallScope on(&t, perfbench::Call::kRecv); }
  const auto recv = static_cast<std::size_t>(perfbench::Call::kRecv);
  expect_near(static_cast<double>(t.count[recv]), 1, "call scope: count");
  if (t.total_s[recv] < 0 || t.sum_s() != t.total_s[recv]) {
    std::fprintf(stderr, "FAIL call scope: totals\n");
    ++g_failures;
  }
}

}  // namespace

int main() {
  sequential_children();
  overlapping_children_count_once();
  child_clipped_to_parent();
  aggregated_child_time();
  nested_grandchild();
  call_scope_records_only_with_a_table();
  if (g_failures == 0) std::printf("span self-time: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
