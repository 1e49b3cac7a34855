// One repetition of one benchmark workload, in its own process so that
// peak resident memory belongs to that repetition alone.
//
//   perfbench_rep --workload NAME --seed N [--trace] [--spans-out PATH]
//   perfbench_rep --reference THREADS
//
// Prints one JSON object on stdout: the operation counts and checks, the
// end-to-end measurements, the correctness outputs (virtual time and
// digest), and with --trace the per-layer metrics. With --reference it
// times only the host-speed reference (reference.hpp) and prints
// {"reference_s": ...}. perfbench/run.py runs this repeatedly and
// aggregates.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "reference.hpp"
#include "workloads.hpp"

namespace {

/// Peak resident set of this process in MiB (VmHWM), or 0 if unreadable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (ch == '\n') ? ' ' : ch;
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_rep --workload NAME --seed N [--trace] "
               "[--spans-out PATH]\n"
               "       perfbench_rep --reference THREADS\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--reference") == 0) {
    const int threads = std::atoi(argv[2]);
    if (threads < 1) return usage();
    std::printf("{\"reference_s\": %.9f}\n",
                perfbench::reference_s(threads));
    return 0;
  }
  std::string workload;
  std::string spans_out;
  perfbench::RepOptions opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      opts.seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (a == "--trace") {
      opts.trace = true;
    } else if (a == "--spans-out" && i + 1 < argc) {
      spans_out = argv[++i];
    } else {
      return usage();
    }
  }
  perfbench::WorkloadFn fn = nullptr;
  for (const auto& [name, f] : perfbench::workloads()) {
    if (name == workload) fn = f;
  }
  if (fn == nullptr || !have_seed) return usage();

  perfbench::RepResult r;
  try {
    r = fn(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_rep: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  if (!spans_out.empty() && !r.spans_json.empty()) {
    std::ofstream f(spans_out);
    f << r.spans_json;
    if (!f) {
      std::fprintf(stderr, "perfbench_rep: cannot write %s\n",
                   spans_out.c_str());
      return 1;
    }
  }

  std::string failures = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    failures += (i == 0 ? "" : ", ") + quoted(r.failures[i]);
  }
  failures += "]";
  std::string layer = "{";
  for (std::size_t i = 0; i < r.layer.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", i == 0 ? "" : ", ",
                  r.layer[i].first.c_str(), r.layer[i].second);
    layer += buf;
  }
  layer += "}";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"traced\": %s, \"attempted\": "
      "%llu, \"ops\": %llu, \"failures\": %s, \"setup_s\": %.9f, "
      "\"body_s\": %.9f, \"peak_rss_mb\": %.6f, \"sim_ns\": %lld, "
      "\"digest\": \"%016llx\", \"layer\": %s}\n",
      quoted(workload).c_str(), static_cast<unsigned long long>(opts.seed),
      opts.trace ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.ops), failures.c_str(), r.setup_s,
      r.body_s, peak_rss_mb(), static_cast<long long>(r.sim_ns),
      static_cast<unsigned long long>(r.digest), layer.c_str());
  return 0;
}
