#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <ctime>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include "apps/service.hpp"
#include "core/envelope.hpp"
#include "core/rpi_sctp.hpp"
#include "core/world.hpp"
#include "net/buffer.hpp"
#include "net/bytes.hpp"
#include "net/observer.hpp"
#include "net/packet.hpp"
#include "sctp/chunk.hpp"
#include "spans.hpp"
#include "tcp/wire.hpp"

namespace perfbench {
namespace {

using namespace sctpmpi;

// ---------------------------------------------------------------------------
// Workload sizes. One repetition of each takes 0.5-2 s of wall time on a
// 4-core x86-64 box, so a run yields a dozen or more repetitions.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFarmTasks = 10'000;
constexpr std::size_t kFarmTaskBytes = 30 * 1024;
constexpr int kFarmOutstanding = 10;
constexpr int kFarmTags = 10;
// Per-task compute, calibrated by bench/fig10_farm_fanout1.cpp so the
// 0%-loss run time lands near the paper's.
constexpr sim::SimTime kFarmWork = 6 * sim::kMillisecond;

constexpr int kPingPongRounds = 100;
constexpr std::size_t kPingPongBytes = 1024 * 1024;
constexpr int kPingPongPatterns = 4;

constexpr int kManyflowRanks = 16;
constexpr int kManyflowPerPeer = 800;
constexpr int kManyflowFanout = 3;
constexpr int kManyflowWindow = 32;
constexpr std::size_t kManyflowBytes = 8 * 1024;

constexpr std::uint64_t kServiceRequests = 100'000;

/// Packets kept by the codec-replay reservoir.
constexpr std::size_t kReplaySample = 1024;

// ---------------------------------------------------------------------------
// Seeded inputs and digests
// ---------------------------------------------------------------------------

struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
};

std::vector<std::byte> seeded_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  SplitMix rng{seed};
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t x = rng.next();
    std::memcpy(v.data() + i, &x, std::min<std::size_t>(8, n - i));
  }
  return v;
}

void put_u64(std::span<std::byte> at, std::uint64_t v) {
  std::memcpy(at.data(), &v, sizeof v);
}
std::uint64_t get_u64(std::span<const std::byte> at) {
  std::uint64_t v = 0;
  std::memcpy(&v, at.data(), sizeof v);
  return v;
}

/// Order-sensitive FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Per-layer snapshot
// ---------------------------------------------------------------------------

/// Raw per-layer counts of one repetition. Fields a workload's layers do
/// not reach stay 0, so every traced run reports the same metric names.
struct Layer {
  double ops = 0, payload_bytes = 0, sim_s = 0, body_self_s = 0;
  double run_s = 0, cpu_s = 0;
  double events = 0, slot_capacity = 0;
  double rounds = 0, shard_msgs = 0, ingest_skips = 0, parks = 0;
  double tx_packets = 0, drops_loss = 0, drops_queue = 0, unroutable = 0;
  double copy_bytes = 0, ingest_bytes = 0;
  double lb_forwarded = 0, lb_tracked_hits = 0, lb_maglev = 0;
  double tcp_packets = 0, tcp_rtx = 0, tcp_timeouts = 0, tcp_fast_rtx = 0;
  double sctp_packets = 0, sctp_rtx = 0, sctp_timeouts = 0, sctp_fast_rtx = 0;
  double tcp_decode_ns = 0, tcp_encode_ns = 0;
  double sctp_decode_ns = 0, sctp_encode_ns = 0, envelope_decode_ns = 0;
  double sample_packets = 0;
  double svc_retried = 0, svc_reconnects = 0;
  double rpi_msgs = 0, rpi_rendezvous = 0, rpi_unexpected = 0, rpi_ctl = 0,
         rpi_blocks = 0;
  double build_s = 0, init_s = 0, teardown_s = 0;
  double post_s = 0, wait_s = 0, calls = 0;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<std::pair<std::string, double>> layer_metrics(const Layer& l) {
  return {
      {"app.ops", l.ops},
      {"app.payload_bytes", l.payload_bytes},
      {"app.sim_s", l.sim_s},
      {"app.body_s", l.body_self_s},
      {"sim.events", l.events},
      {"sim.events_per_op", ratio(l.events, l.ops)},
      {"sim.events_per_s", ratio(l.events, l.run_s)},
      {"sim.slot_capacity", l.slot_capacity},
      {"shard.rounds", l.rounds},
      {"shard.msgs", l.shard_msgs},
      {"shard.ingest_skips", l.ingest_skips},
      {"shard.events_per_round", ratio(l.events, l.rounds)},
      {"shard.cpu_per_wall", ratio(l.cpu_s, l.run_s)},
      {"shard.parks", l.parks},
      {"net.tx_packets", l.tx_packets},
      {"net.packets_per_op", ratio(l.tx_packets, l.ops)},
      {"net.drops_loss", l.drops_loss},
      {"net.drops_queue", l.drops_queue},
      {"net.unroutable", l.unroutable},
      {"net.copy_bytes", l.copy_bytes},
      {"net.copy_bytes_per_payload_byte",
       ratio(l.copy_bytes, l.payload_bytes)},
      {"net.ingest_bytes", l.ingest_bytes},
      {"lb.forwarded", l.lb_forwarded},
      {"lb.tracked_hit_ratio", ratio(l.lb_tracked_hits, l.lb_forwarded)},
      {"lb.maglev_assignments", l.lb_maglev},
      {"tcp.packets", l.tcp_packets},
      {"tcp.retransmits", l.tcp_rtx},
      {"tcp.rtx_ratio", ratio(l.tcp_rtx, l.tcp_packets)},
      {"tcp.timeouts", l.tcp_timeouts},
      {"tcp.fast_retransmits", l.tcp_fast_rtx},
      {"tcp.decode_ns", l.tcp_decode_ns},
      {"tcp.encode_ns", l.tcp_encode_ns},
      {"sctp.packets", l.sctp_packets},
      {"sctp.retransmits", l.sctp_rtx},
      {"sctp.rtx_ratio", ratio(l.sctp_rtx, l.sctp_packets)},
      {"sctp.timeouts", l.sctp_timeouts},
      {"sctp.fast_retransmits", l.sctp_fast_rtx},
      {"sctp.decode_ns", l.sctp_decode_ns},
      {"sctp.encode_ns", l.sctp_encode_ns},
      {"codec.sample_packets", l.sample_packets},
      {"svc.retried", l.svc_retried},
      {"svc.reconnects", l.svc_reconnects},
      {"rpi.msgs", l.rpi_msgs},
      {"rpi.rendezvous_msgs", l.rpi_rendezvous},
      {"rpi.unexpected_frac", ratio(l.rpi_unexpected, l.rpi_msgs)},
      {"rpi.ctl_msgs_per_msg", ratio(l.rpi_ctl, l.rpi_msgs)},
      {"rpi.blocks_per_msg", ratio(l.rpi_blocks, l.rpi_msgs)},
      {"core.envelope_decode_ns", l.envelope_decode_ns},
      {"world.build_s", l.build_s},
      {"mpi.init_s", l.init_s},
      {"world.teardown_s", l.teardown_s},
      {"mpi.post_s", l.post_s},
      {"mpi.wait_s", l.wait_s},
      {"mpi.calls", l.calls},
  };
}

void add_link_stats(Layer& l, net::Cluster& cluster) {
  const net::LinkStats ls = cluster.total_link_stats();
  l.tx_packets = static_cast<double>(ls.tx_packets);
  l.drops_loss = static_cast<double>(ls.drops_loss);
  l.drops_queue = static_cast<double>(ls.drops_queue);
  l.unroutable = static_cast<double>(cluster.total_unroutable());
}

void add_copy_stats(Layer& l) {
  const net::CopyStats cs = net::CopyStats::get();
  l.copy_bytes = static_cast<double>(cs.payload_copy_bytes);
  l.ingest_bytes = static_cast<double>(cs.ingest_bytes);
}

// ---------------------------------------------------------------------------
// Wire capture and codec replay
// ---------------------------------------------------------------------------

/// Counts the transport packets hosts hand to their egress links and keeps
/// a seeded reservoir sample of their wire bytes for codec replay.
/// Single-shard runs only (observers are single-threaded).
class WireCapture : public net::PacketObserver {
 public:
  WireCapture(net::IpProto proto, std::string skip_point, std::uint64_t seed)
      : proto_(proto), skip_(std::move(skip_point)), rng_{seed} {}

  void on_packet(sim::SimTime, const std::string& point, const net::Packet& pkt,
                 net::PacketVerdict verdict) override {
    if (verdict != net::PacketVerdict::kSent || pkt.proto != proto_) return;
    if (point == skip_) return;  // forwarded by the balancer, not a stack
    ++packets;
    if ((pkt.flags & net::kPktFlagRetransmit) != 0) ++retransmits;
    const std::span<const std::byte> bytes = pkt.payload.span();
    if (sample.size() < kReplaySample) {
      sample.emplace_back(bytes.begin(), bytes.end());
    } else if (const std::uint64_t j = rng_.next() % packets;
               j < kReplaySample) {
      sample[j].assign(bytes.begin(), bytes.end());
    }
  }

  net::IpProto proto() const { return proto_; }

  std::uint64_t packets = 0;
  std::uint64_t retransmits = 0;
  std::vector<std::vector<std::byte>> sample;

 private:
  net::IpProto proto_;
  std::string skip_;
  SplitMix rng_;
};

volatile std::uint64_t g_sink = 0;

/// Wall nanoseconds per item of `pass` (which processes `items` items):
/// the median of five trials, each repeating the pass for >= 10 ms.
template <typename Pass>
double ns_per_item(std::size_t items, Pass&& pass) {
  if (items == 0) return 0;
  std::array<double, 5> trials{};
  for (double& t : trials) {
    std::size_t passes = 0;
    const double t0 = now_s();
    double t1 = t0;
    do {
      pass();
      ++passes;
      t1 = now_s();
    } while (t1 - t0 < 0.01);
    t = (t1 - t0) * 1e9 / static_cast<double>(passes * items);
  }
  std::sort(trials.begin(), trials.end());
  return trials[2];
}

std::vector<net::Buffer> as_buffers(const WireCapture& cap) {
  std::vector<net::Buffer> out;
  out.reserve(cap.sample.size());
  for (const auto& bytes : cap.sample) {
    out.emplace_back(std::vector<std::byte>(bytes));
  }
  return out;
}

void replay_sctp(Layer& l, const WireCapture& cap) {
  const std::vector<net::Buffer> wires = as_buffers(cap);
  std::vector<sctp::SctpPacket> pkts;
  std::vector<std::array<std::byte, core::kEnvelopeBytes>> envs;
  for (const net::Buffer& w : wires) {
    auto p = sctp::SctpPacket::decode(w, /*verify_crc=*/false);
    if (!p) continue;
    for (const sctp::TypedChunk& c : p->chunks) {
      const auto* d = std::get_if<sctp::DataChunk>(&c.body);
      // A user message's first fragment starts with its MPI envelope.
      if (d != nullptr && d->begin &&
          d->payload.size() >= core::kEnvelopeBytes) {
        envs.emplace_back();
        d->payload.raw_copy_to(envs.back());
      }
    }
    pkts.push_back(std::move(*p));
  }
  l.sample_packets = static_cast<double>(wires.size());
  l.sctp_decode_ns = ns_per_item(wires.size(), [&] {
    for (const net::Buffer& w : wires) {
      const auto p = sctp::SctpPacket::decode(w, false);
      g_sink = g_sink + (p ? p->chunks.size() : 0);
    }
  });
  std::vector<std::byte> out;
  l.sctp_encode_ns = ns_per_item(pkts.size(), [&] {
    for (const sctp::SctpPacket& p : pkts) {
      p.encode_into(out, /*with_crc=*/false);
      g_sink = g_sink + out.size();
    }
  });
  l.envelope_decode_ns = ns_per_item(envs.size(), [&] {
    for (const auto& e : envs) {
      const core::Envelope env = core::Envelope::decode(e);
      g_sink = g_sink + env.length + env.seq;
    }
  });
}

void replay_tcp(Layer& l, const WireCapture& cap) {
  const std::vector<net::Buffer> wires = as_buffers(cap);
  std::vector<tcp::Segment> segs;
  for (const net::Buffer& w : wires) segs.push_back(tcp::Segment::decode(w));
  l.sample_packets = static_cast<double>(wires.size());
  l.tcp_decode_ns = ns_per_item(wires.size(), [&] {
    for (const net::Buffer& w : wires) {
      const tcp::Segment s = tcp::Segment::decode(w);
      g_sink = g_sink + s.payload.size();
    }
  });
  std::vector<std::byte> out;
  l.tcp_encode_ns = ns_per_item(segs.size(), [&] {
    for (const tcp::Segment& s : segs) {
      s.encode_into(out);
      g_sink = g_sink + out.size();
    }
  });
}

/// Replays the captured sample through its protocol's codec. Decode errors
/// on wire bytes the stacks themselves produced are a bug, so they fail the
/// repetition.
void replay(Layer& l, const WireCapture& cap, RepResult& r) {
  try {
    if (cap.proto() == net::IpProto::kTcp) {
      replay_tcp(l, cap);
    } else {
      replay_sctp(l, cap);
    }
  } catch (const std::exception& e) {
    r.failures.push_back(std::string("codec replay: ") + e.what());
  }
}

// ---------------------------------------------------------------------------
// MPI jobs
// ---------------------------------------------------------------------------

/// One rank's state; touched only by the thread running that rank.
struct RankCtx {
  CallTable calls;
  double enter = 0;
  double exit = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t good = 0;  // verified operations
  std::uint64_t bad = 0;   // failed checks
  Digest digest;
  std::vector<std::uint64_t> ids;  // workload-specific receipts
};

/// The Mpi calls the workloads make, each timed when tracing.
class Api {
 public:
  Api(core::Mpi& mpi, RankCtx& ctx, bool trace)
      : mpi_(mpi), ctx_(ctx), t_(trace ? &ctx.calls : nullptr) {}

  int rank() const { return mpi_.rank(); }
  int size() const { return mpi_.size(); }
  std::int64_t now_ns() { return mpi_.process().sim().now(); }

  void send(std::span<const std::byte> b, int dst, int tag) {
    CallScope s(t_, Call::kSend);
    ctx_.payload_bytes += b.size();
    mpi_.send(b, dst, tag);
  }
  core::MpiStatus recv(std::span<std::byte> b, int src, int tag) {
    CallScope s(t_, Call::kRecv);
    return mpi_.recv(b, src, tag);
  }
  core::Request isend(std::span<const std::byte> b, int dst, int tag) {
    CallScope s(t_, Call::kIsend);
    ctx_.payload_bytes += b.size();
    return mpi_.isend(b, dst, tag);
  }
  core::Request irecv(std::span<std::byte> b, int src, int tag) {
    CallScope s(t_, Call::kIrecv);
    return mpi_.irecv(b, src, tag);
  }
  bool test(core::Request& r, core::MpiStatus* st) {
    CallScope s(t_, Call::kTest);
    return mpi_.test(r, st);
  }
  int waitany(std::span<core::Request> rs, core::MpiStatus* st) {
    CallScope s(t_, Call::kWaitany);
    return mpi_.waitany(rs, st);
  }
  void waitall(std::span<core::Request> rs) {
    CallScope s(t_, Call::kWaitall);
    mpi_.waitall(rs);
  }
  void compute(sim::SimTime t) {
    CallScope s(t_, Call::kCompute);
    mpi_.compute(t);
  }

 private:
  core::Mpi& mpi_;
  RankCtx& ctx_;
  CallTable* t_;
};

using RankBody = std::function<void(Api&, RankCtx&)>;
/// Turns the ranks' receipts into verified operations, failures and the
/// digest, after the job ran.
using JobCheck = std::function<void(std::vector<RankCtx>&, RepResult&)>;

/// Builds the World, runs `body` on every rank and checks the outcome.
/// `job_loss` is switched on once every rank has entered its body: a lost
/// handshake packet would otherwise stall one rank's MPI_Init for an RTO
/// while the others already work, blurring where set-up ends.
RepResult run_mpi_job(const core::WorldConfig& cfg, double job_loss,
                      const RepOptions& o, std::uint64_t attempted,
                      net::IpProto wire_proto, const RankBody& body,
                      const JobCheck& check) {
  if (job_loss > 0 && cfg.shards != 1) {
    throw std::invalid_argument("job loss is switched on single-shard only");
  }
  RepResult r;
  r.attempted = attempted;
  net::CopyStats::reset();
  std::vector<RankCtx> ranks(static_cast<std::size_t>(cfg.ranks));

  const double t_build = now_s();
  auto world = std::make_unique<core::World>(cfg);
  const double t_built = now_s();
  std::unique_ptr<WireCapture> cap;
  if (o.trace && cfg.shards == 1) {
    cap = std::make_unique<WireCapture>(wire_proto, "", o.seed);
    world->cluster().set_observer(cap.get());
  }

  const double cpu0 = cpu_now_s();
  const double t_run = now_s();
  int entered = 0;
  world->run([&](core::Mpi& mpi) {
    RankCtx& c = ranks[static_cast<std::size_t>(mpi.rank())];
    c.enter = now_s();
    if (job_loss > 0 && ++entered == cfg.ranks) {
      world->cluster().set_loss(job_loss);
    }
    Api api(mpi, c, o.trace);
    body(api, c);
    c.exit = now_s();
  });
  const double t_ran = now_s();
  const double cpu1 = cpu_now_s();
  if (cap) world->cluster().set_observer(nullptr);

  double last_enter = 0, last_exit = 0;
  for (const RankCtx& c : ranks) {
    last_enter = std::max(last_enter, c.enter);
    last_exit = std::max(last_exit, c.exit);
  }
  r.setup_s = last_enter - t_build;
  r.body_s = last_exit - last_enter;
  r.sim_ns = world->elapsed();
  check(ranks, r);
  Digest d;
  d.add(r.digest);
  d.add(static_cast<std::uint64_t>(r.sim_ns));
  r.digest = d.h;

  if (!o.trace) return r;  // the World's teardown is not measured untraced

  Layer l;
  l.ops = static_cast<double>(r.ops);
  l.sim_s = static_cast<double>(r.sim_ns) / 1e9;
  l.run_s = t_ran - t_run;
  l.cpu_s = cpu1 - cpu0;
  for (unsigned s = 0; s < world->shards(); ++s) {
    const sim::Simulator& shard = world->shard_group().shard(s);
    l.events += static_cast<double>(shard.events_processed());
    l.slot_capacity += static_cast<double>(shard.slot_capacity());
  }
  const sim::ShardGroup::Stats& gs = world->shard_group().stats();
  l.rounds = static_cast<double>(gs.rounds);
  l.shard_msgs = static_cast<double>(gs.messages);
  l.ingest_skips = static_cast<double>(gs.ingest_skips);
  l.parks = static_cast<double>(gs.parks);
  add_link_stats(l, world->cluster());
  add_copy_stats(l);
  for (int rank = 0; rank < cfg.ranks; ++rank) {
    const core::RpiStats& st = world->rpi(rank).stats();
    l.rpi_msgs += static_cast<double>(st.sends_started);
    l.rpi_rendezvous += static_cast<double>(st.rendezvous_msgs);
    l.rpi_unexpected += static_cast<double>(st.unexpected_msgs);
    l.rpi_ctl += static_cast<double>(st.ctl_msgs);
    l.rpi_blocks += static_cast<double>(st.blocks);
  }
  if (cfg.transport == core::TransportKind::kSctp) {
    for (int rank = 0; rank < cfg.ranks; ++rank) {
      auto* rpi = dynamic_cast<core::SctpRpi*>(&world->rpi(rank));
      sctp::SctpSocket* sock = rpi != nullptr ? rpi->socket() : nullptr;
      if (sock == nullptr) continue;
      // Association ids are handed out densely from 1.
      const std::size_t assocs = sock->association_count();
      std::size_t found = 0;
      for (sctp::AssocId id = 1; found < assocs && id <= 4 * assocs + 64;
           ++id) {
        const sctp::Association* a = std::as_const(*sock).assoc(id);
        if (a == nullptr) continue;
        ++found;
        const sctp::AssocStats& as = a->stats();
        l.sctp_packets += static_cast<double>(as.packets_sent);
        l.sctp_rtx += static_cast<double>(as.retransmits);
        l.sctp_timeouts += static_cast<double>(as.timeouts);
        l.sctp_fast_rtx += static_cast<double>(as.fast_retransmits);
      }
    }
  } else {
    // TcpRpi exposes no sockets: packets and retransmissions come from the
    // wire capture, timeouts and fast retransmits from the World's totals.
    const core::World::Totals t = world->transport_totals();
    l.tcp_timeouts = static_cast<double>(t.timeouts);
    l.tcp_fast_rtx = static_cast<double>(t.fast_retransmits);
    if (cap) {
      l.tcp_packets = static_cast<double>(cap->packets);
      l.tcp_rtx = static_cast<double>(cap->retransmits);
    }
  }
  if (cap) replay(l, *cap, r);

  const double t_teardown = now_s();
  world.reset();
  const double t_gone = now_s();

  CallTable calls;
  std::vector<Span> spans;
  spans.push_back({"world.build", -1, -1, t_build, t_built, 0});
  spans.push_back({"world.run", -1, -1, t_run, t_ran, 0});
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const RankCtx& c = ranks[i];
    const int rank = static_cast<int>(i);
    spans.push_back({"mpi.init", rank, 1, t_run, c.enter, 0});
    spans.push_back({"rank.body", rank, 1, c.enter, c.exit, c.calls.sum_s()});
    spans.push_back({"mpi.finalize", rank, 1, c.exit, t_ran, 0});
    calls.merge(c.calls);
    l.payload_bytes += static_cast<double>(c.payload_bytes);
  }
  spans.push_back({"world.teardown", -1, -1, t_teardown, t_gone, 0});
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "rank.body") l.body_self_s += self[i];
  }
  for (std::size_t i = 0; i < kCalls; ++i) {
    double& sum = is_blocking(static_cast<Call>(i)) ? l.wait_s : l.post_s;
    sum += calls.total_s[i];
    l.calls += static_cast<double>(calls.count[i]);
  }
  l.build_s = t_built - t_build;
  l.init_s = last_enter - t_run;
  l.teardown_s = t_gone - t_teardown;
  r.layer = layer_metrics(l);
  r.spans_json = spans_json(spans, calls);
  return r;
}

// ---------------------------------------------------------------------------
// farm_sctp_loss2 — the Fig. 10 Bulk Processor Farm
// ---------------------------------------------------------------------------

/// The paper's request-driven manager/worker farm (apps/farm.cpp protocol):
/// each task carries its id in its first 8 bytes and seeded bytes after,
/// and every worker checks both.
RepResult farm_sctp_loss2(const RepOptions& o) {
  core::WorldConfig cfg;
  cfg.ranks = 8;
  cfg.transport = core::TransportKind::kSctp;
  cfg.seed = o.seed;
  const std::vector<std::byte> pattern = seeded_bytes(kFarmTaskBytes, o.seed);
  constexpr int kCtlTag = 0;

  const RankBody body = [&pattern](Api& mpi, RankCtx& c) {
    const int nworkers = mpi.size() - 1;
    if (mpi.rank() == 0) {
      std::uint64_t tasks_left = kFarmTasks;
      std::uint64_t next_id = 0;
      int next_tag = 1;
      int workers_finished = 0;
      std::vector<int> terms_sent(static_cast<std::size_t>(mpi.size()), 0);
      std::vector<std::uint32_t> tasks_to(static_cast<std::size_t>(mpi.size()),
                                          0);
      std::vector<std::byte> task = pattern;
      std::byte req_buf[8];
      while (workers_finished < nworkers) {
        const core::MpiStatus st =
            mpi.recv(std::span(req_buf, 8), core::kAnySource, kCtlTag);
        const int worker = st.source;
        c.digest.add(static_cast<std::uint64_t>(worker));
        if (tasks_left > 0) {
          --tasks_left;
          put_u64(task, next_id++);
          mpi.send(task, worker, next_tag);
          next_tag = next_tag % kFarmTags + 1;
          ++tasks_to[static_cast<std::size_t>(worker)];
          continue;
        }
        // Pool dry: terminate this request, announcing the worker's total
        // (4 bytes, big-endian, as in apps/farm.cpp).
        const auto w = static_cast<std::size_t>(worker);
        const std::uint32_t count = tasks_to[w];
        const std::byte term[4] = {static_cast<std::byte>(count >> 24),
                                   static_cast<std::byte>(count >> 16),
                                   static_cast<std::byte>(count >> 8),
                                   static_cast<std::byte>(count)};
        mpi.send(term, worker, kCtlTag);
        if (++terms_sent[w] == kFarmOutstanding) ++workers_finished;
      }
      return;
    }
    // Worker: every unanswered request yields one task or one termination.
    std::vector<std::vector<std::byte>> bufs(
        kFarmOutstanding * 2, std::vector<std::byte>(kFarmTaskBytes));
    std::vector<core::Request> recvs(bufs.size());
    for (std::size_t i = 0; i < bufs.size(); ++i) {
      recvs[i] = mpi.irecv(bufs[i], 0, core::kAnyTag);
    }
    std::byte req{1};
    for (int i = 0; i < kFarmOutstanding; ++i) {
      mpi.send(std::span(&req, 1), 0, kCtlTag);
    }
    c.ids.reserve(kFarmTasks / static_cast<std::uint64_t>(nworkers) + 64);
    int terms_seen = 0;
    std::uint64_t target = 0;  // final task count, from terminations
    while (terms_seen < kFarmOutstanding || c.ids.size() < target) {
      core::MpiStatus st;
      const int idx = mpi.waitany(recvs, &st);
      std::vector<std::byte>& buf = bufs[static_cast<std::size_t>(idx)];
      if (st.tag == kCtlTag) {
        ++terms_seen;
        const std::uint64_t count =
            (std::to_integer<std::uint64_t>(buf[0]) << 24) |
            (std::to_integer<std::uint64_t>(buf[1]) << 16) |
            (std::to_integer<std::uint64_t>(buf[2]) << 8) |
            std::to_integer<std::uint64_t>(buf[3]);
        target = std::max(target, count);
      } else if (st.count != kFarmTaskBytes ||
                 std::memcmp(buf.data() + 8, pattern.data() + 8,
                             kFarmTaskBytes - 8) != 0) {
        c.ids.push_back(~0ull);  // corrupt: counted by the job check
      } else {
        c.ids.push_back(get_u64(buf));
        c.digest.add(c.ids.back());
      }
      recvs[static_cast<std::size_t>(idx)] = mpi.irecv(buf, 0, core::kAnyTag);
      if (st.tag == kCtlTag) continue;
      mpi.compute(kFarmWork);  // the task's work
      mpi.send(std::span(&req, 1), 0, kCtlTag);
    }
  };

  const JobCheck check = [](std::vector<RankCtx>& ranks, RepResult& r) {
    // Every task id must arrive exactly once, at some worker.
    std::vector<std::uint8_t> seen(kFarmTasks, 0);
    std::uint64_t dup_or_bad = 0;
    Digest d;
    for (const RankCtx& c : ranks) {
      d.add(c.digest.h);
      for (const std::uint64_t id : c.ids) {
        if (id < kFarmTasks && seen[id] == 0) {
          seen[id] = 1;
          ++r.ops;
        } else {
          ++dup_or_bad;
        }
      }
    }
    r.digest = d.h;
    if (r.ops != kFarmTasks) {
      r.failures.push_back("farm: " + std::to_string(kFarmTasks - r.ops) +
                           " tasks missing");
    }
    if (dup_or_bad != 0) {
      r.failures.push_back("farm: " + std::to_string(dup_or_bad) +
                           " tasks corrupt or duplicated");
    }
  };
  return run_mpi_job(cfg, /*job_loss=*/0.02, o, kFarmTasks,
                     net::IpProto::kSctp, body, check);
}

// ---------------------------------------------------------------------------
// pingpong_tcp_1mib — a Fig. 8 point
// ---------------------------------------------------------------------------

RepResult pingpong_tcp_1mib(const RepOptions& o) {
  core::WorldConfig cfg;
  cfg.ranks = 2;
  cfg.transport = core::TransportKind::kTcp;
  cfg.seed = o.seed;
  // Seeded message contents per direction; round i uses pattern i % K.
  std::vector<std::vector<std::byte>> ping, pong;
  for (int k = 0; k < kPingPongPatterns; ++k) {
    ping.push_back(seeded_bytes(kPingPongBytes, o.seed * 16 + 2 * k));
    pong.push_back(seeded_bytes(kPingPongBytes, o.seed * 16 + 2 * k + 1));
  }

  const RankBody body = [&ping, &pong](Api& mpi, RankCtx& c) {
    std::vector<std::byte> rx(kPingPongBytes);
    const bool pinger = mpi.rank() == 0;
    const auto& mine = pinger ? ping : pong;
    const auto& theirs = pinger ? pong : ping;
    const int peer = 1 - mpi.rank();
    c.ids.assign(kPingPongRounds, 0);  // 1 = round verified at this rank
    for (int i = 0; i < kPingPongRounds; ++i) {
      const std::size_t k = static_cast<std::size_t>(i % kPingPongPatterns);
      if (pinger) mpi.send(mine[k], peer, 0);
      const core::MpiStatus st = mpi.recv(rx, peer, 0);
      c.ids[static_cast<std::size_t>(i)] =
          st.count == kPingPongBytes &&
          std::memcmp(rx.data(), theirs[k].data(), kPingPongBytes) == 0;
      if (!pinger) mpi.send(mine[k], peer, 0);
      c.digest.add(static_cast<std::uint64_t>(mpi.now_ns()));
    }
  };

  const JobCheck check = [](std::vector<RankCtx>& ranks, RepResult& r) {
    for (int i = 0; i < kPingPongRounds; ++i) {
      const auto at = static_cast<std::size_t>(i);
      if (ranks[0].ids[at] != 0 && ranks[1].ids[at] != 0) ++r.ops;
    }
    Digest d;
    d.add(ranks[0].digest.h);
    d.add(ranks[1].digest.h);
    r.digest = d.h;
    if (r.ops != kPingPongRounds) {
      r.failures.push_back(
          "pingpong: " + std::to_string(kPingPongRounds - r.ops) +
          " round trips failed byte verification");
    }
  };
  return run_mpi_job(cfg, 0, o, kPingPongRounds, net::IpProto::kTcp, body,
                     check);
}

// ---------------------------------------------------------------------------
// manyflow_sctp_sharded — open-loop many-flow on a fat-tree, 2 shards
// ---------------------------------------------------------------------------

/// apps/manyflow.cpp's injection loop. Each message carries (sender,
/// per-destination sequence) in its first 16 bytes and the sender's seeded
/// bytes after; receivers check all three, and that each (sender, sequence)
/// arrives exactly once.
RepResult manyflow_sctp_sharded(const RepOptions& o) {
  core::WorldConfig cfg;
  cfg.ranks = kManyflowRanks;
  cfg.transport = core::TransportKind::kSctp;
  cfg.seed = o.seed;
  cfg.topology = net::TopologyKind::kFatTree;
  cfg.fattree.k = 4;
  cfg.shards = 2;
  std::vector<std::vector<std::byte>> payloads;
  for (int r = 0; r < kManyflowRanks; ++r) {
    payloads.push_back(seeded_bytes(kManyflowBytes, o.seed * 64 + r));
  }
  constexpr int kTag = 1;
  constexpr std::uint64_t kExpect = kManyflowFanout * kManyflowPerPeer;

  const RankBody body = [&payloads](Api& mpi, RankCtx& c) {
    const int n = mpi.size();
    const int me = mpi.rank();
    std::vector<std::vector<std::byte>> rbufs(
        kManyflowWindow, std::vector<std::byte>(kManyflowBytes));
    std::vector<core::Request> recvs(kManyflowWindow);
    for (int i = 0; i < kManyflowWindow; ++i) {
      recvs[static_cast<std::size_t>(i)] =
          mpi.irecv(rbufs[static_cast<std::size_t>(i)], core::kAnySource, kTag);
    }
    // seen[src * kManyflowPerPeer + seq]: each message counts once.
    std::vector<std::uint8_t> seen(
        static_cast<std::size_t>(n) * kManyflowPerPeer, 0);
    std::uint64_t received = 0;
    // Checks one landed message and re-posts its slot if more are due.
    auto land = [&](std::size_t slot, const core::MpiStatus& st) {
      ++received;
      const std::vector<std::byte>& buf = rbufs[slot];
      const int src = st.source;
      const int dist = (me - src + n) % n;
      const std::uint64_t seq = get_u64(std::span(buf).subspan(8));
      const bool ok =
          src >= 0 && src < n && dist >= 1 && dist <= kManyflowFanout &&
          st.count == kManyflowBytes &&
          get_u64(buf) == static_cast<std::uint64_t>(src) &&
          seq < kManyflowPerPeer &&
          seen[static_cast<std::size_t>(src) * kManyflowPerPeer + seq] == 0 &&
          std::memcmp(buf.data() + 16,
                      payloads[static_cast<std::size_t>(src)].data() + 16,
                      kManyflowBytes - 16) == 0;
      if (ok) {
        ++c.good;
        seen[static_cast<std::size_t>(src) * kManyflowPerPeer + seq] = 1;
        c.digest.add((static_cast<std::uint64_t>(src) << 32) | seq);
      } else {
        ++c.bad;
      }
      if (kExpect - received >= kManyflowWindow) {
        recvs[slot] = mpi.irecv(rbufs[slot], core::kAnySource, kTag);
      }
    };

    std::vector<std::byte> payload = payloads[static_cast<std::size_t>(me)];
    put_u64(payload, static_cast<std::uint64_t>(me));
    std::vector<core::Request> sends(kManyflowFanout);
    for (int j = 0; j < kManyflowPerPeer; ++j) {
      put_u64(std::span(payload).subspan(8), static_cast<std::uint64_t>(j));
      for (int p = 0; p < kManyflowFanout; ++p) {
        sends[static_cast<std::size_t>(p)] =
            mpi.isend(payload, (me + 1 + p) % n, kTag);
      }
      // Reap whatever already landed, without blocking the injection loop.
      for (std::size_t i = 0; i < recvs.size(); ++i) {
        core::MpiStatus st;
        if (recvs[i].valid() && mpi.test(recvs[i], &st)) land(i, st);
      }
      mpi.waitall(sends);
    }
    while (received < kExpect) {
      core::MpiStatus st;
      const int idx = mpi.waitany(recvs, &st);
      land(static_cast<std::size_t>(idx), st);
    }
    c.digest.add(static_cast<std::uint64_t>(mpi.now_ns()));
  };

  const JobCheck check = [](std::vector<RankCtx>& ranks, RepResult& r) {
    Digest d;
    std::uint64_t bad = 0;
    for (const RankCtx& c : ranks) {
      r.ops += c.good;
      bad += c.bad;
      d.add(c.digest.h);
    }
    r.digest = d.h;
    if (bad != 0) {
      r.failures.push_back("manyflow: " + std::to_string(bad) +
                           " messages out of order, misrouted or corrupt");
    }
    if (r.ops != r.attempted) {
      r.failures.push_back("manyflow: " + std::to_string(r.attempted - r.ops) +
                           " messages not delivered intact");
    }
  };
  return run_mpi_job(cfg, 0, o, kManyflowRanks * kExpect,
                     net::IpProto::kSctp, body, check);
}

// ---------------------------------------------------------------------------
// service_tcp_fleet — 22k TCP clients behind the Maglev balancer
// ---------------------------------------------------------------------------

RepResult service_tcp_fleet(const RepOptions& o) {
  // bench/micro_service.cpp's clean-tail fat-tree scenario.
  apps::ServiceParams p;
  p.transport = apps::ServiceTransport::kTcp;
  p.topology = apps::ServiceTopology::kFatTree;
  p.seed = o.seed;
  p.fattree_k = 4;  // 16 hosts: 11 client hosts, 4 backends, 1 balancer
  p.backends = 4;
  p.clients_per_host = 2000;  // 22k clients
  p.requests = kServiceRequests;
  p.arrival_rate_hz = 40000;
  p.tcp.min_rto = 200 * sim::kMillisecond;
  p.tcp.initial_rto = 400 * sim::kMillisecond;
  p.tcp.max_rto = 2 * sim::kSecond;
  p.tcp.max_data_retries = 3;
  p.tcp.sndbuf = 8 * 1024;
  p.tcp.rcvbuf = 4 * 1024;
  p.size_mu = 6.0;  // ~400 B median
  p.size_sigma = 1.0;
  p.size_max = 1024;

  RepResult r;
  r.attempted = kServiceRequests;
  net::CopyStats::reset();
  const double t_build = now_s();
  auto svc = std::make_unique<apps::ServiceSim>(p);
  const double t_built = now_s();
  std::unique_ptr<WireCapture> cap;
  if (o.trace) {
    cap = std::make_unique<WireCapture>(
        net::IpProto::kTcp, "h" + std::to_string(svc->lb_host()), o.seed);
    svc->cluster().set_observer(cap.get());
  }
  const double cpu0 = cpu_now_s();
  const double t_run = now_s();
  const apps::ServiceResult res = svc->run();
  const double t_ran = now_s();
  const double cpu1 = cpu_now_s();
  if (cap) svc->cluster().set_observer(nullptr);

  r.setup_s = t_built - t_build;
  r.body_s = t_ran - t_run;
  sim::Simulator& sim = svc->cluster().host(0).sim();
  r.sim_ns = sim.now();
  r.ops = std::min(res.completed, kServiceRequests);
  Digest d;
  d.add(res.digest);
  d.add(static_cast<std::uint64_t>(r.sim_ns));
  r.digest = d.h;
  if (res.issued != kServiceRequests || res.completed != res.issued ||
      res.abandoned != 0) {
    r.failures.push_back("service: issued " + std::to_string(res.issued) +
                         ", completed " + std::to_string(res.completed) +
                         ", abandoned " + std::to_string(res.abandoned));
  }
  if (!o.trace) return r;

  Layer l;
  l.ops = static_cast<double>(r.ops);
  l.sim_s = static_cast<double>(r.sim_ns) / 1e9;
  l.run_s = t_ran - t_run;
  l.cpu_s = cpu1 - cpu0;
  l.body_self_s = l.run_s;
  l.events = static_cast<double>(sim.events_processed());
  l.slot_capacity = static_cast<double>(sim.slot_capacity());
  add_link_stats(l, svc->cluster());
  add_copy_stats(l);
  l.lb_forwarded = static_cast<double>(res.lb.forwarded);
  l.lb_tracked_hits = static_cast<double>(res.lb.tracked_hits);
  l.lb_maglev = static_cast<double>(res.lb.maglev_assignments);
  l.svc_retried = static_cast<double>(res.retried);
  l.svc_reconnects = static_cast<double>(res.reconnects);
  l.tcp_packets = static_cast<double>(cap->packets);
  l.tcp_rtx = static_cast<double>(cap->retransmits);
  replay(l, *cap, r);

  const double t_teardown = now_s();
  svc.reset();
  const double t_gone = now_s();
  l.build_s = t_built - t_build;
  l.teardown_s = t_gone - t_teardown;
  r.layer = layer_metrics(l);
  const std::vector<Span> spans = {
      {"world.build", -1, -1, t_build, t_built, 0},
      {"service.run", -1, -1, t_run, t_ran, 0},
      {"world.teardown", -1, -1, t_teardown, t_gone, 0},
  };
  r.spans_json = spans_json(spans, CallTable{});
  return r;
}

}  // namespace

const std::vector<std::pair<std::string, WorkloadFn>>& workloads() {
  static const std::vector<std::pair<std::string, WorkloadFn>> kAll = {
      {"farm_sctp_loss2", &farm_sctp_loss2},
      {"pingpong_tcp_1mib", &pingpong_tcp_1mib},
      {"service_tcp_fleet", &service_tcp_fleet},
      {"manyflow_sctp_sharded", &manyflow_sctp_sharded},
  };
  return kAll;
}

}  // namespace perfbench
