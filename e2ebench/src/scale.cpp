// scale_4096: one thread runs mp::run_spmd at P=4096, one simulation at a
// time. Each run is the benchmark's own RankProgram: a 1024-int32 global
// sum followed by a 64 KiB broadcast, both through the public Communicator
// collectives. The fabric rotates over CLUSTER/Flat, FatTree and Dragonfly.
#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "common.hpp"
#include "host/platform.hpp"
#include "mp/api.hpp"
#include "mp/buffer_pool.hpp"
#include "mp/message.hpp"
#include "sim/rng.hpp"

namespace e2e {
namespace {

using pdc::host::PlatformId;

constexpr int kProcs = 4096;
constexpr int kInts = 1024;
constexpr std::size_t kBytes = 64 * 1024;
constexpr int kBroadcastTag = 7;
constexpr std::size_t kRotations = 16;
constexpr std::size_t kCheck = 3;  // the first rotation
// Check-set digest for seed 1; see check_pinned_digest.
constexpr std::uint64_t kPinned = 0x7a0b217ebef7d696ULL;

struct ScaleRequest {
  PlatformId fabric{PlatformId::ClusterFlat};
  int base{0};  ///< offset folded into every rank's vector and the payload
  int root{0};  ///< broadcast root
};

std::vector<ScaleRequest> scale_requests(std::uint64_t seed) {
  pdc::sim::Rng rng = stream(seed, 0x5CA1E);
  std::vector<ScaleRequest> out;
  for (std::size_t k = 0; k < kRotations; ++k) {
    auto perm = pdc::host::scale_platforms();
    for (std::size_t i = perm.size() - 1; i > 0; --i) std::swap(perm[i], perm[rng.uniform(0, i)]);
    for (const auto fabric : perm) {
      out.push_back({fabric, static_cast<int>(rng.uniform(0, 999)),
                     static_cast<int>(rng.uniform(0, kProcs - 1))});
    }
  }
  return out;
}

std::byte pattern(const ScaleRequest& q, std::size_t k) {
  return static_cast<std::byte>((k * 131 + static_cast<std::size_t>(q.base)) & 0xFF);
}

/// Global sum then broadcast; every rank checks both results and counts
/// wrong ones in `bad`.
pdc::mp::RankProgram collective_program(const ScaleRequest& q, std::atomic<int>& bad) {
  return [&q, &bad](pdc::mp::Communicator& c) -> pdc::sim::Task<void> {
    std::vector<std::int32_t> v(kInts);
    for (int j = 0; j < kInts; ++j) v[static_cast<std::size_t>(j)] = c.rank() + j + q.base;
    co_await c.global_sum(v);
    constexpr std::int32_t kRankSum = kProcs * (kProcs - 1) / 2;
    for (int j = 0; j < kInts; ++j) {
      if (v[static_cast<std::size_t>(j)] != kRankSum + kProcs * (j + q.base)) {
        bad.fetch_add(1);
        break;
      }
    }
    pdc::mp::Payload data;
    if (c.rank() == q.root) {
      pdc::mp::Bytes bytes(kBytes);
      for (std::size_t k = 0; k < kBytes; ++k) bytes[k] = pattern(q, k);
      data = pdc::mp::make_payload(std::move(bytes));
    }
    co_await c.broadcast(q.root, data, kBroadcastTag);
    bool ok = data && data->size() == kBytes;
    for (std::size_t i = 0; ok && i < 16; ++i) {
      const std::size_t k = (i * 4099) % kBytes;
      ok = (*data)[k] == pattern(q, k);
    }
    if (!ok) bad.fetch_add(1);
  };
}

pdc::mp::RankProgram empty_program() {
  return [](pdc::mp::Communicator&) -> pdc::sim::Task<void> { co_return; };
}

/// Index of a scale fabric in scale_platforms() (Flat, FatTree, Dragonfly).
std::size_t fabric_index(PlatformId id) {
  const auto& all = pdc::host::scale_platforms();
  return static_cast<std::size_t>(std::find(all.begin(), all.end(), id) - all.begin());
}

constexpr const char* kFabricNames[] = {"flat", "fattree", "dragonfly"};

bool same_outcome(const pdc::mp::RunOutcome& a, const pdc::mp::RunOutcome& b) {
  return a.elapsed.ns == b.elapsed.ns && a.events == b.events && a.messages == b.messages &&
         a.payload_bytes == b.payload_bytes;
}

}  // namespace

Report run_scale_4096(const Options& opts) {
  Report rep;
  add_run_header(rep, opts);
  const auto requests = scale_requests(opts.seed);
  Digest inputs;
  for (const auto& q : requests) {
    inputs.u64(static_cast<std::uint64_t>(q.fabric));
    inputs.u64(static_cast<std::uint64_t>(q.base));
    inputs.u64(static_cast<std::uint64_t>(q.root));
  }
  rep.note("inputs_digest", hex64(inputs.value()));
  if (opts.mode == Mode::Inputs) return rep;

  const std::size_t L = requests.size();
  std::vector<pdc::mp::RunOutcome> outcome(L);
  std::vector<bool> done(L, false);
  // Runs request r; false when the program saw a wrong collective result,
  // threw, or a repeat differs from the request's first outcome.
  const auto run = [&](std::size_t r) {
    std::atomic<int> bad{0};
    try {
      const auto out = pdc::mp::run_spmd(requests[r].fabric, kProcs, pdc::mp::ToolKind::Express,
                                         collective_program(requests[r], bad));
      if (!done[r]) {
        outcome[r] = out;
        done[r] = true;
        return bad.load() == 0;
      }
      return bad.load() == 0 && same_outcome(out, outcome[r]);
    } catch (const std::exception& e) {
      rep.note("exception", e.what());
      return false;
    }
  };

  // Set-up: the first 4096-rank touch of every fabric (cluster, runtime,
  // per-rank coroutine frames), with a program that sends nothing.
  const std::int64_t setup0 = now_ns();
  for (const auto fabric : pdc::host::scale_platforms()) {
    (void)pdc::mp::run_spmd(fabric, kProcs, pdc::mp::ToolKind::Express, empty_program());
  }
  rep.add_e2e("setup_s", static_cast<double>(now_ns() - setup0) / 1e9, "s");
  if (opts.mode == Mode::Setup) return rep;

  SpanLog log;
  PhaseTally tally[2];
  std::vector<std::vector<double>> fabric_ms(3);
  std::vector<double> ns_per_event;
  double pool_hits = 0, pool_misses = 0;
  std::size_t next = 0;
  if (opts.mode == Mode::Run) {
    const std::int64_t start = now_ns();
    const std::int64_t deadline = start + static_cast<std::int64_t>(opts.seconds * 1e9);
    std::int64_t t = start;
    // Whole rotations only, so every fabric has the same number of samples.
    // A traced run traces every second rotation: a run is longer than the
    // time blocks the other workloads alternate on.
    const std::size_t fabrics = pdc::host::scale_platforms().size();
    while (t < deadline || next % fabrics != 0) {
      const bool in_trace = opts.trace && (next / fabrics) % 2 == 1;
      const std::size_t r = next++ % L;
      const auto pool0 = pdc::mp::BufferPool::local().stats();
      bool ok = false;
      std::int64_t t2 = 0;
      if (!in_trace) {
        ok = run(r);
        t2 = now_ns();
      } else {
        const std::uint32_t root = log.next_id();
        const std::uint64_t request = log.next_request();
        std::vector<Span> spans{{"bench.request", t, 0, root, 0, request, thread_index()}};
        const std::int64_t call0 = now_ns();
        ok = run(r);
        const std::int64_t call1 = now_ns();
        spans.push_back({"mp.run_spmd", call0, call1, log.next_id(), root, request,
                         thread_index()});
        const auto pool1 = pdc::mp::BufferPool::local().stats();
        pool_hits += static_cast<double>(pool1.hits - pool0.hits);
        pool_misses += static_cast<double>(pool1.misses - pool0.misses);
        t2 = now_ns();
        spans.front().end_ns = t2;
        log.add_request(spans);
      }
      const double ms = static_cast<double>(t2 - t) / 1e6;
      tally[in_trace ? 1 : 0].add(start, t, t2, 1.0, ms);
      fabric_ms.at(fabric_index(requests[r].fabric)).push_back(ms);
      if (done[r] && outcome[r].events > 0) {
        ns_per_event.push_back(ms * 1e6 / static_cast<double>(outcome[r].events));
      }
      ++rep.attempted;
      if (!ok) rep.mismatch("request " + std::to_string(r));
      t = t2;
    }
  }

  // Outside the timed window: finish the check set, fold its digest, and
  // re-run one seeded request with the event loop forced serial.
  for (std::size_t r = 0; r < kCheck; ++r) {
    if (!done[r] && !run(r)) rep.mismatch("check request");
  }
  Digest digest;
  double events = 0, messages = 0, bytes = 0, scanned = 0, matches = 0;
  for (std::size_t r = 0; r < kCheck; ++r) {
    const auto& o = outcome[r];
    digest.u64(static_cast<std::uint64_t>(o.elapsed.ns));
    digest.u64(o.events);
    digest.u64(o.messages);
    digest.u64(o.payload_bytes);
    events += static_cast<double>(o.events);
    messages += static_cast<double>(o.messages);
    bytes += static_cast<double>(o.payload_bytes);
    scanned += static_cast<double>(o.mailbox.items_scanned);
    matches += static_cast<double>(o.mailbox.matches);
  }
  check_pinned_digest(rep, opts, digest.value(), kPinned);
  if (rep.attempted == 0) rep.attempted = kCheck;

  pdc::sim::Rng pick = stream(opts.seed, 0x5A3B1E);
  const std::size_t again = pick.uniform(0, std::min(next, L) > 0 ? std::min(next, L) - 1 : 0);
  pdc::mp::set_sim_threads(1);
  if (done[again] && !run(again)) rep.mismatch("serial re-run differs on request " +
                                                std::to_string(again));
  pdc::mp::set_sim_threads(0);
  rep.note("serial_sample",
           "request " + std::to_string(again) + " re-run with the event loop serial");
  if (opts.mode == Mode::Check) return rep;

  const SlicedTail tl = tally[0].request_tail();
  rep.add_e2e("cells_per_s", tally[0].median_rate(), "1/s");
  rep.add_e2e("request_ms_p50", median(tally[0].request_ms), "ms");
  rep.add_e2e("request_ms_tail", tl.tail.value, "ms");
  rep.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add_e2e("failed_frac", static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
              "frac");
  rep.note("requests", std::to_string(tally[0].request_ms.size()) + " untraced, " +
                           std::to_string(tally[1].request_ms.size()) + " traced");
  rep.note("request_ms_tail", tail_note(tl));
  rep.note("window_cells_per_s", join(tally[0].window_rates()));
  for (std::size_t f = 0; f < fabric_ms.size(); ++f) {
    rep.note(std::string("run_ms_p50.") + kFabricNames[f], std::to_string(median(fabric_ms[f])));
  }
  if (!opts.trace) return rep;

  // Construction alone: the same P and fabrics with a program that sends
  // nothing.
  std::vector<double> setup_ms;
  for (int rep_i = 0; rep_i < 3; ++rep_i) {
    for (const auto fabric : pdc::host::scale_platforms()) {
      const std::int64_t s0 = now_ns();
      (void)pdc::mp::run_spmd(fabric, kProcs, pdc::mp::ToolKind::Express, empty_program());
      setup_ms.push_back(static_cast<double>(now_ns() - s0) / 1e6);
    }
  }
  const double request_p50 = median(tally[0].request_ms);
  const double flat = median(fabric_ms[0]);
  rep.add_layer("mp.pool.hit_rate",
                pool_hits + pool_misses > 0 ? pool_hits / (pool_hits + pool_misses) : 0, "frac");
  rep.add_layer("mp.mailbox.scans_per_match", matches > 0 ? scanned / matches : 0, "ratio");
  rep.add_layer("mp.messages_per_cell", messages / kCheck, "count");
  rep.add_layer("mp.bytes_per_cell", bytes / kCheck, "B");
  rep.add_layer("sim.events_per_cell", events / kCheck, "count");
  rep.add_layer("sim.ns_per_event", median(ns_per_event), "ns");
  rep.add_layer("sim.setup_ms", median(setup_ms), "ms");
  rep.add_layer("sim.setup_frac", median(setup_ms) / request_p50, "frac");
  rep.add_layer("net.run_ms_p50.flat", flat, "ms");
  rep.add_layer("net.run_ms_p50.fattree", median(fabric_ms[1]), "ms");
  rep.add_layer("net.run_ms_p50.dragonfly", median(fabric_ms[2]), "ms");
  rep.add_layer("net.fattree_vs_flat", flat > 0 ? median(fabric_ms[1]) / flat : 0, "ratio");
  rep.add_layer("net.dragonfly_vs_flat", flat > 0 ? median(fabric_ms[2]) / flat : 0, "ratio");
  rep.add_layer("trace.overhead_frac", tally[1].cells_per_s() / tally[0].cells_per_s() - 1.0,
                "frac");
  finish_trace(rep, opts, log);
  return rep;
}

}  // namespace e2e
