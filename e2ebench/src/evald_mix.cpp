// evald_mix: an in-process evald::Server on a socket and store file under
// the output directory, pre-populated and then restarted so store replay is
// timed. One closed-loop client sends a seeded mix of cached batches,
// batches of never-seen specs, and invalidations of cached specs that are
// later looked up again.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "eval/cell.hpp"
#include "eval/sched_cell.hpp"
#include "evald/client.hpp"
#include "evald/server.hpp"
#include "sim/rng.hpp"

namespace e2e {
namespace {

using pdc::eval::CellSpec;
using Bytes = std::vector<std::byte>;

constexpr std::size_t kPoolTpl = 384;
constexpr std::size_t kPoolSched = 24;
constexpr std::size_t kCheckRequests = 64;  // the client's first lookups
constexpr std::size_t kSample = 32;  // computed results re-run after the run
// Check-set digest for seed 1; see check_pinned_digest.
constexpr std::uint64_t kPinned = 0xdb283a92f6e70b06ULL;

/// The cached working set: Table 3 plus seeded TPL and Sched specs, each
/// with its result computed directly by eval::run_cell.
struct Pool {
  std::vector<CellSpec> specs;
  std::vector<Bytes> fresh;
  std::vector<std::size_t> sched;  ///< indices of the Sched specs
};

pdc::eval::TplCell random_tpl(pdc::sim::Rng& rng, std::int64_t bytes) {
  const auto& platforms = pdc::host::all_platforms();
  const auto& tools = pdc::mp::all_tools();
  pdc::eval::TplCell c;
  c.primitive = pdc::eval::all_primitives()[rng.uniform(0, 3)];
  c.platform = platforms[rng.uniform(0, platforms.size() - 1)];
  c.tool = tools[rng.uniform(0, tools.size() - 1)];
  c.bytes = bytes;
  const int max_nodes = pdc::host::platform_spec(c.platform).max_nodes;
  const int procs[] = {2, 4, 8, 16};
  c.procs = c.primitive == pdc::eval::Primitive::SendRecv
                ? 2
                : procs[rng.uniform(0, max_nodes >= 16 ? 3 : max_nodes >= 8 ? 2 : 1)];
  c.global_sum_ints = std::max<std::int64_t>(1, bytes / 4);
  return c;
}

pdc::eval::SchedCell random_sched(pdc::sim::Rng& rng) {
  const auto& fabrics = pdc::host::scale_platforms();
  pdc::eval::SchedCell c;
  c.platform = fabrics[rng.uniform(0, fabrics.size() - 1)];
  c.nodes = rng.uniform(0, 1) ? 32 : 16;
  c.njobs = static_cast<int>(rng.uniform(6, 12));
  c.users = static_cast<int>(rng.uniform(2, 4));
  c.seed = rng.next_u64();
  return c;
}

Pool make_pool(std::uint64_t seed) {
  Pool pool;
  std::unordered_set<std::uint64_t> keys;
  const auto add = [&](const CellSpec& s) {
    const auto bytes = pdc::eval::encode_spec(s);
    if (!keys.insert(pdc::eval::cell_key(bytes)).second) return false;
    pool.specs.push_back(s);
    return true;
  };
  for (const CellSpec& s : pdc::eval::table3_grid()) add(s);
  pdc::sim::Rng rng = stream(seed, 0xE7A1D);
  const auto& sizes = pdc::eval::paper_message_sizes();
  while (pool.specs.size() < pdc::eval::table3_grid().size() + kPoolTpl) {
    add(CellSpec::of(random_tpl(rng, sizes[rng.uniform(0, sizes.size() - 1)])));
  }
  while (pool.sched.size() < kPoolSched) {
    if (add(CellSpec::of(random_sched(rng)))) pool.sched.push_back(pool.specs.size() - 1);
  }
  return pool;
}

/// A never-seen spec, TPL or Sched at even odds: TPL sizes off the paper's
/// 1 KiB grid (so never in the pool), or a Sched spec with a fresh workload
/// seed.
CellSpec new_spec(pdc::sim::Rng& rng, std::unordered_set<std::uint64_t>& seen) {
  for (;;) {
    CellSpec s;
    if (rng.uniform(0, 1) == 0) {
      std::int64_t bytes = 0;
      while (bytes % 1024 == 0) {
        bytes = static_cast<std::int64_t>(rng.uniform(1, 65535));
      }
      s = CellSpec::of(random_tpl(rng, bytes));
    } else {
      s = CellSpec::of(random_sched(rng));
    }
    if (seen.insert(pdc::eval::cell_key(pdc::eval::encode_spec(s))).second) return s;
  }
}

/// What the client measured.
struct ClientTally {
  PhaseTally phase[2];
  std::vector<double> hit_us, miss_ms;
  std::vector<std::uint32_t> hit_window;  ///< window of each hit_us entry
  double hit_cells{0}, hit_requests{0};
  std::uint64_t attempted{0}, failed{0};
  std::vector<std::string> problems;
  /// A uniform sample (reservoir) of the never-seen specs served, with
  /// their results: memory stays bounded however long the run.
  std::vector<std::pair<CellSpec, Bytes>> computed;
  std::uint64_t computed_seen{0};
  Digest digest;
  std::size_t digest_requests{0};
};

void client_loop(std::uint64_t seed, const Pool& pool,
                 const std::string& socket, std::unique_ptr<pdc::evald::Client>& conn,
                 std::int64_t start, std::int64_t deadline, bool finish_check,
                 const Phases& phases, SpanLog& log, std::unordered_set<std::uint64_t> seen,
                 ClientTally& tally) {
  pdc::sim::Rng rng = stream(seed, 0xC11E47);
  pdc::sim::Rng pick = stream(seed, 0x5A3B1E);
  std::deque<std::size_t> pending;  // invalidated pool specs to look up again
  std::int64_t t = start;
  while (conn && (t < deadline || (finish_check && tally.digest_requests < kCheckRequests))) {
    const bool in_trace = phases.traced_at(t);
    const double x = rng.next_double();
    std::vector<CellSpec> specs;
    std::vector<std::size_t> from_pool;  // pool index, or SIZE_MAX for a new spec
    std::size_t invalidate = SIZE_MAX;
    if (x < 0.85) {
      const auto k = rng.uniform(1, 64);
      for (std::uint64_t i = 0; i < k; ++i) {
        std::size_t idx = rng.uniform(0, pool.specs.size() - 1);
        if (i == 0 && !pending.empty()) {
          idx = pending.front();
          pending.pop_front();
        }
        specs.push_back(pool.specs[idx]);
        from_pool.push_back(idx);
      }
    } else if (x < 0.95) {
      const auto k = rng.uniform(1, 4);
      for (std::uint64_t i = 0; i < k; ++i) {
        specs.push_back(new_spec(rng, seen));
        from_pool.push_back(SIZE_MAX);
      }
    } else {
      invalidate = rng.uniform(0, pool.specs.size() - 1);
      pending.push_back(invalidate);
    }

    // The clock runs only over the client call. Generating the request
    // above and checking its outputs below are the benchmark's own work and
    // stay out of every timed metric.
    const std::int64_t t0 = now_ns();
    bool ok = true;
    bool miss = false;
    std::vector<pdc::evald::Client::Outcome> outcomes;
    try {
      if (invalidate != SIZE_MAX) {
        (void)conn->invalidate(pool.specs[invalidate]);
      } else {
        outcomes = conn->sweep(specs);
      }
    } catch (const std::exception& e) {
      ok = false;
      tally.problems.push_back(e.what());
    }
    const std::int64_t t1 = now_ns();
    if (!ok) {
      try {
        conn = std::make_unique<pdc::evald::Client>(socket);
      } catch (const std::exception&) {
        conn.reset();
      }
    }

    const bool digest_this = invalidate == SIZE_MAX &&
                             tally.digest_requests < kCheckRequests;
    for (std::size_t i = 0; ok && i < outcomes.size(); ++i) {
      const auto& o = outcomes[i];
      miss = miss || o.origin == pdc::evald::Origin::Computed;
      if (o.result.status == pdc::eval::CellStatus::Error) {
        ok = false;
        tally.problems.push_back("cell error: " + o.result.error);
        break;
      }
      Bytes bytes = pdc::eval::encode_result(o.result);
      if (digest_this) tally.digest.bytes(bytes.data(), bytes.size());
      if (from_pool[i] != SIZE_MAX) {
        if (bytes != pool.fresh[from_pool[i]]) {
          ok = false;
          tally.problems.push_back("served result differs from eval::run_cell");
        }
      } else {
        const std::uint64_t slot = pick.uniform(0, tally.computed_seen++);
        if (tally.computed.size() < kSample) {
          tally.computed.emplace_back(specs[i], std::move(bytes));
        } else if (slot < kSample) {
          tally.computed[slot] = {specs[i], std::move(bytes)};
        }
      }
    }
    if (digest_this) ++tally.digest_requests;
    const std::int64_t t2 = now_ns();

    if (in_trace) {
      const std::uint32_t root = log.next_id();
      const std::uint64_t request = log.next_request();
      log.add_request({{"bench.request", t, t2, root, 0, request, thread_index()},
                       {invalidate != SIZE_MAX ? "evald.invalidate" : "evald.sweep", t0, t1,
                        log.next_id(), root, request, thread_index()}});
    }
    const double rtt_ms = static_cast<double>(t1 - t0) / 1e6;
    tally.phase[in_trace ? 1 : 0].add(start, t0, t1, static_cast<double>(outcomes.size()), rtt_ms);
    if (!in_trace && !outcomes.empty()) {
      if (miss) {
        tally.miss_ms.push_back(rtt_ms);
      } else {
        tally.hit_us.push_back(rtt_ms * 1e3);
        tally.hit_window.push_back(static_cast<std::uint32_t>((t1 - start) / 1'000'000'000));
        tally.hit_cells += static_cast<double>(outcomes.size());
        tally.hit_requests += 1;
      }
    }
    ++tally.attempted;
    if (!ok) ++tally.failed;
    t = t2;
  }
}

/// Binds the calling thread, and so every thread it starts later (the
/// daemon's accept and connection threads), to the last CPU it may run on.
/// The client and its daemon connection thread hand each request back and
/// forth; on one CPU that CPU stays busy, while across CPUs each hand-off
/// wakes an idle virtual CPU, which a loaded host schedules late.
void pin_to_one_cpu(Report& rep) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) == 0) rep.note("pinned_cpu", std::to_string(cpu));
    return;
  }
}

}  // namespace

Report run_evald_mix(const Options& opts) {
  Report rep;
  add_run_header(rep, opts);
  pin_to_one_cpu(rep);

  Pool pool = make_pool(opts.seed);
  Digest inputs;
  for (const CellSpec& s : pool.specs) {
    const auto bytes = pdc::eval::encode_spec(s);
    inputs.bytes(bytes.data(), bytes.size());
  }
  inputs.u64(opts.seed);  // the client's request stream derives from it
  rep.note("inputs_digest", hex64(inputs.value()));
  if (opts.mode == Mode::Inputs) return rep;

  // Pre-population (not timed): every pool spec's result straight from
  // eval::run_cell, then the same specs warmed into a fresh store.
  std::unordered_set<std::uint64_t> pool_keys;
  for (const CellSpec& s : pool.specs) {
    pool.fresh.push_back(pdc::eval::encode_result(pdc::eval::run_cell(s)));
    pool_keys.insert(pdc::eval::cell_key(pdc::eval::encode_spec(s)));
  }
  const std::string dir = opts.out_dir + "/evald-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const pdc::evald::ServerConfig config{dir + "/evald.sock", dir + "/store.pdce"};
  {
    pdc::evald::Server warm_server(config);
    warm_server.start();
    pdc::evald::Client warm_client(config.socket_path);
    (void)warm_client.warm(pool.specs);
  }

  // Set-up: restart on the populated store (replay), connect, ping.
  const std::int64_t setup0 = now_ns();
  auto server = std::make_unique<pdc::evald::Server>(config);
  const double replay_s = static_cast<double>(now_ns() - setup0) / 1e9;
  server->start();
  auto conn = std::make_unique<pdc::evald::Client>(config.socket_path);
  if (!conn->ping()) rep.mismatch("ping failed");
  const double setup_s = static_cast<double>(now_ns() - setup0) / 1e9;
  rep.add_e2e("setup_s", setup_s, "s");
  const auto recovered = server->store().stats().recovered;
  if (recovered != pool.specs.size()) rep.mismatch("store replay recovered a different count");
  if (opts.mode == Mode::Setup) {
    conn.reset();
    server.reset();
    std::filesystem::remove_all(dir);
    return rep;
  }

  SpanLog log;
  ClientTally tally;
  const auto daemon0 = server->stats();
  const auto store0 = server->store().stats();
  const double seconds = opts.mode == Mode::Run ? opts.seconds : 0.0;
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  const Phases phases(start, opts.trace);
  try {
    client_loop(opts.seed, pool, config.socket_path, conn, start, deadline, false, phases, log,
                pool_keys, tally);
  } catch (const std::exception& e) {
    ++tally.failed;
    tally.problems.push_back(std::string("client stopped: ") + e.what());
  }
  const auto daemon1 = server->stats();
  const auto store1 = server->store().stats();

  // Outside the timed window: finish the check set, fold the digest, and
  // check a seeded sample of computed results against eval::run_cell. If
  // the client did not reach the end of the check set, its stream replays
  // from the start, untimed, into a tally of its own.
  std::uint64_t check_digest = tally.digest.value();
  if (tally.digest_requests < kCheckRequests && conn) {
    ClientTally again;
    client_loop(opts.seed, pool, config.socket_path, conn, 0, 0, true, Phases(0, false), log,
                pool_keys, again);
    check_digest = again.digest.value();
    for (const auto& p : again.problems) rep.mismatch("check set: " + p);
  }
  const PhaseTally* all = tally.phase;
  const std::vector<double>& hit_us = tally.hit_us;
  const std::vector<double>& miss_ms = tally.miss_ms;
  rep.attempted += tally.attempted;
  rep.failed += tally.failed;
  if (tally.failed > 0) rep.correct = false;
  for (const auto& p : tally.problems) rep.note("problem", p);
  check_pinned_digest(rep, opts, check_digest, kPinned);
  if (rep.attempted == 0) rep.attempted = kCheckRequests;
  for (const auto& [spec, bytes] : tally.computed) {
    if (pdc::eval::encode_result(pdc::eval::run_cell(spec)) != bytes) {
      rep.mismatch("computed result differs from eval::run_cell");
    }
  }
  rep.note("serial_sample", "every cached result and " + std::to_string(tally.computed.size()) +
                                " sampled computed ones checked against eval::run_cell");

  if (opts.mode == Mode::Run) {
    const SlicedTail tl = all[0].request_tail();
    const SlicedTail hit_tail = sliced_tail(hit_us, tally.hit_window);
    const double cells_per_s = all[0].median_rate();
    rep.add_e2e("cells_per_s", cells_per_s, "1/s");
    rep.add_e2e("request_ms_p50", median(all[0].request_ms), "ms");
    rep.add_e2e("request_ms_tail", tl.tail.value, "ms");
    rep.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add_e2e("failed_frac", static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
                "frac");
    rep.add_e2e("lookups_per_s", cells_per_s, "1/s");
    rep.add_e2e("hit_rtt_us_p50", median(hit_us), "us");
    rep.add_e2e("hit_rtt_us_tail", hit_tail.tail.value, "us");
    rep.add_e2e("miss_rtt_ms_p50", median(miss_ms), "ms");
    rep.note("requests", std::to_string(all[0].request_ms.size()) + " untraced, " +
                             std::to_string(all[1].request_ms.size()) + " traced");
    rep.note("request_ms_tail", tail_note(tl));
    rep.note("hit_rtt_us_tail", tail_note(hit_tail));
    rep.note("miss_requests", std::to_string(miss_ms.size()));
    rep.note("window_cells_per_s", join(all[0].window_rates()));
  }

  if (opts.mode == Mode::Run && opts.trace) {
    // Framing and socket alone.
    std::vector<double> ping_us;
    for (int i = 0; i < 2000 && conn; ++i) {
      const std::int64_t p0 = now_ns();
      if (!conn->ping()) rep.mismatch("ping failed");
      ping_us.push_back(static_cast<double>(now_ns() - p0) / 1e3);
    }
    // The store alone: one thread, batches of 64 lookups over the pool.
    std::vector<std::pair<std::uint64_t, Bytes>> keyed;
    for (const CellSpec& s : pool.specs) {
      auto bytes = pdc::eval::encode_spec(s);
      keyed.emplace_back(pdc::eval::cell_key(bytes), std::move(bytes));
    }
    std::vector<double> lookup_ns;
    std::size_t k = 0;
    std::size_t found = 0;
    for (int b = 0; b < 2000; ++b) {
      const std::int64_t l0 = now_ns();
      for (int i = 0; i < 64; ++i, k = (k + 1) % keyed.size()) {
        found += server->store().lookup(keyed[k].first, keyed[k].second).has_value();
      }
      lookup_ns.push_back(static_cast<double>(now_ns() - l0) / 64.0);
    }
    rep.note("store_lookups_found", std::to_string(found));
    // The scheduler alone, on the pool's Sched specs.
    std::vector<double> sched_ms;
    for (std::size_t i = 0; i < std::min<std::size_t>(8, pool.sched.size()); ++i) {
      const std::uint32_t root = log.next_id();
      const std::uint64_t request = log.next_request();
      const std::int64_t s0 = now_ns();
      (void)pdc::eval::run_sched_cell(pool.specs[pool.sched[i]].sched);
      const std::int64_t s1 = now_ns();
      log.add_request({{"bench.request", s0, s1, root, 0, request, thread_index()},
                       {"sched.run_sched_cell", s0, s1, log.next_id(), root, request,
                        thread_index()}});
      sched_ms.push_back(static_cast<double>(s1 - s0) / 1e6);
    }

    const double hit_p50_us = median(hit_us);
    const double miss_p50_ms = median(miss_ms);
    const double ping_p50 = median(ping_us);
    const double lookup_p50 = median(lookup_ns);
    const double lookups =
        static_cast<double>((store1.hits - store0.hits) + (store1.misses - store0.misses));
    const auto delta = [](std::uint64_t after, std::uint64_t before) {
      return static_cast<double>(after - before);
    };
    const double writes = static_cast<double>((store1.inserts - store0.inserts) +
                                              (store1.invalidated - store0.invalidated));
    const double misses = static_cast<double>(daemon1.misses - daemon0.misses);
    rep.add_layer("evald.ping_rtt_us_p50", ping_p50, "us");
    rep.add_layer("evald.ping_share", hit_p50_us > 0 ? ping_p50 / hit_p50_us : 0, "frac");
    rep.add_layer("evald.store.lookup_ns_p50", lookup_p50, "ns");
    rep.add_layer("evald.store.lookup_share",
                  hit_p50_us > 0 && tally.hit_requests > 0
                      ? lookup_p50 * (tally.hit_cells / tally.hit_requests) / (hit_p50_us * 1e3)
                      : 0,
                  "frac");
    rep.add_layer("evald.store.probe_steps_per_lookup",
                  lookups > 0 ? delta(store1.probe_steps, store0.probe_steps) / lookups : 0,
                  "ratio");
    rep.add_layer("evald.store.log_bytes_per_write",
                  writes > 0 ? delta(store1.log_bytes, store0.log_bytes) / writes : 0,
                  "B");
    rep.add_layer("evald.compute_per_miss",
                  misses > 0 ? delta(daemon1.cells_computed, daemon0.cells_computed) / misses : 0,
                  "ratio");
    rep.add_layer("evald.store.replay_s", replay_s, "s");
    rep.add_layer("evald.store.replay_frac", replay_s / setup_s, "frac");
    rep.add_layer("evald.store.recovered", static_cast<double>(recovered), "count");
    rep.add_layer("sched.cell_ms_p50", median(sched_ms), "ms");
    rep.add_layer("sched.miss_share", miss_p50_ms > 0 ? median(sched_ms) / miss_p50_ms : 0, "frac");
    rep.add_layer("trace.overhead_frac",
                  all[1].cells_per_s() / all[0].cells_per_s() - 1.0,
                  "frac");
    finish_trace(rep, opts, log);
  }

  conn.reset();
  server.reset();
  std::filesystem::remove_all(dir);
  return rep;
}

}  // namespace e2e
