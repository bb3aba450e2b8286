// The two sweep workloads: tpl_sweep (small TPL grids through
// eval::sweep_tpl_ms) and apl_figure (one platform's application figure
// through eval::sweep_app_s). One submitter, closed loop.
#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "eval/cell.hpp"
#include "eval/sweep.hpp"
#include "sim/rng.hpp"

namespace e2e {
namespace {

using pdc::eval::AppCell;
using pdc::eval::CellSpec;
using pdc::eval::TplCell;

constexpr std::uint64_t kUnsupported = ~0ULL;  // PVM's missing global sum
constexpr std::uint64_t kError = ~1ULL;

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::uint64_t run_cell_bits(const CellSpec& spec) {
  const pdc::eval::CellResult r = pdc::eval::run_cell(spec);
  if (r.status == pdc::eval::CellStatus::Unsupported) return kUnsupported;
  if (r.status != pdc::eval::CellStatus::Ok) return kError;
  return spec.type == pdc::eval::CellType::Tpl ? bits(r.tpl_ms) : bits(r.app_s);
}

/// One sweep workload: a list of grids, each swept by one public call.
struct SweepWorkload {
  const char* cell_span{"cell"};
  std::vector<std::size_t> sizes;  ///< cells per request
  /// The public sweep call on request r, outputs as bit patterns.
  std::function<std::vector<std::uint64_t>(std::size_t r)> sweep;
  /// Cell i of request r through the per-cell function the sweep wraps.
  std::function<std::uint64_t(std::size_t r, std::size_t i)> cell;
  /// Cell i of request r as an eval::run_cell spec.
  std::function<CellSpec(std::size_t r, std::size_t i)> spec;
  /// Group of cell i of request r for per-group cell times (apps); only
  /// called when `group_names` is not empty.
  std::function<std::size_t(std::size_t r, std::size_t i)> group;
  std::vector<std::string> group_names;
  std::size_t warmup{1};  ///< requests run during set-up
  std::size_t check{1};   ///< requests in the digest's check set
  std::size_t sample{1};  ///< cells re-run serially through eval::run_cell
  std::uint64_t pinned{0};
  std::uint64_t inputs_digest{0};
};

/// Deterministic counters summed over the check set.
struct CheckCounters {
  double cells{0}, kernel_calls{0}, pushes{0}, matches{0}, scanned{0};
  double frames{0}, drops{0}, retransmits{0};

  void add_last_sweep(std::size_t n) {
    const auto host = pdc::eval::last_sweep_host_stats();
    const auto mail = pdc::eval::last_sweep_mailbox_stats();
    const auto fault = pdc::eval::last_sweep_fault_stats();
    cells += static_cast<double>(n);
    kernel_calls += static_cast<double>(host.kernel_calls);
    pushes += static_cast<double>(mail.pushes);
    matches += static_cast<double>(mail.matches);
    scanned += static_cast<double>(mail.items_scanned);
    frames += static_cast<double>(fault.injected.frames);
    drops += static_cast<double>(fault.injected.drops);
    retransmits += static_cast<double>(fault.transport.retransmits);
  }
};

/// What the traced requests measured about the sweep pool and the layers
/// below it.
struct TracedSweeps {
  double cell_ns{0}, capacity_ns{0}, call_ns{0}, start_ns{0}, drain_ns{0};
  std::vector<double> start_us, drain_us, cell_us;
  std::vector<std::vector<double>> group_ms;
  std::vector<double> group_ns;
  double wall_ns{0}, app_ns{0}, arena_grows{0}, pool_hits{0}, pool_misses{0};
  std::vector<std::size_t> requests;  ///< request of each call, in call order
};

/// Runs request r through eval::parallel_for_index with a body that times
/// each cell, recording spans under `parent`.
std::vector<std::uint64_t> traced_sweep(const SweepWorkload& w, std::size_t r, unsigned threads,
                                        TracedSweeps& t, std::vector<Span>& spans,
                                        std::uint32_t parent, SpanLog& log) {
  const std::size_t n = w.sizes[r];
  std::vector<std::uint64_t> out(n);
  std::vector<std::int64_t> cs(n), ce(n);
  std::vector<std::uint32_t> tid(n);
  const std::int64_t call0 = now_ns();
  pdc::eval::parallel_for_index(n, threads, [&](std::size_t i) {
    cs[i] = now_ns();
    out[i] = w.cell(r, i);
    ce[i] = now_ns();
    tid[i] = thread_index();
  });
  const std::int64_t call1 = now_ns();
  t.requests.push_back(r);

  const std::uint32_t call_id = log.next_id();
  const std::uint64_t request = spans.empty() ? 0 : spans.front().request;
  spans.push_back({"eval.parallel_for_index", call0, call1, call_id, parent, request,
                   thread_index()});
  std::int64_t first = call1, last = call0;
  for (std::size_t i = 0; i < n; ++i) {
    spans.push_back({w.cell_span, cs[i], ce[i], log.next_id(), call_id, request, tid[i]});
    first = std::min(first, cs[i]);
    last = std::max(last, ce[i]);
    const double dur = static_cast<double>(ce[i] - cs[i]);
    t.cell_us.push_back(dur / 1e3);
    t.cell_ns += dur;
    if (!t.group_ms.empty()) {
      const std::size_t g = w.group(r, i);
      t.group_ms[g].push_back(dur / 1e6);
      t.group_ns[g] += dur;
    }
  }
  const double wall = static_cast<double>(call1 - call0);
  const auto effective = std::min<std::size_t>(n, pdc::eval::sweep_threads(threads));
  t.capacity_ns += static_cast<double>(effective) * wall;
  t.call_ns += wall;
  t.start_ns += static_cast<double>(first - call0);
  t.drain_ns += static_cast<double>(call1 - last);
  t.start_us.push_back(static_cast<double>(first - call0) / 1e3);
  t.drain_us.push_back(static_cast<double>(call1 - last) / 1e3);
  return out;
}

Report run_sweep(const Options& opts, const SweepWorkload& w) {
  Report rep;
  add_run_header(rep, opts);
  rep.note("inputs_digest", hex64(w.inputs_digest));
  if (opts.mode == Mode::Inputs) return rep;

  const std::size_t L = w.sizes.size();
  std::vector<std::vector<std::uint64_t>> expected(L);
  std::vector<bool> counted(L, false);
  CheckCounters check;
  // Stores the first output of each request; later outputs must match it.
  const auto record = [&](std::size_t r, const std::vector<std::uint64_t>& out) {
    if (out.size() != w.sizes[r]) return false;
    if (expected[r].empty()) {
      expected[r] = out;
      return std::find(out.begin(), out.end(), kError) == out.end();
    }
    return out == expected[r];
  };
  const auto count_check = [&](std::size_t r) {
    if (r < w.check && !counted[r]) {
      check.add_last_sweep(w.sizes[r]);
      counted[r] = true;
    }
  };
  const auto run_public = [&](std::size_t r) {
    bool ok = false;
    try {
      ok = record(r, w.sweep(r));
    } catch (const std::exception& e) {
      rep.note("exception", e.what());
    }
    count_check(r);
    return ok;
  };

  // Set-up: the first requests, which spawn the sweep pool and fill the
  // per-thread buffer pools, arenas and image caches.
  const std::int64_t setup0 = now_ns();
  for (std::size_t r = 0; r < w.warmup; ++r) {
    if (!run_public(r)) rep.mismatch("set-up request " + std::to_string(r));
  }
  rep.add_e2e("setup_s", static_cast<double>(now_ns() - setup0) / 1e9, "s");
  if (opts.mode == Mode::Setup) return rep;

  SpanLog log;
  TracedSweeps traced;
  traced.group_ms.resize(w.group_names.size());
  traced.group_ns.assign(w.group_names.size(), 0.0);
  PhaseTally tally[2];
  std::size_t next = w.warmup;
  if (opts.mode == Mode::Run) {
    const std::int64_t start = now_ns();
    const std::int64_t deadline = start + static_cast<std::int64_t>(opts.seconds * 1e9);
    const Phases phases(start, opts.trace);
    std::int64_t t = start;
    while (t < deadline) {
      const std::size_t r = next++ % L;
      const bool in_trace = phases.traced_at(t);
      bool ok = false;
      if (!in_trace) {
        ok = run_public(r);
      } else {
        std::vector<Span> spans;
        const std::uint32_t root = log.next_id();
        spans.push_back({"bench.request", t, 0, root, 0, log.next_request(), thread_index()});
        try {
          const auto out = traced_sweep(w, r, 0, traced, spans, root, log);
          const auto host = pdc::eval::last_sweep_host_stats();
          const auto pool = pdc::eval::last_sweep_pool_stats();
          traced.wall_ns += static_cast<double>(host.wall_ns);
          traced.app_ns += static_cast<double>(host.app_ns);
          traced.arena_grows += static_cast<double>(host.arena_grows);
          traced.pool_hits += static_cast<double>(pool.hits);
          traced.pool_misses += static_cast<double>(pool.misses);
          count_check(r);
          ok = record(r, out);
        } catch (const std::exception& e) {
          rep.note("exception", e.what());
        }
        spans.front().end_ns = now_ns();
        log.add_request(spans);
      }
      const std::int64_t t2 = now_ns();
      tally[in_trace ? 1 : 0].add(start, t, t2, static_cast<double>(w.sizes[r]),
                                  static_cast<double>(t2 - t) / 1e6);
      ++rep.attempted;
      if (!ok) rep.mismatch("request " + std::to_string(r) + " output");
      t = t2;
    }
  }

  // Outside the timed window: finish the check set, fold its digest, and
  // re-run a seeded sample of cells serially through eval::run_cell.
  for (std::size_t r = 0; r < std::min(w.check, L); ++r) {
    if (expected[r].empty() && !run_public(r)) rep.mismatch("check request");
  }
  Digest digest;
  for (std::size_t r = 0; r < std::min(w.check, L); ++r) {
    for (const std::uint64_t v : expected[r]) digest.u64(v);
  }
  check_pinned_digest(rep, opts, digest.value(), w.pinned);
  if (rep.attempted == 0) rep.attempted = std::min(w.check, L);

  pdc::sim::Rng pick = stream(opts.seed, 0x5A3B1E);
  const std::size_t seen = std::min(next, L);
  for (std::size_t s = 0; s < w.sample; ++s) {
    const std::size_t r = pick.uniform(0, seen - 1);
    const std::size_t i = pick.uniform(0, w.sizes[r] - 1);
    if (i >= expected[r].size()) continue;  // the request failed; already counted
    if (run_cell_bits(w.spec(r, i)) != expected[r][i]) {
      rep.mismatch("run_cell differs on request " + std::to_string(r) + " cell " +
                   std::to_string(i));
    }
  }
  rep.note("serial_sample", std::to_string(w.sample) + " cells re-run through eval::run_cell");
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
  rep.note("sweep_threads", std::to_string(pdc::eval::sweep_threads(0)));
  if (!opts.trace) return rep;

  // Paired pass: the grids of the traced calls again, in call order, each
  // swept at nproc threads and then at one thread, back to back, for as
  // many calls as fit the budget. Speed-up on small grids depends on the
  // grid sizes, and a shared machine's speed can drift within seconds, so
  // the two thread counts are compared on the same grids at the same time.
  TracedSweeps paired, one_thread;
  const std::int64_t budget = deadline_after(std::max(0.5, opts.seconds * 0.1));
  std::size_t compared = 0;
  for (; compared < traced.requests.size() && now_ns() < budget; ++compared) {
    const std::size_t r = traced.requests[compared];
    for (const unsigned threads : {0U, 1U}) {
      std::vector<Span> spans;
      const std::uint32_t root = log.next_id();
      spans.push_back({"bench.request", now_ns(), 0, root, 0, log.next_request(), thread_index()});
      const auto out = traced_sweep(w, r, threads, threads == 1 ? one_thread : paired, spans, root,
                                    log);
      if (!record(r, out)) rep.mismatch("paired pass differs on request " + std::to_string(r));
      spans.front().end_ns = now_ns();
      log.add_request(spans);
    }
  }
  rep.note("paired_pass", std::to_string(compared) + " of " +
                              std::to_string(traced.requests.size()) + " traced calls (" +
                              std::to_string(one_thread.cell_us.size()) +
                              " cells) at nproc and at one thread");

  const double cell_p50 = median(paired.cell_us);
  const double cell_p50_1t = median(one_thread.cell_us);
  rep.add_layer("eval.sweep.busy_frac",
                traced.capacity_ns > 0 ? traced.cell_ns / traced.capacity_ns : 0, "frac");
  rep.add_layer("eval.sweep.start_frac", traced.start_ns / traced.call_ns, "frac");
  rep.add_layer("eval.sweep.drain_frac", traced.drain_ns / traced.call_ns, "frac");
  rep.add_layer("eval.sweep.contention", cell_p50_1t > 0 ? cell_p50 / cell_p50_1t : 0, "ratio");
  // Sweep-call wall time at one thread over that at nproc threads: both
  // swept the same cells.
  rep.add_layer("eval.sweep.speedup_vs_1t",
                paired.call_ns > 0 ? one_thread.call_ns / paired.call_ns : 0, "ratio");
  rep.add_layer("eval.sweep.start_us", median(traced.start_us), "us");
  rep.add_layer("eval.sweep.drain_us", median(traced.drain_us), "us");
  rep.add_layer("eval.sweep.cell_us_p50", cell_p50, "us");
  rep.add_layer("eval.sweep.cell_us_p50_1t", cell_p50_1t, "us");
  rep.add_layer("kernels.app_share", traced.wall_ns > 0 ? traced.app_ns / traced.wall_ns : 0,
                "frac");
  rep.add_layer("kernels.calls_per_cell", check.kernel_calls / check.cells, "count");
  rep.add_layer("kernels.arena_grows", traced.arena_grows, "count");
  double group_total = 0;
  for (const double ns : traced.group_ns) group_total += ns;
  for (std::size_t g = 0; g < w.group_names.size(); ++g) {
    rep.add_layer("apps." + w.group_names[g] + ".cell_share",
                  group_total > 0 ? traced.group_ns[g] / group_total : 0, "frac");
    rep.add_layer("apps.cell_ms_p50." + w.group_names[g], median(traced.group_ms[g]), "ms");
  }
  const double pool_total = traced.pool_hits + traced.pool_misses;
  rep.add_layer("mp.pool.hit_rate", pool_total > 0 ? traced.pool_hits / pool_total : 0, "frac");
  rep.add_layer("mp.mailbox.scans_per_match", check.matches > 0 ? check.scanned / check.matches : 0,
                "ratio");
  rep.add_layer("mp.messages_per_cell", check.pushes / check.cells, "count");
  rep.add_layer("mp.transport.retransmits", check.retransmits, "count");
  rep.add_layer("fault.frames", check.frames, "count");
  rep.add_layer("fault.drops", check.drops, "count");
  rep.add_layer("trace.overhead_frac", tally[1].cells_per_s() / tally[0].cells_per_s() - 1.0,
                "frac");
  finish_trace(rep, opts, log);
  return rep;
}

// -- tpl_sweep ---------------------------------------------------------------

/// `count` seeded TPL grids of 16-256 cells over chosen platforms, tools,
/// paper message sizes and P <= 16. The primitive cycles with the grid
/// index, so every seed sees the same mix; every eighth grid is a
/// Table-3-style SendRecv grid under a 2% uniform drop plan.
std::vector<std::vector<TplCell>> tpl_grids(std::uint64_t seed, std::size_t count) {
  pdc::sim::Rng rng = stream(seed, 0x7E1);
  const auto& platforms = pdc::host::all_platforms();
  const auto& tools = pdc::mp::all_tools();
  const auto& sizes = pdc::eval::paper_message_sizes();
  const std::vector<int> procs_axis = {2, 4, 8, 16};
  const auto subset = [&rng](std::size_t n) {  // a non-empty bit mask over n items
    std::uint64_t mask = 0;
    while (mask == 0) mask = rng.uniform(0, (1ULL << n) - 1);
    return mask;
  };
  std::vector<std::vector<TplCell>> grids;
  for (std::size_t g = 0; g < count; ++g) {
    const bool faulted = g % 8 == 7;
    pdc::fault::FaultPlan faults{};
    if (faulted) {
      faults = pdc::fault::FaultPlan::uniform(0.02, 0.0, 0.0, 0.0, pdc::sim::microseconds(500),
                                              rng.next_u64());
    }
    const auto primitive =
        faulted ? pdc::eval::Primitive::SendRecv : pdc::eval::all_primitives()[g % 4];
    std::vector<TplCell> grid;
    while (grid.size() < 16 || grid.size() > 256) {
      grid.clear();
      const auto pm = subset(platforms.size());
      const auto tm = subset(tools.size());
      const auto sm = subset(sizes.size());
      const auto qm = primitive == pdc::eval::Primitive::SendRecv ? 1 : subset(procs_axis.size());
      for (std::size_t p = 0; p < platforms.size(); ++p) {
        if (!(pm >> p & 1)) continue;
        const int max_nodes = pdc::host::platform_spec(platforms[p]).max_nodes;
        for (std::size_t t = 0; t < tools.size(); ++t) {
          if (!(tm >> t & 1)) continue;
          for (std::size_t s = 0; s < sizes.size(); ++s) {
            if (!(sm >> s & 1)) continue;
            for (std::size_t q = 0; q < procs_axis.size(); ++q) {
              if (!(qm >> q & 1) || procs_axis[q] > max_nodes) continue;
              TplCell c;
              c.primitive = primitive;
              c.platform = platforms[p];
              c.tool = tools[t];
              c.bytes = sizes[s];
              c.procs = procs_axis[q];
              c.global_sum_ints = std::max<std::int64_t>(1, sizes[s] / 4);
              c.faults = faults;
              grid.push_back(c);
            }
          }
        }
      }
    }
    grids.push_back(std::move(grid));
  }
  return grids;
}

}  // namespace

Report run_tpl_sweep(const Options& opts) {
  constexpr std::size_t kRequests = 2048;
  constexpr std::size_t kWarmup = 32;
  // Set-up runs the first kWarmup grids. They are the default seed's grids
  // for every seed: grids hold 16 to 256 cells, so seeded set-up grids
  // would make setup_s move with the seed rather than with the program.
  auto grids = tpl_grids(opts.seed, kRequests);
  auto fixed = tpl_grids(kDefaultSeed, kWarmup);
  std::move(fixed.begin(), fixed.end(), grids.begin());
  SweepWorkload w;
  w.cell_span = "cell.tpl";
  Digest inputs;
  for (const auto& g : grids) {
    w.sizes.push_back(g.size());
    inputs.u64(g.size());
    for (const TplCell& c : g) {
      const auto bytes = pdc::eval::encode_spec(CellSpec::of(c));
      inputs.bytes(bytes.data(), bytes.size());
    }
  }
  w.inputs_digest = inputs.value();
  const auto to_bits = [](const std::optional<double>& ms) {
    return ms ? bits(*ms) : kUnsupported;
  };
  w.sweep = [&](std::size_t r) {
    const auto ms = pdc::eval::sweep_tpl_ms(grids[r], 0);
    std::vector<std::uint64_t> out(ms.size());
    std::transform(ms.begin(), ms.end(), out.begin(), to_bits);
    return out;
  };
  w.cell = [&](std::size_t r, std::size_t i) {
    return to_bits(pdc::eval::tpl_cell_ms(grids[r][i]));
  };
  w.spec = [&](std::size_t r, std::size_t i) { return CellSpec::of(grids[r][i]); };
  w.warmup = kWarmup;
  w.check = 64;
  w.sample = 64;
  w.pinned = 0x7d33ba2a16d62c4dULL;  // check-set digest for seed 1
  return run_sweep(opts, w);
}

// -- apl_figure --------------------------------------------------------------

Report run_apl_figure(const Options& opts) {
  // Each request is one platform's figure: 4 apps x 3 tools x P in
  // {1,2,4,8} capped at the platform's node count, paper AplConfig. The
  // platforms rotate in a seeded order, a fresh permutation per rotation.
  constexpr std::size_t kRotations = 8;
  const pdc::eval::AplConfig cfg{};
  const auto platform_order = [](std::uint64_t seed) {
    pdc::sim::Rng rng = stream(seed, 0xA91);
    std::vector<pdc::host::PlatformId> order;
    for (std::size_t k = 0; k < kRotations; ++k) {
      auto perm = pdc::host::all_platforms();
      for (std::size_t i = perm.size() - 1; i > 0; --i) std::swap(perm[i], perm[rng.uniform(0, i)]);
      order.insert(order.end(), perm.begin(), perm.end());
    }
    return order;
  };
  // Set-up runs the first figure. Its platform is the default seed's for
  // every seed (swapped to the front of the first rotation): figures differ
  // by platform in cell count and cost, which would make setup_s move with
  // the seed rather than with the program.
  auto order = platform_order(opts.seed);
  const auto first_rotation_end = order.begin() + static_cast<std::ptrdiff_t>(
                                                      pdc::host::all_platforms().size());
  std::iter_swap(order.begin(),
                 std::find(order.begin(), first_rotation_end, platform_order(kDefaultSeed)[0]));
  std::vector<std::vector<AppCell>> figures;
  for (const auto platform : order) {
    std::vector<AppCell> cells;
    const int max_nodes = pdc::host::platform_spec(platform).max_nodes;
    for (const auto app : pdc::eval::all_apps()) {
      for (const int p : {1, 2, 4, 8}) {
        if (p > max_nodes) continue;
        for (const auto tool : pdc::mp::all_tools()) cells.push_back({platform, tool, app, p, {}});
      }
    }
    figures.push_back(std::move(cells));
  }

  SweepWorkload w;
  w.cell_span = "cell.app";
  Digest inputs;
  for (const auto& f : figures) {
    w.sizes.push_back(f.size());
    inputs.u64(f.size());
    for (const AppCell& c : f) {
      const auto bytes = pdc::eval::encode_spec(CellSpec::of(c, cfg));
      inputs.bytes(bytes.data(), bytes.size());
    }
  }
  w.inputs_digest = inputs.value();
  w.sweep = [&](std::size_t r) {
    const auto s = pdc::eval::sweep_app_s(figures[r], cfg, 0);
    std::vector<std::uint64_t> out(s.size());
    std::transform(s.begin(), s.end(), out.begin(), bits);
    return out;
  };
  w.cell = [&](std::size_t r, std::size_t i) {
    return bits(pdc::eval::app_cell_s(figures[r][i], cfg));
  };
  w.spec = [&](std::size_t r, std::size_t i) { return CellSpec::of(figures[r][i], cfg); };
  const auto& apps = pdc::eval::all_apps();
  w.group = [&](std::size_t r, std::size_t i) {
    return static_cast<std::size_t>(std::find(apps.begin(), apps.end(), figures[r][i].app) -
                                    apps.begin());
  };
  for (const auto app : apps) {
    switch (app) {
      case pdc::eval::AppKind::Jpeg: w.group_names.push_back("jpeg"); break;
      case pdc::eval::AppKind::Fft2d: w.group_names.push_back("fft2d"); break;
      case pdc::eval::AppKind::MonteCarlo: w.group_names.push_back("mc"); break;
      case pdc::eval::AppKind::Psrs: w.group_names.push_back("psrs"); break;
    }
  }
  w.warmup = 1;
  w.check = 2;
  w.sample = 3;
  w.pinned = 0x9991a53b38ce8de5ULL;  // check-set digest for seed 1
  return run_sweep(opts, w);
}

}  // namespace e2e
