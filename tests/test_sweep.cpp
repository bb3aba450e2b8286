// Sweep-runner tests: the parallel table regeneration must be
// element-for-element identical to the serial loop it replaced, for any
// thread count, and must fail deterministically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "eval/paper_data.hpp"
#include "eval/sweep.hpp"
#include "eval/trace_cell.hpp"
#include "fault/plan.hpp"

namespace pdc::eval {
namespace {

using host::PlatformId;
using mp::ToolKind;

TEST(Sweep, ThreadCountResolution) {
  EXPECT_EQ(sweep_threads(3), 3u);
  EXPECT_GE(sweep_threads(0), 1u);  // env var or hardware_concurrency, min 1

  // PDC_SWEEP_THREADS counts only as a whole positive integer that fits
  // `unsigned`; anything else takes the hardware default.
  const char* saved = std::getenv("PDC_SWEEP_THREADS");
  const std::string restore = saved ? saved : "";
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned fallback = hw > 0 ? hw : 1;
  const auto with_env = [](const char* value) {
    ::setenv("PDC_SWEEP_THREADS", value, 1);
    return sweep_threads(0);
  };
  EXPECT_EQ(with_env("6"), 6u);
  EXPECT_EQ(with_env("4294967297"), fallback);  // 2^32 + 1 does not fit
  EXPECT_EQ(with_env("8abc"), fallback);        // trailing bytes
  EXPECT_EQ(with_env("0"), fallback);
  EXPECT_EQ(with_env("-3"), fallback);
  EXPECT_EQ(with_env(""), fallback);
  EXPECT_EQ(sweep_threads(3), 3u);  // an explicit request still wins
  if (saved) {
    ::setenv("PDC_SWEEP_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("PDC_SWEEP_THREADS");
  }
}

TEST(Sweep, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 257;  // not a multiple of any thread count
  for (unsigned threads : {1u, 2u, 4u, 7u}) {
    std::vector<std::atomic<int>> hits(kN);
    parallel_for_index(kN, threads, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(Sweep, LowestFailingIndexExceptionWins) {
  // Two cells throw; the rethrown exception must always be the lower
  // index's, independent of which worker reached it first.
  for (int round = 0; round < 5; ++round) {
    try {
      parallel_for_index(64, 4, [](std::size_t i) {
        if (i == 11) throw std::runtime_error("cell 11");
        if (i == 47) throw std::out_of_range("cell 47");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell 11");
    }
  }
}

TEST(Sweep, NonUniformNonPowerOfTwoGridIsBitIdenticalAcrossThreads) {
  // The performance-model training grids are deliberately irregular:
  // non-power-of-two sizes and odd process counts, different axes per
  // primitive. The sweep must stay element-for-element bit-identical to
  // the serial walk on those too -- the fitted models inherit their
  // determinism from exactly this guarantee.
  std::vector<TplCell> cells;
  for (std::int64_t bytes : {768LL, 1536LL, 3072LL, 6144LL, 12288LL}) {
    for (int procs : {2, 3, 5, 6, 7, 12}) {
      cells.push_back({Primitive::Broadcast, PlatformId::ClusterFatTree,
                       ToolKind::Express, bytes, procs, 0});
      cells.push_back({Primitive::GlobalSum, PlatformId::ClusterDragonfly,
                       ToolKind::P4, 0, procs, bytes / 4});
    }
    cells.push_back({Primitive::SendRecv, PlatformId::ClusterFlat, ToolKind::Pvm,
                     bytes, 2, 0});
  }
  const auto serial = sweep_tpl_ms(cells, 1);
  ASSERT_EQ(serial.size(), cells.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].has_value()) << i;
    EXPECT_GT(*serial[i], 0.0) << i;
  }
  for (unsigned threads : {2u, 3u, 8u}) {
    const auto parallel = sweep_tpl_ms(cells, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // Bit-identical, not merely close.
      EXPECT_EQ(*parallel[i], *serial[i]) << "cell " << i << ", " << threads << " threads";
    }
  }
}

TEST(Sweep, TplGridParallelMatchesSerialElementForElement) {
  // A slice of the Table 3 / Figure 2 grid: every primitive family, the
  // PVM global-sum hole included.
  std::vector<TplCell> cells;
  for (std::int64_t bytes : {0LL, 1024LL, 16384LL}) {
    for (ToolKind t : {ToolKind::Pvm, ToolKind::P4, ToolKind::Express}) {
      cells.push_back({Primitive::SendRecv, PlatformId::SunEthernet, t, bytes, 2, 0});
      cells.push_back({Primitive::Broadcast, PlatformId::SunAtmLan, t, bytes, 4, 0});
      cells.push_back({Primitive::GlobalSum, PlatformId::AlphaFddi, t, 0, 4, 10000});
    }
  }
  const auto serial = sweep_tpl_ms(cells, 1);
  ASSERT_EQ(serial.size(), cells.size());
  for (unsigned threads : {2u, 4u, 7u}) {
    const auto parallel = sweep_tpl_ms(cells, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i].has_value(), serial[i].has_value()) << i;
      if (serial[i]) {
        // Bit-identical, not approximately equal: each cell is its own
        // Simulation, so thread count must not perturb a single ULP.
        EXPECT_EQ(*parallel[i], *serial[i]) << "cell " << i << ", " << threads << " threads";
      }
    }
  }
}

TEST(Sweep, AppGridParallelMatchesSerialElementForElement) {
  AplConfig cfg;
  cfg.image_size = 64;
  cfg.fft_n = 16;
  cfg.mc_samples = 50'000;
  cfg.mc_rounds = 2;
  cfg.sort_keys = 20'000;
  std::vector<AppCell> cells;
  for (AppKind app : all_apps()) {
    for (int procs : {1, 2, 4}) {
      for (ToolKind t : {ToolKind::Pvm, ToolKind::P4}) {
        cells.push_back({PlatformId::AlphaFddi, t, app, procs});
      }
    }
  }
  const auto serial = sweep_app_s(cells, cfg, 1);
  const auto parallel = sweep_app_s(cells, cfg, 4);
  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "cell " << i;
  }
}

TEST(Sweep, PoolTelemetryAggregatesAcrossWorkers) {
  // Any grid that moves payloads should show fleet-wide pool activity, and
  // the steady-state recycling rate should be high: after each worker's
  // first few cells, every payload buffer is a pool hit.
  std::vector<TplCell> cells;
  for (int i = 0; i < 32; ++i) {
    cells.push_back({Primitive::GlobalSum, PlatformId::AlphaFddi, ToolKind::Express, 0, 4, 4096});
  }
  (void)sweep_tpl_ms(cells, 4);
  const auto stats = last_sweep_pool_stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_GT(stats.releases, 0u);
  EXPECT_GT(stats.bytes_recycled, 0u);
  EXPECT_GT(stats.hit_rate(), 0.9);

  // The aggregate is per-run: a fresh sweep resets it.
  (void)sweep_tpl_ms({{Primitive::SendRecv, PlatformId::SunEthernet, ToolKind::P4, 64, 2, 0}}, 2);
  const auto fresh = last_sweep_pool_stats();
  EXPECT_LT(fresh.hits + fresh.misses, stats.hits + stats.misses);
}

// ---------- satellite: full Table 3 determinism regression -----------------

namespace {

/// The complete Table 3 grid in print order (the same construction as
/// bench_table3_sendrecv), optionally with a fault plan on every cell.
std::vector<TplCell> table3_cells(const fault::FaultPlan& faults = {}) {
  const ToolKind tools[] = {ToolKind::Pvm, ToolKind::P4, ToolKind::Express};
  const PlatformId platforms[] = {PlatformId::SunEthernet, PlatformId::SunAtmLan,
                                  PlatformId::SunAtmWan};
  std::vector<TplCell> cells;
  for (std::int64_t bytes : paper_message_sizes()) {
    for (ToolKind tool : tools) {
      for (PlatformId p : platforms) {
        if (tool == ToolKind::Express && p == PlatformId::SunAtmWan) continue;
        cells.push_back({Primitive::SendRecv, p, tool, bytes, 2, 0, faults});
      }
    }
  }
  return cells;
}

struct EnvThreads {
  // RAII PDC_SWEEP_THREADS override (tests in this suite run serially).
  explicit EnvThreads(const char* v) { ::setenv("PDC_SWEEP_THREADS", v, 1); }
  ~EnvThreads() { ::unsetenv("PDC_SWEEP_THREADS"); }
};

}  // namespace

TEST(SweepDeterminism, FullTable3TwiceInOneProcessIsBitIdentical) {
  const auto cells = table3_cells();
  const auto first = sweep_tpl_ms(cells);
  const auto second = sweep_tpl_ms(cells);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i].has_value()) << i;
    EXPECT_EQ(*first[i], *second[i]) << "cell " << i;
  }
}

TEST(SweepDeterminism, ThreadCountEnvDoesNotPerturbResultsOrCounterTotals) {
  const auto cells = table3_cells();
  std::vector<std::optional<double>> r1, r8;
  SweepPoolStats p1, p8;
  SweepFaultStats f1, f8;
  {
    const EnvThreads env("1");
    r1 = sweep_tpl_ms(cells, /*threads=*/0);  // 0 -> resolve from env
    p1 = last_sweep_pool_stats();
    f1 = last_sweep_fault_stats();
  }
  {
    const EnvThreads env("8");
    r8 = sweep_tpl_ms(cells, /*threads=*/0);
    p8 = last_sweep_pool_stats();
    f8 = last_sweep_fault_stats();
  }
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    ASSERT_EQ(r1[i].has_value(), r8[i].has_value()) << i;
    if (r1[i]) EXPECT_EQ(*r1[i], *r8[i]) << "cell " << i;
  }
  // Pool telemetry: the hit/miss split depends on how cells land on worker
  // threads (each thread pays its own cold misses), but the totals are a
  // property of the workload, not the schedule.
  EXPECT_EQ(p1.hits + p1.misses, p8.hits + p8.misses);
  EXPECT_EQ(p1.releases + p1.discards, p8.releases + p8.discards);
  // Fault counters on a fault-free sweep: exactly zero either way.
  EXPECT_EQ(f1.transport, f8.transport);
  EXPECT_EQ(f1.transport.retransmits, 0);
  EXPECT_EQ(f1.injected.frames, f8.injected.frames);
  EXPECT_EQ(f1.injected.frames, 0);
}

TEST(SweepDeterminism, FaultedSweepReplaysBitIdenticallyAcrossThreadCounts) {
  // The fault-plan axis: every cell carries the same lossy rates but its own
  // plan seed (cells with a shared seed replay the same fault-RNG prefix, so
  // short runs would be perfectly correlated). Cells are independent
  // Simulations with plan-seeded fault streams, so both the timings and the
  // aggregated wire/transport counters must replay exactly, at any thread
  // count.
  auto cells = table3_cells(fault::FaultPlan::uniform(0.10, 0.02, 0.05, 0.1,
                                                      sim::milliseconds(1)));
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i].faults.seed = 0x7AB1E3 + i;
  const auto serial = sweep_tpl_ms(cells, 1);
  const auto fault_serial = last_sweep_fault_stats();
  EXPECT_GT(fault_serial.transport.retransmits, 0);
  EXPECT_GT(fault_serial.injected.frames, 0);
  EXPECT_GT(fault_serial.injected.drops, 0);
  for (unsigned threads : {2u, 8u}) {
    const auto parallel = sweep_tpl_ms(cells, threads);
    const auto fault_parallel = last_sweep_fault_stats();
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i].has_value(), serial[i].has_value()) << i;
      if (serial[i]) EXPECT_EQ(*parallel[i], *serial[i]) << "cell " << i;
    }
    EXPECT_EQ(fault_parallel.transport, fault_serial.transport) << threads << " threads";
    EXPECT_EQ(fault_parallel.injected.frames, fault_serial.injected.frames);
    EXPECT_EQ(fault_parallel.injected.drops, fault_serial.injected.drops);
    EXPECT_EQ(fault_parallel.injected.corruptions, fault_serial.injected.corruptions);
    EXPECT_EQ(fault_parallel.injected.duplicates, fault_serial.injected.duplicates);
    EXPECT_EQ(fault_parallel.injected.reorders, fault_serial.injected.reorders);
  }
}

TEST(SweepDeterminism, TraceStreamsAreBitIdenticalAcrossThreadCounts) {
  // Each cell re-run with a capture installed must produce the identical
  // record stream no matter which sweep worker executes it: the sink is
  // thread-local per cell and the simulation is single-threaded, so the
  // stream is a pure function of the cell. In the default PDC_TRACE=OFF
  // build the streams are empty and this degenerates to the timing check;
  // the CI trace job runs it with the probes compiled in.
  std::vector<TplCell> cells;
  for (auto tool : {ToolKind::P4, ToolKind::Pvm, ToolKind::Express}) {
    for (std::int64_t bytes : {16, 16384}) {
      TplCell c;
      c.tool = tool;
      c.bytes = bytes;
      cells.push_back(c);
    }
  }
  auto run = [&](unsigned threads) {
    return parallel_map<TracedTplCell>(
        cells.size(), [&](std::size_t i) { return tpl_cell_traced(cells[i]); },
        threads);
  };
  const auto serial = run(1);
  EXPECT_EQ(serial.front().records.empty(), !trace_compiled_in());
  for (unsigned threads : {2u, 8u}) {
    const auto fanned = run(threads);
    ASSERT_EQ(fanned.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(fanned[i].ms, serial[i].ms) << "cell " << i;
      EXPECT_EQ(fanned[i].stats, serial[i].stats) << "cell " << i;
      ASSERT_EQ(fanned[i].records.size(), serial[i].records.size()) << "cell " << i;
      for (std::size_t r = 0; r < serial[i].records.size(); ++r) {
        ASSERT_EQ(fanned[i].records[r], serial[i].records[r])
            << "cell " << i << " record " << r << " at " << threads << " threads";
      }
    }
  }
}

TEST(SweepTelemetry, ConcurrentSweepsKeepTheirOwnStats) {
  // Regression: the last_sweep_*_stats() accessors used to read global
  // aggregates, so a clean sweep racing a faulted sweep on another thread
  // (exactly what the evaluation daemon does) could observe the other
  // request's injected-fault counters. Each accessor now reports the last
  // sweep *submitted from the calling thread*; a clean sweep must read
  // zero injected frames no matter what runs next door.
  std::vector<TplCell> faulty_cells, clean_cells;
  for (std::int64_t bytes : {256, 1024, 4096}) {
    TplCell c;
    c.bytes = bytes;
    c.faults = fault::FaultPlan::uniform(0.05, 0.0, 0.0, 0.0, sim::microseconds(100), 0xF457);
    faulty_cells.push_back(c);
    c.faults = {};
    clean_cells.push_back(c);
  }

  for (int round = 0; round < 3; ++round) {
    std::atomic<int> ready{0};
    SweepFaultStats clean_seen{}, faulty_seen{};
    std::thread faulty([&] {
      ready.fetch_add(1);
      while (ready.load() < 2) {}
      (void)sweep_tpl_ms(faulty_cells, 2);
      faulty_seen = last_sweep_fault_stats();
    });
    std::thread clean([&] {
      ready.fetch_add(1);
      while (ready.load() < 2) {}
      (void)sweep_tpl_ms(clean_cells, 2);
      clean_seen = last_sweep_fault_stats();
    });
    faulty.join();
    clean.join();
    EXPECT_GT(faulty_seen.injected.frames, 0) << "round " << round;
    EXPECT_EQ(clean_seen.injected.frames, 0) << "round " << round;
    EXPECT_EQ(clean_seen.injected.drops, 0) << "round " << round;
    EXPECT_EQ(clean_seen.transport.retransmits, 0) << "round " << round;
  }
}

}  // namespace
}  // namespace pdc::eval
