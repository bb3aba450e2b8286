// Weak/strong scaling of the simulator at large rank counts (ROADMAP item
// 1): ping-pong, global-sum, broadcast and the Monte Carlo APL app across
// P in {16, 64, 256, 1024, 4096} on the three scale platforms (flat
// crossbar, 3-level fat-tree, dragonfly). Reported per benchmark:
//   events_per_s    -- simulator event throughput (the scaling signal)
//   allocs_per_rank -- heap allocations / rank (flat => O(active) state)
//   sim_ms          -- simulated time of the run (determinism anchor)
//   peak_rss_mb     -- process high-water RSS (monotone across benchmarks)
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "eval/apl.hpp"
#include "eval/sweep.hpp"
#include "host/platform.hpp"
#include "mp/api.hpp"
#include "mp/pack.hpp"
#include "sim/simulation.hpp"

// Heap-allocation telemetry: count every operator-new in the process so the
// scaling curves report allocations-per-rank, not just wall time.
static std::atomic<unsigned long long> g_heap_allocs{0};

// GCC cannot see that the replacement operator-new above hands out malloc
// storage, so pairing it with std::free trips -Wmismatched-new-delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace pdc;
using host::PlatformId;
using mp::Communicator;
using mp::ToolKind;

unsigned long long heap_allocs() { return g_heap_allocs.load(std::memory_order_relaxed); }

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux: ru_maxrss in KiB
}

struct RunTally {
  std::uint64_t events{0};
  std::uint64_t allocs{0};
  double sim_ms{0.0};
  int runs{0};

  void add(const mp::RunOutcome& out, unsigned long long allocs_before) {
    events += out.events;
    allocs += heap_allocs() - allocs_before;
    sim_ms = out.elapsed.millis();  // identical every iteration (determinism)
    ++runs;
  }

  void report(benchmark::State& state, int procs) const {
    const double n = runs > 0 ? runs : 1;
    state.counters["events_per_s"] =
        benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
    state.counters["allocs_per_rank"] =
        static_cast<double>(allocs) / (n * static_cast<double>(procs));
    state.counters["sim_ms"] = sim_ms;
    state.counters["peak_rss_mb"] = peak_rss_mb();
    state.counters["ranks"] = static_cast<double>(procs);
  }
};

PlatformId scale_platform(std::int64_t index) {
  return host::scale_platforms().at(static_cast<std::size_t>(index));
}

// -- global sum: strong (fixed total elements) and weak (fixed per-rank) -----

mp::RankProgram global_sum_program(int len) {
  return [len](Communicator& c) -> sim::Task<void> {
    std::vector<std::int32_t> v(static_cast<std::size_t>(len), c.rank() + 1);
    co_await c.global_sum(v);
    benchmark::DoNotOptimize(v.data());
  };
}

void BM_GlobalSumStrong(benchmark::State& state) {
  const auto platform = scale_platform(state.range(0));
  const int procs = static_cast<int>(state.range(1));
  const int len = static_cast<int>(16384 / procs) + 1;  // total work ~ constant
  RunTally tally;
  for (auto _ : state) {
    const auto before = heap_allocs();
    const auto out = mp::run_spmd(platform, procs, ToolKind::Express, global_sum_program(len));
    tally.add(out, before);
  }
  tally.report(state, procs);
  state.SetLabel(host::to_string(platform));
}

void BM_GlobalSumWeak(benchmark::State& state) {
  const auto platform = scale_platform(state.range(0));
  const int procs = static_cast<int>(state.range(1));
  RunTally tally;
  for (auto _ : state) {  // 256 ints per rank regardless of P
    const auto before = heap_allocs();
    const auto out = mp::run_spmd(platform, procs, ToolKind::Express, global_sum_program(256));
    tally.add(out, before);
  }
  tally.report(state, procs);
  state.SetLabel(host::to_string(platform));
}

// -- ping-pong at P=4096: two active ranks in a huge idle cluster ------------

void BM_PingPong4096(benchmark::State& state) {
  const auto platform = scale_platform(state.range(0));
  constexpr int kProcs = 4096;
  auto program = [](Communicator& c) -> sim::Task<void> {
    constexpr int kRounds = 8;
    if (c.rank() == 0) {
      for (int i = 0; i < kRounds; ++i) {
        co_await c.send(kProcs - 1, 1, mp::make_payload(mp::Bytes(65536)));
        (void)co_await c.recv(kProcs - 1, 2);
      }
    } else if (c.rank() == kProcs - 1) {
      for (int i = 0; i < kRounds; ++i) {
        mp::Message m = co_await c.recv(0, 1);
        co_await c.send(0, 2, m.data);
      }
    }
    co_return;
  };
  RunTally tally;
  for (auto _ : state) {
    const auto before = heap_allocs();
    const auto out = mp::run_spmd(platform, kProcs, ToolKind::P4, program);
    tally.add(out, before);
  }
  tally.report(state, kProcs);
  state.SetLabel(host::to_string(platform));
}

// -- broadcast: binomial tree touches every rank -----------------------------

void BM_Broadcast(benchmark::State& state) {
  const auto platform = scale_platform(state.range(0));
  const int procs = static_cast<int>(state.range(1));
  auto program = [](Communicator& c) -> sim::Task<void> {
    mp::Bytes blob(16384);
    co_await c.broadcast(0, blob, 9);
    benchmark::DoNotOptimize(blob.data());
  };
  RunTally tally;
  for (auto _ : state) {
    const auto before = heap_allocs();
    const auto out = mp::run_spmd(platform, procs, ToolKind::Express, program);
    tally.add(out, before);
  }
  tally.report(state, procs);
  state.SetLabel(host::to_string(platform));
}

// -- one APL application: Monte Carlo integration ----------------------------

void BM_AppMonteCarlo(benchmark::State& state) {
  const auto platform = scale_platform(state.range(0));
  const int procs = static_cast<int>(state.range(1));
  eval::AplConfig cfg;
  cfg.mc_samples = 200'000;  // trimmed workload: the fabric is the subject
  cfg.mc_rounds = 4;
  double sim_s = 0.0;
  for (auto _ : state) {
    sim_s = eval::app_cell_s(
        {.platform = platform, .tool = ToolKind::Express, .app = eval::AppKind::MonteCarlo,
         .procs = procs},
        cfg);
    benchmark::DoNotOptimize(sim_s);
  }
  state.counters["sim_ms"] = sim_s * 1e3;
  state.counters["peak_rss_mb"] = peak_rss_mb();
  state.counters["ranks"] = static_cast<double>(procs);
  state.SetLabel(host::to_string(platform));
}

void ScaleArgs(benchmark::internal::Benchmark* b) {
  for (std::int64_t platform = 0; platform < 3; ++platform) {
    for (const std::int64_t procs : {16, 64, 256, 1024, 4096}) {
      b->Args({platform, procs});
    }
  }
}

BENCHMARK(BM_GlobalSumStrong)->Apply(ScaleArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GlobalSumWeak)->Apply(ScaleArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PingPong4096)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Broadcast)
    ->Args({0, 1024})->Args({0, 4096})
    ->Args({1, 1024})->Args({1, 4096})
    ->Args({2, 1024})->Args({2, 4096})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AppMonteCarlo)
    ->Args({1, 16})->Args({1, 64})->Args({1, 256})->Args({1, 1024})->Args({1, 4096})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
