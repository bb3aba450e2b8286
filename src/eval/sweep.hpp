// pdceval -- parallel experiment sweep runner.
//
// Whole-table regeneration (Table 3, Figures 2-8, the methodology ranking)
// is hundreds of *independent, deterministic* simulations: each cell builds
// its own Simulation/Cluster/Runtime and reports simulated time. The sweep
// runner fans those cells across hardware threads with deterministic result
// ordering -- results are written into a pre-sized vector at the cell's own
// index, so the output is element-for-element identical to a serial loop
// regardless of thread count or scheduling.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "eval/apl.hpp"
#include "eval/criteria.hpp"
#include "eval/tpl.hpp"
#include "fault/plan.hpp"
#include "host/platform.hpp"
#include "mp/runtime.hpp"
#include "mp/tool.hpp"

namespace pdc::eval {

/// Worker threads a sweep will use: `requested` if > 0, else the
/// PDC_SWEEP_THREADS environment variable if it is a positive integer that
/// fits `unsigned` (the whole string, no trailing bytes), else
/// std::thread::hardware_concurrency() (min 1).
[[nodiscard]] unsigned sweep_threads(unsigned requested = 0);

/// Run `body(i)` for every i in [0, n) across `threads` workers (see
/// sweep_threads). Cells are claimed from a shared atomic counter; any
/// exception is captured and the one thrown by the lowest cell index is
/// rethrown after all workers drain, keeping failure behaviour
/// deterministic too.
///
/// Workers come from a process-wide persistent pool: threads are spawned
/// the first time a sweep needs them and reused for every later sweep, so
/// steady-state sweeps (bench loops, repeated table regenerations) pay no
/// thread spawn/join cost. Nested or concurrent calls run their cells
/// inline on the calling thread -- same results, no deadlock.
///
/// Payload allocation telemetry: each worker recycles payload buffers
/// through its own thread-local mp::BufferPool (no buffer is ever shared
/// across threads), and on drain its pool-stats delta is folded into a
/// fleet-wide aggregate readable via last_sweep_pool_stats(). Host-work
/// telemetry (wall split between app kernels and sim overhead, arena
/// activity) is aggregated the same way into last_sweep_host_stats().
void parallel_for_index(std::size_t n, unsigned threads,
                        const std::function<void(std::size_t)>& body);

/// Aggregated mp::BufferPool activity across every worker of the most
/// recent parallel_for_index / sweep_* call *submitted from the calling
/// thread*. Each sweep owns its own collector and publishes its totals to
/// the submitter's thread-local snapshot when it drains, so concurrent
/// sweeps from different threads (the evaluation daemon serving several
/// clients) each read exactly their own numbers -- the accessors below all
/// share this per-request scoping. Hit rate here is the fleet-wide payload
/// recycling rate the benches report.
struct SweepPoolStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t releases{0};
  std::uint64_t discards{0};
  std::uint64_t bytes_recycled{0};

  [[nodiscard]] double hit_rate() const noexcept {
    const auto total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};
[[nodiscard]] SweepPoolStats last_sweep_pool_stats();

/// Aggregated fault-injection + reliable-transport activity across every
/// worker of the most recent parallel_for_index / sweep_* call submitted
/// from the calling thread. All zero for a sweep of fault-free cells. The
/// totals are order-independent sums, so they are identical for any thread
/// count -- the determinism test pins that.
struct SweepFaultStats {
  mp::TransportStats transport{};
  fault::InjectionStats injected{};
};
[[nodiscard]] SweepFaultStats last_sweep_fault_stats();

/// Aggregated mailbox matching telemetry across every worker of the most
/// recent parallel_for_index / sweep_* call submitted from the calling
/// thread. `items_scanned / matches` near 1 is the O(active) matching
/// signal; `peak_depth_sum` adds up each cell's peak unmatched-queue depth
/// (a sum, not a max, so totals stay order- and thread-count-independent).
struct SweepMailboxStats {
  std::uint64_t pushes{0};
  std::uint64_t matches{0};
  std::uint64_t items_scanned{0};
  std::uint64_t peak_depth_sum{0};

  [[nodiscard]] double scans_per_match() const noexcept {
    return matches > 0 ? static_cast<double>(items_scanned) / static_cast<double>(matches)
                       : 0.0;
  }
};
[[nodiscard]] SweepMailboxStats last_sweep_mailbox_stats();

/// Host-work telemetry for the most recent parallel_for_index / sweep_*
/// call submitted from the calling thread: where the *host's* wall-clock
/// went, split into real application
/// compute (the kernels layer's ScopedHostWork probes: DCT, FFT, sort,
/// MC batches) versus everything else (simulation bookkeeping, scheduling,
/// packing). Per-cell wall times are measured on the worker that ran the
/// cell and summed, so `wall_ns` is total cell-seconds, not elapsed time.
/// Arena counters come from the kernels' scratch arenas: `arena_grows`
/// staying flat across sweeps is the "no steady-state allocation" signal.
struct SweepHostStats {
  std::uint64_t cells{0};         ///< cells executed
  std::uint64_t wall_ns{0};       ///< summed per-cell wall time
  std::uint64_t app_ns{0};        ///< of which: inside app compute kernels
  std::uint64_t kernel_calls{0};  ///< ScopedHostWork probe activations
  std::uint64_t arena_takes{0};   ///< kernel scratch allocations served
  std::uint64_t arena_grows{0};   ///< arena block reservations (cold only)
  std::uint64_t arena_bytes{0};   ///< bytes newly reserved by those grows

  /// Wall time outside app kernels: the simulator's own overhead.
  [[nodiscard]] std::uint64_t sim_ns() const noexcept {
    return wall_ns > app_ns ? wall_ns - app_ns : 0;
  }
  /// Fraction of host wall spent in real app compute (0 when idle).
  [[nodiscard]] double app_share() const noexcept {
    return wall_ns > 0 ? static_cast<double>(app_ns) / static_cast<double>(wall_ns) : 0.0;
  }
};
[[nodiscard]] SweepHostStats last_sweep_host_stats();

/// Map i -> fn(i) over [0, n), results in index order.
template <typename R, typename Fn>
[[nodiscard]] std::vector<R> parallel_map(std::size_t n, Fn&& fn, unsigned threads = 0) {
  std::vector<R> out(n);
  parallel_for_index(n, threads, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// One TPL grid cell: a primitive measured on (platform, tool, msg_size,
/// procs). `global_sum_ints` is the vector length for GlobalSum cells;
/// `faults` (default: disabled, bit-identical to fault-free) adds the
/// robustness axis.
struct TplCell {
  Primitive primitive{Primitive::SendRecv};
  host::PlatformId platform{host::PlatformId::SunEthernet};
  mp::ToolKind tool{mp::ToolKind::P4};
  std::int64_t bytes{0};
  int procs{2};
  std::int64_t global_sum_ints{0};
  fault::FaultPlan faults{};
};

/// Measure one cell serially (simulated milliseconds); nullopt when the
/// tool lacks the primitive (PVM's global sum).
[[nodiscard]] std::optional<double> tpl_cell_ms(const TplCell& cell);

/// Measure a whole grid, fanned across threads, results in cell order.
[[nodiscard]] std::vector<std::optional<double>> sweep_tpl_ms(
    const std::vector<TplCell>& cells, unsigned threads = 0);

/// One APL grid cell: an application on (platform, tool, procs), optionally
/// under a fault plan.
struct AppCell {
  host::PlatformId platform{host::PlatformId::AlphaFddi};
  mp::ToolKind tool{mp::ToolKind::P4};
  AppKind app{AppKind::Jpeg};
  int procs{1};
  fault::FaultPlan faults{};
};

/// Measure one cell serially (simulated seconds).
[[nodiscard]] double app_cell_s(const AppCell& cell, const AplConfig& cfg = {});

/// Measure a whole application grid, fanned across threads, in cell order.
[[nodiscard]] std::vector<double> sweep_app_s(const std::vector<AppCell>& cells,
                                              const AplConfig& cfg = {},
                                              unsigned threads = 0);

}  // namespace pdc::eval
