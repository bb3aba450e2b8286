// pdcmodel -- reference simulations of the composed parallel patterns.
//
// The cross-validation harness holds the skeleton algebra accountable by
// running the *real* simulator on programs with the same structure the
// skeletons claim to model, and comparing end-to-end times. These are the
// three canonical composed workloads:
//
//   pipeline:   `procs` ranks in a chain; `items` messages of `bytes`
//               flow rank 0 -> 1 -> ... -> procs-1, each receiving rank
//               computing `flops` on every item before forwarding.
//   map-reduce: root broadcasts `bytes`, then every rank performs its
//               share of `tasks` neighbour-shift map tasks (`bytes` +
//               `flops` each), then a global sum of `ints` int32s.
//   task-pool:  rank 0 is the pool head farming `tasks` tasks of `bytes`
//               on demand to `procs - 1` workers (initial one per worker,
//               then next task to whichever worker replies); a worker
//               computes `flops` and echoes the payload.
//
// `flops` is the per-item application work -- the reason these patterns
// exist. It is a *known* workload parameter, so the skeleton models it as
// a constant node (platform_spec(p).cpu.compute(flops)), the exact
// quantity Communicator::compute_flops bills; the cross-validation error
// therefore measures the fitted communication leaves and the composition
// algebra, not the compute term.
//
// Each returns simulated milliseconds from the same run_spmd driver the
// TPL primitives use, so results inherit every determinism guarantee
// (bit-identical across PDC_SWEEP_THREADS).
#pragma once

#include <cstdint>
#include <optional>

#include "host/platform.hpp"
#include "mp/tool.hpp"

namespace pdc::model {

[[nodiscard]] double pipeline_sim_ms(host::PlatformId platform, mp::ToolKind tool,
                                     int procs, std::int64_t bytes, int items,
                                     double flops = 0.0);

/// nullopt when the tool lacks a global operation (PVM).
[[nodiscard]] std::optional<double> mapreduce_sim_ms(host::PlatformId platform,
                                                     mp::ToolKind tool, int procs,
                                                     std::int64_t bytes, int tasks,
                                                     std::int64_t ints, double flops = 0.0);

[[nodiscard]] double taskpool_sim_ms(host::PlatformId platform, mp::ToolKind tool,
                                     int procs, std::int64_t bytes, int tasks,
                                     double flops = 0.0);

}  // namespace pdc::model
