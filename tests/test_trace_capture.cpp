// pdceval -- end-to-end trace capture tests (built only when PDC_TRACE=ON).
//
// These run real evaluation-grid cells with a capture installed and pin
// (a) that tracing never perturbs the simulated timing, (b) that the
// captured stream is bit-identical across sweep thread counts, and
// (c) golden analysis results on fixed cells -- any change to probe
// placement or the analyses shows up as an exact-integer diff here.
#include <gtest/gtest.h>

#include <vector>

#include "eval/sweep.hpp"
#include "eval/trace_cell.hpp"
#include "trace/analyze.hpp"
#include "trace/export.hpp"

namespace eval = pdc::eval;
namespace trace = pdc::trace;
namespace host = pdc::host;
namespace mp = pdc::mp;

namespace {

eval::TplCell ping_pong_cell() {
  eval::TplCell cell;
  cell.primitive = eval::Primitive::SendRecv;
  cell.platform = host::PlatformId::SunEthernet;
  cell.tool = mp::ToolKind::P4;
  cell.bytes = 1;
  cell.procs = 2;
  return cell;
}

}  // namespace

TEST(TraceCapture, ProbesAreCompiledIn) {
  EXPECT_TRUE(eval::trace_compiled_in());
}

TEST(TraceCapture, TracedPingPongTimingIsBitIdenticalToUntraced) {
  const auto cell = ping_pong_cell();
  const auto untraced = eval::tpl_cell_ms(cell);
  const auto traced = eval::tpl_cell_traced(cell);
  ASSERT_TRUE(untraced.has_value());
  ASSERT_TRUE(traced.ms.has_value());
  EXPECT_EQ(*traced.ms, *untraced);  // exact: capture must not perturb the sim
  EXPECT_FALSE(traced.records.empty());
  EXPECT_EQ(traced.stats.dropped, 0u);
  EXPECT_EQ(traced.stats.emitted, traced.records.size());
}

TEST(TraceCapture, PingPongBreakdownReconcilesWithMakespan) {
  const auto traced = eval::tpl_cell_traced(ping_pong_cell());
  ASSERT_TRUE(traced.ms.has_value());
  const std::int64_t makespan = trace::makespan_ns(traced.records);
  EXPECT_GT(makespan, 0);
  // The traced stream's horizon matches the cell's reported time: the last
  // traced occurrence is the final recv completing the ping-pong.
  EXPECT_EQ(static_cast<double>(makespan) * 1e-6, *traced.ms);

  // Each rank's categories plus idle partition the makespan exactly.
  const auto breakdown = trace::blocking_breakdown(traced.records);
  ASSERT_EQ(breakdown.size(), 2u);
  for (const auto& b : breakdown) {
    EXPECT_EQ(b.compute_ns + b.send_ns + b.recv_wait_ns + b.unpack_ns + b.other_ns,
              makespan)
        << "rank " << b.rank;
    EXPECT_EQ(b.retransmits, 0);
    EXPECT_EQ(b.drops_seen, 0);
  }
  EXPECT_EQ(breakdown[0].sends, breakdown[1].sends);  // symmetric ping-pong
  EXPECT_EQ(breakdown[0].recvs, breakdown[1].recvs);

  // And the export round-trips through the validator.
  const auto res =
      trace::validate_perfetto_json(trace::export_perfetto_json(traced.records));
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(TraceCapture, RingCriticalPathCoversMostOfTheMakespan) {
  eval::TplCell cell;
  cell.primitive = eval::Primitive::Ring;
  cell.platform = host::PlatformId::SunEthernet;
  cell.tool = mp::ToolKind::P4;
  cell.bytes = 1024;
  cell.procs = 4;
  const auto traced = eval::tpl_cell_traced(cell);
  ASSERT_TRUE(traced.ms.has_value());
  const auto cp = trace::critical_path(traced.records);
  EXPECT_EQ(cp.makespan_ns, trace::makespan_ns(traced.records));
  EXPECT_GE(cp.coverage(), 0.90);  // acceptance floor from the design brief
  EXPECT_LE(cp.covered_ns, cp.makespan_ns);  // segments are disjoint
  // Chronological and non-overlapping.
  for (std::size_t i = 1; i < cp.segments.size(); ++i) {
    EXPECT_GE(cp.segments[i].t0_ns, cp.segments[i - 1].t1_ns) << "segment " << i;
  }
}

// -- golden cells ------------------------------------------------------------
//
// Two fixed (tool, app) cells with every analysis result pinned to exact
// integers. The sim is deterministic, so any drift here means a probe moved
// or an analysis changed -- update deliberately, never casually.

TEST(TraceCaptureGolden, P4JpegOnFddi) {
  eval::AppCell cell;
  cell.platform = host::PlatformId::AlphaFddi;
  cell.tool = mp::ToolKind::P4;
  cell.app = eval::AppKind::Jpeg;
  cell.procs = 4;
  const auto traced = eval::app_cell_traced(cell);
  EXPECT_EQ(traced.seconds, eval::app_cell_s(cell));  // capture-neutral

  const std::int64_t makespan = trace::makespan_ns(traced.records);
  const auto m = trace::comm_matrix(traced.records);
  const auto cp = trace::critical_path(traced.records);
  const auto b = trace::blocking_breakdown(traced.records);
  ASSERT_EQ(b.size(), 4u);

  EXPECT_EQ(traced.records.size(), 46u);
  EXPECT_EQ(makespan, 1'073'522'641);  // == app_cell_s to the ns
  EXPECT_EQ(m.total_msgs(), 6);        // scatter 3 strips + gather 3 strips
  EXPECT_EQ(m.total_bytes(), 234'592);
  EXPECT_EQ(cp.covered_ns, 1'073'522'641);  // chain explains the whole run
  EXPECT_EQ(b[0].sends, 3);
  EXPECT_EQ(b[1].recv_wait_ns, 9'936'720);
}

TEST(TraceCaptureGolden, ExpressPsrsOnSp1Switch) {
  eval::AppCell cell;
  cell.platform = host::PlatformId::Sp1Switch;
  cell.tool = mp::ToolKind::Express;
  cell.app = eval::AppKind::Psrs;
  cell.procs = 4;
  const auto traced = eval::app_cell_traced(cell);
  EXPECT_EQ(traced.seconds, eval::app_cell_s(cell));

  const std::int64_t makespan = trace::makespan_ns(traced.records);
  const auto m = trace::comm_matrix(traced.records);
  const auto cp = trace::critical_path(traced.records);

  EXPECT_EQ(traced.records.size(), 155u);
  EXPECT_EQ(makespan, 466'196'561);
  EXPECT_EQ(m.total_msgs(), 18);
  EXPECT_EQ(m.total_bytes(), 1'498'812);
  EXPECT_EQ(cp.covered_ns, 466'022'321);  // 99.96% of the makespan
}

// -- determinism across sweep workers ----------------------------------------

TEST(TraceCapture, StreamsAreBitIdenticalAcrossThreadCounts) {
  std::vector<eval::TplCell> cells;
  for (auto tool : {mp::ToolKind::P4, mp::ToolKind::Pvm, mp::ToolKind::Express}) {
    for (std::int64_t bytes : {1, 4096}) {
      eval::TplCell c;
      c.primitive = eval::Primitive::SendRecv;
      c.platform = host::PlatformId::SunEthernet;
      c.tool = tool;
      c.bytes = bytes;
      c.procs = 2;
      cells.push_back(c);
    }
  }

  auto run = [&](unsigned threads) {
    return eval::parallel_map<eval::TracedTplCell>(
        cells.size(), [&](std::size_t i) { return eval::tpl_cell_traced(cells[i]); },
        threads);
  };
  const auto serial = run(1);
  for (const unsigned threads : {2u, 8u}) {
    const auto fanned = run(threads);
    ASSERT_EQ(fanned.size(), serial.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(fanned[i].ms, serial[i].ms) << "cell " << i << " @" << threads;
      EXPECT_EQ(fanned[i].stats, serial[i].stats) << "cell " << i << " @" << threads;
      ASSERT_EQ(fanned[i].records.size(), serial[i].records.size())
          << "cell " << i << " @" << threads;
      for (std::size_t r = 0; r < serial[i].records.size(); ++r) {
        ASSERT_EQ(fanned[i].records[r], serial[i].records[r])
            << "cell " << i << " record " << r << " @" << threads;
      }
    }
  }
}

TEST(TraceCapture, TinyRingSaturatesAndKeepsNewestWindow) {
  eval::TraceCapture opt;
  opt.capacity = 16;
  eval::TplCell cell;
  cell.primitive = eval::Primitive::Ring;
  cell.bytes = 1024;
  cell.procs = 4;
  const auto traced = eval::tpl_cell_traced(cell, opt);
  ASSERT_TRUE(traced.ms.has_value());
  EXPECT_EQ(traced.records.size(), 16u);
  EXPECT_GT(traced.stats.dropped, 0u);
  EXPECT_EQ(traced.stats.emitted, traced.stats.dropped + 16u);
  // Flight-recorder semantics: the surviving window is the newest records,
  // still in chronological order.
  for (std::size_t i = 1; i < traced.records.size(); ++i) {
    EXPECT_GE(traced.records[i].t_ns, traced.records[i - 1].t_ns);
  }
}
