// Scale-study regression suite (ROADMAP item 1): the simulator must run
// 4096-rank programs on the hierarchical platforms in tier-1 time, with
// per-rank state and per-match mailbox work that stay O(active) as P grows.
//
// The binary overrides operator new with a counting malloc shim so the
// allocs-per-rank assertions measure the real allocation rate of a run --
// the "flat 256 -> 4096" pin is the load-bearing O(active) gate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "eval/sweep.hpp"
#include "fault/plan.hpp"
#include "host/platform.hpp"
#include "mp/api.hpp"
#include "mp/pack.hpp"
#include "mp/runtime.hpp"
#include "sim/mailbox.hpp"
#include "sim/simulation.hpp"

namespace {
std::atomic<unsigned long long> g_heap_allocs{0};
}  // namespace

// GCC cannot see that the replacement operator-new below hands out malloc
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

namespace pdc {
namespace {

using fault::FaultPlan;
using host::PlatformId;
using mp::Communicator;
using mp::ToolKind;

unsigned long long heap_allocs() { return g_heap_allocs.load(std::memory_order_relaxed); }

int log2_floor(int p) {
  int l = 0;
  while ((1 << (l + 1)) <= p) ++l;
  return l;
}

// Every rank contributes rank+1 to each element; every rank checks its own
// result, so a wrong value on *any* of the P ranks fails the test without
// materialising O(P * len) result storage.
mp::RankProgram checked_global_sum(int procs, int len, std::atomic<int>& failures) {
  return [procs, len, &failures](Communicator& c) -> sim::Task<void> {
    std::vector<std::int32_t> v(static_cast<std::size_t>(len), c.rank() + 1);
    co_await c.global_sum(v);
    const std::int32_t expected =
        static_cast<std::int32_t>(std::int64_t{procs} * (procs + 1) / 2);
    for (const auto x : v) {
      if (x != expected) failures.fetch_add(1, std::memory_order_relaxed);
    }
  };
}

// ---------- the headline gate: 4096 ranks in tier-1 time --------------------

TEST(ScaleSmoke, GlobalSum1024FatTree) {
  std::atomic<int> failures{0};
  const auto out = mp::run_spmd(PlatformId::ClusterFatTree, 1024, ToolKind::Express,
                                checked_global_sum(1024, 64, failures));
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(out.events, 0u);
  EXPECT_GT(out.messages, 1024u);
}

TEST(ScaleSmoke, GlobalSum4096FatTree) {
  std::atomic<int> failures{0};
  const auto out = mp::run_spmd(PlatformId::ClusterFatTree, 4096, ToolKind::Express,
                                checked_global_sum(4096, 64, failures));
  EXPECT_EQ(failures.load(), 0);
  // Recursive doubling: every rank sends one message per round.
  EXPECT_GE(out.messages, 4096u * 12u);
}

TEST(ScaleSmoke, GlobalSum4096Dragonfly) {
  std::atomic<int> failures{0};
  (void)mp::run_spmd(PlatformId::ClusterDragonfly, 4096, ToolKind::Express,
                     checked_global_sum(4096, 64, failures));
  EXPECT_EQ(failures.load(), 0);
}

// ---------- O(active) allocation gate ---------------------------------------

TEST(AllocsPerRank, FlatUpTo4096) {
  // Recursive doubling does log2(P) rounds per rank, so raw allocs-per-rank
  // legitimately grows ~1.5x from 256 (8 rounds) to 4096 (12 rounds);
  // normalising by rounds removes that. One residual super-linear term is
  // benign and bounded: the thread-local buffer/frame pools retain a fixed
  // 64 entries per class while peak live payloads is O(P) (every rank holds
  // one in-flight message), so the pool hit rate decays toward zero and
  // saturates around P=1024. Gate on the saturated region: 1024 -> 4096
  // must be flat, and 256 -> 4096 comfortably under 2x -- an O(P) per-rank
  // cost (eager mailboxes, per-rank link tables, allocating rank scans)
  // would show up as a ~16x blowup in either bound.
  auto allocs_per_rank_round = [](int procs) {
    std::atomic<int> failures{0};
    const auto program = checked_global_sum(procs, 64, failures);
    const auto before = heap_allocs();
    (void)mp::run_spmd(PlatformId::ClusterFatTree, procs, ToolKind::Express, program);
    const auto after = heap_allocs();
    EXPECT_EQ(failures.load(), 0);
    return static_cast<double>(after - before) /
           (static_cast<double>(procs) * log2_floor(procs));
  };
  (void)allocs_per_rank_round(256);  // warm thread-local pools and gtest state
  const double at_256 = allocs_per_rank_round(256);
  const double at_1024 = allocs_per_rank_round(1024);
  const double at_4096 = allocs_per_rank_round(4096);
  EXPECT_LT(at_4096, at_1024 * 1.2)
      << "allocs/rank/round grew 1024->4096: " << at_1024 << " -> " << at_4096;
  EXPECT_LT(at_4096, at_256 * 2.0)
      << "allocs/rank/round grew 256->4096: " << at_256 << " -> " << at_4096;
}

TEST(ActiveState, SparseTrafficAt4096Ranks) {
  // A 4096-slot cluster running a 2-rank exchange materialises per-rank
  // state for exactly the ranks that touched the fabric.
  sim::Simulation simulation;
  host::Cluster cluster(simulation, PlatformId::ClusterFlat, 4096);
  mp::Runtime runtime(cluster, ToolKind::P4);
  std::int64_t got = -1;
  auto program = [&got](Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      mp::Packer pk;
      pk.put<std::int64_t>(42);
      co_await c.send(4095, 7, pk.finish());
    } else {
      mp::Message m = co_await c.recv(0, 7);
      mp::PayloadReader r(m.data);
      got = r.get<std::int64_t>();
    }
  };
  simulation.spawn(program(runtime.comm(0)), "rank0");
  simulation.spawn(program(runtime.comm(4095)), "rank4095");
  simulation.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(cluster.active_nodes(), 2u);
  EXPECT_LE(runtime.active_mailboxes(), 2u);
}

// ---------- mailbox matching stays O(active) under many-to-one --------------

TEST(MailboxScan, ManyToOnePinnedAt256) {
  // 255 senders, one receiver draining in *reverse* arrival order: the
  // unmatched queue holds ~254 messages when the first recv matches. With
  // source-bucketed matching each recv scans only its sender's bucket, so
  // total scan work stays O(P); a linear scan would do ~P^2/2 ~ 32k probes.
  constexpr int kProcs = 256;
  auto program = [](Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      for (int src = kProcs - 1; src >= 1; --src) {
        (void)co_await c.recv(src, /*tag=*/src);
      }
    } else {
      mp::Packer pk;
      pk.put<std::int64_t>(c.rank());
      co_await c.send(0, /*tag=*/c.rank(), pk.finish());
    }
  };
  const auto out = mp::run_spmd(PlatformId::ClusterFlat, kProcs, ToolKind::P4, program);
  EXPECT_GE(out.mailbox.max_depth, 200u);  // the pile-up really happened
  // One message can be handed straight to a posted waiter without ever
  // queueing; everything else is taken out of the unmatched queue.
  EXPECT_GE(out.mailbox.matches, kProcs - 2u);
  EXPECT_LE(out.mailbox.items_scanned, 8u * kProcs)
      << "bucketed matching regressed to linear scans";
}

TEST(MailboxScan, BucketedMatchingPreservesFifoAndCounts) {
  struct Item {
    int src;
    int val;
  };
  struct SrcMatch {
    int src;
    bool operator()(const Item& it) const { return it.src == src; }
    [[nodiscard]] int bucket_key() const { return src; }
  };
  sim::Simulation simulation;
  sim::Mailbox<Item> box(simulation, +[](const Item& it) { return it.src; });
  box.push({.src = 1, .val = 10});
  box.push({.src = 2, .val = 20});
  box.push({.src = 1, .val = 11});
  box.push({.src = 2, .val = 21});
  EXPECT_EQ(box.stats().max_depth, 4u);

  // Bucketed take: oldest item of that source, untouched others intact.
  auto a = box.try_recv(SrcMatch{2});
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->val, 20);
  EXPECT_EQ(box.stats().items_scanned, 1u);  // bucket scan never saw src 1

  // Unbucketed take still returns global arrival order.
  auto b = box.try_recv();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->val, 10);

  // The bucketed path skips the tombstone left by the global take.
  auto c = box.try_recv(SrcMatch{1});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->val, 11);
  auto d = box.try_recv(SrcMatch{2});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->val, 21);
  EXPECT_FALSE(box.try_recv().has_value());
  EXPECT_EQ(box.stats().pushes, 4u);
  EXPECT_EQ(box.stats().matches, 4u);
  EXPECT_EQ(box.pending(), 0u);
}

// ---------- tombstone compaction: long-lived blockers don't pin memory ------

TEST(MailboxCompact, LongSoakDepthStaysBounded) {
  struct Item {
    int src;
    int val;
  };
  struct SrcMatch {
    int src;
    bool operator()(const Item& it) const { return it.src == src; }
    [[nodiscard]] int bucket_key() const { return src; }
  };
  sim::Simulation simulation;
  sim::Mailbox<Item> box(simulation, +[](const Item& it) { return it.src; });
  // A never-matched message parks at the queue front, so reclaim_front()
  // can free nothing for the whole soak: every tombstone behind it stays
  // until a compaction pass sweeps it. This is the scale-study's worst
  // case -- a straggler's unmatched send outliving thousands of rounds.
  box.push({.src = 0, .val = 999});
  constexpr int kRounds = 20'000;
  for (int i = 0; i < kRounds; ++i) {
    box.push({.src = 1, .val = i});
    auto got = box.try_recv(SrcMatch{1});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->val, i);
  }
  // The growth pin: without compaction the physical queue would hold
  // ~kRounds tombstones behind the blocker.
  EXPECT_LE(box.buffered(), 64u) << "tombstones accumulated behind a live front entry";
  EXPECT_EQ(box.pending(), 1u);
  EXPECT_GT(box.stats().compactions, kRounds / 128u);
  // The blocker survived every rebuild and is still matchable.
  auto blocker = box.try_recv(SrcMatch{0});
  ASSERT_TRUE(blocker.has_value());
  EXPECT_EQ(blocker->val, 999);
  EXPECT_EQ(box.stats().pushes, kRounds + 1u);
  EXPECT_EQ(box.stats().matches, kRounds + 1u);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(MailboxCompact, RebuildPreservesArrivalOrderAndBuckets) {
  struct Item {
    int src;
    int val;
  };
  struct SrcMatch {
    int src;
    bool operator()(const Item& it) const { return it.src == src; }
    [[nodiscard]] int bucket_key() const { return src; }
  };
  sim::Simulation simulation;
  sim::Mailbox<Item> box(simulation, +[](const Item& it) { return it.src; });
  // Interleave two sources -- three churned src-1 items per retained src-2
  // item, so tombstones accumulate *between* live entries faster than live
  // entries do and the queue compacts several times mid-stream.
  constexpr int kItems = 200;
  for (int i = 0; i < kItems; ++i) {
    for (int k = 0; k < 3; ++k) box.push({.src = 1, .val = 3 * i + k});
    box.push({.src = 2, .val = i});
    for (int k = 0; k < 3; ++k) {
      auto got = box.try_recv(SrcMatch{1});
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->val, 3 * i + k);
    }
  }
  EXPECT_GT(box.stats().compactions, 0u);
  EXPECT_EQ(box.pending(), static_cast<std::size_t>(kItems));
  // Unbucketed take still returns global arrival order...
  auto first = box.try_recv();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->src, 2);
  EXPECT_EQ(first->val, 0);
  // ...and the rebuilt bucket index drains the rest in arrival order.
  for (int i = 1; i < kItems; ++i) {
    auto got = box.try_recv(SrcMatch{2});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->val, i);
  }
  EXPECT_FALSE(box.try_recv().has_value());
  EXPECT_EQ(box.pending(), 0u);
}

// ---------- collectives at awkward P on the new fabrics ---------------------

TEST(AwkwardP, CollectivesOnHierarchicalFabrics) {
  for (const auto platform : {PlatformId::ClusterFatTree, PlatformId::ClusterDragonfly}) {
    for (const int procs : {48, 1023}) {
      std::atomic<int> failures{0};
      std::atomic<int> bcast_failures{0};
      auto program = [procs, &failures, &bcast_failures](Communicator& c) -> sim::Task<void> {
        mp::Bytes blob(64, c.rank() == 3 ? std::byte{0x5A} : std::byte{0});
        co_await c.broadcast(3, blob, 17);
        for (const auto byte : blob) {
          if (byte != std::byte{0x5A}) bcast_failures.fetch_add(1);
        }
        std::vector<std::int32_t> v(8, c.rank() + 1);
        co_await c.global_sum(v);
        const auto expected = static_cast<std::int32_t>(std::int64_t{procs} * (procs + 1) / 2);
        for (const auto x : v) {
          if (x != expected) failures.fetch_add(1);
        }
      };
      (void)mp::run_spmd(platform, procs, ToolKind::Express, program);
      EXPECT_EQ(failures.load(), 0) << host::to_string(platform) << " procs=" << procs;
      EXPECT_EQ(bcast_failures.load(), 0) << host::to_string(platform) << " procs=" << procs;
    }
  }
}

// ---------- determinism pins ------------------------------------------------

TEST(Determinism, RepeatedCellsAreBitIdentical) {
  for (const auto platform : host::scale_platforms()) {
    const eval::TplCell cell{.primitive = eval::Primitive::GlobalSum,
                             .platform = platform,
                             .tool = ToolKind::Express,
                             .bytes = 0,
                             .procs = 48,
                             .global_sum_ints = 256};
    const auto first = eval::tpl_cell_ms(cell);
    const auto second = eval::tpl_cell_ms(cell);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, *second) << host::to_string(platform);  // exact, not near
  }
}

TEST(Determinism, SerialAndParallelSweepsMatchOnScalePlatforms) {
  std::vector<eval::TplCell> cells;
  for (const auto platform : host::scale_platforms()) {
    for (const int procs : {16, 48}) {
      cells.push_back({.primitive = eval::Primitive::GlobalSum,
                       .platform = platform,
                       .tool = ToolKind::Express,
                       .bytes = 0,
                       .procs = procs,
                       .global_sum_ints = 128});
      cells.push_back({.primitive = eval::Primitive::SendRecv,
                       .platform = platform,
                       .tool = ToolKind::P4,
                       .bytes = 65536,
                       .procs = procs});
    }
  }
  const auto serial = eval::sweep_tpl_ms(cells, 1);
  const auto serial_mbox = eval::last_sweep_mailbox_stats();
  const auto parallel = eval::sweep_tpl_ms(cells, 4);
  const auto parallel_mbox = eval::last_sweep_mailbox_stats();
  EXPECT_EQ(serial, parallel);
  // The telemetry aggregate is order-independent sums, so it is exactly
  // thread-count-invariant too.
  EXPECT_EQ(serial_mbox.pushes, parallel_mbox.pushes);
  EXPECT_EQ(serial_mbox.matches, parallel_mbox.matches);
  EXPECT_EQ(serial_mbox.items_scanned, parallel_mbox.items_scanned);
  EXPECT_EQ(serial_mbox.peak_depth_sum, parallel_mbox.peak_depth_sum);
  EXPECT_GT(serial_mbox.matches, 0u);
  EXPECT_LT(serial_mbox.scans_per_match(), 4.0);
}

// ---------- faults compose with the hierarchical fabrics --------------------

TEST(FaultCompose, LossyFatTreeAt256StillSumsExactly) {
  std::atomic<int> failures{0};
  const auto out = mp::run_spmd_faulty(PlatformId::ClusterFatTree, 256, ToolKind::P4,
                                       FaultPlan::uniform(0.05),
                                       checked_global_sum(256, 16, failures));
  EXPECT_EQ(failures.load(), 0);  // distributed result == fault-free expectation
  EXPECT_GT(out.injected.drops, 0);
  EXPECT_GT(out.transport.retransmits, 0);
}

}  // namespace
}  // namespace pdc
