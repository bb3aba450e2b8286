// Evaluation-service tests: canonical cell codec, content-addressed
// store (persistence, torn-tail recovery, model-version invalidation),
// CRC frame edge cases over a real socket, and end-to-end bit-identical
// caching -- a cached CellResult must be byte-equal to a freshly
// computed one for every cell kind, including faulted runs.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/cell.hpp"
#include "evald/client.hpp"
#include "evald/server.hpp"
#include "evald/store.hpp"
#include "fault/plan.hpp"
#include "mp/api.hpp"
#include "mp/checksum.hpp"
#include "../tools/cell_args.hpp"

namespace pdc::evald {
namespace {

using eval::AppCell;
using eval::CellResult;
using eval::CellSpec;
using eval::CellStatus;
using eval::CellType;
using eval::SchedCell;
using eval::TplCell;

// Unique throwaway paths; sockets must stay under sun_path's ~104 bytes.
std::string scratch_path(const std::string& tag) {
  static std::atomic<int> counter{0};
  return "/tmp/pdc_evald_" + std::to_string(::getpid()) + "_" + tag + "_" +
         std::to_string(counter.fetch_add(1));
}

TplCell faulted_tpl_cell() {
  TplCell c;
  c.tool = mp::ToolKind::P4;
  c.platform = host::PlatformId::SunEthernet;
  c.primitive = eval::Primitive::SendRecv;
  c.bytes = 2048;
  c.procs = 2;
  c.faults = fault::FaultPlan::uniform(0.03, 0.01, 0.01, 0.0, sim::microseconds(200), 0xE11A);
  return c;
}

AppCell small_app_cell() {
  AppCell c;
  c.tool = mp::ToolKind::Pvm;
  c.platform = host::PlatformId::AlphaFddi;
  c.app = eval::AppKind::Fft2d;
  c.procs = 4;
  return c;
}

SchedCell small_sched_cell() {
  SchedCell c;
  c.platform = host::PlatformId::ClusterFlat;
  c.nodes = 32;
  c.njobs = 8;
  c.seed = 7;
  c.faults = fault::FaultPlan::uniform(0.02);
  return c;
}

/// A spec that reliably throws ("Cluster: need at least one node"), for
/// the negative-cache paths.
SchedCell infeasible_sched_cell() {
  SchedCell c;
  c.platform = host::PlatformId::ClusterFlat;
  c.nodes = 0;
  c.njobs = 4;
  return c;
}

std::vector<CellSpec> sample_specs() {
  return {CellSpec::of(faulted_tpl_cell()), CellSpec::of(small_app_cell()),
          CellSpec::of(small_sched_cell())};
}

// -- canonical codec --------------------------------------------------------

TEST(CellCodec, SpecRoundTripsForEveryKind) {
  for (const CellSpec& spec : sample_specs()) {
    const auto bytes = eval::encode_spec(spec);
    const auto back = eval::decode_spec(bytes);
    ASSERT_TRUE(back.has_value()) << to_string(spec.type);
    EXPECT_EQ(eval::encode_spec(*back), bytes) << to_string(spec.type);
  }
}

TEST(CellCodec, DecodeRejectsTruncationAndTrailingBytes) {
  const auto bytes = eval::encode_spec(CellSpec::of(faulted_tpl_cell()));
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(eval::decode_spec({bytes.data(), cut}).has_value()) << cut;
  }
  auto longer = bytes;
  longer.push_back(std::byte{0});
  EXPECT_FALSE(eval::decode_spec(longer).has_value());
}

TEST(CellCodec, ResultRoundTripsBitIdentically) {
  for (const CellSpec& spec : sample_specs()) {
    const CellResult result = eval::run_cell(spec);
    const auto bytes = eval::encode_result(result);
    const auto back = eval::decode_result(bytes);
    ASSERT_TRUE(back.has_value()) << to_string(spec.type);
    EXPECT_EQ(eval::encode_result(*back), bytes) << to_string(spec.type);
    EXPECT_TRUE(*back == result) << to_string(spec.type);
  }
}

TEST(CellCodec, KeyIsStableAndVersionSensitive) {
  const auto bytes = eval::encode_spec(CellSpec::of(faulted_tpl_cell()));
  EXPECT_EQ(eval::cell_key(bytes), eval::cell_key(bytes));
  EXPECT_NE(eval::cell_key(bytes, eval::kModelVersion),
            eval::cell_key(bytes, eval::kModelVersion + 1));

  auto other_cell = faulted_tpl_cell();
  other_cell.bytes += 1;
  const auto other = eval::encode_spec(CellSpec::of(other_cell));
  EXPECT_NE(eval::cell_key(bytes), eval::cell_key(other));
}

// -- store ------------------------------------------------------------------

std::vector<std::byte> as_bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(Store, InsertLookupInvalidate) {
  Store store;  // in-memory
  const auto spec = as_bytes("spec-a");
  const auto result = as_bytes("result-a");
  const auto key = eval::cell_key(spec);

  EXPECT_FALSE(store.lookup(key, spec).has_value());
  store.insert(key, spec, result, false);
  const auto hit = store.lookup(key, spec);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result, result);
  EXPECT_FALSE(hit->negative);
  EXPECT_EQ(store.entries(), 1u);

  EXPECT_TRUE(store.invalidate(key, spec));
  EXPECT_FALSE(store.lookup(key, spec).has_value());
  EXPECT_FALSE(store.invalidate(key, spec));
  EXPECT_EQ(store.entries(), 0u);
}

TEST(Store, FirstWriterWinsAndNegativeEntriesAreCounted) {
  Store store;
  const auto spec = as_bytes("spec-b");
  const auto key = eval::cell_key(spec);
  store.insert(key, spec, as_bytes("first"), false);
  store.insert(key, spec, as_bytes("second"), false);  // concurrent loser
  EXPECT_EQ(store.lookup(key, spec)->result, as_bytes("first"));
  EXPECT_EQ(store.entries(), 1u);

  const auto bad_spec = as_bytes("spec-bad");
  store.insert(eval::cell_key(bad_spec), bad_spec, as_bytes("boom"), true);
  EXPECT_TRUE(store.lookup(eval::cell_key(bad_spec), bad_spec)->negative);
  EXPECT_EQ(store.stats().negative_entries, 1u);
}

TEST(Store, SurvivesManyEntriesAndGrowth) {
  Store store;
  std::vector<std::vector<std::byte>> specs;
  for (int i = 0; i < 500; ++i) specs.push_back(as_bytes("spec-" + std::to_string(i)));
  for (const auto& s : specs) store.insert(eval::cell_key(s), s, s, false);
  EXPECT_EQ(store.entries(), specs.size());
  for (const auto& s : specs) {
    const auto hit = store.lookup(eval::cell_key(s), s);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->result, s);
  }
}

TEST(Store, InvalidateInsertChurnNeverFillsTheIndex) {
  // Invalidated entries keep their slots until a rehash; churning far more
  // distinct specs than the initial 64-slot capacity while live entries
  // stay at <=1 used to fill every slot with dead records (growth
  // triggered on live count only), after which any probe for an absent
  // key spun forever. Occupancy-based rehashing must keep this bounded.
  Store store;
  for (int i = 0; i < 4096; ++i) {
    const auto spec = as_bytes("churn-" + std::to_string(i));
    const auto key = eval::cell_key(spec);
    store.insert(key, spec, spec, false);
    EXPECT_TRUE(store.invalidate(key, spec));
  }
  EXPECT_EQ(store.entries(), 0u);
  const auto absent = as_bytes("never-inserted");
  EXPECT_FALSE(store.lookup(eval::cell_key(absent), absent).has_value());
  // And the table still works for real inserts afterwards.
  const auto spec = as_bytes("alive-again");
  store.insert(eval::cell_key(spec), spec, spec, false);
  EXPECT_EQ(store.lookup(eval::cell_key(spec), spec)->result, spec);
}

TEST(Store, PersistsAcrossReopenAndTombstonesStick) {
  const std::string path = scratch_path("persist");
  const auto spec_a = as_bytes("spec-a"), spec_b = as_bytes("spec-b");
  {
    Store store(path, 9);
    store.insert(eval::cell_key(spec_a), spec_a, as_bytes("result-a"), false);
    store.insert(eval::cell_key(spec_b), spec_b, as_bytes("result-b"), true);
    store.invalidate(eval::cell_key(spec_b), spec_b);
  }
  {
    Store store(path, 9);
    EXPECT_EQ(store.stats().recovered, 1u);
    const auto hit = store.lookup(eval::cell_key(spec_a), spec_a);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->result, as_bytes("result-a"));
    // The tombstone survived the reopen.
    EXPECT_FALSE(store.lookup(eval::cell_key(spec_b), spec_b).has_value());
  }
  ::unlink(path.c_str());
}

TEST(Store, ModelVersionBumpNeverServesOldBytes) {
  const std::string path = scratch_path("bump");
  const auto spec = as_bytes("spec-v");
  {
    Store store(path, 9);
    store.insert(eval::cell_key(spec, 9), spec, as_bytes("old-bytes"), false);
  }
  {
    Store store(path, 10);
    EXPECT_EQ(store.stats().discarded_stale, 1u);
    EXPECT_EQ(store.entries(), 0u);
    // Neither address can reach the stale record: the store is empty.
    EXPECT_FALSE(store.lookup(eval::cell_key(spec, 9), spec).has_value());
    EXPECT_FALSE(store.lookup(eval::cell_key(spec, 10), spec).has_value());
    store.insert(eval::cell_key(spec, 10), spec, as_bytes("new-bytes"), false);
    EXPECT_EQ(store.lookup(eval::cell_key(spec, 10), spec)->result, as_bytes("new-bytes"));
  }
  {
    // ...and the rewritten store replays only version-10 content.
    Store store(path, 10);
    EXPECT_EQ(store.stats().recovered, 1u);
    EXPECT_EQ(store.lookup(eval::cell_key(spec, 10), spec)->result, as_bytes("new-bytes"));
  }
  ::unlink(path.c_str());
}

TEST(Store, TornTailIsTruncatedOnRecovery) {
  const std::string path = scratch_path("torn");
  const auto spec_a = as_bytes("spec-a"), spec_b = as_bytes("spec-b");
  {
    Store store(path, 9);
    store.insert(eval::cell_key(spec_a), spec_a, as_bytes("result-a"), false);
    store.insert(eval::cell_key(spec_b), spec_b, as_bytes("result-b"), false);
  }
  {
    // A crash mid-append: a length prefix promising more bytes than exist.
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const std::uint32_t len = 100;
    f.write(reinterpret_cast<const char*>(&len), sizeof(len));
    f.write("torn", 4);
  }
  {
    Store store(path, 9);
    EXPECT_EQ(store.stats().recovered, 2u);
    EXPECT_TRUE(store.lookup(eval::cell_key(spec_a), spec_a).has_value());
    EXPECT_TRUE(store.lookup(eval::cell_key(spec_b), spec_b).has_value());
    // The tail was cut away, so appending keeps working...
    const auto spec_c = as_bytes("spec-c");
    store.insert(eval::cell_key(spec_c), spec_c, as_bytes("result-c"), false);
  }
  {
    // ...and the repaired log replays all three.
    Store store(path, 9);
    EXPECT_EQ(store.stats().recovered, 3u);
  }
  ::unlink(path.c_str());
}

// -- framing edge cases over a real socket ----------------------------------

class LiveServer {
 public:
  LiveServer() {
    ServerConfig config;
    config.socket_path = scratch_path("sock");
    server_ = std::make_unique<Server>(config);
    server_->start();
  }
  ~LiveServer() { server_->stop(); }
  [[nodiscard]] const std::string& path() const { return server_->socket_path(); }
  [[nodiscard]] Server& server() { return *server_; }

 private:
  std::unique_ptr<Server> server_;
};

int connect_raw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void send_raw(int fd, const void* data, std::size_t n) {
  EXPECT_EQ(::send(fd, data, n, MSG_NOSIGNAL), static_cast<ssize_t>(n));
}

/// Drain until the peer closes; returns the bytes received.
std::vector<std::byte> recv_until_close(int fd) {
  std::vector<std::byte> all;
  std::byte buf[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) break;
    all.insert(all.end(), buf, buf + got);
  }
  return all;
}

TEST(Framing, ZeroLengthPayloadIsAValidFrame) {
  LiveServer live;
  const int fd = connect_raw(live.path());
  // An empty payload frames fine (len 0, CRC of nothing); the server
  // rejects it as a *message* -- no type byte -- with an error reply.
  ASSERT_TRUE(write_frame(fd, {}));
  std::vector<std::byte> reply;
  ASSERT_EQ(read_frame(fd, reply), FrameStatus::Ok);
  EXPECT_EQ(peek_type(reply), MsgType::Error);
  // ...and then closes: the stream is no longer trusted.
  EXPECT_TRUE(recv_until_close(fd).empty());
  ::close(fd);
}

TEST(Framing, OversizedLengthPrefixClosesWithoutReply) {
  LiveServer live;
  const int fd = connect_raw(live.path());
  const std::uint32_t len = kMaxFramePayload + 1;
  send_raw(fd, &len, sizeof(len));
  EXPECT_TRUE(recv_until_close(fd).empty());
  ::close(fd);
  // The daemon records the violation and keeps serving.
  Client probe(live.path());
  EXPECT_TRUE(probe.ping());
  EXPECT_GE(live.server().stats().frame_errors, 1u);
}

TEST(Framing, TruncatedFrameClosesWithoutReply) {
  LiveServer live;
  const int fd = connect_raw(live.path());
  const std::uint32_t len = 64;
  send_raw(fd, &len, sizeof(len));
  send_raw(fd, "only-ten-b", 10);
  ::shutdown(fd, SHUT_WR);  // stream ends mid-frame
  EXPECT_TRUE(recv_until_close(fd).empty());
  ::close(fd);
  Client probe(live.path());
  EXPECT_TRUE(probe.ping());
}

TEST(Framing, CorruptedCrcIsRejectedWithCleanClose) {
  LiveServer live;
  const int fd = connect_raw(live.path());
  const auto payload = encode_ping();
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::uint32_t crc = mp::crc32(payload) ^ 0x1u;  // one bit off
  send_raw(fd, &len, sizeof(len));
  send_raw(fd, payload.data(), payload.size());
  send_raw(fd, &crc, sizeof(crc));
  // No reply, no resync: just a clean close.
  EXPECT_TRUE(recv_until_close(fd).empty());
  ::close(fd);
  Client probe(live.path());
  EXPECT_TRUE(probe.ping());
  EXPECT_GE(live.server().stats().frame_errors, 1u);
}

TEST(Framing, MaximumLengthPrefixItselfIsAccepted) {
  // kMaxFramePayload exactly is legal by contract; sending that much
  // memory through a unit test is wasteful, so pin the boundary at the
  // reader level instead: one byte over must be TooLong, the cap itself
  // must get past the length check (failing later, on truncation).
  LiveServer live;
  {
    const int fd = connect_raw(live.path());
    const std::uint32_t len = kMaxFramePayload;
    send_raw(fd, &len, sizeof(len));
    send_raw(fd, "partial", 7);
    ::shutdown(fd, SHUT_WR);
    // Truncation, not TooLong: the server read past the prefix.
    EXPECT_TRUE(recv_until_close(fd).empty());
    ::close(fd);
  }
  Client probe(live.path());
  EXPECT_TRUE(probe.ping());
}

TEST(Framing, WriteFrameRefusesOversizedPayload) {
  // The cap binds on the writing side too: a frame the reader would
  // reject must never reach the wire (and a >4 GiB payload would
  // silently truncate its u32 length prefix).
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::vector<std::byte> too_big(static_cast<std::size_t>(kMaxFramePayload) + 1);
  EXPECT_FALSE(write_frame(sv[0], too_big));
  // Nothing was sent: once the writer closes, the peer sees a clean EOF
  // rather than a partial frame.
  ::close(sv[0]);
  std::vector<std::byte> payload;
  EXPECT_EQ(read_frame(sv[1], payload), FrameStatus::Eof);
  ::close(sv[1]);
}

// -- CLI cell-spec parsing --------------------------------------------------

TEST(CellArgs, RejectsNonNumericBytesAndProcs) {
  // atoll-style parsing silently turned "abc" into 0, producing a
  // degenerate cell spec instead of a usage error.
  eval::TplCell tpl;
  eval::AppCell app;
  bool is_app = false;
  EXPECT_TRUE(tools::parse_cell_spec("p4:ethernet:sendrecv:2048:4", tpl, app, is_app));
  EXPECT_EQ(tpl.bytes, 2048);
  EXPECT_EQ(tpl.procs, 4);
  for (const char* bad :
       {"p4:ethernet:sendrecv:abc", "p4:ethernet:sendrecv:1k:2", "p4:ethernet:sendrecv:12x:2",
        "p4:ethernet:sendrecv:1:abc", "p4:ethernet:sendrecv:1:2x", "p4:ethernet:sendrecv:-1:2",
        "p4:ethernet:sendrecv:1:0", "p4:ethernet:sendrecv:1:-2",
        "p4:ethernet:sendrecv:1:99999999999"}) {
    EXPECT_FALSE(tools::parse_cell_spec(bad, tpl, app, is_app)) << bad;
  }
  // Empty trailing fields still mean "keep the defaults".
  EXPECT_TRUE(tools::parse_cell_spec("p4:ethernet:sendrecv::", tpl, app, is_app));
}

TEST(CellArgs, RangeParsesSingleLinearAndGeometric) {
  std::vector<std::int64_t> v;
  EXPECT_TRUE(tools::parse_range("4096", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{4096}));
  EXPECT_TRUE(tools::parse_range("0", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{0}));
  EXPECT_TRUE(tools::parse_range("2..8x2", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{2, 4, 6, 8}));
  EXPECT_TRUE(tools::parse_range("2..9x3", v));  // endpoint not hit: stop at <= hi
  EXPECT_EQ(v, (std::vector<std::int64_t>{2, 5, 8}));
  EXPECT_TRUE(tools::parse_range("5..5x1", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{5}));
  EXPECT_TRUE(tools::parse_range("256..4096*4", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{256, 1024, 4096}));
  EXPECT_TRUE(tools::parse_range("3..100*10", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{3, 30}));
}

TEST(CellArgs, RangeRejectsMalformedAndOverflowing) {
  const std::vector<std::int64_t> sentinel{77};
  std::vector<std::int64_t> v = sentinel;
  for (const char* bad :
       {"", "x", "abc", "-1", "1..8", "1..8y2", "1..8x", "1..8*", "1..8x0", "1..8*1",
        "0..8*2", "8..1x1", "-1..8x1", "1..8x-2", "1..abcx2", "1..8x2junk", " 1..8x2",
        "1..9223372036854775808x1", "1..200000x1"}) {
    EXPECT_FALSE(tools::parse_range(bad, v)) << bad;
    EXPECT_EQ(v, sentinel) << bad;  // out is untouched on failure
  }
}

TEST(CellArgs, RangeWalkStopsBeforeInt64Overflow) {
  std::vector<std::int64_t> v;
  // lo * step would overflow int64; the walk must stop, not wrap.
  EXPECT_TRUE(tools::parse_range("4611686018427387904..9223372036854775807*2", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{4611686018427387904}));
  EXPECT_TRUE(tools::parse_range("9223372036854775800..9223372036854775807x4", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{9223372036854775800, 9223372036854775804}));
}

// -- end-to-end caching -----------------------------------------------------

TEST(Evald, CachedResultsAreBitIdenticalForEveryCellKind) {
  LiveServer live;
  Client client(live.path());
  for (const CellSpec& spec : sample_specs()) {
    const auto direct = eval::encode_result(eval::run_cell(spec));

    auto first = client.lookup(spec);
    EXPECT_EQ(first.origin, Origin::Computed) << to_string(spec.type);
    EXPECT_EQ(eval::encode_result(first.result), direct) << to_string(spec.type);

    auto second = client.lookup(spec);
    EXPECT_EQ(second.origin, Origin::Cache) << to_string(spec.type);
    EXPECT_EQ(eval::encode_result(second.result), direct) << to_string(spec.type);
  }
}

TEST(Evald, NegativeCachingServesMemoizedFailures) {
  LiveServer live;
  Client client(live.path());
  const CellSpec bad = CellSpec::of(infeasible_sched_cell());

  auto first = client.lookup(bad);
  EXPECT_EQ(first.origin, Origin::Computed);
  EXPECT_EQ(first.result.status, CellStatus::Error);
  EXPECT_FALSE(first.result.error.empty());

  auto second = client.lookup(bad);
  EXPECT_EQ(second.origin, Origin::NegativeCache);
  EXPECT_EQ(eval::encode_result(second.result), eval::encode_result(first.result));
  EXPECT_GE(live.server().stats().negative_hits, 1u);
}

TEST(Evald, MixedSweepOnlySimulatesMissesInRequestOrder) {
  LiveServer live;
  Client client(live.path());
  auto cached_cell = faulted_tpl_cell();
  (void)client.lookup(CellSpec::of(cached_cell));

  auto fresh_cell = cached_cell;
  fresh_cell.bytes *= 2;
  const std::vector<CellSpec> batch{CellSpec::of(fresh_cell), CellSpec::of(cached_cell),
                                    CellSpec::of(infeasible_sched_cell())};
  const auto outcomes = client.sweep(batch);
  ASSERT_EQ(outcomes.size(), batch.size());
  EXPECT_EQ(outcomes[0].origin, Origin::Computed);
  EXPECT_EQ(outcomes[1].origin, Origin::Cache);
  EXPECT_EQ(outcomes[2].origin, Origin::Computed);
  // Reply order is the request order, each slot its own cell.
  EXPECT_EQ(eval::encode_result(outcomes[1].result),
            eval::encode_result(eval::run_cell(batch[1])));
  // A repeat serves everything from memory.
  for (const auto& o : client.sweep(batch)) EXPECT_NE(o.origin, Origin::Computed);
}

TEST(Evald, WarmReportsOriginsWithoutResultBytes) {
  LiveServer live;
  Client client(live.path());
  const auto specs = sample_specs();
  const auto cold = client.warm(specs);
  ASSERT_EQ(cold.size(), specs.size());
  for (const Origin o : cold) EXPECT_EQ(o, Origin::Computed);
  const auto hot = client.warm(specs);
  for (const Origin o : hot) EXPECT_EQ(o, Origin::Cache);
}

TEST(Evald, InvalidationForcesRecomputation) {
  LiveServer live;
  Client client(live.path());
  const CellSpec spec = CellSpec::of(faulted_tpl_cell());
  const auto first = eval::encode_result(client.lookup(spec).result);

  EXPECT_TRUE(client.invalidate(spec));
  EXPECT_FALSE(client.invalidate(spec));  // already gone
  auto redo = client.lookup(spec);
  EXPECT_EQ(redo.origin, Origin::Computed);
  EXPECT_EQ(eval::encode_result(redo.result), first);  // determinism

  EXPECT_GE(client.invalidate_all(), 1u);
  EXPECT_EQ(live.server().stats().entries, 0u);
}

TEST(Evald, DaemonPersistsItsStoreAcrossRestart) {
  const std::string store_path = scratch_path("daemon_store");
  const CellSpec spec = CellSpec::of(small_sched_cell());
  std::vector<std::byte> first;
  ServerConfig config;
  config.store_path = store_path;
  {
    config.socket_path = scratch_path("sock");
    Server server(config);
    server.start();
    Client client(config.socket_path);
    first = eval::encode_result(client.lookup(spec).result);
    server.stop();
  }
  {
    config.socket_path = scratch_path("sock");
    Server server(config);
    server.start();
    Client client(config.socket_path);
    auto served = client.lookup(spec);
    EXPECT_EQ(served.origin, Origin::Cache);  // replayed from disk
    EXPECT_EQ(eval::encode_result(served.result), first);
    server.stop();
  }
  {
    // A model bump opens the same file and finds nothing to serve.
    config.socket_path = scratch_path("sock");
    config.model_version = eval::kModelVersion + 1;
    Server server(config);
    server.start();
    Client client(config.socket_path);
    EXPECT_EQ(client.stats().entries, 0u);
    EXPECT_EQ(client.lookup(spec).origin, Origin::Computed);
    server.stop();
  }
  ::unlink(store_path.c_str());
}

TEST(Evald, ConcurrentClientsAgreeBitIdentically) {
  LiveServer live;
  const auto specs = sample_specs();
  std::vector<std::vector<std::byte>> direct;
  for (const auto& s : specs) direct.push_back(eval::encode_result(eval::run_cell(s)));

  constexpr int kClients = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      Client client(live.path());
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
          const auto got = eval::encode_result(client.lookup(specs[i]).result);
          if (got != direct[i]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const DaemonStats stats = live.server().stats();
  EXPECT_EQ(stats.connections, static_cast<std::uint64_t>(kClients));
  // Round 1 may race (every client can miss the same cold cell; the store
  // keeps the first insert), but rounds 2 and 3 must hit for everyone.
  EXPECT_GE(stats.hits, static_cast<std::uint64_t>(kClients * 2 * specs.size()));
}

}  // namespace
}  // namespace pdc::evald
