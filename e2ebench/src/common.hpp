// pdc_e2e -- shared pieces of the end-to-end benchmark: options, the run
// report, order statistics, the output digest, and the span log that the
// traced run records around every call into the program.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace e2e {

// -- options ----------------------------------------------------------------

enum class Mode {
  Run,     ///< set up, measure for `seconds`, check outputs
  Setup,   ///< set up once and report setup_s only
  Inputs,  ///< print the digest of the generated inputs and exit
  Check,   ///< run only the check set (no timing) and print its digest
};

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  Mode mode{Mode::Run};
  std::string out_dir{".bench_out"};
  std::string commit{"unknown"};
};

/// The seed whose check-set digests are pinned in the workloads.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// A generator for one input stream of a run. The seed is hashed, not
/// offset: sim::Rng steps its state by a fixed increment, so generators
/// whose states differ by a multiple of it replay one shifted sequence.
[[nodiscard]] inline pdc::sim::Rng stream(std::uint64_t seed, std::uint64_t salt) {
  return pdc::sim::Rng(pdc::sim::Rng(seed ^ salt).next_u64());
}

// -- time -------------------------------------------------------------------

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

// -- order statistics -------------------------------------------------------

/// Quantile with linear interpolation between order statistics (q in [0,1]).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The highest percentile with at least ten samples beyond it (nearest
/// rank). With ten samples or fewer no such percentile exists and the
/// median is reported instead, at percentile 50.
struct Tail {
  double value{0.0};
  double percentile{0.0};
  std::size_t samples{0};
};
[[nodiscard]] Tail tail(std::vector<double> v);

/// The tail of a run cut into consecutive slices of equal request count:
/// the tail of each slice, and the median over slices, so that a burst of
/// interference from the host moves a few slices and not the result. There
/// are as many slices as fit kSliceSamples requests each, so a slice's tail
/// is p99 and a stall that recurs once in 100 requests still puts ten
/// samples beyond every slice's tail. A run with fewer than
/// 2 * kSliceSamples requests is one slice: the whole run.
inline constexpr std::size_t kSliceSamples = 1000;
struct SlicedTail {
  Tail tail;  ///< median value; percentile and samples of the smallest slice
  std::size_t slices{1};
  Tail whole_run;  ///< the same statistic over the whole run, for the notes
};
[[nodiscard]] SlicedTail sliced_tail(const std::vector<double>& v,
                                     const std::vector<std::uint32_t>& window);
[[nodiscard]] std::string tail_note(const SlicedTail& t);

// -- digest -----------------------------------------------------------------

/// FNV-1a 64 over everything folded in.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

[[nodiscard]] std::string hex64(std::uint64_t v);
/// Space-separated values with `digits` significant digits, for notes.
[[nodiscard]] std::string join(const std::vector<double>& values, int digits = 4);

// -- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// Everything one run measured. `e2e` holds the end-to-end metrics, `layer`
/// the per-layer metrics of a traced run; `info` holds the run header and
/// the notes printed beside the numbers.
struct Report {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::pair<std::string, std::string>> info;

  void add_e2e(std::string name, double value, std::string unit) {
    e2e.push_back({std::move(name), value, std::move(unit)});
  }
  void add_layer(std::string name, double value, std::string unit) {
    layer.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  /// Flags a request whose output was wrong; the run is then not correct.
  void mismatch(const std::string& what) {
    ++failed;
    correct = false;
    note("mismatch", what);
  }
};

/// Commit, build type, compiler, nproc, ISA, PDC_TRACE, seed and any PDC_*
/// environment variable (such a run is flagged non-default).
void add_run_header(Report& report, const Options& opts);

[[nodiscard]] double peak_rss_mb();

/// Checks the check-set digest against the value pinned for the default
/// seed, and records it.
void check_pinned_digest(Report& report, const Options& opts, std::uint64_t digest,
                         std::uint64_t pinned);

// -- closed-loop phases -----------------------------------------------------

/// A traced run alternates untraced and traced blocks of fixed length, so
/// both see the same machine state; the untraced blocks give the baseline
/// for trace.overhead_frac. An untraced run stays in the untraced phase.
class Phases {
 public:
  Phases(std::int64_t start_ns, bool trace) : start_(start_ns), trace_(trace) {}
  [[nodiscard]] bool traced_at(std::int64_t t) const {
    return trace_ && ((t - start_) / kBlockNs) % 2 == 1;
  }

 private:
  static constexpr std::int64_t kBlockNs = 250'000'000;
  std::int64_t start_;
  bool trace_;
};

/// Work and time accumulated by one phase of a closed loop. Time is the
/// sum of each request's timed interval (from one request's start to the
/// next's, or on evald_mix the client call alone); it is also kept per
/// one-second window of the run (by request end).
struct PhaseTally {
  double cells{0.0};
  double client_ns{0.0};
  std::vector<double> request_ms;
  std::vector<std::uint32_t> request_window;  ///< window of each request_ms entry
  std::vector<double> window_cells, window_ns;

  void add(std::int64_t run_start, std::int64_t t0, std::int64_t t1, double n, double rtt_ms) {
    cells += n;
    client_ns += static_cast<double>(t1 - t0);
    request_ms.push_back(rtt_ms);
    const auto w = static_cast<std::size_t>((t1 - run_start) / 1'000'000'000);
    request_window.push_back(static_cast<std::uint32_t>(w));
    if (window_cells.size() <= w) {
      window_cells.resize(w + 1, 0.0);
      window_ns.resize(w + 1, 0.0);
    }
    window_cells[w] += n;
    window_ns[w] += static_cast<double>(t1 - t0);
  }
  [[nodiscard]] double cells_per_s() const {
    return client_ns > 0 ? cells / (client_ns * 1e-9) : 0.0;
  }
  /// Rate in each window that saw at least a quarter second of timed
  /// requests: a traced run's untraced phase holds half of each window, and
  /// on evald_mix only the client calls are timed.
  [[nodiscard]] std::vector<double> window_rates() const;
  /// Median of the window rates: a burst of interference moves one window.
  [[nodiscard]] double median_rate() const { return median(window_rates()); }
  [[nodiscard]] SlicedTail request_tail() const { return sliced_tail(request_ms, request_window); }
};

// -- spans ------------------------------------------------------------------

/// One timed call, recorded by the benchmark around a call into the
/// program. `parent` is 0 for a request's root span.
struct Span {
  const char* name{""};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint32_t id{0};
  std::uint32_t parent{0};
  std::uint64_t request{0};
  std::uint32_t tid{0};
};

/// Small dense id of the calling thread, for span tracks.
[[nodiscard]] std::uint32_t thread_index();

/// Collects the spans of traced requests: each request's spans are folded
/// into per-layer self time as they arrive, and the first `kKeep` spans are
/// kept for the Chrome-trace file written at exit. Thread-safe.
class SpanLog {
 public:
  static constexpr std::size_t kKeep = 200'000;

  [[nodiscard]] std::uint32_t next_id() { return next_id_.fetch_add(1) + 1; }
  [[nodiscard]] std::uint64_t next_request() { return next_request_.fetch_add(1) + 1; }

  /// Fold one request's spans (a tree rooted at parent 0). A layer is the
  /// span name up to its first dot; self time is a span's duration minus
  /// the part of it covered by its children.
  void add_request(const std::vector<Span>& spans);

  /// Self time per layer divided by the total over all layers.
  [[nodiscard]] std::map<std::string, double> layer_shares() const;
  [[nodiscard]] std::size_t kept() const;
  [[nodiscard]] std::uint64_t total() const;

  /// Chrome trace-event JSON of the kept spans.
  [[nodiscard]] std::string chrome_json() const;

 private:
  std::atomic<std::uint32_t> next_id_{0};
  std::atomic<std::uint64_t> next_request_{0};
  mutable std::mutex mu_;
  std::vector<Span> kept_;
  std::uint64_t total_{0};
  std::map<std::string, double> self_ns_;
};

/// Writes the span log as Chrome-trace JSON to `<out_dir>/trace-<workload>-
/// seed<seed>.json`, checks it with pdc::trace::validate_json, and adds
/// each recorded layer's share of self time (`layer.<name>.share`).
void finish_trace(Report& report, const Options& opts, const SpanLog& log);

// -- workloads --------------------------------------------------------------

[[nodiscard]] Report run_tpl_sweep(const Options& opts);
[[nodiscard]] Report run_apl_figure(const Options& opts);
[[nodiscard]] Report run_scale_4096(const Options& opts);
[[nodiscard]] Report run_evald_mix(const Options& opts);

}  // namespace e2e
