#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "kernels/dispatch.hpp"
#include "trace/export.hpp"

extern char** environ;

namespace e2e {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.size() <= 10) {
    t.value = median(std::move(v));
    t.percentile = 50.0;
    return t;
  }
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() - 11;  // ten samples lie beyond it
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size());
  return t;
}

std::vector<double> PhaseTally::window_rates() const {
  std::vector<double> out;
  for (std::size_t w = 0; w < window_cells.size(); ++w) {
    if (window_ns[w] >= 0.25e9) {
      out.push_back(window_cells[w] / (window_ns[w] * 1e-9));
    }
  }
  return out;
}

SlicedTail sliced_tail(const std::vector<double>& v, const std::vector<std::uint32_t>& window) {
  SlicedTail out;
  out.whole_run = tail(v);
  out.tail = out.whole_run;
  const std::size_t slices = v.size() / kSliceSamples;
  if (slices < 2 || window.size() != v.size()) return out;
  // Requests in time order (by window), cut into slices of equal count.
  std::vector<std::size_t> order(v.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return window[a] < window[b]; });
  std::vector<std::vector<double>> slice(slices);
  for (std::size_t j = 0; j < order.size(); ++j) {
    slice[j * slices / order.size()].push_back(v[order[j]]);
  }
  std::vector<double> values;
  for (const auto& s : slice) {
    const Tail t = tail(s);
    if (values.empty() || t.samples < out.tail.samples) out.tail = t;
    values.push_back(t.value);
  }
  out.tail.value = median(values);
  out.slices = slices;
  return out;
}

std::string tail_note(const SlicedTail& t) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "median over %zu slice(s) of p%.3f of >= %zu samples; whole run: p%.3f of %zu "
                "samples = %.4g",
                t.slices, t.tail.percentile, t.tail.samples, t.whole_run.percentile,
                t.whole_run.samples, t.whole_run.value);
  return buf;
}

std::string join(const std::vector<double>& values, int digits) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, "%s%.*g", out.empty() ? "" : " ", digits, v);
    out += buf;
  }
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux: KiB
}

void add_run_header(Report& report, const Options& opts) {
  report.note("commit", opts.commit);
  report.note("build_type", E2E_BUILD_TYPE);
  report.note("compiler", E2E_COMPILER);
  report.note("nproc", std::to_string(std::max(1u, std::thread::hardware_concurrency())));
  report.note("isa", pdc::kernels::to_string(pdc::kernels::active_isa()));
#ifdef PDC_TRACE_ENABLED
  report.note("pdc_trace", "compiled in");
#else
  report.note("pdc_trace", "compiled out");
#endif
  report.note("seed", std::to_string(opts.seed));
  std::string env;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "PDC_", 4) == 0) env += (env.empty() ? "" : " ") + std::string(*e);
  }
  report.note("pdc_env", env.empty() ? "none" : env);
  report.note("defaults", env.empty() ? "yes" : "NO (PDC_* variables set: non-default run)");
}

void check_pinned_digest(Report& report, const Options& opts, std::uint64_t digest,
                         std::uint64_t pinned) {
  report.note("check_digest", hex64(digest));
  if (opts.seed != kDefaultSeed) return;
  report.note("pinned_digest", hex64(pinned));
  if (digest != pinned) report.mismatch("check-set digest differs from the pinned value");
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1) + 1;
  return id;
}

namespace {

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot ? std::string(name, dot) : std::string(name);
}

}  // namespace

void SpanLog::add_request(const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& c : spans) {
    if (c.parent != 0) children[c.parent].emplace_back(c.start_ns, c.end_ns);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto& cover = it->second;
      std::sort(cover.begin(), cover.end());
      std::int64_t reach = s.start_ns;
      for (const auto& [lo, hi] : cover) {
        const auto from = std::max(lo, reach);
        const auto to = std::min(hi, s.end_ns);
        if (to > from) covered += to - from;
        reach = std::max(reach, to);
      }
    }
    self[layer_of(s.name)] += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  const std::scoped_lock lock(mu_);
  for (const auto& [layer, ns] : self) self_ns_[layer] += ns;
  total_ += spans.size();
  for (const Span& s : spans) {
    if (kept_.size() >= kKeep) break;
    kept_.push_back(s);
  }
}

std::map<std::string, double> SpanLog::layer_shares() const {
  const std::scoped_lock lock(mu_);
  double sum = 0.0;
  for (const auto& [layer, ns] : self_ns_) sum += ns;
  std::map<std::string, double> out;
  for (const auto& [layer, ns] : self_ns_) out[layer] = sum > 0 ? ns / sum : 0.0;
  return out;
}

std::size_t SpanLog::kept() const {
  const std::scoped_lock lock(mu_);
  return kept_.size();
}

std::uint64_t SpanLog::total() const {
  const std::scoped_lock lock(mu_);
  return total_;
}

std::string SpanLog::chrome_json() const {
  const std::scoped_lock lock(mu_);
  std::int64_t t0 = 0;
  if (!kept_.empty()) {
    t0 = std::min_element(kept_.begin(), kept_.end(), [](const Span& a, const Span& b) {
           return a.start_ns < b.start_ns;
         })->start_ns;
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[384];
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%u,\"parent\":%u,\"request\":%" PRIu64
                  "}}",
                  i ? "," : "", s.name, layer_of(s.name).c_str(),
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid, s.id, s.parent,
                  s.request);
    out += buf;
  }
  out += "]}";
  return out;
}

void finish_trace(Report& report, const Options& opts, const SpanLog& log) {
  const std::string json = log.chrome_json();
  std::string error;
  if (!pdc::trace::validate_json(json, &error)) {
    report.mismatch("trace JSON invalid: " + error);
  } else if (const auto shape = pdc::trace::validate_perfetto_json(json); !shape.ok) {
    report.mismatch("trace JSON shape invalid: " + shape.error);
  }
  std::filesystem::create_directories(opts.out_dir);
  const std::string path = opts.out_dir + "/trace-" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".json";
  std::ofstream(path) << json;
  report.note("trace_file", path);
  report.note("trace_spans", std::to_string(log.total()) + " recorded, " +
                                 std::to_string(log.kept()) + " written");
  for (const auto& [layer, share] : log.layer_shares()) {
    report.add_layer("layer." + layer + ".share", share, "frac");
  }
}

}  // namespace e2e
