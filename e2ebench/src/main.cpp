// pdc_e2e -- end-to-end benchmark of pdceval.
//
//   pdc_e2e --workload <tpl_sweep|apl_figure|scale_4096|evald_mix> --seed N
//           --seconds S --trace <0|1> [--mode run|setup|inputs|check]
//           [--out-dir DIR] [--commit ID]
//
// Prints the run header and every metric as a table, then one JSON line
// with everything measured. run.py in this directory builds this binary and
// turns that line into the benchmark's result; see README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>

#include "common.hpp"

namespace {

using e2e::Metric;
using e2e::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pdc_e2e: %s\nusage: pdc_e2e --workload W --seed N --seconds S --trace 0|1 "
               "[--mode run|setup|inputs|check] [--out-dir DIR] [--commit ID]\n",
               why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? "," : "") + std::string("\"") + json_escape(metrics[i].name) + "\":{\"value\":" +
           number(metrics[i].value) + ",\"unit\":\"" + json_escape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

void print(const Report& rep, const e2e::Options& opts) {
  std::printf("# pdc_e2e workload=%s seed=%llu seconds=%g trace=%d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0);
  for (const auto& [key, value] : rep.info) {
    std::printf("#   %-24s %s\n", key.c_str(), value.c_str());
  }
  std::printf("#   %-24s %llu attempted, %llu failed, outputs %s\n", "requests",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), rep.correct ? "correct" : "WRONG");
  for (const auto* group : {&rep.e2e, &rep.layer}) {
    for (const Metric& m : *group) {
      std::printf("%-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string info = "[";
  for (std::size_t i = 0; i < rep.info.size(); ++i) {
    info += (i ? "," : "") + std::string("[\"") + json_escape(rep.info[i].first) + "\",\"" +
            json_escape(rep.info[i].second) + "\"]";
  }
  info += "]";
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"e2e\":%s,\"layer\":%s,"
              "\"info\":%s}\n",
              rep.correct ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), metrics_json(rep.e2e).c_str(),
              metrics_json(rep.layer).c_str(), info.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed takes a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0) || opts.seconds > 3600) {
        usage("--seconds out of range");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opts.trace = value == "1";
    } else if (flag == "--mode") {
      static const std::map<std::string, e2e::Mode> kModes = {{"run", e2e::Mode::Run},
                                                              {"setup", e2e::Mode::Setup},
                                                              {"inputs", e2e::Mode::Inputs},
                                                              {"check", e2e::Mode::Check}};
      const auto it = kModes.find(value);
      if (it == kModes.end()) usage("unknown --mode");
      opts.mode = it->second;
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else if (flag == "--commit") {
      opts.commit = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) opts.seed = e2e::kDefaultSeed;

  static const std::map<std::string, std::function<Report(const e2e::Options&)>> kWorkloads = {
      {"tpl_sweep", e2e::run_tpl_sweep},
      {"apl_figure", e2e::run_apl_figure},
      {"scale_4096", e2e::run_scale_4096},
      {"evald_mix", e2e::run_evald_mix},
  };
  const auto it = kWorkloads.find(opts.workload);
  if (it == kWorkloads.end()) usage("unknown --workload");
  print(it->second(opts), opts);
  return 0;
}
