// ssdk_perfbench: one end-to-end benchmark of the SSDKeeper pipeline.
//
//   ssdk_perfbench --workload replay_gc|label_keeper|fleet --seed N
//                  --seconds S --trace 0|1 [--out DIR]
//
// Prints human-readable lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics of an untraced run; --trace 1 re-runs the workload
// with spans around every layer call and reports the per-layer metrics.
// Exits 1 when any correctness check fails, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include <sys/resource.h>

#include "bench.hpp"

namespace perfbench {

std::size_t Spans::open(const std::string& name) {
  Span span;
  span.name = name;
  span.start_s = seconds_between(origin_, Clock::now());
  span.parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Spans::close(std::size_t id) {
  spans_[id].end_s = seconds_between(origin_, Clock::now());
  stack_.pop_back();
}

double Spans::last(const std::string& name) const {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->name == name) return it->end_s - it->start_s;
  }
  return 0.0;
}

double Spans::total(const std::string& name) const {
  double sum = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name) sum += s.end_s - s.start_s;
  }
  return sum;
}

std::vector<std::pair<std::string, double>> Spans::self_time_by_layer()
    const {
  // Children nest strictly inside their parent (spans come from scoped
  // calls), so a parent's self time is its duration minus its children's.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const auto& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -=
        s.end_s - s.start_s;
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  return {by_layer.begin(), by_layer.end()};
}

void Spans::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                  s.name.c_str(), layer.c_str(), s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6, i, s.parent,
                  i + 1 < spans_.size() ? "," : "");
    os << line;
  }
  os << "]}\n";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void print_passes(const char* workload, const std::vector<double>& times) {
  std::printf("%s: pass times (s):", workload);
  for (const double t : times) std::printf(" %.4f", t);
  std::printf("\n");
}

double lower_quartile(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const double pos = 0.25 * static_cast<double>(values.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return i + 1 < values.size()
             ? values[i] + frac * (values[i + 1] - values[i])
             : values[i];
}

}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ssdk_perfbench: %s\nusage: ssdk_perfbench --workload "
               "replay_gc|label_keeper|fleet --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  o.process_start = perfbench::Clock::now();
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (key == "--out") {
        o.out_dir = value;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
  return o;
}

void print_result(const Outcome& outcome) {
  std::string json = "{\"correct\": ";
  json += outcome.checks.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const auto& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse_args(argc, argv);
  std::filesystem::create_directories(options.out_dir);

  Outcome outcome;
  try {
    if (options.workload == "replay_gc") {
      outcome = perfbench::run_replay_gc(options);
    } else if (options.workload == "label_keeper") {
      outcome = perfbench::run_label_keeper(options);
    } else if (options.workload == "fleet") {
      outcome = perfbench::run_fleet_workload(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    // A program error is a failed run, not a result.
    std::fprintf(stderr, "ssdk_perfbench: %s: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  for (auto& m : outcome.metrics) {
    outcome.checks.expect(std::isfinite(m.value),
                          "metric " + m.name + " is finite");
    if (!std::isfinite(m.value)) m.value = 0.0;
  }
  std::printf("%zu checks run, %zu failed\n", outcome.checks.checks_run(),
              outcome.checks.failures().size());
  for (const auto& f : outcome.checks.failures()) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::fflush(stdout);
  print_result(outcome);
  return outcome.checks.ok() ? 0 : 1;
}
