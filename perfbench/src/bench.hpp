// Shared plumbing of the pipeline benchmark: options, the result record
// every workload fills, host timers, and the span recorder of the traced
// run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for generated inputs and the traced run's span file.
  std::string out_dir = ".bench_build/out";
  /// main() entry: set-up time is measured from here.
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(). `metrics` holds the
/// end-to-end metrics in an untraced run and the per-layer metrics in a
/// traced one.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  Checker checks;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Nested host-time spans recorded by the benchmark around its calls into
/// each layer. A span's layer is its name up to the first '.'.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Run `fn` inside a span named `name`; returns fn's result.
  template <typename F>
  decltype(auto) time(const std::string& name, F&& fn) {
    if (!enabled_) return fn();
    const std::size_t id = open(name);
    struct Closer {
      Spans* spans;
      std::size_t id;
      ~Closer() { spans->close(id); }
    } closer{this, id};
    return fn();
  }

  /// Duration (s) of the most recent span with this name; 0 when none.
  double last(const std::string& name) const;
  /// Summed duration (s) of every span with this name.
  double total(const std::string& name) const;
  /// Per-layer self time (s): span time not covered by child spans.
  std::vector<std::pair<std::string, double>> self_time_by_layer() const;
  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };
  std::size_t open(const std::string& name);
  void close(std::size_t id);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Peak resident set of this process (MB).
double peak_rss_mb();

/// Lower quartile of a non-empty sample, interpolated between order
/// statistics. run_s is the lower quartile of the pass times: interference
/// from a shared host only ever slows a pass down, and on such a host the
/// median of a run follows how long it spent disturbed, while the lower
/// quartile stays with the program's own speed.
double lower_quartile(std::vector<double> values);

/// Repeat `pass` (which returns its host seconds) until `seconds` of
/// measurement have elapsed, at least `min_passes` times; returns every
/// pass time.
template <typename F>
std::vector<double> measure_passes(double seconds, std::size_t min_passes,
                                   F&& pass) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (times.size() < min_passes ||
         seconds_between(start, Clock::now()) < seconds) {
    times.push_back(pass());
  }
  return times;
}

/// Print every pass time of a run (one line, for the reader).
void print_passes(const char* workload, const std::vector<double>& times);

Outcome run_replay_gc(const Options& options);
Outcome run_label_keeper(const Options& options);
Outcome run_fleet_workload(const Options& options);

}  // namespace perfbench
