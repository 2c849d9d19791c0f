// The per-layer metrics of the traced run. Every traced run reports every
// name below; a layer the workload does not run reports 0. The list, with
// units, is the `per_layer` section of BENCHMARK.json.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

inline const std::vector<LayerMetricDef>& layer_metric_defs() {
  static const std::vector<LayerMetricDef> defs = {
      {"trace.synth_s", "s"},
      {"trace.msr_write_s", "s"},
      {"trace.msr_parse_s", "s"},
      {"trace.parse_records_per_s", "1/s"},
      {"ssd.run_s", "s"},
      {"ssd.ns_per_page_op", "ns"},
      {"ssd.page_ops", "count"},
      {"ssd.requests", "count"},
      {"ssd.construct_s", "s"},
      {"ssd.conflicts", "count"},
      {"ssd.bus_util", "ratio"},
      {"ssd.chip_util", "ratio"},
      {"ssd.read_wait_us", "us"},
      {"ssd.write_wait_us", "us"},
      {"sim.makespan_s", "s"},
      {"ftl.gc_migrations", "count"},
      {"ftl.erases", "count"},
      {"ftl.write_amplification", "ratio"},
      {"core.prefix_s", "s"},
      {"snapshot.fork_s", "s"},
      {"snapshot.forks", "count"},
      {"core.suffix_s", "s"},
      {"core.label_s", "s"},
      {"core.labels_per_s", "1/s"},
      {"snapshot.state_bytes", "bytes"},
      {"core.cold_label_s", "s"},
      {"nn.train_s", "s"},
      {"nn.samples", "count"},
      {"nn.train_accuracy", "ratio"},
      {"nn.infer_us", "us"},
      {"core.keeper_run_s", "s"},
      {"core.keeper_decisions", "count"},
      {"core.keeper_total_us", "us"},
      {"core.shared_total_us", "us"},
      {"telemetry.events_recorded", "count"},
      {"telemetry.events_dropped", "count"},
      {"telemetry.rollup_s", "s"},
      {"telemetry.traced_run_s", "s"},
      {"fleet.lost_completions", "count"},
      {"fleet.device_epochs", "count"},
      {"fleet.migrations", "count"},
      {"fleet.migration_trials", "count"},
      {"fleet.injected_pages", "count"},
      {"fleet.run_s_1worker", "s"},
      {"self.trace_s", "s"},
      {"self.ssd_s", "s"},
      {"self.core_s", "s"},
      {"self.snapshot_s", "s"},
      {"self.nn_s", "s"},
      {"self.telemetry_s", "s"},
      {"self.fleet_s", "s"},
      {"bench.untraced_run_s", "s"},
      {"bench.trace_overhead", "ratio"},
  };
  return defs;
}

/// Per-layer values of one traced run, emitted in table order.
class LayerMetrics {
 public:
  void set(const std::string& name, double value) {
    for (const auto& def : layer_metric_defs()) {
      if (name == def.name) {
        values_[name] = value;
        return;
      }
    }
    throw std::logic_error("undeclared per-layer metric " + name);
  }

  /// Self time per layer from the spans, and the overhead of the traced
  /// pass (`traced_s`) over the untraced one (`untraced_s`).
  void set_span_summary(const Spans& spans, double untraced_s,
                        double traced_s) {
    for (const auto& [layer, seconds] : spans.self_time_by_layer()) {
      set("self." + layer + "_s", seconds);
    }
    set("bench.untraced_run_s", untraced_s);
    set("bench.trace_overhead", traced_s / untraced_s - 1.0);
  }

  void emit(Outcome& out) const {
    for (const auto& def : layer_metric_defs()) {
      const auto it = values_.find(def.name);
      out.add(def.name, it == values_.end() ? 0.0 : it->second, def.unit);
    }
  }

 private:
  std::map<std::string, double> values_;
};

}  // namespace perfbench
