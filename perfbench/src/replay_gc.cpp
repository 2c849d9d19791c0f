// replay_gc: one device replays a long four-tenant stream under Shared,
// sized so garbage collection runs in steady state while offered writes
// stay below the device's capacity. The stream is generated, written as
// MSR CSV and read back through trace::parse_msr, so set-up exercises the
// trace layer and the measured phase is the simulator's event loop, die
// arbitration and FTL allocation/GC.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "core/runner.hpp"
#include "layers.hpp"
#include "pipeline.hpp"
#include "telemetry/rollup.hpp"
#include "telemetry/tracer.hpp"
#include "trace/mixer.hpp"
#include "trace/msr_parser.hpp"
#include "trace/msr_writer.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace ssdk;

struct TenantShape {
  const char* name;
  double write_fraction;
  double rate_rps;
  double mean_pages;
  double sequential_fraction;
};

// Two write-heavy tenants beside two read-heavy ones.
constexpr TenantShape kTenants[] = {
    {"writer_seq", 0.9, 2250.0, 4.0, 0.6},
    {"writer_rand", 0.7, 2250.0, 2.0, 0.1},
    {"reader_rand", 0.1, 3400.0, 2.0, 0.2},
    {"reader_seq", 0.05, 3000.0, 8.0, 0.5},
};
constexpr double kArrivalSeconds = 60.0;
constexpr std::uint64_t kFootprintPages = 62'500;
/// Geometry::small() with a quarter of its blocks (262,144 pages), so a
/// short stream still overwrites its footprint about three times.
constexpr std::uint32_t kBlocksPerPlane = 128;
constexpr std::uint32_t kPageBytes = 16 * 1024;

/// The generated per-tenant workloads: exactly rate x 60 s requests each,
/// arrivals on the MSR format's 100 ns grid, first arrival at t = 0.
std::vector<trace::Workload> generate(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<trace::Workload> out;
  for (const auto& t : kTenants) {
    trace::SyntheticSpec spec;
    spec.name = t.name;
    spec.write_fraction = t.write_fraction;
    spec.intensity_rps = t.rate_rps;
    spec.request_count =
        static_cast<std::uint64_t>(t.rate_rps * kArrivalSeconds);
    spec.mean_request_pages = t.mean_pages;
    spec.address_space_pages = kFootprintPages;
    spec.sequential_fraction = t.sequential_fraction;
    spec.seed = rng.next_u64();
    trace::Workload w = trace::generate_synthetic(spec);
    const SimTime first = w.empty() ? 0 : w.front().arrival / 100 * 100;
    for (auto& r : w) r.arrival = r.arrival / 100 * 100 - first;
    out.push_back(std::move(w));
  }
  return out;
}

struct Inputs {
  std::vector<sim::IoRequest> stream;
  std::vector<core::TenantProfile> profiles;
  std::map<std::uint32_t, RwCount> expected;
  std::uint64_t host_pages_written = 0;
};

Inputs build_inputs(const Options& options, Spans& spans, LayerMetrics& lm,
                    Checker& checks) {
  const auto generated =
      spans.time("trace.synth", [&] { return generate(options.seed); });
  std::vector<std::string> paths;
  spans.time("trace.msr_write", [&] {
    for (std::size_t t = 0; t < generated.size(); ++t) {
      trace::MsrWriteOptions w;
      w.page_size_bytes = kPageBytes;
      w.disk_number = static_cast<std::uint32_t>(t);
      paths.push_back(options.out_dir + "/replay_gc_tenant" +
                      std::to_string(t) + ".csv");
      trace::write_msr_file(paths.back(), generated[t], w);
    }
  });
  std::vector<trace::Workload> parsed;
  std::uint64_t records = 0;
  spans.time("trace.msr_parse", [&] {
    for (const auto& path : paths) {
      trace::MsrParseOptions p;
      p.page_size_bytes = kPageBytes;
      p.address_space_pages = kFootprintPages;
      parsed.push_back(trace::parse_msr_file(path, p));
      records += parsed.back().size();
    }
  });
  for (std::size_t t = 0; t < generated.size(); ++t) {
    checks.expect(same_records(generated[t], parsed[t]),
                  "replay_gc: MSR round trip of tenant " + std::to_string(t) +
                      " gives back the generated records");
  }
  lm.set("trace.synth_s", spans.last("trace.synth"));
  lm.set("trace.msr_write_s", spans.last("trace.msr_write"));
  lm.set("trace.msr_parse_s", spans.last("trace.msr_parse"));
  lm.set("trace.parse_records_per_s",
         static_cast<double>(records) / spans.last("trace.msr_parse"));

  Inputs in;
  in.stream = spans.time("trace.mix",
                         [&] { return trace::mix_workloads(parsed); });
  in.profiles = core::features_of(in.stream).profiles(4);
  // Expected completions come from the generated records, not the stream.
  for (std::size_t t = 0; t < generated.size(); ++t) {
    RwCount& c = in.expected[static_cast<std::uint32_t>(t)];
    for (const auto& r : generated[t]) {
      if (r.type == sim::OpType::kRead) ++c.reads;
      if (r.type == sim::OpType::kWrite) {
        ++c.writes;
        in.host_pages_written += r.pages;
      }
    }
  }
  return in;
}

struct Pass {
  std::unique_ptr<ssd::Ssd> device;
  core::RunResult result;
  double seconds = 0.0;
};

/// One replay: build the device, submit the stream, run, summarize.
Pass replay(const Inputs& in, telemetry::Tracer* tracer, Spans& spans) {
  core::RunConfig config;
  config.ssd.geometry.blocks_per_plane = kBlocksPerPlane;
  config.tracer = tracer;
  Pass pass;
  const auto start = Clock::now();
  pass.device = spans.time("ssd.construct", [&] {
    return core::make_run_device(in.stream, core::Strategy{}, in.profiles,
                                 config);
  });
  spans.time("ssd.run", [&] { pass.device->run_to_completion(); });
  pass.result = spans.time("core.summarize",
                           [&] { return core::summarize(*pass.device); });
  pass.seconds = seconds_between(start, Clock::now());
  return pass;
}

void check_pass(const Pass& pass, const Inputs& in, Checker& checks) {
  checks.expect(same_counts(in.expected, completed_counts(pass.result)),
                "replay_gc: completed reads/writes per tenant equal the "
                "generated counts");
  check_latency_floors(checks, pass.result, pass.device->options(),
                       "replay_gc");
  check_device_budget(checks, *pass.device, in.host_pages_written,
                      "replay_gc");
}

}  // namespace

Outcome run_replay_gc(const Options& options) {
  Outcome out;
  Spans spans(options.trace);
  LayerMetrics lm;
  const Inputs in = build_inputs(options, spans, lm, out.checks);
  const double setup_s = seconds_between(options.process_start, Clock::now());
  std::printf("replay_gc: %zu requests, set-up %.3f s\n", in.stream.size(),
              setup_s);

  // Warm-up pass, untimed: its device is the one the checks inspect.
  Spans off(false);
  Pass warm = replay(in, nullptr, off);
  check_pass(warm, in, out.checks);
  const core::RunResult result = warm.result;
  const std::uint64_t page_ops = result.counters.page_ops;
  const SimTime makespan = warm.device->now();
  const sim::Geometry geometry = warm.device->options().geometry;
  warm.device.reset();
  const double rss_mb = peak_rss_mb();

  if (!options.trace) {
    const auto times = measure_passes(options.seconds, 3, [&] {
      return replay(in, nullptr, off).seconds;
    });
    print_passes("replay_gc", times);
    const double run_s = lower_quartile(times);
    out.attempted = times.size() * in.stream.size();
    PooledLatency lat;
    lat.add(result);
    add_end_to_end(out, setup_s, run_s, static_cast<double>(page_ops),
                   rss_mb, lat);
    std::printf("replay_gc: %zu passes, lower quartile %.4f s, "
                "%llu page ops\n",
                times.size(), run_s,
                static_cast<unsigned long long>(page_ops));
    return out;
  }

  // Traced run: one untraced pass as the base, then one pass with spans
  // and a lifecycle tracer attached to the device.
  const double untraced_s = replay(in, nullptr, off).seconds;
  telemetry::Tracer tracer;
  Pass traced = replay(in, &tracer, spans);
  check_pass(traced, in, out.checks);
  const auto events = spans.time("telemetry.events",
                                 [&] { return tracer.events(); });
  spans.time("telemetry.rollup", [&] {
    return telemetry::build_rollup(events, telemetry::RollupConfig{});
  });
  out.attempted = in.stream.size();

  const auto& c = result.counters;
  const double makespan_ns = static_cast<double>(makespan);
  lm.set("ssd.run_s", spans.last("ssd.run"));
  lm.set("ssd.construct_s", spans.last("ssd.construct"));
  lm.set("ssd.ns_per_page_op",
         spans.last("ssd.run") * 1e9 / static_cast<double>(c.page_ops));
  lm.set("ssd.page_ops", static_cast<double>(c.page_ops));
  lm.set("ssd.requests", static_cast<double>(in.stream.size()));
  lm.set("ssd.conflicts", static_cast<double>(c.conflicts));
  lm.set("ssd.bus_util", static_cast<double>(c.bus_busy_ns) /
                             (geometry.channels * makespan_ns));
  lm.set("ssd.chip_util", static_cast<double>(c.chip_busy_ns) /
                              (geometry.total_chips() * makespan_ns));
  lm.set("ssd.read_wait_us", c.avg_read_wait_us());
  lm.set("ssd.write_wait_us", c.avg_write_wait_us());
  lm.set("sim.makespan_s", makespan_ns / 1e9);
  lm.set("ftl.gc_migrations", static_cast<double>(c.gc_migrations));
  lm.set("ftl.erases", static_cast<double>(c.erases));
  lm.set("ftl.write_amplification",
         static_cast<double>(in.host_pages_written + c.gc_migrations) /
             static_cast<double>(in.host_pages_written));
  lm.set("telemetry.events_recorded", static_cast<double>(tracer.recorded()));
  lm.set("telemetry.events_dropped", static_cast<double>(tracer.dropped()));
  lm.set("telemetry.rollup_s", spans.last("telemetry.rollup"));
  lm.set("telemetry.traced_run_s", traced.seconds);
  lm.set_span_summary(spans, untraced_s, traced.seconds);
  spans.write_chrome_json(options.out_dir + "/replay_gc.spans.json");
  lm.emit(out);
  return out;
}

}  // namespace perfbench
