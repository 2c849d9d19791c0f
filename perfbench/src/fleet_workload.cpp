// fleet: fleet::run_fleet over 64 devices with three tenants each, 500 ms
// epochs and round_robin placement. The population puts a heavy writer
// at every 64th tenant, so round_robin stacks all three writers on device
// 0; hot detection flags it and commits migrations after Ssd::fork()
// trials. This is the only workload that runs fleet placement and
// migration, the per-device telemetry rings and rollups, the thread pool,
// and device construction at scale.
//
// Kept fault: each device-epoch records into a 65,536-event ring that
// overwrites its oldest events, and hot detection reads the rollup of that
// ring, so busy device-epochs lose completed requests from their load
// signal. Every completed request missing from its device's epoch rollups
// is a failed operation. The 64-device fleet therefore uses a fixed fleet
// seed: the count of lost completions, and so the failed share, must not
// depend on --seed. A second, lightly loaded fleet of 16 devices is
// generated from --seed; its device-epochs stay far below the ring size,
// and each of its tenants issues an exact request count per epoch.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/features.hpp"
#include "fleet/fleet.hpp"
#include "fleet/placement.hpp"
#include "layers.hpp"
#include "pipeline.hpp"
#include "telemetry/rollup.hpp"
#include "telemetry/tracer.hpp"

namespace perfbench {

namespace {

using namespace ssdk;

constexpr std::uint32_t kDevices = 64;
constexpr std::uint32_t kTenants = 192;
constexpr std::uint64_t kFleetSeed = 7;  // fixed: see the file comment
/// Pool size: more than one worker, so the pool is exercised, and few
/// enough to stay inside a small shared host.
constexpr unsigned kWorkers = 2;
constexpr std::uint32_t kSeededDevices = 16;
constexpr std::uint32_t kSeededTenants = 48;
constexpr std::uint64_t kSeededRequestsPerEpoch = 600;
/// Pages per copy request the fleet injects for a committed migration.
constexpr std::uint64_t kCopyRequestPages = 16;

struct FleetInput {
  fleet::FleetConfig config;
  std::vector<fleet::TenantSpec> tenants;
};

/// Reads/writes each tenant's epoch traffic issues over all epochs,
/// counted from `fleet::epoch_records` (the benchmark's own expectation).
std::map<std::uint32_t, RwCount> count_traffic(const FleetInput& f) {
  std::map<std::uint32_t, RwCount> out;
  for (const auto& spec : f.tenants) {
    RwCount& c = out[spec.id];
    for (std::uint32_t e = 0; e < f.config.epochs; ++e) {
      for (const auto& rec : fleet::epoch_records(spec, f.config.seed, e,
                                                  f.config.epoch_ns)) {
        if (rec.type == sim::OpType::kRead) ++c.reads;
        if (rec.type == sim::OpType::kWrite) ++c.writes;
      }
    }
  }
  return out;
}

fleet::FleetConfig base_config() {
  fleet::FleetConfig c;
  c.epochs = 3;
  c.epoch_ns = 500 * kMillisecond;
  c.slots_per_device = 4;  // three tenants + one free slot for migrations
  c.isolated_baseline = false;
  return c;
}

FleetInput heavy_fleet() {
  FleetInput f;
  f.config = base_config();
  f.config.devices = kDevices;
  f.config.seed = kFleetSeed;
  f.tenants = fleet::make_tenant_specs(kTenants, kDevices, f.config.epoch_ns);
  return f;
}

/// Light tenants whose `kSeededRequestsPerEpoch` arrivals end well inside
/// the epoch (mean span 0.3 s of 0.5 s), so each epoch replays exactly
/// that many requests per tenant.
FleetInput seeded_fleet(std::uint64_t seed) {
  FleetInput f;
  f.config = base_config();
  f.config.devices = kSeededDevices;
  f.config.seed = seed;
  f.config.migration.enabled = false;
  for (std::uint32_t i = 0; i < kSeededTenants; ++i) {
    fleet::TenantSpec spec;
    spec.id = i;
    spec.traffic.name = "light";
    spec.traffic.write_fraction = i % 3 == 0 ? 0.6 : 0.2;
    spec.traffic.intensity_rps = 2000.0;
    spec.traffic.request_count = kSeededRequestsPerEpoch;
    spec.traffic.mean_request_pages = 2.0;
    f.tenants.push_back(spec);
  }
  return f;
}

/// Requests completed on the devices, and the part of them the epoch
/// rollups account for.
struct Accounting {
  std::uint64_t completed = 0;
  std::uint64_t in_rollups = 0;
  std::uint64_t lost() const { return completed - in_rollups; }
};

Accounting accounting(const fleet::FleetResult& r) {
  Accounting a;
  for (const auto& d : r.device_results) {
    a.completed += d.run.counters.host_reads + d.run.counters.host_writes;
    for (const auto& s : d.epoch_summaries) a.in_rollups += s.reads + s.writes;
  }
  return a;
}

/// Reads/writes each tenant issued: its epoch traffic plus, after a
/// committed migration, the copy traffic replayed on the destination.
std::map<std::uint32_t, RwCount> expected_counts(
    const FleetInput& f, const fleet::FleetResult& r) {
  auto out = count_traffic(f);
  for (const auto& m : r.migrations) {
    out[m.tenant].writes +=
        (m.injected_pages + kCopyRequestPages - 1) / kCopyRequestPages;
  }
  return out;
}

std::map<std::uint32_t, RwCount> completed_by_tenant(
    const fleet::FleetResult& r) {
  std::map<std::uint32_t, RwCount> out;
  for (const auto& t : r.tenant_results) out[t.tenant] = {t.reads, t.writes};
  return out;
}

void check_fleet(const FleetInput& f, const fleet::FleetResult& r,
                 const std::string& what, Checker& checks) {
  checks.expect(same_counts(expected_counts(f, r), completed_by_tenant(r)),
                what + ": completed reads/writes per tenant equal "
                       "epoch_records plus migration copy traffic");
  for (const auto& d : r.device_results) {
    const std::string who = what + " device " + std::to_string(d.device);
    checks.expect(!d.run.device_full, who + ": ran every epoch to its end");
    check_latency_floors(checks, d.run, f.config.ssd, who);
  }
}

struct Pass {
  fleet::FleetResult heavy;
  fleet::FleetResult seeded;
  double seconds = 0.0;
};

Pass run_pass(const FleetInput& heavy, const FleetInput& seeded,
              ThreadPool& pool, Spans& spans) {
  const fleet::RoundRobinPlacement policy;
  Pass pass;
  const auto start = Clock::now();
  pass.heavy = spans.time("fleet.run", [&] {
    return fleet::run_fleet(heavy.config, heavy.tenants, policy, pool);
  });
  pass.seeded = spans.time("fleet.run_seeded", [&] {
    return fleet::run_fleet(seeded.config, seeded.tenants, policy, pool);
  });
  pass.seconds = seconds_between(start, Clock::now());
  return pass;
}

sim::IoRequest to_request(const trace::TraceRecord& r, sim::TenantId tenant) {
  sim::IoRequest req;
  req.tenant = tenant;
  req.type = r.type;
  req.lpn = r.lpn;
  req.page_count = r.pages;
  req.arrival = r.arrival;
  return req;
}

/// Epoch 0 of the heavy fleet replayed by hand, device by device, with the
/// fleet's ring size: telemetry recorded/dropped events and rollup cost.
struct EpochZero {
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t completed = 0;
  std::uint64_t in_rollups = 0;
  std::uint64_t page_ops = 0;
  Duration bus_busy_ns = 0;
  Duration chip_busy_ns = 0;
  SimTime makespan = 0;  ///< latest device clock
};

EpochZero replay_epoch_zero(const FleetInput& f, Spans& spans) {
  const auto& c = f.config;
  std::vector<std::vector<trace::TraceRecord>> records;
  std::vector<fleet::TenantLoad> loads;
  for (const auto& spec : f.tenants) {
    records.push_back(fleet::epoch_records(spec, c.seed, 0, c.epoch_ns));
    std::vector<sim::IoRequest> reqs;
    for (const auto& r : records.back()) reqs.push_back(to_request(r, spec.id));
    const auto stats = core::per_tenant_stats(reqs);
    fleet::TenantLoad load;
    load.tenant = spec.id;
    if (!stats.empty()) load = fleet::load_of(spec.id, stats.front());
    loads.push_back(load);
  }
  const auto placement = spans.time("fleet.place", [&] {
    return fleet::RoundRobinPlacement{}.place(loads, c.devices,
                                              c.slots_per_device);
  });
  EpochZero out;
  for (std::uint32_t d = 0; d < c.devices; ++d) {
    std::vector<sim::IoRequest> reqs;
    std::uint32_t slot = 0;
    for (std::size_t t = 0; t < f.tenants.size(); ++t) {
      if (placement[t] != d) continue;
      for (const auto& r : records[t]) reqs.push_back(to_request(r, slot));
      ++slot;
    }
    std::stable_sort(reqs.begin(), reqs.end(),
                     [](const sim::IoRequest& a, const sim::IoRequest& b) {
                       return a.arrival < b.arrival;
                     });
    for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].id = i;
    telemetry::Tracer tracer(telemetry::TelemetryConfig{
        .capacity_events = c.tracer_capacity_events});
    auto device = spans.time("ssd.construct", [&] {
      return std::make_unique<ssd::Ssd>(c.ssd);
    });
    device->set_tracer(&tracer);
    spans.time("ssd.run", [&] {
      device->submit(reqs);
      device->run_to_completion();
    });
    telemetry::RollupConfig rollup = c.rollup;
    rollup.channels = c.ssd.geometry.channels;
    const auto summary = spans.time("telemetry.rollup", [&] {
      return telemetry::summarize_rollup(
          telemetry::build_rollup(tracer.events(), rollup));
    });
    out.recorded += tracer.recorded();
    out.dropped += tracer.dropped();
    const auto& counters = device->metrics().counters();
    out.completed += counters.host_reads + counters.host_writes;
    out.in_rollups += summary.reads + summary.writes;
    out.page_ops += counters.page_ops;
    out.bus_busy_ns += counters.bus_busy_ns;
    out.chip_busy_ns += counters.chip_busy_ns;
    out.makespan = std::max(out.makespan, device->now());
  }
  return out;
}

}  // namespace

Outcome run_fleet_workload(const Options& options) {
  Outcome out;
  Spans spans(options.trace);
  LayerMetrics lm;
  // The inputs are the tenant specs; run_fleet generates each epoch's
  // traffic from them inside the measured pass.
  const FleetInput heavy =
      spans.time("trace.synth", [] { return heavy_fleet(); });
  const FleetInput seeded =
      spans.time("trace.synth", [&] { return seeded_fleet(options.seed); });
  ThreadPool pool(std::clamp(std::thread::hardware_concurrency(), 1u,
                             kWorkers));
  const double setup_s = seconds_between(options.process_start, Clock::now());
  std::printf("fleet: %u + %u devices, %zu + %zu tenants, %zu workers, "
              "set-up %.4f s\n",
              heavy.config.devices, seeded.config.devices,
              heavy.tenants.size(), seeded.tenants.size(), pool.size(),
              setup_s);

  // Warm-up pass, untimed: its results are checked and give the
  // simulated figures, then released before the measured passes.
  Spans off(false);
  std::uint64_t ops_per_pass = 0;
  std::uint64_t lost_per_pass = 0;
  std::uint64_t page_ops = 0;
  double rss_mb = 0.0;
  PooledLatency lat;
  {
    const Pass warm = run_pass(heavy, seeded, pool, off);
    check_fleet(heavy, warm.heavy, "fleet", out.checks);
    check_fleet(seeded, warm.seeded, "seeded fleet", out.checks);
    for (const auto* r : {&warm.heavy, &warm.seeded}) {
      const Accounting acc = accounting(*r);
      ops_per_pass += acc.completed;
      lost_per_pass += acc.lost();
      for (const auto& d : r->device_results) {
        page_ops += d.run.counters.page_ops;
        lat.add(d.run);
      }
    }
    rss_mb = peak_rss_mb();
    std::printf("fleet: %llu of %llu completed requests missing from the "
                "epoch rollups, %zu migrations\n",
                static_cast<unsigned long long>(lost_per_pass),
                static_cast<unsigned long long>(ops_per_pass),
                warm.heavy.migrations.size());
  }

  if (!options.trace) {
    const auto times = measure_passes(options.seconds, 3, [&] {
      return run_pass(heavy, seeded, pool, off).seconds;
    });
    print_passes("fleet", times);
    const double run_s = lower_quartile(times);
    out.attempted = times.size() * ops_per_pass;
    out.failed = times.size() * lost_per_pass;
    add_end_to_end(out, setup_s, run_s, static_cast<double>(page_ops),
                   rss_mb, lat);
    std::printf("fleet: %zu passes, lower quartile %.4f s, "
                "%llu page ops\n",
                times.size(), run_s, static_cast<unsigned long long>(page_ops));
    return out;
  }

  // Traced run: an untraced pass as the base, a pass with spans, the heavy
  // fleet again on one worker (speed-up base and determinism check), and
  // epoch 0 replayed by hand to measure the telemetry layer.
  const double untraced_s = run_pass(heavy, seeded, pool, off).seconds;
  const Pass traced = run_pass(heavy, seeded, pool, spans);
  out.attempted = ops_per_pass;
  out.failed = lost_per_pass;
  ThreadPool single(1);
  const auto one_worker = spans.time("fleet.run_1worker", [&] {
    return fleet::run_fleet(heavy.config, heavy.tenants,
                            fleet::RoundRobinPlacement{}, single);
  });
  out.checks.expect(one_worker.fingerprint() == traced.heavy.fingerprint(),
                    "fleet: fingerprint at " + std::to_string(pool.size()) +
                        " workers equals the one at 1 worker");
  const EpochZero e0 = replay_epoch_zero(heavy, spans);
  std::uint64_t fleet_e0_rollups = 0;
  for (const auto& d : traced.heavy.device_results) {
    const auto& e0_summary = d.epoch_summaries.front();
    fleet_e0_rollups += e0_summary.reads + e0_summary.writes;
  }
  out.checks.expect(e0.in_rollups == fleet_e0_rollups,
                    "fleet: epoch-0 rollups replayed by hand equal the "
                    "fleet's");

  sim::DeviceCounters sum;
  for (const auto& d : traced.heavy.device_results) {
    const auto& c = d.run.counters;
    sum.conflicts += c.conflicts;
    sum.gc_migrations += c.gc_migrations;
    sum.erases += c.erases;
    sum.host_reads += c.host_reads;
    sum.host_writes += c.host_writes;
    sum.read_wait_ns += c.read_wait_ns;
    sum.write_wait_ns += c.write_wait_ns;
    sum.read_ops_started += c.read_ops_started;
    sum.write_ops_started += c.write_ops_started;
  }
  std::uint64_t trials = 0, injected = 0;
  for (const auto& m : traced.heavy.migrations) {
    trials += m.trials.size();
    injected += m.injected_pages;
  }
  lm.set("trace.synth_s", spans.total("trace.synth"));
  lm.set("ssd.page_ops", static_cast<double>(page_ops));
  lm.set("ssd.requests", static_cast<double>(sum.host_reads + sum.host_writes));
  lm.set("ssd.conflicts", static_cast<double>(sum.conflicts));
  lm.set("ssd.read_wait_us", sum.avg_read_wait_us());
  lm.set("ssd.write_wait_us", sum.avg_write_wait_us());
  lm.set("ssd.construct_s", spans.total("ssd.construct"));
  // Epoch 0 by hand: per-op cost and utilization over its devices.
  const auto& g = heavy.config.ssd.geometry;
  const double device_ns =
      static_cast<double>(e0.makespan) * heavy.config.devices;
  lm.set("ssd.run_s", spans.total("ssd.run"));
  lm.set("ssd.ns_per_page_op",
         spans.total("ssd.run") * 1e9 / static_cast<double>(e0.page_ops));
  lm.set("ssd.bus_util",
         static_cast<double>(e0.bus_busy_ns) / (g.channels * device_ns));
  lm.set("ssd.chip_util",
         static_cast<double>(e0.chip_busy_ns) / (g.total_chips() * device_ns));
  lm.set("sim.makespan_s", static_cast<double>(e0.makespan) / 1e9);
  lm.set("ftl.gc_migrations", static_cast<double>(sum.gc_migrations));
  lm.set("ftl.erases", static_cast<double>(sum.erases));
  lm.set("telemetry.events_recorded", static_cast<double>(e0.recorded));
  lm.set("telemetry.events_dropped", static_cast<double>(e0.dropped));
  lm.set("telemetry.rollup_s", spans.total("telemetry.rollup"));
  lm.set("telemetry.traced_run_s", traced.seconds);
  lm.set("fleet.lost_completions", static_cast<double>(lost_per_pass));
  lm.set("fleet.device_epochs",
         static_cast<double>(heavy.config.devices * heavy.config.epochs));
  lm.set("fleet.migrations",
         static_cast<double>(traced.heavy.migrations.size()));
  lm.set("fleet.migration_trials", static_cast<double>(trials));
  lm.set("fleet.injected_pages", static_cast<double>(injected));
  lm.set("fleet.run_s_1worker", spans.last("fleet.run_1worker"));
  lm.set_span_summary(spans, untraced_s, traced.seconds);
  spans.write_chrome_json(options.out_dir + "/fleet.spans.json");
  lm.emit(out);
  std::printf("fleet: epoch 0 by hand: %llu of %llu completions in rollups, "
              "%llu of %llu events dropped\n",
              static_cast<unsigned long long>(e0.in_rollups),
              static_cast<unsigned long long>(e0.completed),
              static_cast<unsigned long long>(e0.dropped),
              static_cast<unsigned long long>(e0.recorded));
  return out;
}

}  // namespace perfbench
