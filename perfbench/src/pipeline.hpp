// Helpers shared by the workloads: pooled simulated latency, the eight
// end-to-end metrics, and the checks every device result goes through.
#pragma once

#include <map>
#include <span>
#include <string>

#include "bench.hpp"
#include "core/runner.hpp"
#include "ssd/ssd.hpp"
#include "util/stats.hpp"

namespace perfbench {

/// Every host read/write latency sample of a set of runs, pooled by
/// merging the per-tenant sample sets (the internal GC tenant excluded).
struct PooledLatency {
  ssdk::SampleSet reads;
  ssdk::SampleSet writes;

  void add(const ssdk::core::RunResult& run) {
    for (const auto& [tenant, m] : run.per_tenant) {
      if (tenant == ssdk::sim::kInternalTenant) continue;
      reads.merge(m.read_latency_us);
      writes.merge(m.write_latency_us);
    }
  }
};

/// The eight end-to-end metrics, in BENCHMARK.json order. `rss_mb` is the
/// peak resident set after set-up and the warm-up pass: later passes only
/// add allocator fragmentation that varies from run to run.
inline void add_end_to_end(Outcome& out, double setup_s, double run_s,
                           double page_ops, double rss_mb,
                           const PooledLatency& lat) {
  const auto p99 = [](const ssdk::SampleSet& s) {
    return s.empty() ? 0.0 : s.percentile(99.0);
  };
  out.add("setup_s", setup_s, "s");
  out.add("run_s", run_s, "s");
  out.add("page_ops_per_s", page_ops / run_s, "1/s");
  out.add("peak_rss_mb", rss_mb, "MB");
  out.add("sim_read_us", lat.reads.mean(), "us");
  out.add("sim_write_us", lat.writes.mean(), "us");
  out.add("sim_read_p99_us", p99(lat.reads), "us");
  out.add("sim_write_p99_us", p99(lat.writes), "us");
}

/// Completed host reads/writes per tenant of one run.
inline std::map<std::uint32_t, RwCount> completed_counts(
    const ssdk::core::RunResult& run) {
  std::map<std::uint32_t, RwCount> out;
  for (const auto& [tenant, m] : run.per_tenant) {
    if (tenant == ssdk::sim::kInternalTenant) continue;
    out[tenant] = {m.read_latency_us.count(), m.write_latency_us.count()};
  }
  return out;
}

/// Reads/writes per tenant of a request stream.
inline std::map<std::uint32_t, RwCount> request_counts(
    std::span<const ssdk::sim::IoRequest> requests) {
  std::map<std::uint32_t, RwCount> out;
  for (const auto& r : requests) {
    if (r.type == ssdk::sim::OpType::kRead) ++out[r.tenant].reads;
    if (r.type == ssdk::sim::OpType::kWrite) ++out[r.tenant].writes;
  }
  return out;
}

/// Every tenant's mean read/write latency is at least the unloaded
/// one-page service time of the device's timing model.
inline void check_latency_floors(Checker& checks,
                                 const ssdk::core::RunResult& run,
                                 const ssdk::ssd::SsdOptions& device,
                                 const std::string& what) {
  const double read_floor_us =
      static_cast<double>(device.timing.read_service_ns(device.geometry)) /
      1e3;
  const double write_floor_us =
      static_cast<double>(device.timing.write_service_ns(device.geometry)) /
      1e3;
  for (const auto& [tenant, m] : run.per_tenant) {
    if (tenant == ssdk::sim::kInternalTenant) continue;
    const std::string who = what + " tenant " + std::to_string(tenant);
    checks.expect(mean_at_least(m.avg_read_us(), m.read_latency_us.count(),
                                read_floor_us),
                  who + ": mean read latency >= unloaded read service time");
    checks.expect(
        mean_at_least(m.avg_write_us(), m.write_latency_us.count(),
                      write_floor_us),
        who + ": mean write latency >= unloaded write service time");
  }
}

/// Resource-time and page-budget properties of a finished device:
/// bus and chip busy time fit in units x makespan, and pages programmed
/// (host + GC) fit in capacity plus what the erases freed.
inline void check_device_budget(Checker& checks, const ssdk::ssd::Ssd& device,
                                std::uint64_t host_pages_written,
                                const std::string& what) {
  const auto& c = device.metrics().counters();
  const auto& g = device.options().geometry;
  const auto makespan = static_cast<std::int64_t>(device.now());
  checks.expect(busy_within(c.bus_busy_ns, g.channels, makespan),
                what + ": bus busy time <= channels x makespan");
  checks.expect(busy_within(c.chip_busy_ns, g.total_chips(), makespan),
                what + ": chip busy time <= chips x makespan");
  checks.expect(programmed_within(host_pages_written, c.gc_migrations,
                                  g.total_pages(), c.erases,
                                  g.pages_per_block),
                what + ": pages programmed <= capacity + erases x pages "
                       "per block");
}

/// Host pages written by a request stream.
inline std::uint64_t write_pages(
    std::span<const ssdk::sim::IoRequest> requests) {
  std::uint64_t pages = 0;
  for (const auto& r : requests) {
    if (r.type == ssdk::sim::OpType::kWrite) pages += r.page_count;
  }
  return pages;
}

}  // namespace perfbench
