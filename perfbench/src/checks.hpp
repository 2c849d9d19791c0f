// Correctness checks of the pipeline benchmark. Each check compares a
// program output with a property or with a count the benchmark computed
// itself from the inputs it generated; none compares with stored output.
// checks_selftest.cpp feeds every check a deliberately wrong input.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace perfbench {

/// Collects failed checks; a run with any failure is not correct.
class Checker {
 public:
  /// Record `what` as failed unless `ok`. Returns `ok`.
  bool expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  std::size_t checks_run() const { return checks_run_; }

 private:
  std::vector<std::string> failures_;
  std::size_t checks_run_ = 0;
};

struct RwCount {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  friend bool operator==(const RwCount&, const RwCount&) = default;
};

/// The records parsed back from an MSR file equal the generated ones.
bool same_records(std::span<const ssdk::trace::TraceRecord> generated,
                  std::span<const ssdk::trace::TraceRecord> parsed);

/// Completed reads/writes per tenant equal the expected counts, tenant
/// for tenant (a tenant missing on either side counts as zero).
bool same_counts(const std::map<std::uint32_t, RwCount>& expected,
                 const std::map<std::uint32_t, RwCount>& completed);

/// A mean latency is at least the unloaded service time of one page.
/// An empty sample (count 0) passes: there is no mean to bound.
bool mean_at_least(double mean_us, std::uint64_t count, double floor_us);

/// Busy time summed over `units` resources fits in units x makespan.
bool busy_within(std::int64_t busy_ns, std::uint64_t units,
                 std::int64_t makespan_ns);

/// Pages programmed (host + GC) fit in the raw capacity plus what the
/// erases made writable again.
bool programmed_within(std::uint64_t host_pages, std::uint64_t gc_pages,
                       std::uint64_t capacity_pages, std::uint64_t erases,
                       std::uint64_t pages_per_block);

/// `label` is the first index of the minimum of `totals`.
bool label_is_argmin(std::uint32_t label, std::span<const double> totals);

/// Two sweeps gave the same label and bit-identical per-strategy totals.
bool same_sweep(std::uint32_t label_a, std::span<const double> totals_a,
                std::uint32_t label_b, std::span<const double> totals_b);

/// Share of the most frequent label (0 for no labels).
double majority_share(std::span<const std::uint32_t> labels);

/// Accuracy of a trained model is at least the majority-label share.
bool accuracy_at_least_majority(double accuracy,
                                std::span<const std::uint32_t> labels);

}  // namespace perfbench
