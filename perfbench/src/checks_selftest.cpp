// Self-test of the benchmark's correctness checks: every check must pass
// on a consistent input and fail on a deliberately wrong one (a latency
// below the bound, a count off by one, a changed record, ...). A check
// that cannot fail would prove nothing. Exits 1 if any check misbehaves.
#include <cstdio>
#include <vector>

#include "checks.hpp"

namespace {

using namespace perfbench;
using ssdk::trace::TraceRecord;

int failures = 0;

void expect_pair(const char* name, bool good, bool bad) {
  const bool ok = good && !bad;
  std::printf("%-28s good input %s, wrong input %s -> %s\n", name,
              good ? "passes" : "FAILS", bad ? "PASSES" : "fails",
              ok ? "ok" : "BROKEN");
  if (!ok) ++failures;
}

}  // namespace

int main() {
  using ssdk::sim::OpType;
  const std::vector<TraceRecord> records = {
      {0, OpType::kRead, 10, 2}, {500, OpType::kWrite, 40, 4}};
  auto shifted = records;
  shifted[1].arrival += 100;  // one MSR tick late
  auto retyped = records;
  retyped[0].type = OpType::kWrite;
  auto truncated = records;
  truncated.pop_back();
  expect_pair("same_records/arrival", same_records(records, records),
              same_records(records, shifted));
  expect_pair("same_records/type", same_records(records, records),
              same_records(records, retyped));
  expect_pair("same_records/length", same_records(records, records),
              same_records(records, truncated));

  const std::map<std::uint32_t, RwCount> counts = {{0, {100, 50}},
                                                    {1, {7, 0}}};
  auto off_by_one = counts;
  ++off_by_one[1].writes;
  auto extra_tenant = counts;
  extra_tenant[2] = {1, 0};
  expect_pair("same_counts/off_by_one", same_counts(counts, counts),
              same_counts(counts, off_by_one));
  expect_pair("same_counts/extra_tenant", same_counts(counts, counts),
              same_counts(counts, extra_tenant));

  // Unloaded read service: 20 us array read + 41.16 us transfer.
  expect_pair("mean_at_least", mean_at_least(61.16, 10, 61.16),
              mean_at_least(61.15, 10, 61.16));

  expect_pair("busy_within", busy_within(8'000, 8, 1'000),
              busy_within(8'001, 8, 1'000));

  // 1024 pages, 64 per block: 3 erases free 192 more.
  expect_pair("programmed_within",
              programmed_within(1000, 216, 1024, 3, 64),
              programmed_within(1000, 217, 1024, 3, 64));

  const std::vector<double> totals = {310.0, 250.5, 250.5, 400.0};
  expect_pair("label_is_argmin/not_min", label_is_argmin(1, totals),
              label_is_argmin(3, totals));
  expect_pair("label_is_argmin/tie", label_is_argmin(1, totals),
              label_is_argmin(2, totals));

  auto nudged = totals;
  nudged[3] += 1e-9;
  expect_pair("same_sweep/totals", same_sweep(1, totals, 1, totals),
              same_sweep(1, totals, 1, nudged));
  expect_pair("same_sweep/label", same_sweep(1, totals, 1, totals),
              same_sweep(1, totals, 2, totals));

  const std::vector<std::uint32_t> labels = {3, 3, 3, 5, 7};  // share 0.6
  expect_pair("accuracy_at_least_majority",
              accuracy_at_least_majority(0.6, labels),
              accuracy_at_least_majority(0.59, labels));

  Checker checker;
  checker.expect(true, "holds");
  const bool clean = checker.ok();
  checker.expect(false, "deliberately false");
  expect_pair("Checker", clean, checker.ok());

  std::printf("%s\n", failures == 0 ? "all checks can fail"
                                    : "some checks cannot fail");
  return failures == 0 ? 0 : 1;
}
