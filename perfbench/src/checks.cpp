#include "checks.hpp"

#include <algorithm>

namespace perfbench {

bool Checker::expect(bool ok, const std::string& what) {
  ++checks_run_;
  if (!ok) failures_.push_back(what);
  return ok;
}

bool same_records(std::span<const ssdk::trace::TraceRecord> generated,
                  std::span<const ssdk::trace::TraceRecord> parsed) {
  if (generated.size() != parsed.size()) return false;
  for (std::size_t i = 0; i < generated.size(); ++i) {
    const auto& a = generated[i];
    const auto& b = parsed[i];
    if (a.arrival != b.arrival || a.type != b.type || a.lpn != b.lpn ||
        a.pages != b.pages) {
      return false;
    }
  }
  return true;
}

bool same_counts(const std::map<std::uint32_t, RwCount>& expected,
                 const std::map<std::uint32_t, RwCount>& completed) {
  const auto lookup = [](const std::map<std::uint32_t, RwCount>& m,
                         std::uint32_t key) {
    const auto it = m.find(key);
    return it == m.end() ? RwCount{} : it->second;
  };
  for (const auto& [tenant, count] : expected) {
    if (lookup(completed, tenant) != count) return false;
  }
  for (const auto& [tenant, count] : completed) {
    if (lookup(expected, tenant) != count) return false;
  }
  return true;
}

bool mean_at_least(double mean_us, std::uint64_t count, double floor_us) {
  return count == 0 || mean_us >= floor_us;
}

bool busy_within(std::int64_t busy_ns, std::uint64_t units,
                 std::int64_t makespan_ns) {
  return busy_ns >= 0 && makespan_ns >= 0 &&
         static_cast<std::uint64_t>(busy_ns) <=
             units * static_cast<std::uint64_t>(makespan_ns);
}

bool programmed_within(std::uint64_t host_pages, std::uint64_t gc_pages,
                       std::uint64_t capacity_pages, std::uint64_t erases,
                       std::uint64_t pages_per_block) {
  return host_pages + gc_pages <= capacity_pages + erases * pages_per_block;
}

bool label_is_argmin(std::uint32_t label, std::span<const double> totals) {
  if (totals.empty()) return false;
  const auto best = static_cast<std::uint32_t>(
      std::min_element(totals.begin(), totals.end()) - totals.begin());
  return label == best;
}

bool same_sweep(std::uint32_t label_a, std::span<const double> totals_a,
                std::uint32_t label_b, std::span<const double> totals_b) {
  return label_a == label_b &&
         std::equal(totals_a.begin(), totals_a.end(), totals_b.begin(),
                    totals_b.end());
}

double majority_share(std::span<const std::uint32_t> labels) {
  if (labels.empty()) return 0.0;
  std::map<std::uint32_t, std::size_t> freq;
  std::size_t top = 0;
  for (const auto label : labels) top = std::max(top, ++freq[label]);
  return static_cast<double>(top) / static_cast<double>(labels.size());
}

bool accuracy_at_least_majority(double accuracy,
                                std::span<const std::uint32_t> labels) {
  return !labels.empty() && accuracy >= majority_share(labels);
}

}  // namespace perfbench
