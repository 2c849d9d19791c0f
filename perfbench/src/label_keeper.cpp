// label_keeper: the paper's own pipeline. Synthesize four-tenant mixes,
// label each with the shared-prefix fork sweep over all 42 channel
// allocations (Algorithm 1, fork point 0.7, one thread), train the MLP on
// the labels, then replay the four Table-IV catalog mixes under the online
// keeper (Algorithm 2) with the trained model. Thousands of short device
// lifetimes: fork/snapshot, labelling and summarizing dominate, the
// network trains and infers, and GC hardly runs.
//
// The catalog mixes come from --seed. The labelled mixes come from the
// dataset generator's default seed: a model trained on 40 mixes picks a
// different partition for the same catalog mix from one training set to
// the next (sometimes one that starves a read-heavy tenant), so with
// seeded training sets the simulated latencies and the peak memory would
// track the model more than the code.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/allocator.hpp"
#include "core/keeper.hpp"
#include "core/label_gen.hpp"
#include "core/learner.hpp"
#include "core/runner.hpp"
#include "layers.hpp"
#include "pipeline.hpp"
#include "snapshot/archive.hpp"
#include "telemetry/rollup.hpp"
#include "telemetry/tracer.hpp"
#include "trace/catalog.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace ssdk;

// The labelled mixes are stratified by intensity level: the first
// kMixesPerLevel synthesized mixes (in index order) of each of the feature
// collector's levels, scanning at most kMaxMixIndex indices, so the
// training set covers the feature space evenly.
constexpr std::size_t kMixesPerLevel = 2;
constexpr std::uint64_t kMaxMixIndex = 2000;
constexpr double kCatalogSeconds = 2.0;       // arrivals per catalog mix
constexpr std::size_t kColdSubsetUntraced = 1;  // cold == fork, every run
constexpr std::size_t kColdSubsetTraced = 4;    // ... and in the traced run

struct Inputs {
  core::DatasetGenConfig dataset;
  core::LabelGenConfig label;
  std::vector<std::vector<sim::IoRequest>> mixes;
  std::vector<std::vector<sim::IoRequest>> catalog;
};

Inputs build_inputs(const Options& options, Spans& spans) {
  Inputs in;  // in.dataset.seed keeps its default: see the file comment
  in.dataset.workload_duration_s = 0.25;
  in.label = in.dataset.label;
  in.label.fork_point = 0.7;
  in.label.shared_prefix_fork = true;
  spans.time("core.synthesize_mix", [&] {
    const std::uint32_t levels = in.label.features.intensity_levels;
    std::vector<std::size_t> per_level(levels, 0);
    std::size_t wanted = levels * kMixesPerLevel;
    for (std::uint64_t i = 0; i < kMaxMixIndex && wanted > 0; ++i) {
      auto mix = core::synthesize_mix(in.dataset, i);
      const auto level =
          core::features_of(mix, in.label.features).intensity_level;
      if (per_level[level] == kMixesPerLevel) continue;
      ++per_level[level];
      --wanted;
      in.mixes.push_back(std::move(mix));
    }
  });
  spans.time("trace.build_mix", [&] {
    for (std::uint32_t m = 1; m <= 4; ++m) {
      in.catalog.push_back(
          trace::build_mix(m, kCatalogSeconds, 0, options.seed));
    }
  });
  return in;
}

/// One labelled mix swept by hand: the same calls label_workload makes on
/// its shared-prefix path, with a span around each.
struct HandSweep {
  core::LabeledSample sample;
  std::uint64_t page_ops = 0;
  std::uint64_t gc_migrations = 0;
  std::uint64_t erases = 0;
  SimTime makespan = 0;  ///< latest fork clock
};

HandSweep sweep_by_hand(const std::vector<sim::IoRequest>& mix,
                        const core::StrategySpace& space,
                        const core::LabelGenConfig& config, Spans& spans,
                        Checker* checks, std::size_t* state_bytes) {
  HandSweep out;
  out.sample.features = core::features_of(mix, config.features);
  const auto profiles = out.sample.features.profiles(space.tenants());
  const auto switch_at = static_cast<std::uint64_t>(
      config.fork_point * static_cast<double>(mix.size()));
  auto prefix = spans.time("core.prefix", [&] {
    auto device = core::make_run_device(mix, config.base_strategy, profiles,
                                        config.run);
    device->run_until_arrival(switch_at);
    return device;
  });
  if (state_bytes != nullptr) {
    snapshot::StateWriter writer;
    prefix->save_state(writer);
    *state_bytes = writer.size();
  }
  const sim::DeviceCounters base = prefix->metrics().counters();
  out.page_ops = base.page_ops;
  out.gc_migrations = base.gc_migrations;
  out.erases = base.erases;
  const auto expected = request_counts(mix);
  const std::uint64_t host_pages = write_pages(mix);
  for (std::size_t i = 0; i < space.size(); ++i) {
    auto device = spans.time("snapshot.fork", [&] { return prefix->fork(); });
    core::configure_ssd(*device, space.at(i), profiles,
                        config.run.hybrid_page_allocation);
    spans.time("core.suffix", [&] { device->run_to_completion(); });
    out.sample.strategy_total_us.push_back(spans.time(
        "core.summarize", [&] { return core::summarize_total_us(*device); }));
    const auto& c = device->metrics().counters();
    out.page_ops += c.page_ops - base.page_ops;
    out.gc_migrations += c.gc_migrations - base.gc_migrations;
    out.erases += c.erases - base.erases;
    out.makespan = std::max(out.makespan, device->now());
    if (checks != nullptr) {
      const std::string what =
          "label_keeper fork " + space.at(i).name();
      const auto run = core::summarize(*device);
      checks->expect(same_counts(expected, completed_counts(run)),
                     what + ": completed reads/writes per tenant equal the "
                            "mix's counts");
      check_latency_floors(*checks, run, device->options(), what);
      check_device_budget(*checks, *device, host_pages, what);
    }
  }
  const auto& totals = out.sample.strategy_total_us;
  out.sample.label = static_cast<std::uint32_t>(
      std::min_element(totals.begin(), totals.end()) - totals.begin());
  return out;
}

struct Pass {
  std::vector<core::LabeledSample> samples;
  std::unique_ptr<core::LearnedModel> model;
  std::vector<core::KeeperRunResult> keeper;
  double seconds = 0.0;
};

nn::Dataset dataset_of(const std::vector<core::LabeledSample>& samples) {
  nn::Dataset data;
  for (const auto& s : samples) data.add(s.features.to_vector(), s.label);
  return data;
}

/// One pipeline pass through the program's public API.
Pass pipeline(const Inputs& in, const core::StrategySpace& space,
              telemetry::Tracer* tracer, Spans& spans) {
  Pass pass;
  const auto start = Clock::now();
  spans.time("core.label", [&] {
    for (const auto& mix : in.mixes) {
      pass.samples.push_back(core::label_workload(mix, space, in.label));
    }
  });
  pass.model = spans.time("nn.train", [&] {
    return std::make_unique<core::LearnedModel>(core::train_strategy_learner(
        dataset_of(pass.samples), space, core::LearnerConfig{}));
  });
  spans.time("core.keeper_run", [&] {
    for (const auto& mix : in.catalog) {
      pass.keeper.push_back(core::run_with_keeper(
          mix, pass.model->allocator, core::KeeperConfig{},
          in.label.run.ssd, tracer));
    }
  });
  pass.seconds = seconds_between(start, Clock::now());
  return pass;
}

/// Indices of the samples train_strategy_learner trains on: the same
/// shuffle and 7:3 split, applied by nn::Dataset to a dataset whose label
/// is the sample index.
std::vector<std::size_t> training_split(std::size_t samples,
                                        const core::LearnerConfig& config) {
  nn::Dataset indices;
  for (std::size_t i = 0; i < samples; ++i) {
    indices.add(std::vector<double>(core::kFeatureDim, 0.0),
                static_cast<std::uint32_t>(i));
  }
  Rng rng(config.seed);
  indices.shuffle(rng);
  const auto labels = indices.split(config.train_fraction).first.labels();
  return {labels.begin(), labels.end()};
}

/// Accuracy of the trained allocator on its training split, and the
/// labels of that split.
std::pair<double, std::vector<std::uint32_t>> training_accuracy(
    const core::ChannelAllocator& allocator,
    const std::vector<core::LabeledSample>& samples) {
  std::vector<std::uint32_t> labels;
  std::size_t hits = 0;
  for (const std::size_t i :
       training_split(samples.size(), core::LearnerConfig{})) {
    labels.push_back(samples[i].label);
    hits += allocator.predict_index(samples[i].features) == samples[i].label;
  }
  return {static_cast<double>(hits) / static_cast<double>(labels.size()),
          labels};
}

void check_pass(const Pass& pass, const Inputs& in,
                const std::vector<HandSweep>& by_hand, std::size_t cold_subset,
                const core::StrategySpace& space, Checker& checks) {
  for (std::size_t i = 0; i < pass.samples.size(); ++i) {
    const auto& s = pass.samples[i];
    const std::string what = "label_keeper mix " + std::to_string(i);
    checks.expect(label_is_argmin(s.label, s.strategy_total_us),
                  what + ": label is the argmin of its per-strategy totals");
    checks.expect(same_sweep(s.label, s.strategy_total_us,
                             by_hand[i].sample.label,
                             by_hand[i].sample.strategy_total_us),
                  what + ": label_workload equals the sweep driven by hand");
  }
  core::LabelGenConfig cold = in.label;
  cold.shared_prefix_fork = false;
  for (std::size_t i = 0; i < cold_subset && i < in.mixes.size(); ++i) {
    const auto c = core::label_workload(in.mixes[i], space, cold);
    checks.expect(same_sweep(c.label, c.strategy_total_us,
                             pass.samples[i].label,
                             pass.samples[i].strategy_total_us),
                  "label_keeper mix " + std::to_string(i) +
                      ": fork-sweep label and totals equal the cold sweep's");
  }
  const auto [accuracy, train_labels] =
      training_accuracy(pass.model->allocator, pass.samples);
  checks.expect(accuracy_at_least_majority(accuracy, train_labels),
                "label_keeper: training accuracy >= the majority-label "
                "share of the training split");
  for (std::size_t m = 0; m < pass.keeper.size(); ++m) {
    const auto& run = pass.keeper[m].run;
    const std::string what = "label_keeper catalog Mix" + std::to_string(m + 1);
    checks.expect(!run.device_full, what + ": replay ran to its end");
    checks.expect(same_counts(request_counts(in.catalog[m]),
                              completed_counts(run)),
                  what + ": completed reads/writes per tenant equal the "
                         "mix's counts");
    check_latency_floors(checks, run, in.label.run.ssd, what);
  }
}

}  // namespace

Outcome run_label_keeper(const Options& options) {
  Outcome out;
  Spans spans(options.trace);
  LayerMetrics lm;
  const auto space = core::StrategySpace::for_tenants(4);
  const Inputs in = build_inputs(options, spans);
  const double setup_s = seconds_between(options.process_start, Clock::now());
  std::printf("label_keeper: %zu mixes, %zu catalog mixes, set-up %.3f s\n",
              in.mixes.size(), in.catalog.size(), setup_s);

  // Warm-up, untimed: every mix swept by hand (page-op count, reference
  // labels; the first mix's 42 devices are checked in full), then one
  // pipeline pass.
  Spans off(false);
  std::vector<HandSweep> by_hand;
  std::uint64_t sweep_page_ops = 0;
  std::uint64_t sweep_gc = 0;
  std::uint64_t sweep_erases = 0;
  SimTime sweep_makespan = 0;
  for (std::size_t i = 0; i < in.mixes.size(); ++i) {
    by_hand.push_back(sweep_by_hand(in.mixes[i], space, in.label, off,
                                    i == 0 ? &out.checks : nullptr, nullptr));
    sweep_page_ops += by_hand.back().page_ops;
    sweep_gc += by_hand.back().gc_migrations;
    sweep_erases += by_hand.back().erases;
    sweep_makespan = std::max(sweep_makespan, by_hand.back().makespan);
  }
  const Pass warm = pipeline(in, space, nullptr, off);
  std::uint64_t keeper_page_ops = 0;
  PooledLatency lat;
  for (std::size_t m = 0; m < warm.keeper.size(); ++m) {
    const auto& k = warm.keeper[m];
    keeper_page_ops += k.run.counters.page_ops;
    lat.add(k.run);
    std::printf("label_keeper: Mix%zu keeper chose %s, total %.1f us\n",
                m + 1, k.strategy.name().c_str(), k.run.total_us);
  }
  const std::uint64_t ops_per_pass = in.mixes.size() + 1 + in.catalog.size();
  const double rss_mb = peak_rss_mb();

  if (!options.trace) {
    std::unique_ptr<Pass> first;
    const auto times = measure_passes(options.seconds, 3, [&] {
      Pass p = pipeline(in, space, nullptr, off);
      const double seconds = p.seconds;
      if (!first) first = std::make_unique<Pass>(std::move(p));
      return seconds;
    });
    check_pass(*first, in, by_hand, kColdSubsetUntraced, space, out.checks);
    print_passes("label_keeper", times);
    const double run_s = lower_quartile(times);
    out.attempted = times.size() * ops_per_pass;
    const std::uint64_t page_ops = sweep_page_ops + keeper_page_ops;
    add_end_to_end(out, setup_s, run_s, static_cast<double>(page_ops),
                   rss_mb, lat);
    std::printf("label_keeper: %zu passes, lower quartile %.4f s, "
                "%llu page ops\n",
                times.size(), run_s,
                static_cast<unsigned long long>(page_ops));
    return out;
  }

  // Traced run: an untraced pass as the base, a pass with spans and a
  // lifecycle tracer on the keeper replays, then the by-hand sweep of a
  // subset with spans around prefix, fork, suffix and summarize, and the
  // cold sweep of the same subset as the base of the fork speed-up.
  const double untraced_s = pipeline(in, space, nullptr, off).seconds;
  telemetry::Tracer tracer;
  const Pass traced = pipeline(in, space, &tracer, spans);
  check_pass(traced, in, by_hand, kColdSubsetTraced, space, out.checks);
  out.attempted = ops_per_pass;

  std::size_t state_bytes = 0;
  for (std::size_t i = 0; i < kColdSubsetTraced; ++i) {
    spans.time("core.sweep_by_hand", [&] {
      sweep_by_hand(in.mixes[i], space, in.label, spans, nullptr,
                    i == 0 ? &state_bytes : nullptr);
    });
  }
  const auto label_subset = [&](bool fork) {
    core::LabelGenConfig config = in.label;
    config.shared_prefix_fork = fork;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kColdSubsetTraced; ++i) {
      core::label_workload(in.mixes[i], space, config);
    }
    return seconds_between(start, Clock::now());
  };
  const double fork_s = spans.time("core.fork_label", [&] {
    return label_subset(true);
  });
  const double cold_s = spans.time("core.cold_label", [&] {
    return label_subset(false);
  });

  // Device construction, once per strategy (what a cold sweep pays).
  for (std::size_t i = 0; i < space.size(); ++i) {
    spans.time("ssd.construct",
               [&] { return std::make_unique<ssd::Ssd>(in.label.run.ssd); });
  }

  // Inference latency of the trained allocator, one sample at a time.
  constexpr int kInferRounds = 200;
  const auto infer_start = Clock::now();
  std::uint64_t sink = 0;
  spans.time("nn.infer", [&] {
    for (int r = 0; r < kInferRounds; ++r) {
      for (const auto& s : traced.samples) {
        sink += traced.model->allocator.predict_index(s.features);
      }
    }
  });
  const double infer_us = seconds_between(infer_start, Clock::now()) * 1e6 /
                          (kInferRounds * traced.samples.size());
  (void)sink;

  spans.time("telemetry.rollup", [&] {
    return telemetry::build_rollup(tracer.events(), telemetry::RollupConfig{});
  });

  double keeper_total = 0.0;
  double shared_total = 0.0;
  std::size_t decisions = 0;
  sim::DeviceCounters waits;
  std::uint64_t requests = 0;
  for (const auto& mix : in.mixes) requests += mix.size();
  for (std::size_t m = 0; m < in.catalog.size(); ++m) {
    keeper_total += traced.keeper[m].run.total_us;
    decisions += traced.keeper[m].decisions.size();
    const auto& c = traced.keeper[m].run.counters;
    requests += in.catalog[m].size();
    waits.conflicts += c.conflicts;
    waits.read_wait_ns += c.read_wait_ns;
    waits.write_wait_ns += c.write_wait_ns;
    waits.read_ops_started += c.read_ops_started;
    waits.write_ops_started += c.write_ops_started;
    const auto profiles =
        core::features_of(in.catalog[m]).profiles(space.tenants());
    core::RunConfig shared;
    shared.ssd = in.label.run.ssd;
    shared_total += spans.time("core.shared_run", [&] {
      return core::run_with_strategy(in.catalog[m], core::Strategy{},
                                     profiles, shared);
    }).total_us;
  }
  const double n_catalog = static_cast<double>(in.catalog.size());

  lm.set("trace.synth_s", spans.total("trace.build_mix"));
  lm.set("ssd.requests", static_cast<double>(requests));
  lm.set("ssd.conflicts", static_cast<double>(waits.conflicts));
  lm.set("sim.makespan_s", static_cast<double>(sweep_makespan) / 1e9);
  lm.set("ssd.read_wait_us", waits.avg_read_wait_us());
  lm.set("ssd.write_wait_us", waits.avg_write_wait_us());
  lm.set("telemetry.rollup_s", spans.total("telemetry.rollup"));
  lm.set("core.prefix_s", spans.total("core.prefix"));
  lm.set("snapshot.fork_s", spans.total("snapshot.fork"));
  lm.set("snapshot.forks",
         static_cast<double>(kColdSubsetTraced * space.size()));
  lm.set("core.suffix_s", spans.total("core.suffix"));
  lm.set("core.label_s", fork_s);
  lm.set("core.labels_per_s", kColdSubsetTraced / fork_s);
  lm.set("snapshot.state_bytes", static_cast<double>(state_bytes));
  lm.set("core.cold_label_s", cold_s);
  lm.set("nn.train_s", spans.last("nn.train"));
  lm.set("nn.samples", static_cast<double>(traced.samples.size()));
  lm.set("nn.train_accuracy",
         training_accuracy(traced.model->allocator, traced.samples).first);
  lm.set("nn.infer_us", infer_us);
  lm.set("core.keeper_run_s", spans.last("core.keeper_run"));
  lm.set("core.keeper_decisions", static_cast<double>(decisions));
  lm.set("core.keeper_total_us", keeper_total / n_catalog);
  lm.set("core.shared_total_us", shared_total / n_catalog);
  lm.set("ssd.page_ops", static_cast<double>(sweep_page_ops + keeper_page_ops));
  lm.set("ssd.construct_s", spans.total("ssd.construct"));
  lm.set("ftl.gc_migrations", static_cast<double>(sweep_gc));
  lm.set("ftl.erases", static_cast<double>(sweep_erases));
  lm.set("telemetry.events_recorded", static_cast<double>(tracer.recorded()));
  lm.set("telemetry.events_dropped", static_cast<double>(tracer.dropped()));
  lm.set("telemetry.traced_run_s", traced.seconds);
  lm.set_span_summary(spans, untraced_s, traced.seconds);
  spans.write_chrome_json(options.out_dir + "/label_keeper.spans.json");
  lm.emit(out);
  return out;
}

}  // namespace perfbench
