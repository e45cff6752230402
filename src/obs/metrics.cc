#include "src/obs/metrics.h"

#include "src/support/check.h"

namespace polynima::obs {

namespace {

// Indexed by Counter. The "<subsystem>.<metric>" names are the stable wire
// format: the report schema, the CI validator and EXPERIMENTS.md baselines
// all key on them.
const char* const kCounterNames[] = {
    "lift.functions_lifted",
    "lift.functions_cached",
    "lift.bytes_decoded",
    "lift.ir_instrs",
    "fenceopt.fences_inserted",
    "fenceopt.fences_elided",
    "fenceopt.fences_retained",
    "fenceopt.witness_stack",
    "fenceopt.loops_analyzed",
    "fenceopt.loops_spinning",
    "check.accesses_checked",
    "check.obligations_discharged",
    "check.paths_explored",
    "check.witnesses_verified",
    "check.violations",
    "analyze.accesses_classified",
    "analyze.stack_local",
    "analyze.heap_local",
    "analyze.shared",
    "analyze.escaped_sites",
    "analyze.race_pairs",
    "analyze.fences_elided_static",
    "opt.functions_optimized",
    "opt.pass_iterations",
    "sched.schedules_run",
    "sched.decisions",
    "sched.preemptions",
    "sched.change_points",
    "exec.guest_instrs",
    "exec.atomics",
    "exec.fences",
    "exec.ext_calls",
    "exec.dispatches",
    "exec.faults",
    "exec.tier1_translations",
    "exec.tier1_instrs",
    "exec.tier2_translations",
    "exec.tier2_instrs",
    "exec.deopts",
    "exec.deopt_preempt",
    "exec.deopt_smc_write",
    "exec.deopt_uncovered",
    "exec.deopt_uncovered_certified",
    "vm.instrs",
    "vm.atomics",
    "vm.faults",
};
static_assert(sizeof(kCounterNames) / sizeof(kCounterNames[0]) ==
                  static_cast<size_t>(Counter::kNumCounters),
              "kCounterNames out of sync with the Counter enum");

const char* const kHistogramNames[] = {
    "lift.function_ns",
    "opt.function_ns",
    "analyze.function_ns",
};
static_assert(sizeof(kHistogramNames) / sizeof(kHistogramNames[0]) ==
                  static_cast<size_t>(Histogram::kNumHistograms),
              "kHistogramNames out of sync with the Histogram enum");

int BucketOf(uint64_t value) {
  int b = 0;
  while (value > 1 && b < 63) {
    value >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

const char* CounterName(Counter c) {
  POLY_CHECK_LT(static_cast<int>(c), static_cast<int>(Counter::kNumCounters));
  return kCounterNames[static_cast<int>(c)];
}

const char* HistogramName(Histogram h) {
  POLY_CHECK_LT(static_cast<int>(h),
                static_cast<int>(Histogram::kNumHistograms));
  return kHistogramNames[static_cast<int>(h)];
}

void MetricsRegistry::Add(Counter c, uint64_t n) {
  counters_[static_cast<int>(c)].fetch_add(n, std::memory_order_relaxed);
}

void MetricsRegistry::Observe(Histogram h, uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  Hist& hist = hists_[static_cast<int>(h)];
  ++hist.buckets[BucketOf(value)];
  ++hist.count;
  hist.sum += value;
  hist.min = std::min(hist.min, value);
  hist.max = std::max(hist.max, value);
}

void MetricsRegistry::SetGauge(const std::string& name, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

uint64_t MetricsRegistry::CounterValue(Counter c) const {
  return counters_[static_cast<int>(c)].load(std::memory_order_relaxed);
}

json::Value MetricsRegistry::ToJson() const {
  json::Object counters;
  for (int i = 0; i < static_cast<int>(Counter::kNumCounters); ++i) {
    counters[kCounterNames[i]] = counters_[i].load(std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  json::Object gauges;
  for (const auto& [name, value] : gauges_) {
    gauges[name] = value;
  }
  json::Object histograms;
  for (int i = 0; i < static_cast<int>(Histogram::kNumHistograms); ++i) {
    const Hist& h = hists_[i];
    if (h.count == 0) {
      continue;  // empty histograms are omitted, unlike counters
    }
    json::Object hist;
    hist["count"] = h.count;
    hist["sum"] = h.sum;
    hist["min"] = h.min;
    hist["max"] = h.max;
    int top = kHistogramBuckets;
    while (top > 1 && h.buckets[top - 1] == 0) {
      --top;
    }
    json::Array bucket_array;
    for (int b = 0; b < top; ++b) {
      bucket_array.push_back(h.buckets[b]);
    }
    hist["buckets"] = std::move(bucket_array);
    histograms[kHistogramNames[i]] = std::move(hist);
  }
  json::Object doc;
  doc["schema"] = "polynima-metrics/v1";
  doc["counters"] = std::move(counters);
  doc["gauges"] = std::move(gauges);
  doc["histograms"] = std::move(histograms);
  return doc;
}

Status MetricsRegistry::WriteTo(const std::string& path) const {
  return json::WriteFile(path, ToJson());
}

}  // namespace polynima::obs
