// Metrics registry (the second pillar of src/obs, DESIGN.md §4d).
//
// A small FIXED taxonomy of counters and histograms — one enum entry per
// metric, named "<subsystem>.<metric>" — plus free-form gauges for run
// configuration (jobs, seeds). The taxonomy is deliberately closed: a new
// metric is a code change, so dashboards and the report schema never chase
// dynamically invented names.
//
// Hot-path contract: Add() is one relaxed atomic increment; Observe() takes
// a mutex, which is cheap at the rate it is called (once per function by the
// lift, opt and analyze workers). Every call is a no-op branch when made
// through a null registry pointer — see the obs::Session helpers in
// report.h.
#ifndef POLYNIMA_OBS_METRICS_H_
#define POLYNIMA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "src/support/json.h"

namespace polynima::obs {

// Counter taxonomy. Keep in sync with kCounterNames in metrics.cc.
enum class Counter : int {
  // lift: the per-function lift phase.
  kLiftFunctionsLifted = 0,  // bodies lifted this run (cache misses included)
  kLiftFunctionsCached,      // bodies cloned from the additive cache
  kLiftBytesDecoded,         // guest code bytes decoded into IR
  kLiftIrInstrs,             // IR instructions emitted by the lifter
  // fenceopt: fence insertion/elision decisions and the spinloop analysis.
  // Invariant: fences_inserted == fences_elided + fences_retained (every
  // candidate site is decided exactly one way).
  kFenceoptFencesInserted,   // candidate fence sites considered by the lifter
  kFenceoptFencesElided,     // elided with a witness (stack-local)
  kFenceoptFencesRetained,   // actually emitted into the IR
  kFenceoptWitnessStack,     // witnesses of kind stack-local (all today)
  kFenceoptLoopsAnalyzed,    // natural loops classified by the §3.4 analysis
  kFenceoptLoopsSpinning,    // loops reported potentially-spinning
  // check: the static TSO-soundness checker.
  kCheckAccessesChecked,         // guest loads/stores examined
  kCheckObligationsDischarged,   // discharged by barrier, witness, or cert
  kCheckPathsExplored,           // block-level path scans performed
  kCheckWitnessesVerified,       // stack-local witnesses that re-derived
  kCheckViolations,              // unsatisfied obligations reported
  // analyze: the static concurrency analyzer (src/analyze).
  kAnalyzeAccessesClassified,   // guest accesses classified by region
  kAnalyzeStackLocal,           // classified emulated-stack-local
  kAnalyzeHeapLocal,            // classified thread-local heap
  kAnalyzeShared,               // classified potentially-shared
  kAnalyzeEscapedSites,         // allocation sites whose pointer escapes
  kAnalyzeRacePairs,            // potentially-racing pairs reported
  kAnalyzeFencesElidedStatic,   // fences removed under a StaticCert witness
  // opt: the per-function pass pipeline.
  kOptFunctionsOptimized,
  kOptPassIterations,        // pass-loop iterations actually run
  // sched: controlled schedule exploration.
  kSchedSchedulesRun,        // complete controlled runs performed
  kSchedDecisions,           // scheduler consultations across those runs
  kSchedPreemptions,         // decisions that switched away from a runnable
                             // current thread
  kSchedChangePoints,        // PCT priority change points placed
  // exec: the recompiled binary's runtime (exec::Engine).
  kExecGuestInstrs,          // IR instructions executed
  kExecAtomics,              // atomic RMW / cmpxchg operations executed
  kExecFences,               // fence instructions executed
  kExecExtCalls,             // external library calls
  kExecDispatches,           // dispatcher entries (callback-wrapper cost)
  kExecFaults,               // runtime faults (cfmiss included)
  kExecTier1Translations,    // functions translated to tier-1 bytecode
  kExecTier1Instrs,          // guest instructions executed in tier 1
  kExecTier2Translations,    // functions re-emitted as tier-2 native code
  kExecTier2Instrs,          // guest instructions executed in tier 2
  kExecDeopts,               // translated -> tier-0 transfers (all reasons)
  kExecDeoptPreempt,         //   at scheduler preemption boundaries
  kExecDeoptSmcWrite,        //   at self-modifying-code store guards
  kExecDeoptUncovered,       //   at uncovered CFG edges
  kExecDeoptUncoveredCert,   //   subset of the above that fired inside a
                             //   CfgCert-covered function (must stay zero —
                             //   `report --validate` cross-checks it)
  // vm: the original binary's interpreter (vm::Vm).
  kVmInstrs,
  kVmAtomics,                // lock-prefixed instructions executed
  kVmFaults,
  kNumCounters,
};

// Histogram taxonomy (power-of-two bucketed). Keep in sync with
// kHistogramNames in metrics.cc.
enum class Histogram : int {
  kLiftFunctionNs = 0,    // wall time to lift one function body
  kOptFunctionNs,         // wall time to optimize one function
  kAnalyzeFunctionNs,     // wall time for one function's escape analysis
  kNumHistograms,
};

const char* CounterName(Counter c);
const char* HistogramName(Histogram h);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void Add(Counter c, uint64_t n = 1);
  void Observe(Histogram h, uint64_t value);

  // Gauges are set rarely (run configuration).
  void SetGauge(const std::string& name, int64_t value);

  // Current total (scrape after parallel phases join for exact totals).
  uint64_t CounterValue(Counter c) const;

  // {"schema": "polynima-metrics/v1", "counters": {...}, "gauges": {...},
  //  "histograms": {name: {count, min, max, sum, buckets: [...]}}}.
  // Zero-valued counters are included so consumers see the full taxonomy.
  json::Value ToJson() const;
  Status WriteTo(const std::string& path) const;

 private:
  static constexpr int kHistogramBuckets = 64;  // bucket i: [2^i, 2^(i+1))

  struct Hist {
    uint64_t buckets[kHistogramBuckets] = {};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = ~0ull;
    uint64_t max = 0;
  };

  std::atomic<uint64_t> counters_[static_cast<int>(Counter::kNumCounters)] =
      {};
  mutable std::mutex mu_;  // guards hists_ and gauges_
  Hist hists_[static_cast<int>(Histogram::kNumHistograms)];
  std::map<std::string, int64_t> gauges_;
};

}  // namespace polynima::obs

#endif  // POLYNIMA_OBS_METRICS_H_
