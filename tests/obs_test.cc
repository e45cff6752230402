// End-to-end tests for the observability layer (src/obs, DESIGN.md §4d):
// one fully instrumented recompile+run of a multithreaded binary must yield
// a trace spanning the whole pipeline, a metrics dump whose counters satisfy
// the cross-subsystem invariants, a guest profile attributing the atomic
// traffic, and a run report that passes the same structural validation
// `polynima report --validate` applies in CI.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/cc/compiler.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/report.h"
#include "src/obs/trace.h"
#include "src/recomp/recompiler.h"

namespace polynima::obs {
namespace {

// Four threads hammering one shared atomic counter: the lifter sees both
// stack-local traffic (elidable fences) and a genuine lock-prefixed RMW
// (retained), and the profile sees atomic executions concentrated in the
// worker's loop block.
const char* kAtomicCounter = R"(
extern void print_i64(long v);
extern int pthread_create(long* tid, long attr, long (*fn)(long), long arg);
extern int pthread_join(long tid, long* ret);

long counter = 0;

long worker(long arg) {
  for (int i = 0; i < 200; i++) __atomic_fetch_add(&counter, 1, 5);
  return arg;
}

int main() {
  long tids[4];
  for (int i = 0; i < 4; i++) pthread_create(&tids[i], 0, worker, i);
  for (int i = 0; i < 4; i++) pthread_join(tids[i], 0);
  print_i64(counter);
  return 0;
}
)";

// Distinct "cat" values over the complete ("ph":"X") events of a trace doc.
std::set<std::string> SpanCategories(const json::Value& trace_doc) {
  std::set<std::string> categories;
  for (const json::Value& e : trace_doc.Find("traceEvents")->as_array()) {
    const json::Value* ph = e.Find("ph");
    if (ph != nullptr && ph->as_string() == "X") {
      categories.insert(e.Find("cat")->as_string());
    }
  }
  return categories;
}

// One instrumented recompile+run shared by the assertions below.
class ObsEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cc::CompileOptions compile_options;
    compile_options.name = "obs_test";
    compile_options.opt_level = 0;
    auto image = cc::Compile(kAtomicCounter, compile_options);
    ASSERT_TRUE(image.ok()) << image.status().ToString();

    trace_ = new TraceSink;
    metrics_ = new MetricsRegistry;
    profile_ = new GuestProfile;
    Session session;
    session.trace = trace_;
    session.metrics = metrics_;
    session.profile = profile_;

    recomp::RecompileOptions options;
    options.jobs = 2;
    options.check_tso = true;
    options.obs = session;
    recomp::Recompiler recompiler(*image, options);
    auto binary = recompiler.Recompile();
    ASSERT_TRUE(binary.ok()) << binary.status().ToString();

    exec::ExecOptions exec_options;
    exec_options.obs = session;
    exec::ExecResult result = binary->Run({}, exec_options);
    ASSERT_TRUE(result.ok) << result.fault_message;
    ASSERT_EQ(result.output, "800");
  }

  static void TearDownTestSuite() {
    delete profile_;
    delete metrics_;
    delete trace_;
    profile_ = nullptr;
    metrics_ = nullptr;
    trace_ = nullptr;
  }

  static uint64_t Count(Counter c) { return metrics_->CounterValue(c); }

  static TraceSink* trace_;
  static MetricsRegistry* metrics_;
  static GuestProfile* profile_;
};

TraceSink* ObsEndToEnd::trace_ = nullptr;
MetricsRegistry* ObsEndToEnd::metrics_ = nullptr;
GuestProfile* ObsEndToEnd::profile_ = nullptr;

TEST_F(ObsEndToEnd, TraceCoversThePipeline) {
  ASSERT_GT(trace_->event_count(), 0u);
  json::Value doc = trace_->ToJson();
  EXPECT_TRUE(ValidateTraceJson(doc).ok());

  // The acceptance bar: at least six distinct span categories from one
  // instrumented run. A recompile+run crosses cfg, lift, opt, verify,
  // check, recomp, emit and exec.
  std::set<std::string> categories = SpanCategories(doc);
  EXPECT_GE(categories.size(), 6u);
  for (const char* expected :
       {"cfg", "lift", "opt", "verify", "check", "recomp", "emit", "exec"}) {
    EXPECT_EQ(categories.count(expected), 1u) << "missing span: " << expected;
  }

  // Worker lanes are labelled: every lane that carries a span must have a
  // thread_name metadata record.
  std::set<int64_t> span_lanes;
  std::set<int64_t> named_lanes;
  for (const json::Value& e : doc.Find("traceEvents")->as_array()) {
    int64_t tid = e.Find("tid")->as_int();
    if (e.Find("ph")->as_string() == "X") {
      span_lanes.insert(tid);
    } else if (e.Find("name")->as_string() == "thread_name") {
      named_lanes.insert(tid);
    }
  }
  EXPECT_EQ(span_lanes, named_lanes);
}

TEST_F(ObsEndToEnd, MetricsSatisfyCrossSubsystemInvariants) {
  // Every fence candidate site is decided exactly one way.
  EXPECT_EQ(Count(Counter::kFenceoptFencesInserted),
            Count(Counter::kFenceoptFencesElided) +
                Count(Counter::kFenceoptFencesRetained));
  EXPECT_GT(Count(Counter::kFenceoptFencesInserted), 0u);
  // An atomic-RMW program must retain at least one fence/atomic site.
  EXPECT_GT(Count(Counter::kFenceoptFencesRetained), 0u);

  // Cold cache: every lifted function passes the optimizer exactly once.
  EXPECT_GT(Count(Counter::kLiftFunctionsLifted), 0u);
  EXPECT_EQ(Count(Counter::kOptFunctionsOptimized),
            Count(Counter::kLiftFunctionsLifted));
  EXPECT_EQ(Count(Counter::kLiftFunctionsCached), 0u);
  EXPECT_GT(Count(Counter::kLiftBytesDecoded), 0u);
  EXPECT_GT(Count(Counter::kLiftIrInstrs), 0u);

  // The TSO checker discharged every obligation (the recompile would have
  // aborted otherwise).
  EXPECT_GT(Count(Counter::kCheckAccessesChecked), 0u);
  EXPECT_EQ(Count(Counter::kCheckObligationsDischarged),
            Count(Counter::kCheckAccessesChecked));
  EXPECT_EQ(Count(Counter::kCheckViolations), 0u);

  // The run: 4 threads x 200 atomic increments.
  EXPECT_GT(Count(Counter::kExecGuestInstrs), 0u);
  EXPECT_GE(Count(Counter::kExecAtomics), 800u);

  EXPECT_TRUE(ValidateMetricsJson(metrics_->ToJson()).ok());
}

TEST_F(ObsEndToEnd, ProfileAttributesTheAtomicTraffic) {
  ASSERT_FALSE(profile_->sites().empty());
  uint64_t entries = 0;
  uint64_t atomics = 0;
  uint64_t instrs = 0;
  for (const GuestProfile::Site& site : profile_->sites()) {
    EXPECT_FALSE(site.function.empty());
    entries += site.entries;
    atomics += site.atomics;
    instrs += site.instrs;
  }
  EXPECT_GT(entries, 0u);
  EXPECT_GT(instrs, 0u);
  // The per-site attribution must account for every executed atomic.
  EXPECT_EQ(atomics, Count(Counter::kExecAtomics));
  EXPECT_TRUE(ValidateProfileJson(profile_->ToJson()).ok());
}

TEST_F(ObsEndToEnd, RunReportValidatesAndRenders) {
  RunInfo info;
  info.command = "recompile";
  info.input = "obs_test.plyb";
  info.artifacts = {{"trace", "t.json"}, {"metrics", "m.json"}};
  Session session;
  session.trace = trace_;
  session.metrics = metrics_;
  session.profile = profile_;
  json::Value report = BuildRunReport(info, session);

  EXPECT_TRUE(ValidateReportJson(report).ok());
  auto kind = ValidateObsJson(report);
  ASSERT_TRUE(kind.ok()) << kind.status().ToString();
  EXPECT_EQ(*kind, "report");

  // The renderers are what `polynima report` prints; they must survive a
  // real document and mention the data they summarize.
  std::string rendered = RenderReport(report, /*top_n=*/5);
  EXPECT_NE(rendered.find("fenceopt.fences_inserted"), std::string::npos);
  EXPECT_NE(rendered.find("lift"), std::string::npos);
  EXPECT_NE(RenderMetrics(metrics_->ToJson()).find("check.accesses_checked"),
            std::string::npos);
  EXPECT_NE(RenderTraceSummary(trace_->ToJson()).find("spans"),
            std::string::npos);
  EXPECT_FALSE(RenderProfile(profile_->ToJson(), 5).empty());
}

TEST_F(ObsEndToEnd, ValidatorsRejectMalformedAndEmptyDocuments) {
  // An empty trace is a red flag, not a pass: CI must not accept a run whose
  // instrumentation silently recorded nothing.
  json::Value empty_trace = trace_->ToJson();
  empty_trace.as_object()["traceEvents"] = json::Value(json::Array{});
  EXPECT_FALSE(ValidateTraceJson(empty_trace).ok());

  // A metrics dump missing part of the taxonomy is malformed.
  json::Value chopped = metrics_->ToJson();
  chopped.as_object()["counters"].as_object().erase(
      CounterName(Counter::kLiftFunctionsLifted));
  EXPECT_FALSE(ValidateMetricsJson(chopped).ok());

  // Wrong or missing schema markers are rejected by the sniffing validator.
  json::Value wrong_schema = metrics_->ToJson();
  wrong_schema.as_object()["schema"] = json::Value("polynima-metrics/v999");
  EXPECT_FALSE(ValidateObsJson(wrong_schema).ok());
  EXPECT_FALSE(ValidateObsJson(json::Value(json::Object{})).ok());
}

TEST(TierProfUnit, SyntheticLifecycleRoundTripsThroughValidator) {
  TierProf tierprof;
  uint32_t f = tierprof.InternFunction("hot_fn", 0x401000);
  uint32_t g = tierprof.InternFunction("cold_fn", 0x402000);
  tierprof.RecordTranslation(0, f, 1, /*units=*/40, /*wall_ns=*/1200,
                             /*step=*/10);
  tierprof.RecordTierUp(0, f, 1, /*heat=*/8, /*step=*/10);
  tierprof.RecordDeopt(0, f, 1, TierProf::kDeoptSmcWrite, 0x401040,
                       /*step=*/50);
  tierprof.RecordTierUp(0, f, 2, /*heat=*/16, /*step=*/80);  // flap closes
  tierprof.RecordOsrEntry(1, g, 1, 0x402010, /*step=*/90);
  tierprof.AddResidency(f, 1, 500);
  tierprof.AddResidency(f, 2, 300);
  tierprof.AddResidency(g, 0, 200);
  tierprof.AddHelperCalls(f, TierProf::kHelperMemRead, 17);
  tierprof.RecordInstall("tier2:hot_fn", reinterpret_cast<void*>(0x7f0000),
                         128);

  json::Value doc = tierprof.ToJson();
  Status valid = ValidateTierProfJson(doc);
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  auto kind = ValidateObsJson(doc);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, "tierprof");

  const json::Value* totals = doc.Find("totals");
  EXPECT_EQ(totals->Find("tier1_translations")->as_int(), 1);
  EXPECT_EQ(totals->Find("deopts")->as_int(), 1);
  EXPECT_EQ(totals->Find("flaps")->as_int(), 1);
  EXPECT_EQ(totals->Find("residency")->Find("tier1")->as_int(), 500);
  EXPECT_EQ(totals->Find("helper_calls")->Find("mem_read")->as_int(), 17);
  // Functions sort hottest-first by total residency: hot_fn (800) > cold_fn.
  const json::Value& first = doc.Find("functions")->as_array()[0];
  EXPECT_EQ(first.Find("name")->as_string(), "hot_fn");

  std::string rendered = RenderTierProf(doc, /*top_n=*/5);
  EXPECT_NE(rendered.find("hot_fn"), std::string::npos);
  EXPECT_NE(rendered.find("smc_write"), std::string::npos);

  std::string map = tierprof.PerfMapText();
  EXPECT_EQ(map, "7f0000 80 tier2:hot_fn\n");
}

TEST(TierProfUnit, RingOverflowKeepsAggregatesAndCountsDrops) {
  // A 4-event ring under 10 deopts: the forensic window keeps the newest 4,
  // the drop counter owns the other 6, and the aggregates never lose one.
  TierProf tierprof(/*ring_capacity=*/4);
  uint32_t f = tierprof.InternFunction("spinny", 0x401000);
  for (uint64_t i = 0; i < 10; ++i) {
    tierprof.RecordDeopt(0, f, 1, TierProf::kDeoptPreempt, 0x401000 + i,
                         /*step=*/i);
  }
  EXPECT_EQ(tierprof.events_recorded(), 10u);
  EXPECT_EQ(tierprof.events_dropped(), 6u);
  EXPECT_EQ(tierprof.functions()[f].deopts[TierProf::kDeoptPreempt], 10u);

  json::Value doc = tierprof.ToJson();
  Status valid = ValidateTierProfJson(doc);
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_EQ(doc.Find("totals")->Find("events_dropped")->as_int(), 6);
  const json::Value& thread = doc.Find("threads")->as_array()[0];
  EXPECT_EQ(thread.Find("events_dropped")->as_int(), 6);
  const json::Array& events = thread.Find("events")->as_array();
  ASSERT_EQ(events.size(), 4u);
  // Oldest retained first: steps 6..9 survive, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].Find("step")->as_uint(), 6 + i);
  }
}

TEST(TierProfUnit, ValidatorRejectsInconsistentAccounting) {
  TierProf tierprof;
  uint32_t f = tierprof.InternFunction("fn", 0x401000);
  tierprof.RecordDeopt(0, f, 1, TierProf::kDeoptUncoveredEdge, 0x401010, 5);
  json::Value doc = tierprof.ToJson();
  ASSERT_TRUE(ValidateTierProfJson(doc).ok());

  // A per-reason histogram that no longer sums to the deopt total is a
  // corrupted artifact, not a rendering quirk.
  json::Value broken = doc;
  broken.as_object()["totals"].as_object()["deopts"] = json::Value(7);
  EXPECT_FALSE(ValidateTierProfJson(broken).ok());

  // Drop accounting must cover every recorded event.
  json::Value dropped = doc;
  dropped.as_object()["totals"].as_object()["events"] = json::Value(99);
  EXPECT_FALSE(ValidateTierProfJson(dropped).ok());
}

// Synthetic polynima-icf/v1 document: one proven table site, one open
// mutable-slot site, one fully covered function at `covered_entry`.
json::Value MakeIcfDoc(uint64_t covered_entry) {
  json::Object doc;
  doc["schema"] = json::Value("polynima-icf/v1");
  doc["landing_pads"] = json::Value(4);
  doc["sites_total"] = json::Value(2);
  doc["sites_proven"] = json::Value(1);
  doc["sites_open"] = json::Value(1);
  doc["analyze_ns"] = json::Value(1000);
  json::Object covered_fn;
  covered_fn["entry"] = json::Value(covered_entry);
  covered_fn["name"] = json::Value("fn_covered");
  doc["covered_functions"] = json::Value(json::Array{json::Value(covered_fn)});
  json::Object proven_site;
  proven_site["transfer_address"] = json::Value(covered_entry + 0x10);
  proven_site["function"] = json::Value("fn_covered");
  proven_site["function_entry"] = json::Value(covered_entry);
  proven_site["call"] = json::Value(true);
  proven_site["proven"] = json::Value(true);
  proven_site["targets"] =
      json::Value(json::Array{json::Value(0x402000), json::Value(0x402040)});
  proven_site["reason"] = json::Value("bounded to 2 landing-pad targets");
  json::Object open_site;
  open_site["transfer_address"] = json::Value(0x405010);
  open_site["function"] = json::Value("fn_open");
  open_site["function_entry"] = json::Value(0x405000);
  open_site["call"] = json::Value(false);
  open_site["proven"] = json::Value(false);
  open_site["targets"] = json::Value(json::Array{});
  open_site["reason"] = json::Value("target value unbounded");
  doc["sites"] =
      json::Value(json::Array{json::Value(proven_site), json::Value(open_site)});
  return json::Value(std::move(doc));
}

TEST(IcfJsonUnit, ValidatorAcceptsWellFormedDocument) {
  json::Value doc = MakeIcfDoc(0x401000);
  Status valid = ValidateIcfJson(doc);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  auto kind = ValidateObsJson(doc);
  ASSERT_TRUE(kind.ok()) << kind.status().ToString();
  EXPECT_EQ(*kind, "icf");
}

TEST(IcfJsonUnit, ValidatorRejectsInconsistentDocuments) {
  // Count accounting: proven + open must equal total.
  json::Value bad_counts = MakeIcfDoc(0x401000);
  bad_counts.as_object()["sites_open"] = json::Value(5);
  EXPECT_FALSE(ValidateIcfJson(bad_counts).ok());

  // The sites array must carry exactly sites_total rows.
  json::Value short_sites = MakeIcfDoc(0x401000);
  short_sites.as_object()["sites"].as_array().pop_back();
  EXPECT_FALSE(ValidateIcfJson(short_sites).ok());

  // A proven site with no targets is a vacuous certificate: rejected.
  json::Value empty_proof = MakeIcfDoc(0x401000);
  empty_proof.as_object()["sites"].as_array()[0].as_object()["targets"] =
      json::Value(json::Array{});
  EXPECT_FALSE(ValidateIcfJson(empty_proof).ok());

  // Wrong schema marker.
  json::Value wrong_schema = MakeIcfDoc(0x401000);
  wrong_schema.as_object()["schema"] = json::Value("polynima-icf/v999");
  EXPECT_FALSE(ValidateIcfJson(wrong_schema).ok());
}

// The report-level cross-check (`polynima report --validate`): a function a
// CfgCert declared fully covered must show zero uncovered-edge deopts in the
// tierprof section; a violation means the certificate's claim was false.
TEST(IcfReportCrossCheck, CoveredFunctionWithUncoveredEdgeDeoptIsRejected) {
  TierProf tierprof;
  uint32_t f = tierprof.InternFunction("fn_covered", 0x401000);
  tierprof.RecordDeopt(0, f, 1, TierProf::kDeoptUncoveredEdge, 0x401020, 5);

  RunInfo info;
  info.command = "run";
  info.input = "cross.plyb";
  info.icf = MakeIcfDoc(0x401000);
  Session session;
  session.tierprof = &tierprof;
  json::Value report = BuildRunReport(info, session);
  Status valid = ValidateReportJson(report);
  ASSERT_FALSE(valid.ok());
  EXPECT_NE(valid.ToString().find("uncovered-edge"), std::string::npos);

  // Control: the same deopt in a NON-covered function is fine.
  TierProf open_prof;
  uint32_t g = open_prof.InternFunction("fn_open", 0x405000);
  open_prof.RecordDeopt(0, g, 1, TierProf::kDeoptUncoveredEdge, 0x405010, 5);
  Session open_session;
  open_session.tierprof = &open_prof;
  json::Value open_report = BuildRunReport(info, open_session);
  Status open_valid = ValidateReportJson(open_report);
  EXPECT_TRUE(open_valid.ok()) << open_valid.ToString();
}

// Runtime counterpart of the cross-check: the engine-side counter of
// uncovered-edge deopts inside certified functions must be zero whenever the
// report carries an icf section, tierprof sink attached or not.
TEST(IcfReportCrossCheck, CertifiedDeoptCounterMustBeZero) {
  MetricsRegistry metrics;
  RunInfo info;
  info.command = "run";
  info.input = "counter.plyb";
  info.icf = MakeIcfDoc(0x401000);
  Session session;
  session.metrics = &metrics;
  json::Value clean = BuildRunReport(info, session);
  Status clean_valid = ValidateReportJson(clean);
  EXPECT_TRUE(clean_valid.ok()) << clean_valid.ToString();

  metrics.Add(Counter::kExecDeoptUncoveredCert, 3);
  json::Value dirty = BuildRunReport(info, session);
  Status dirty_valid = ValidateReportJson(dirty);
  ASSERT_FALSE(dirty_valid.ok());
  EXPECT_NE(dirty_valid.ToString().find("deopt_uncovered_certified"),
            std::string::npos);
}

// Concurrent writers share one counter array and one set of histograms:
// once they join, every total, count and extreme is exact. A thread that
// alternates between two registries keeps their counts apart.
TEST(MetricsUnit, ConcurrentWritersGiveExactTotals) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  MetricsRegistry metrics;
  MetricsRegistry other;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 1; i <= kPerThread; ++i) {
        metrics.Add(Counter::kLiftFunctionsLifted);
        other.Add(Counter::kLiftFunctionsLifted, 2);
        metrics.Add(Counter::kLiftBytesDecoded, 3);
        metrics.Observe(Histogram::kOptFunctionNs, t * kPerThread + i);
      }
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }
  const uint64_t n = kThreads * kPerThread;
  EXPECT_EQ(metrics.CounterValue(Counter::kLiftFunctionsLifted), n);
  EXPECT_EQ(other.CounterValue(Counter::kLiftFunctionsLifted), 2 * n);
  EXPECT_EQ(metrics.CounterValue(Counter::kLiftBytesDecoded), 3 * n);

  json::Value doc = metrics.ToJson();
  const json::Value* hist =
      doc.Find("histograms")->Find(HistogramName(Histogram::kOptFunctionNs));
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->as_uint(), n);
  EXPECT_EQ(hist->Find("min")->as_uint(), 1u);
  EXPECT_EQ(hist->Find("max")->as_uint(), n);
  EXPECT_EQ(hist->Find("sum")->as_uint(), n * (n + 1) / 2);
  uint64_t bucketed = 0;
  for (const json::Value& b : hist->Find("buckets")->as_array()) {
    bucketed += b.as_uint();
  }
  EXPECT_EQ(bucketed, n);
  EXPECT_EQ(other.ToJson().Find("histograms")->as_object().size(), 0u);
}

TEST(ObsDisabled, NullSessionIsInert) {
  // The disabled path is the hot path: every obs entry point must tolerate
  // null sinks (a branch, no work, no crash).
  Session session;
  EXPECT_FALSE(session.enabled());
  session.Add(Counter::kLiftFunctionsLifted, 3);
  session.Observe(Histogram::kLiftFunctionNs, 1000);
  session.SetGauge("jobs", 8);
  {
    Span span(nullptr, "lift", "nothing");
    span.Arg("bytes", 42);
    span.End();
    span.End();  // idempotent
  }
  SUCCEED();
}

}  // namespace
}  // namespace polynima::obs
