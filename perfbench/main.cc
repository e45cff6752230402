// perfbench: one run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run sets the workload's programs up several times (compile, seeded
// inputs, reference runs of the original binaries in the VM), then repeats
// whole passes over the program set for about --seconds, then checks the
// last pass's builds against the original binaries. The last line of
// standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// of one traced setup and pass with --trace 1. Progress and the host-drift
// kernel go to standard error.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/workloads.h"
#include "src/support/json.h"

namespace perfbench {
namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 2;
// Passes per run at the least: a sound-check pass outlasts a short run.
constexpr size_t kMinPasses = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

// A fixed L2-resident integer kernel that does not depend on the program
// under test. Its time is logged, not reported: it makes host drift that
// every metric shares visible.
double KernelSeconds() {
  std::vector<uint64_t> data(32 * 1024);  // 256 KiB
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = i * 0x9e3779b97f4a7c15ull;
  }
  double t0 = NowS();
  uint64_t acc = 0;
  for (int round = 0; round < 400; ++round) {
    for (size_t i = 0; i < data.size(); ++i) {
      acc = (acc ^ data[i]) * 0x100000001b3ull;
      data[i] += acc >> 7;
    }
  }
  double seconds = NowS() - t0;
  if (acc == 42) {  // keeps the loop from being folded away
    std::fprintf(stderr, "kernel: %llu\n",
                 static_cast<unsigned long long>(acc));
  }
  return seconds;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

polynima::json::Value Metric(double value, const char* unit) {
  return polynima::json::Object{{"value", value}, {"unit", unit}};
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 polynima::json::Object metrics) {
  polynima::json::Value out = polynima::json::Object{
      {"correct", correct},
      {"attempted", attempted},
      {"failed", failed},
      {"metrics", std::move(metrics)}};
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
}

// Per-layer metrics and their units. Layers a workload does not call read 0
// on it.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"cc.compile_s", "s"},
    {"vm.run_s", "s"},
    {"vm.guest_steps", "count"},
    {"trace.trace_s", "s"},
    {"trace.augment_s", "s"},
    {"trace.msteps_per_s", "Msteps/s"},
    {"trace.icfts", "count"},
    {"cfg.recover_s", "s"},
    {"cfg.functions", "count"},
    {"cfg.blocks", "count"},
    {"lift.lift_s", "s"},
    {"lift.cpu_s", "s"},
    {"lift.ir_instrs", "count"},
    {"opt.opt_s", "s"},
    {"opt.cpu_s", "s"},
    {"recomp.additive_rounds", "count"},
    {"recomp.rebuilds", "count"},
    {"fenceopt.spinloop_s", "s"},
    {"fenceopt.loops", "count"},
    {"fenceopt.fences_elided", "count"},
    {"analyze.analyze_s", "s"},
    {"analyze.races", "count"},
    {"analyze.icf_s", "s"},
    {"analyze.icf_sites", "count"},
    {"analyze.icf_sites_proven", "count"},
    {"check.tso_s", "s"},
    {"check.accesses_checked", "count"},
    {"check.differential_s", "s"},
    {"check.differential_runs", "count"},
    {"exec.run_s", "s"},
    {"exec.steps", "count"},
    {"exec.msteps_per_s", "Msteps/s"},
    {"exec.tier2_share", "ratio"},
    {"exec.translations", "count"},
    {"exec.deopts", "count"},
    {"exec.helper_calls", "count"},
    {"obs.overhead_s", "s"},
};

int Run(const Args& args) {
  const WorkloadDef* def = FindWorkloadDef(args.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::fprintf(stderr, "perfbench: %s seed %llu, host kernel %.4f s\n",
               def->name, static_cast<unsigned long long>(args.seed),
               KernelSeconds());
  const std::vector<Spec> specs = def->specs();
  polynima::json::Object metrics;
  Builds builds;
  PassStats totals;
  bool correct = true;

  try {
    if (!args.trace) {
      std::vector<double> setups;
      std::vector<Program> programs;
      for (int i = 0; i < kSetups; ++i) {
        double t0 = NowS();
        programs = SetUp(specs, args.seed, nullptr);
        setups.push_back(NowS() - t0);
      }
      // Whole passes, started while the next one is expected to end within
      // the run's length, and at least kMinPasses of them.
      std::vector<double> passes;
      double start = NowS();
      PassStats first;
      while (passes.size() < kMinPasses ||
             NowS() - start + passes.back() <= args.seconds) {
        builds.final.clear();
        PassStats pass = def->pass(programs, nullptr, &builds);
        if (passes.empty()) {
          first = pass;
        }
        Require(pass.ir_instrs == first.ir_instrs &&
                    pass.fences == first.fences,
                "IR counts changed between passes of one run");
        passes.push_back(pass.seconds);
        totals.attempted += pass.attempted;
        totals.failed += pass.failed;
      }
      std::string pass_log;
      for (double seconds : passes) {
        pass_log += " " + std::to_string(seconds);
      }
      std::fprintf(stderr, "perfbench: passes (s):%s\n", pass_log.c_str());
      double checks_start = NowS();
      double norm_runtime = CheckOutputs(builds);
      def->check(builds);
      std::fprintf(stderr, "perfbench: %zu passes, median %.4f s; checks "
                   "%.2f s; host kernel %.4f s\n", passes.size(),
                   Median(passes), NowS() - checks_start, KernelSeconds());
      metrics.emplace("setup_s", Metric(Median(setups), "s"));
      metrics.emplace("pass_s", Metric(Median(passes), "s"));
      metrics.emplace("peak_rss_mb", Metric(PeakRssMb(), "MB"));
      metrics.emplace("norm_runtime", Metric(norm_runtime, "ratio"));
      metrics.emplace("ir_instrs",
                      Metric(static_cast<double>(first.ir_instrs), "count"));
      metrics.emplace("fences_retained",
                      Metric(static_cast<double>(first.fences), "count"));
    } else {
      Ledger ledger;
      std::vector<Program> programs = SetUp(specs, args.seed, &ledger);
      // The same pass untraced (through the CLI's entry points) and traced
      // (rebuilt from module calls); the difference is the tracing cost.
      builds.capture_ir = true;
      PassStats plain = def->pass(programs, nullptr, &builds);
      PassStats traced = def->pass(programs, &ledger, &builds);
      Require(plain.ir_instrs == traced.ir_instrs &&
                  plain.fences == traced.fences,
              "traced and untraced passes built different IR");
      totals.attempted = plain.attempted + traced.attempted;
      totals.failed = plain.failed + traced.failed;
      CheckOutputs(builds);
      def->check(builds);
      for (const Built& b : builds.final) {
        const auto& stats = b.recompiler->stats();
        ledger.Add("recomp.additive_rounds", stats.additive_rounds);
        ledger.Add("recomp.rebuilds",
                   static_cast<double>(stats.relifted_per_round.size()));
      }
      auto& v = ledger.values;
      v["trace.msteps_per_s"] =
          v["trace.trace_s"] > 0
              ? v["trace.guest_steps"] / v["trace.trace_s"] / 1e6
              : 0;
      v["exec.msteps_per_s"] =
          v["exec.run_s"] > 0 ? v["exec.steps"] / v["exec.run_s"] / 1e6 : 0;
      v["exec.tier2_share"] =
          v["exec.steps"] > 0 ? v["exec.tier2_steps"] / v["exec.steps"] : 0;
      v["obs.overhead_s"] =
          traced.seconds - v["bench.compare_s"] - plain.seconds;
      for (const auto& [name, unit] : kLayerMetrics) {
        metrics.emplace(name, Metric(v[name], unit));
      }
      std::fprintf(stderr, "perfbench: untraced pass %.4f s, traced pass "
                   "%.4f s (%.4f s of it comparing IR)\n", plain.seconds,
                   traced.seconds, v["bench.compare_s"]);
    }
  } catch (const BenchError& e) {
    std::fprintf(stderr, "perfbench: FAIL: %s\n", e.message.c_str());
    correct = false;
  }
  if (totals.attempted == 0) {
    totals.attempted = 1;  // the run failed before its first operation
    totals.failed = 1;
  }
  PrintResult(correct, totals.attempted, totals.failed, std::move(metrics));
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  return perfbench::Run(args);
}
