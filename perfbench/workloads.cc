// The four workloads: their program sets, one timed pass each, and the
// output checks made apart from the recompiler.
//
// Untraced passes call the entry points the CLI uses (Recompiler::Recompile,
// RunAdditive, RunTsoDifferential, fenceopt::DetectImplicitSynchronization)
// with the options `polynima recompile|run|check|analyze` set, except the
// job count (see kJobs). The traced pass
// rebuilds the same pipeline from each module's public calls, timing every
// call into the ledger, and checks that each build prints the same IR as
// the untraced pass did — so the per-layer split measures the same work.
#include "perfbench/workloads.h"

#include <cmath>
#include <set>

#include "src/analyze/analyze.h"
#include "src/analyze/icf.h"
#include "src/check/differential.h"
#include "src/check/tso.h"
#include "src/exec/engine.h"
#include "src/fenceopt/spinloop.h"
#include "src/fenceopt/static_elide.h"
#include "src/ir/printer.h"
#include "src/lift/lifter.h"
#include "src/obs/metrics.h"
#include "src/obs/tierprof.h"
#include "src/opt/passes.h"
#include "src/trace/icft_tracer.h"
#include "src/vm/external.h"

namespace perfbench {
namespace {

namespace analyze = polynima::analyze;
namespace cfg = polynima::cfg;
namespace check = polynima::check;
namespace exec = polynima::exec;
namespace fenceopt = polynima::fenceopt;
namespace ir = polynima::ir;
namespace lift = polynima::lift;
namespace obs = polynima::obs;
namespace opt = polynima::opt;
namespace recomp = polynima::recomp;
namespace trace = polynima::trace;
namespace wl = polynima::workloads;

// Worker threads for lift, opt and analyze in every timed build. The CLI
// defaults to one per hardware thread, but on a host shared with other
// tenants a pool's pass waits on whichever worker lost its core: at that
// default, static-recompile passes ranged 0.30-0.64 s within one run. A
// serial build is no slower on these program sizes, and StaticCheck still
// builds every program at the default count.
constexpr int kJobs = 1;

const Workload& Find(const std::string& name) {
  const Workload* w = wl::FindWorkload(name);
  Require(w != nullptr, "unknown registry workload " + name);
  return *w;
}

// --- Shared recompile / run helpers ----------------------------------------

recomp::RecompiledBinary RecompileOrDie(recomp::Recompiler& recompiler,
                                        const std::string& what) {
  auto binary = recompiler.Recompile();
  Require(binary.ok(), what + ": recompile failed: " +
                           (binary.ok() ? "" : binary.status().ToString()));
  return std::move(*binary);
}

// A racy_* program prints the outcome of its race, which depends on the
// thread interleaving, and the VM and the exec engine interleave threads
// differently; for those only the exit status is compared.
bool PrintsRaceOutcome(const Program& p) {
  return p.spec.workload->suite == "racebench" &&
         p.spec.workload->name.rfind("racy_", 0) == 0;
}

bool OutputMatches(const Program& p,
                   const polynima::vm::RunResult& reference,
                   const exec::ExecResult& result) {
  return result.ok && result.exit_code == reference.exit_code &&
         (PrintsRaceOutcome(p) || result.output == reference.output);
}

void RequireOutput(const Program& p, const exec::ExecResult& result,
                   const std::string& what) {
  Require(OutputMatches(p, p.reference, result),
          p.name + " (" + what + "): recompiled output differs from the "
                   "original binary's" +
              (result.ok ? "" : " (fault: " + result.fault_message + ")"));
}

exec::ExecResult RunAdditiveOrDie(recomp::Recompiler& recompiler,
                                  recomp::RecompiledBinary& binary,
                                  const Program& p,
                                  const exec::ExecOptions& options) {
  auto result = recompiler.RunAdditive(binary, p.inputs, options);
  Require(result.ok(), p.name + ": run failed: " +
                           (result.ok() ? "" : result.status().ToString()));
  return std::move(*result);
}

void Keep(Builds* builds, const Program& p, const std::string& key,
          std::unique_ptr<recomp::Recompiler> recompiler,
          recomp::RecompiledBinary binary, std::set<uint64_t> certified = {}) {
  if (builds == nullptr) {
    return;
  }
  if (builds->capture_ir) {
    builds->ir[key] = ir::Print(*binary.program.module);
  }
  Built built;
  built.program = &p;
  built.recompiler = std::move(recompiler);
  built.binary = std::move(binary);
  built.certified = std::move(certified);
  builds->final.push_back(std::move(built));
}

// --- The pipeline rebuilt from module calls (traced pass) ------------------

cfg::ControlFlowGraph MirrorRecover(const Image& image,
                                    const cfg::RecoverOptions& options,
                                    Ledger* ledger) {
  auto graph = Timed(ledger, "cfg.recover_s",
                     [&] { return cfg::RecoverStatic(image, options); });
  Require(graph.ok(), "RecoverStatic failed");
  ledger->Add("cfg.functions", static_cast<double>(graph->functions.size()));
  ledger->Add("cfg.blocks", static_cast<double>(graph->blocks.size()));
  return std::move(*graph);
}

// Lift + (fence removal) + per-function pipeline, in Recompiler::Rebuild's
// order for a build with an empty additive cache.
lift::LiftedProgram MirrorLiftOpt(const Image& image,
                                  const cfg::ControlFlowGraph& graph,
                                  lift::LiftOptions options,
                                  bool remove_fences, Ledger* ledger) {
  options.jobs = kJobs;
  auto program = TimedCpu(ledger, "lift.lift_s", "lift.cpu_s", [&] {
    return lift::Lift(image, graph, options);
  });
  Require(program.ok(), "Lift failed");
  ledger->Add("lift.ir_instrs",
              static_cast<double>(CountIr(*program->module).instrs));
  if (remove_fences) {
    opt::RemoveFences(*program->module);
  }
  std::vector<ir::Function*> functions;
  for (const auto& [entry, fn] : program->functions_by_entry) {
    functions.push_back(fn);
  }
  opt::PipelineOptions pipeline;
  pipeline.jobs = kJobs;
  polynima::Status st = TimedCpu(ledger, "opt.opt_s", "opt.cpu_s", [&] {
    return opt::RunPipelineOnFunctions(*program->module, functions, pipeline);
  });
  Require(st.ok(), "pipeline failed: " + st.ToString());
  return std::move(*program);
}

// Compares a traced build's printed IR with the untraced build's. The time
// this takes goes to "bench.compare_s", which the traced pass time excludes.
void RequireSameIr(const Builds* builds, const std::string& key,
                   const lift::LiftedProgram& program, Ledger* ledger) {
  double t0 = NowS();
  auto it = builds->ir.find(key);
  Require(it != builds->ir.end(), key + ": no untraced build to compare");
  Require(it->second == ir::Print(*program.module),
          key + ": the traced pipeline printed different IR than "
                "Recompiler::Recompile");
  ledger->Add("bench.compare_s", NowS() - t0);
}

// Runs `program` once in the exec engine, timing it as the exec layer and
// adding its counters. `tierprof` (traced runs) collects helper calls.
exec::ExecResult MirrorRun(const lift::LiftedProgram& program, const Program& p,
                           exec::ExecOptions options, Ledger* ledger) {
  obs::TierProf tierprof;
  options.obs.tierprof = &tierprof;
  exec::ExecResult result = Timed(ledger, "exec.run_s", [&] {
    polynima::vm::ExternalLibrary library;
    exec::Engine engine(program, p.image, &library, options);
    engine.SetInputs(p.inputs);
    return engine.Run();
  });
  Require(!result.miss.has_value(),
          p.name + ": control-flow miss in the traced pipeline");
  RequireOutput(p, result, "traced run");
  ledger->Add("exec.steps", static_cast<double>(result.steps));
  ledger->Add("exec.tier2_steps", static_cast<double>(result.tier2_instrs));
  ledger->Add("exec.translations",
              static_cast<double>(result.tier1_translations +
                                  result.tier2_translations));
  ledger->Add("exec.deopts", static_cast<double>(result.deopts));
  uint64_t helpers = 0;
  for (const auto& fn : tierprof.functions()) {
    for (uint64_t n : fn.helper_calls) {
      helpers += n;
    }
  }
  ledger->Add("exec.helper_calls", static_cast<double>(helpers));
  return result;
}

void CountBuild(PassStats& stats, const lift::LiftedProgram& program) {
  IrCounts counts = CountIr(*program.module);
  stats.ir_instrs += counts.instrs;
  stats.fences += counts.fences;
}

std::vector<Spec> SpecsOf(const std::vector<Workload>& suite, int scale) {
  std::vector<Spec> specs;
  for (const Workload& w : suite) {
    specs.push_back({&w, w.default_opt, scale});
  }
  return specs;
}

// --- trace-recompile --------------------------------------------------------

std::vector<Spec> TraceSpecs() { return SpecsOf(wl::SpecLike(), 0); }

PassStats TracePass(const std::vector<Program>& programs, Ledger* ledger,
                    Builds* builds) {
  PassStats stats;
  double t0 = NowS();
  for (const Program& p : programs) {
    recomp::RecompileOptions options;
    options.jobs = kJobs;
    options.use_icft_tracer = true;
    options.trace_input_sets = {p.inputs};
    if (ledger == nullptr) {
      auto recompiler =
          std::make_unique<recomp::Recompiler>(p.image, options);
      recomp::RecompiledBinary binary = RecompileOrDie(*recompiler, p.name);
      CountBuild(stats, binary.program);
      Keep(builds, p, p.name, std::move(recompiler), std::move(binary));
    } else {
      cfg::ControlFlowGraph graph =
          MirrorRecover(p.image, options.recover, ledger);
      trace::TraceResult traced = Timed(ledger, "trace.trace_s", [&] {
        return trace::TraceAll(p.image, options.trace_input_sets);
      });
      auto added = Timed(ledger, "trace.augment_s", [&] {
        return trace::AugmentCfg(p.image, graph, traced, options.recover);
      });
      Require(added.ok(), p.name + ": AugmentCfg failed");
      ledger->Add("trace.icfts", static_cast<double>(traced.TotalTargets()));
      for (const auto& run : traced.runs) {
        ledger->Add("trace.guest_steps", static_cast<double>(run.instructions));
      }
      lift::LiftedProgram program =
          MirrorLiftOpt(p.image, graph, options.lift, false, ledger);
      RequireSameIr(builds, p.name, program, ledger);
      CountBuild(stats, program);
    }
    ++stats.attempted;
  }
  stats.seconds = NowS() - t0;
  return stats;
}

// Tracing input X must cover every indirect transfer executed on X, so the
// run on X needs no additive round.
void TraceCheck(Builds& builds) {
  for (Built& b : builds.final) {
    Require(b.recompiler->stats().additive_rounds == 0,
            b.program->name + ": additive round on its own traced input");
  }
}

// --- static-recompile -------------------------------------------------------

std::vector<Spec> StaticSpecs() {
  std::vector<Spec> specs;
  for (const auto* suite :
       {&wl::Phoenix(), &wl::Gapbs(true), &wl::Gapbs(false),
        &wl::CkitSpinlocks(), &wl::Apps(), &wl::SpecLike(), &wl::RaceBench(),
        &wl::Indirect()}) {
    for (const Spec& s : SpecsOf(*suite, 0)) {
      specs.push_back(s);
    }
  }
  return specs;
}

PassStats StaticPass(const std::vector<Program>& programs, Ledger* ledger,
                     Builds* builds) {
  PassStats stats;
  double t0 = NowS();
  for (const Program& p : programs) {
    recomp::RecompileOptions options;
    options.jobs = kJobs;
    if (ledger == nullptr) {
      auto recompiler =
          std::make_unique<recomp::Recompiler>(p.image, options);
      recomp::RecompiledBinary binary = RecompileOrDie(*recompiler, p.name);
      CountBuild(stats, binary.program);
      Keep(builds, p, p.name, std::move(recompiler), std::move(binary));
    } else {
      cfg::ControlFlowGraph graph =
          MirrorRecover(p.image, options.recover, ledger);
      lift::LiftedProgram program =
          MirrorLiftOpt(p.image, graph, options.lift, false, ledger);
      RequireSameIr(builds, p.name, program, ledger);
      CountBuild(stats, program);
    }
    ++stats.attempted;
  }
  stats.seconds = NowS() - t0;
  return stats;
}

// The printed IR must not depend on the job count: a build at the CLI's
// default (one worker per hardware thread) prints what the pass printed.
// The pass's build is redone, since an additive round may have changed it.
void StaticCheck(Builds& builds) {
  for (Built& b : builds.final) {
    std::string printed[2];
    for (int jobs : {kJobs, 0}) {
      recomp::RecompileOptions options;
      options.jobs = jobs;
      recomp::Recompiler recompiler(b.program->image, options);
      printed[jobs == kJobs ? 0 : 1] = ir::Print(
          *RecompileOrDie(recompiler, b.program->name).program.module);
    }
    Require(printed[0] == printed[1],
            b.program->name + ": printed IR differs between jobs=1 and the "
                              "default job count");
  }
}

// --- exec-tier2 -------------------------------------------------------------

std::vector<Spec> ExecSpecs() {
  std::vector<Spec> specs;
  for (int level : {0, 2}) {
    for (const Workload& w : wl::Phoenix()) {
      specs.push_back({&w, level, 1});
    }
  }
  for (const char* name : {"bzip2_like", "hmmer_like", "libquantum_like"}) {
    specs.push_back({&Find(name), 2, 0});
  }
  return specs;
}

PassStats ExecPass(const std::vector<Program>& programs, Ledger* ledger,
                   Builds* builds) {
  PassStats stats;
  double t0 = NowS();
  exec::ExecOptions exec_options;
  exec_options.tier = 2;
  for (const Program& p : programs) {
    recomp::RecompileOptions options;
    options.jobs = kJobs;
    if (ledger == nullptr) {
      auto recompiler =
          std::make_unique<recomp::Recompiler>(p.image, options);
      recomp::RecompiledBinary binary = RecompileOrDie(*recompiler, p.name);
      exec::ExecResult result =
          RunAdditiveOrDie(*recompiler, binary, p, exec_options);
      RequireOutput(p, result, "tier 2");
      CountBuild(stats, binary.program);
      Keep(builds, p, p.name, std::move(recompiler), std::move(binary));
    } else {
      cfg::ControlFlowGraph graph =
          MirrorRecover(p.image, options.recover, ledger);
      lift::LiftedProgram program =
          MirrorLiftOpt(p.image, graph, options.lift, false, ledger);
      RequireSameIr(builds, p.name, program, ledger);
      MirrorRun(program, p, exec_options, ledger);
      CountBuild(stats, program);
    }
    ++stats.attempted;
  }
  stats.seconds = NowS() - t0;
  return stats;
}

// Bit identity across tiers: a tier-0 run of the same build reaches the same
// state digest, step count and simulated cycles as the tier-2 run.
void ExecCheck(Builds& builds) {
  for (Built& b : builds.final) {
    exec::ExecOptions options;
    options.record_state_digest = true;
    exec::ExecResult interp = b.binary.Run(b.program->inputs, options);
    Require(b.tier2.state_digest == interp.state_digest &&
                b.tier2.steps == interp.steps &&
                b.tier2.wall_time == interp.wall_time &&
                b.tier2.output == interp.output,
            b.program->name + ": tier-2 and tier-0 runs of one build differ");
  }
}

// --- sound-check ------------------------------------------------------------

// Known answers: indirect sites proven of all sites, per landing-pad program.
// switchboard's mutable .data hook is open by construction.
struct IcfAnswer {
  const char* name;
  int proven;
  int total;
};
constexpr IcfAnswer kIcfAnswers[] = {{"fnptr_dispatch", 3, 3},
                                     {"switchboard", 2, 3}};
// Programs taken through the `polynima check` workflow; the spinloop
// analysis proves both free of implicit synchronization, so both reach the
// certified fence removal and the schedule differential.
constexpr const char* kCheckPrograms[] = {"kmeans", "word_count"};

std::vector<Spec> SoundSpecs() {
  std::vector<Spec> specs;
  for (const IcfAnswer& a : kIcfAnswers) {
    specs.push_back({&Find(a.name), 2, 1});
  }
  for (const char* name : kCheckPrograms) {
    specs.push_back({&Find(name), 2, 1});
  }
  for (const Spec& s : SpecsOf(wl::RaceBench(), 0)) {
    specs.push_back(s);
  }
  return specs;
}

// cfg-sound certification: recovery from landing pads, the icf pass over a
// first build, and the rebuild under the minted certificate.
check::CfgCert CertifyIcf(const Program& p, const IcfAnswer& answer,
                          Ledger* ledger, Builds* builds, PassStats& stats) {
  int proven = 0;
  int total = 0;
  check::CfgCert minted;
  if (ledger == nullptr) {
    recomp::RecompileOptions options;
    options.jobs = kJobs;
    options.cfg_sound = true;
    auto recompiler = std::make_unique<recomp::Recompiler>(p.image, options);
    recomp::RecompiledBinary binary = RecompileOrDie(*recompiler, p.name);
    proven = recompiler->stats().icf_sites_proven;
    total = proven + recompiler->stats().icf_sites_open;
    minted = *recompiler->options().cfg_cert;
    CountBuild(stats, binary.program);
    Keep(builds, p, "cert:" + p.name, std::move(recompiler),
         std::move(binary),
         {minted.covered_functions.begin(), minted.covered_functions.end()});
  } else {
    cfg::RecoverOptions recover;
    recover.landing_pad_entries = true;
    cfg::ControlFlowGraph graph = MirrorRecover(p.image, recover, ledger);
    lift::LiftedProgram probe =
        MirrorLiftOpt(p.image, graph, {}, false, ledger);
    analyze::IcfResult icf = Timed(ledger, "analyze.icf_s", [&] {
      return analyze::AnalyzeIndirectControlFlow(probe, p.image, graph);
    });
    minted = analyze::MakeCfgCert(icf, p.image);
    lift::LiftOptions certified;
    certified.cfg_cert = &minted;
    lift::LiftedProgram program =
        MirrorLiftOpt(p.image, graph, certified, false, ledger);
    RequireSameIr(builds, "cert:" + p.name, program, ledger);
    CountBuild(stats, program);
    proven = icf.sites_proven;
    total = icf.sites_total;
    ledger->Add("analyze.icf_sites", total);
    ledger->Add("analyze.icf_sites_proven", proven);
  }
  Require(proven == answer.proven && total == answer.total,
          p.name + ": " + std::to_string(proven) + "/" +
              std::to_string(total) + " indirect sites proven, expected " +
              std::to_string(answer.proven) + "/" +
              std::to_string(answer.total));
  ++stats.attempted;
  return minted;
}

// The `polynima check` workflow: fenced build and run, spinloop analysis,
// certified fence-removed build and run, then the schedule differential.
void CheckWorkflow(const Program& p, Ledger* ledger, Builds* builds,
                   PassStats& stats) {
  check::DifferentialOptions diff_options;  // the CLI's --schedules default
  check::DifferentialResult diff;
  if (ledger == nullptr) {
    recomp::RecompileOptions fenced_options;
    fenced_options.check_tso = true;
    fenced_options.jobs = kJobs;
    recomp::Recompiler fenced(p.image, fenced_options);
    recomp::RecompiledBinary fenced_binary =
        RecompileOrDie(fenced, p.name + " (fenced)");
    RequireOutput(p, RunAdditiveOrDie(fenced, fenced_binary, p, {}),
                  "fenced");
    auto spin = fenceopt::DetectImplicitSynchronization(
        p.image, fenced_binary.graph, {p.inputs});
    Require(spin.ok() && spin->FenceRemovalSafe(),
            p.name + ": spinloop analysis withheld fence removal");
    recomp::RecompileOptions opt_options;
    opt_options.check_tso = true;
    opt_options.remove_fences = true;
    opt_options.elision_cert = fenceopt::MakeElisionCert(*spin, p.image);
    opt_options.jobs = kJobs;
    auto optimized = std::make_unique<recomp::Recompiler>(p.image, opt_options);
    recomp::RecompiledBinary opt_binary =
        RecompileOrDie(*optimized, p.name + " (fence-removed)");
    RequireOutput(p, RunAdditiveOrDie(*optimized, opt_binary, p, {}),
                  "fence-removed");
    auto result =
        optimized->RunTsoDifferential(opt_binary, {p.inputs}, diff_options);
    Require(result.ok(), p.name + ": differential failed");
    diff = *result;
    if (builds != nullptr && builds->capture_ir) {
      builds->ir["fenced:" + p.name] =
          ir::Print(*fenced_binary.program.module);
    }
    CountBuild(stats, opt_binary.program);
    Keep(builds, p, "removed:" + p.name, std::move(optimized),
         std::move(opt_binary));
  } else {
    const uint64_t key = check::BinaryKey(p.image);
    cfg::ControlFlowGraph graph = MirrorRecover(p.image, {}, ledger);
    lift::LiftedProgram fenced = MirrorLiftOpt(p.image, graph, {}, false,
                                               ledger);
    check::TsoCheckOptions tso;
    tso.binary_key = key;
    check::TsoCheckReport report = Timed(ledger, "check.tso_s", [&] {
      return check::CheckModule(*fenced.module, tso);
    });
    Require(report.ok(), p.name + ": fenced build failed the TSO check");
    ledger->Add("check.accesses_checked",
                static_cast<double>(report.accesses_checked));
    RequireSameIr(builds, "fenced:" + p.name, fenced, ledger);
    MirrorRun(fenced, p, {}, ledger);
    auto spin = Timed(ledger, "fenceopt.spinloop_s", [&] {
      return fenceopt::DetectImplicitSynchronization(p.image, graph,
                                                     {p.inputs});
    });
    Require(spin.ok() && spin->FenceRemovalSafe(),
            p.name + ": spinloop analysis withheld fence removal");
    ledger->Add("fenceopt.loops", static_cast<double>(spin->loops.size()));
    check::ElisionCert cert = fenceopt::MakeElisionCert(*spin, p.image);
    lift::LiftedProgram removed =
        MirrorLiftOpt(p.image, graph, {}, true, ledger);
    tso.cert = &cert;
    report = Timed(ledger, "check.tso_s",
                   [&] { return check::CheckModule(*removed.module, tso); });
    Require(report.ok(), p.name + ": fence-removed build failed the TSO check");
    ledger->Add("check.accesses_checked",
                static_cast<double>(report.accesses_checked));
    ledger->Add("fenceopt.fences_elided",
                static_cast<double>(CountIr(*fenced.module).fences -
                                    CountIr(*removed.module).fences));
    RequireSameIr(builds, "removed:" + p.name, removed, ledger);
    MirrorRun(removed, p, {}, ledger);
    lift::LiftOptions reference_options;
    reference_options.elide_stack_local_fences = false;
    lift::LiftedProgram reference =
        MirrorLiftOpt(p.image, graph, reference_options, false, ledger);
    auto result = Timed(ledger, "check.differential_s", [&] {
      return check::RunScheduleDifferential(reference, removed, p.image,
                                            {p.inputs}, diff_options);
    });
    Require(result.ok(), p.name + ": differential failed");
    diff = *result;
    ledger->Add("check.differential_runs", diff.runs);
    CountBuild(stats, removed);
  }
  Require(diff.runs > 0 && diff.divergences == 0,
          p.name + ": schedule differential found " +
              std::to_string(diff.divergences) +
              " divergence(s) after certified fence removal");
  ++stats.attempted;
}

bool RaceVerdictMatches(const std::string& name, size_t races) {
  const bool racy = name.rfind("racy_", 0) == 0;
  return racy == (races > 0);
}

// `analyze --check-tso`: static race detection, heap-local fence elision
// under a StaticCert, and the TSO check that re-derives every witness.
void AnalyzeRaces(const Program& p, Ledger* ledger, Builds* builds,
                  PassStats& stats) {
  size_t races = 0;
  if (ledger == nullptr) {
    recomp::RecompileOptions options;
    options.analyze = true;
    options.check_tso = true;
    options.jobs = kJobs;
    auto recompiler = std::make_unique<recomp::Recompiler>(p.image, options);
    recomp::RecompiledBinary binary = RecompileOrDie(*recompiler, p.name);
    races = recompiler->stats().analyze_races;
    CountBuild(stats, binary.program);
    Keep(builds, p, "analyzed:" + p.name, std::move(recompiler),
         std::move(binary));
  } else {
    cfg::ControlFlowGraph graph = MirrorRecover(p.image, {}, ledger);
    lift::LiftedProgram program =
        MirrorLiftOpt(p.image, graph, {}, false, ledger);
    analyze::AnalyzeOptions analyze_options;
    analyze_options.jobs = kJobs;
    analyze::AnalysisResult analysis = Timed(ledger, "analyze.analyze_s", [&] {
      return analyze::AnalyzeProgram(program, analyze_options);
    });
    fenceopt::StaticElisionStats elided =
        fenceopt::ApplyStaticElision(*program.module, analysis);
    ledger->Add("fenceopt.fences_elided", elided.elided);
    check::StaticCert cert = analyze::MakeStaticCert(analysis, p.image);
    check::TsoCheckOptions tso;
    tso.binary_key = check::BinaryKey(p.image);
    tso.static_cert = &cert;
    tso.externals = &program.externals;
    check::TsoCheckReport report = Timed(ledger, "check.tso_s", [&] {
      return check::CheckModule(*program.module, tso);
    });
    Require(report.ok(), p.name + ": analyzed build failed the TSO check");
    ledger->Add("check.accesses_checked",
                static_cast<double>(report.accesses_checked));
    races = analysis.races.pairs.size();
    ledger->Add("analyze.races", static_cast<double>(races));
    RequireSameIr(builds, "analyzed:" + p.name, program, ledger);
    CountBuild(stats, program);
  }
  Require(RaceVerdictMatches(p.spec.workload->name, races),
          p.name + ": " + std::to_string(races) +
              " race pair(s) reported, against its racebench label");
  ++stats.attempted;
}

// `honest` with one target dropped from its first proven site and re-sealed
// must be rejected: the narrowed claim is not what the image proves.
// Returns true when the recompiler refused it.
bool ForgedCertRejected(const Program& p, const check::CfgCert& honest) {
  check::CfgCert forged = honest;
  Require(!forged.sites.empty() && forged.sites[0].targets.size() > 1,
          p.name + ": no proven site to narrow");
  forged.sites[0].targets.pop_back();
  forged.Seal();
  recomp::RecompileOptions options;
  options.cfg_sound = true;
  options.jobs = kJobs;
  options.cfg_cert = forged;
  recomp::Recompiler consumer(p.image, options);
  RecompileOrDie(consumer, p.name + " (forged certificate)");
  return consumer.stats().icf_certs_rejected == 1;
}

PassStats SoundPass(const std::vector<Program>& programs, Ledger* ledger,
                    Builds* builds) {
  PassStats stats;
  double t0 = NowS();
  size_t i = 0;
  std::vector<check::CfgCert> certs;
  for (const IcfAnswer& answer : kIcfAnswers) {
    certs.push_back(CertifyIcf(programs[i++], answer, ledger, builds, stats));
  }
  for (size_t k = 0; k < std::size(kCheckPrograms); ++k) {
    CheckWorkflow(programs[i++], ledger, builds, stats);
  }
  for (; i < programs.size(); ++i) {
    AnalyzeRaces(programs[i], ledger, builds, stats);
  }
  stats.seconds = NowS() - t0;
  // Outside the timed verdicts: a correct rejection re-derives the
  // certificate, which must not read as a slower verdict.
  for (size_t k = 0; k < std::size(kIcfAnswers); ++k) {
    ++stats.attempted;
    if (!ForgedCertRejected(programs[k], certs[k])) {
      ++stats.failed;
    }
  }
  return stats;
}

// Every target the tracer sees at a proven site is in its proven set, and a
// tier-2 run of each certified build takes no uncovered-edge deopt inside a
// covered function.
void SoundCheck(Builds& builds) {
  int traced_sites = 0;
  for (Built& b : builds.final) {
    if (b.certified.empty()) {
      continue;
    }
    const check::CfgCert& cert = *b.recompiler->options().cfg_cert;
    trace::TraceResult traced =
        trace::TraceAll(b.program->image, {b.program->inputs});
    for (const auto& site : cert.sites) {
      auto it = traced.indirect_targets.find(site.transfer_address);
      if (it == traced.indirect_targets.end()) {
        continue;
      }
      for (uint64_t target : it->second) {
        Require(std::binary_search(site.targets.begin(), site.targets.end(),
                                   target),
                b.program->name + ": traced target outside a proven set");
      }
      ++traced_sites;
    }
    obs::MetricsRegistry metrics;
    exec::ExecOptions options;
    options.tier = 2;
    options.cfg_certified_entries = b.certified;
    options.obs.metrics = &metrics;
    exec::ExecResult result =
        RunAdditiveOrDie(*b.recompiler, b.binary, *b.program, options);
    RequireOutput(*b.program, result, "certified, tier 2");
    Require(metrics.CounterValue(obs::Counter::kExecDeoptUncoveredCert) == 0,
            b.program->name + ": uncovered-edge deopt in a covered function");
  }
  Require(traced_sites > 0, "no proven site was traced");
  // The label check must be able to fail: a flipped label is caught.
  Require(!RaceVerdictMatches("safe_flipped", 1) &&
              !RaceVerdictMatches("racy_flipped", 0),
          "a flipped racebench label went unnoticed");
}

const WorkloadDef kWorkloads[] = {
    {"trace-recompile", TraceSpecs, TracePass, TraceCheck},
    {"static-recompile", StaticSpecs, StaticPass, StaticCheck},
    {"exec-tier2", ExecSpecs, ExecPass, ExecCheck},
    {"sound-check", SoundSpecs, SoundPass, SoundCheck},
};

}  // namespace

const WorkloadDef* FindWorkloadDef(const std::string& name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) {
      return &def;
    }
  }
  return nullptr;
}

double CheckOutputs(Builds& builds) {
  std::vector<double> log_ratios;
  for (Built& b : builds.final) {
    exec::ExecOptions options;
    options.tier = 2;
    options.record_state_digest = true;
    options.cfg_certified_entries = b.certified;
    b.tier2 = RunAdditiveOrDie(*b.recompiler, b.binary, *b.program, options);
    const exec::ExecResult& result = b.tier2;
    RequireOutput(*b.program, result, "tier 2");
    Require(result.wall_time > 0 && b.program->reference.wall_time > 0,
            b.program->name + ": zero simulated cycles");
    log_ratios.push_back(
        std::log(static_cast<double>(result.wall_time) /
                 static_cast<double>(b.program->reference.wall_time)));
    // The comparison must be able to fail: a tampered reference is caught.
    polynima::vm::RunResult tampered = b.program->reference;
    tampered.exit_code ^= 1;
    Require(!OutputMatches(*b.program, tampered, result),
            b.program->name + ": a tampered exit status went unnoticed");
    tampered = b.program->reference;
    tampered.output += "!";
    Require(PrintsRaceOutcome(*b.program) ||
                !OutputMatches(*b.program, tampered, result),
            b.program->name + ": a tampered expected output went unnoticed");
  }
  double sum = 0;
  for (double l : log_ratios) {
    sum += l;
  }
  return std::exp(sum / static_cast<double>(log_ratios.size()));
}

}  // namespace perfbench
