#include "src/recomp/recompiler.h"

#include <ctime>
#include <filesystem>
#include <set>

#include "src/analyze/analyze.h"
#include "src/analyze/icf.h"
#include "src/check/tso.h"
#include "src/fenceopt/spinloop.h"
#include "src/fenceopt/static_elide.h"
#include "src/ir/clone.h"
#include "src/support/clock.h"
#include "src/support/hash.h"
#include "src/support/strings.h"
#include "src/vm/external.h"

namespace polynima::recomp {

namespace {

// Additive rebuilds after which RunAdditive gives up on a run that keeps
// missing control flow.
constexpr int kMaxAdditiveRounds = 64;

// Process-wide CPU time: sums across all threads, so (cpu delta) /
// (wall delta) over a parallel phase approximates its effective parallelism.
uint64_t CpuNowNs() {
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    return 0;
  }
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Everything outside the CFG that changes what a function lifts/optimizes
// to. `jobs` is deliberately absent: parallelism must not affect output.
uint64_t OptionsFingerprint(const RecompileOptions& options) {
  uint64_t h = kFnvOffsetBasis;
  const lift::LiftOptions& lo = options.lift;
  FnvMixU64(h, lo.elide_stack_local_fences);
  FnvMixU64(h, static_cast<uint64_t>(lo.atomics));
  FnvMixU64(h, lo.thread_local_state);
  FnvMixU64(h, lo.first_class_simd);
  FnvMixU64(h, lo.mark_all_external);
  for (const std::string& name : lo.observed_callbacks) {
    for (char c : name) {
      FnvMixU64(h, static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
    FnvMixU64(h, 0x1dull);
  }
  FnvMixU64(h, options.pipeline.inline_functions);
  FnvMixU64(h, options.optimize);
  FnvMixU64(h, options.remove_fences);
  FnvMixU64(h, options.analyze);  // stamps witnesses + elides fences in the IR
  // check_tso is deliberately absent: the checker observes the IR, it never
  // changes what a function lifts/optimizes to.
  return h;
}

// Hash of everything a single function's lifted+optimized IR depends on:
// its blocks (instruction byte ranges are immutable image content, so
// [start,end) identifies them), each block's terminator shape, and — the
// cross-function part — whether every direct/indirect control-flow target
// resolves to a known function, which decides guest-call vs. cfmiss
// lowering. A new function discovered at a previously-unknown target
// therefore changes the hash of exactly its callers. The consumed CfgCert
// (null when none) enters only through the claims for sites inside the
// function's own blocks: those decide whether a site lifts to a cfmiss stub
// or a covered fallback, so a function without a proven site keys the same
// in the probe build and in the certified rebuild.
uint64_t HashFunctionCfg(const cfg::ControlFlowGraph& graph,
                         const cfg::FunctionInfo& fn_info,
                         const check::CfgCert* cert,
                         uint64_t options_fingerprint) {
  uint64_t h = options_fingerprint;
  FnvMixU64(h, fn_info.entry);
  for (uint64_t start : fn_info.block_starts) {
    FnvMixU64(h, start);
    auto it = graph.blocks.find(start);
    if (it == graph.blocks.end()) {
      continue;
    }
    const cfg::BlockInfo& b = it->second;
    FnvMixU64(h, b.start);
    FnvMixU64(h, b.end);
    FnvMixU64(h, static_cast<uint64_t>(b.term));
    FnvMixU64(h, b.term_address);
    FnvMixU64(h, b.direct_target);
    FnvMixU64(h, graph.functions.count(b.direct_target));
    FnvMixU64(h, b.fallthrough);
    FnvMixU64(h, b.external_slot);
    for (uint64_t target : b.indirect_targets) {
      FnvMixU64(h, target);
      FnvMixU64(h, graph.functions.count(target));
    }
    if (const check::CfgCert::Site* site =
            cert != nullptr ? cert->FindSite(b.term_address) : nullptr) {
      FnvMixU64(h, site->is_call);
      FnvMixU64(h, site->targets.size());
      for (uint64_t target : site->targets) {
        FnvMixU64(h, target);
      }
    }
    FnvMixU64(h, 0x9e3779b97f4a7c15ull);  // block separator
  }
  return h;
}

// True when two certificates prove the same sites with the same target sets
// and declare the same functions covered.
bool SameClaims(const check::CfgCert& a, const check::CfgCert& b) {
  if (a.sites.size() != b.sites.size() ||
      a.covered_functions != b.covered_functions) {
    return false;
  }
  for (size_t i = 0; i < a.sites.size(); ++i) {
    if (a.sites[i].transfer_address != b.sites[i].transfer_address ||
        a.sites[i].is_call != b.sites[i].is_call ||
        a.sites[i].targets != b.sites[i].targets) {
      return false;
    }
  }
  return true;
}

}  // namespace

exec::ExecResult RecompiledBinary::Run(
    const std::vector<std::vector<uint8_t>>& inputs,
    exec::ExecOptions options) const {
  vm::ExternalLibrary library;
  exec::Engine engine(program, image, &library, options);
  engine.SetInputs(inputs);
  return engine.Run();
}

void Recompiler::PersistCfg(const cfg::ControlFlowGraph& graph) {
  if (!options_.project_dir.has_value()) {
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(*options_.project_dir, ec);
  (void)graph.WriteTo(*options_.project_dir + "/cfg.json");
}

Expected<RecompiledBinary> Recompiler::Rebuild(
    const cfg::ControlFlowGraph& graph) {
  obs::Span rebuild_span(options_.obs.trace, "recomp", "rebuild");
  // The cache stores post-pipeline IR, so it is only valid when the
  // pipeline runs and contains no cross-function pass.
  const bool use_cache = options_.incremental && options_.optimize &&
                         !options_.pipeline.inline_functions;

  // The indirect-control-flow certificate is consumed only under
  // cfg_sound, where Recompile() always holds the one it derived from this
  // image: a supplied certificate never silences a cfmiss hook on its own.
  const check::CfgCert* cert = options_.cfg_sound && options_.cfg_cert
                                   ? &*options_.cfg_cert
                                   : nullptr;

  std::set<uint64_t> reuse;                 // entries cloned from the cache
  std::map<uint64_t, uint64_t> fn_keys;     // entry -> this round's hash
  if (use_cache) {
    uint64_t fingerprint = OptionsFingerprint(options_);
    for (const auto& [entry, fn_info] : graph.functions) {
      uint64_t key = HashFunctionCfg(graph, fn_info, cert, fingerprint);
      fn_keys[entry] = key;
      auto it = cache_.find(entry);
      if (it != cache_.end() && it->second.key == key) {
        reuse.insert(entry);
      }
    }
  } else {
    cache_.clear();
  }

  uint64_t t0 = NowNs();
  uint64_t c0 = CpuNowNs();
  lift::LiftOptions lift_options = options_.lift;
  lift_options.jobs = options_.jobs;
  lift_options.obs = options_.obs;
  lift_options.skip_bodies = reuse.empty() ? nullptr : &reuse;
  lift_options.cfg_cert = cert;
  options_.obs.Add(obs::Counter::kLiftFunctionsCached, reuse.size());
  POLY_ASSIGN_OR_RETURN(lift::LiftedProgram program,
                        lift::Lift(image_, graph, lift_options));
  if (options_.remove_fences) {
    opt::RemoveFences(*program.module);
  }

  // Splice cached bodies into the skipped declarations. Clones reproduce the
  // source byte-for-byte under the printer, so a cache hit cannot perturb
  // output. Callees are resolved by guest entry into the fresh module.
  for (uint64_t entry : reuse) {
    const CacheEntry& cached = cache_.at(entry);
    ir::CloneFunctionBody(
        *cached.fn, program.functions_by_entry.at(entry), *program.module,
        [&](const ir::Function* callee) -> ir::Function* {
          auto it = program.functions_by_entry.find(callee->guest_entry);
          return it == program.functions_by_entry.end() ? nullptr
                                                        : it->second;
        });
  }

  size_t lifted = graph.functions.size() - reuse.size();
  stats_.cache_hits += reuse.size();
  stats_.cache_misses += lifted;
  stats_.relifted_per_round.push_back(lifted);

  uint64_t t1 = NowNs();
  uint64_t c1 = CpuNowNs();
  stats_.lift_ns += t1 - t0;
  stats_.lift_cpu_ns += c1 - c0;

  if (options_.optimize) {
    if (use_cache) {
      // Only newly lifted functions need the pipeline; cached clones were
      // optimized in the round that produced them.
      std::vector<ir::Function*> fresh;
      fresh.reserve(lifted);
      for (const auto& [entry, fn] : program.functions_by_entry) {
        if (reuse.count(entry) == 0) {
          fresh.push_back(fn);
        }
      }
      opt::PipelineOptions pipeline_options = options_.pipeline;
      pipeline_options.jobs = options_.jobs;
      pipeline_options.obs = options_.obs;
      POLY_RETURN_IF_ERROR(opt::RunPipelineOnFunctions(
          *program.module, fresh, pipeline_options));
    } else {
      opt::PipelineOptions pipeline_options = options_.pipeline;
      pipeline_options.jobs = options_.jobs;
      pipeline_options.obs = options_.obs;
      POLY_RETURN_IF_ERROR(
          opt::RunPipeline(*program.module, pipeline_options));
    }
  }
  stats_.opt_ns += NowNs() - t1;
  stats_.opt_cpu_ns += CpuNowNs() - c1;

  if (use_cache) {
    // Re-key the whole cache onto this round's module so superseded modules
    // are released as soon as no RecompiledBinary references them.
    std::map<uint64_t, CacheEntry> next;
    for (const auto& [entry, fn] : program.functions_by_entry) {
      next[entry] = CacheEntry{fn_keys.at(entry), fn, program.module};
    }
    cache_ = std::move(next);
  }

  // Static concurrency analysis (src/analyze): classify every guest access,
  // report potential races, stamp kHeapLocal witnesses on proven
  // thread-private heap accesses, and elide their paired fences. Runs after
  // the pipeline (register promotion decides which accesses remain) and
  // before the TSO check, which re-derives every stamped witness. Cached
  // bodies arrive already stamped+elided from the round that produced them;
  // both the stamping and the elision are idempotent, and heap privacy is a
  // purely intra-function fact, so re-analysis reaches the same verdicts.
  if (options_.analyze) {
    uint64_t a0 = NowNs();
    analyze::AnalyzeOptions analyze_options;
    analyze_options.jobs = options_.jobs;
    analyze_options.obs = options_.obs;
    analyze::AnalysisResult analysis =
        analyze::AnalyzeProgram(program, analyze_options);
    if (!options_.remove_fences) {
      fenceopt::ApplyStaticElision(*program.module, analysis);
    }
    options_.static_cert = analyze::MakeStaticCert(analysis, image_);
    stats_.analyze_ns += NowNs() - a0;
    stats_.analyze_races = analysis.races.pairs.size();
    stats_.analyze_fences_elided += static_cast<size_t>(analysis.fences_elided);
    analysis_json_ = analysis.ToJson();
  }

  // Static TSO-soundness check (src/check): every guest access must carry a
  // fence/atomic on all paths or a re-verifiable elision witness. Runs after
  // the pipeline so it judges the IR that will actually execute. Only the
  // builtin-atomics lowering is checkable (the naive-lock and plain modes
  // are documented as unordered translations).
  if (options_.check_tso &&
      options_.lift.atomics == lift::LiftOptions::AtomicsMode::kBuiltin) {
    check::TsoCheckOptions check_options;
    check_options.binary_key = check::BinaryKey(image_);
    check_options.obs = options_.obs;
    if (options_.remove_fences) {
      if (!options_.elision_cert.has_value()) {
        return Status::FailedPrecondition(
            "check-tso: remove_fences without an elision certificate — run "
            "the spinloop analysis first (Recompile mints one automatically)");
      }
      check_options.cert = &*options_.elision_cert;
    }
    if (options_.static_cert.has_value()) {
      check_options.static_cert = &*options_.static_cert;
      check_options.externals = &program.externals;
    }
    check::TsoCheckReport report =
        check::CheckModule(*program.module, check_options);
    stats_.tso_accesses_checked += report.accesses_checked;
    stats_.tso_witnesses_consumed += report.witnesses_consumed;
    stats_.tso_heap_witnesses_consumed += report.heap_witnesses_consumed;
    stats_.tso_violations += report.violations.size();
    if (!report.ok()) {
      return Status::Internal(
          StrCat("TSO soundness check failed (", report.violations.size(),
                 " violation", report.violations.size() == 1 ? "" : "s",
                 "): ", report.violations.front().message));
    }
  }

  obs::Span emit_span(options_.obs.trace, "emit", "assemble-artifact");
  RecompiledBinary out;
  out.image = image_;
  out.graph = graph;
  out.program = std::move(program);
  PersistCfg(graph);
  emit_span.Arg("functions",
                static_cast<int64_t>(out.program.functions_by_entry.size()));
  return out;
}

Expected<RecompiledBinary> Recompiler::Recompile() {
  uint64_t t0 = NowNs();
  if (options_.cfg_sound) {
    // Sound mode explores from every endbr64 landing pad, so the recovered
    // candidate sets are exhaustive rather than heuristic.
    options_.recover.landing_pad_entries = true;
  }
  obs::Span cfg_span(options_.obs.trace, "cfg", "recover-static");
  POLY_ASSIGN_OR_RETURN(cfg::ControlFlowGraph graph,
                        cfg::RecoverStatic(image_, options_.recover));
  cfg_span.Arg("functions", static_cast<int64_t>(graph.functions.size()));
  cfg_span.Arg("blocks", static_cast<int64_t>(graph.blocks.size()));
  cfg_span.End();
  stats_.disassemble_ns += NowNs() - t0;

  if (options_.use_icft_tracer) {
    obs::Span trace_span(options_.obs.trace, "trace", "icft-trace");
    trace::TraceResult traced =
        trace::TraceAll(image_, options_.trace_input_sets);
    stats_.trace_ns += traced.host_ns;
    stats_.icft_count = traced.TotalTargets();
    POLY_ASSIGN_OR_RETURN(
        int added,
        trace::AugmentCfg(image_, graph, traced, options_.recover));
    trace_span.Arg("targets", static_cast<int64_t>(traced.TotalTargets()));
    trace_span.Arg("added", added);
  }

  // Fence removal under the TSO checker requires a certificate; mint one
  // from the spinloop analysis when the caller did not supply it. A program
  // with a potentially-spinning loop refuses removal outright — silently
  // recompiling without the optimization would misreport what was checked.
  if (options_.check_tso && options_.remove_fences &&
      !options_.elision_cert.has_value()) {
    POLY_ASSIGN_OR_RETURN(fenceopt::SpinloopAnalysis analysis,
                          fenceopt::DetectImplicitSynchronization(
                              image_, graph, options_.trace_input_sets,
                              options_.obs));
    if (!analysis.FenceRemovalSafe()) {
      return Status::FailedPrecondition(StrCat(
          "check-tso: fence removal is not justified — spinloop analysis "
          "found ",
          analysis.SpinningCount(), " potentially-spinning loop(s)"));
    }
    options_.elision_cert = fenceopt::MakeElisionCert(analysis, image_);
  }

  // Sound indirect control-flow recovery: derive the CfgCert from this
  // image, then rebuild with it. A supplied certificate is accepted only if
  // it makes exactly the derived claims; a forged, narrowed or stale one is
  // counted as rejected. Either way the build consumes the derived cert, so
  // every site the analysis cannot prove stays on dynamic recovery.
  if (options_.cfg_sound) {
    std::optional<check::CfgCert> supplied = std::move(options_.cfg_cert);
    options_.cfg_cert.reset();
    // First build keeps every cfmiss stub; the icf pass needs them to
    // locate the indirect sites and their target values.
    POLY_ASSIGN_OR_RETURN(RecompiledBinary probe, Rebuild(graph));
    obs::Span icf_span(options_.obs.trace, "analyze", "icf-certify");
    analyze::IcfOptions icf_options;
    icf_options.obs = options_.obs;
    analyze::IcfResult icf = analyze::AnalyzeIndirectControlFlow(
        probe.program, image_, graph, icf_options);
    stats_.icf_landing_pads = icf.landing_pads;
    stats_.icf_sites_proven = icf.sites_proven;
    stats_.icf_sites_open = icf.sites_open;
    icf_json_ = icf.ToJson();
    icf_span.Arg("proven", static_cast<int64_t>(icf.sites_proven));
    icf_span.Arg("open", static_cast<int64_t>(icf.sites_open));
    options_.cfg_cert = analyze::MakeCfgCert(icf, image_);
    if (supplied.has_value() &&
        !(check::VerifyCfgCert(*supplied, image_) &&
          SameClaims(*supplied, *options_.cfg_cert))) {
      ++stats_.icf_certs_rejected;
    }
  }
  return Rebuild(graph);
}

Expected<exec::ExecResult> Recompiler::RunAdditive(
    RecompiledBinary& binary,
    const std::vector<std::vector<uint8_t>>& inputs,
    exec::ExecOptions exec_options) {
  for (int round = 0; round <= kMaxAdditiveRounds; ++round) {
    exec::ExecResult result = binary.Run(inputs, exec_options);
    if (result.ok || !result.miss.has_value()) {
      return result;
    }
    // Control-flow miss: update the on-disk CFG with the discovered target
    // and rerun the recompilation pipeline (§3.2 Additive). With
    // options_.incremental, Rebuild re-lifts only the functions whose CFG
    // hash changed — typically the miss site's function plus the newly
    // discovered one.
    ++stats_.additive_rounds;
    const exec::MissInfo& miss = *result.miss;
    cfg::ControlFlowGraph graph = binary.graph;
    POLY_RETURN_IF_ERROR(cfg::IntegrateDiscoveredTarget(
        image_, graph, miss.transfer_address, miss.target, options_.recover));
    POLY_ASSIGN_OR_RETURN(binary, Rebuild(graph));
  }
  return Status::Aborted(
      StrCat("additive lifting did not converge after ",
             kMaxAdditiveRounds, " rounds"));
}

Expected<RecompiledBinary> Recompiler::RecompileWithCallbackAnalysis(
    const std::vector<std::vector<std::vector<uint8_t>>>& input_sets) {
  POLY_ASSIGN_OR_RETURN(RecompiledBinary conservative, Recompile());
  // Record external entries over all input sets (merged across runs).
  std::set<std::string> observed;
  for (const auto& inputs : input_sets) {
    exec::ExecOptions exec_options;
    exec_options.record_callbacks = true;
    POLY_ASSIGN_OR_RETURN(exec::ExecResult result,
                          RunAdditive(conservative, inputs, exec_options));
    observed.insert(result.observed_callbacks.begin(),
                    result.observed_callbacks.end());
  }
  // Re-lift with the observed set only; unobserved functions lose their
  // wrappers and become eligible for inlining. Inlining is cross-function,
  // so this Rebuild bypasses (and drops) the additive cache.
  RecompileOptions slim = options_;
  options_.lift.mark_all_external = false;
  options_.lift.observed_callbacks = observed;
  options_.pipeline.inline_functions = true;
  auto rebuilt = Rebuild(conservative.graph);
  options_ = slim;  // restore
  return rebuilt;
}

Expected<check::DifferentialResult> Recompiler::RunTsoDifferential(
    const RecompiledBinary& binary,
    const std::vector<std::vector<std::vector<uint8_t>>>& input_sets,
    const check::DifferentialOptions& options) {
  // Build the fully-fenced reference from the same CFG: no stack-local
  // elision, no fence removal. The additive cache is keyed on these options,
  // so stash it away rather than letting the reference build repopulate it.
  RecompileOptions saved_options = options_;
  std::map<uint64_t, CacheEntry> saved_cache = std::move(cache_);
  cache_.clear();
  options_.lift.elide_stack_local_fences = false;
  options_.remove_fences = false;
  options_.elision_cert.reset();
  options_.analyze = false;  // no static elision in the reference either
  options_.static_cert.reset();
  options_.check_tso = false;  // the reference is fenced by construction
  auto reference = Rebuild(binary.graph);
  options_ = std::move(saved_options);
  cache_ = std::move(saved_cache);
  POLY_RETURN_IF_ERROR(reference.status());
  return check::RunScheduleDifferential(reference->program, binary.program,
                                        image_, input_sets, options);
}

}  // namespace polynima::recomp
