// The Polynima recompiler driver: orchestrates disassembly, optional ICFT
// tracing, lifting, optimization, and the additive-lifting loop (§3.2).
//
// The recompiled artifact keeps its CFG; when execution reports a
// control-flow miss, RunAdditive integrates the newly discovered target into
// the CFG (static recursive descent from the target), re-runs the
// lift+optimize pipeline, and re-executes — the "recompilation loop". With a
// project directory set, the CFG is persisted as JSON after every round (the
// paper's on-disk representation).
#ifndef POLYNIMA_RECOMP_RECOMPILER_H_
#define POLYNIMA_RECOMP_RECOMPILER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/binary/image.h"
#include "src/cfg/cfg.h"
#include "src/check/differential.h"
#include "src/check/witness.h"
#include "src/exec/engine.h"
#include "src/lift/lifter.h"
#include "src/obs/report.h"
#include "src/opt/passes.h"
#include "src/support/status.h"
#include "src/trace/icft_tracer.h"

namespace polynima::recomp {

struct RecompileOptions {
  cfg::RecoverOptions recover;
  lift::LiftOptions lift;
  opt::PipelineOptions pipeline;
  bool optimize = true;
  // Run the ICFT tracer over these input sets before lifting (§3.2 Dynamic).
  bool use_icft_tracer = false;
  std::vector<std::vector<std::vector<uint8_t>>> trace_input_sets;
  // Remove all fences before optimizing (only after the §3.4 analysis has
  // proven the absence of implicit synchronization).
  bool remove_fences = false;
  // Directory for on-disk artifacts (cfg.json); optional.
  std::optional<std::string> project_dir;
  // Worker threads for the lift and per-function optimization phases
  // (0 = one per hardware thread). Fanned out into lift.jobs/pipeline.jobs
  // by the driver; the printed IR is byte-identical for every value.
  int jobs = 1;
  // Across additive rounds, reuse the lifted+optimized IR of functions whose
  // CFG (including cross-function target resolution) is unchanged, re-lifting
  // only affected functions. Automatically disabled when inlining is enabled
  // (inlining is cross-function) or when optimization is off.
  bool incremental = true;
  // Run the static TSO-soundness checker (src/check) over the IR after every
  // rebuild: each guest access must be covered by a fence/atomic on every
  // path or carry a re-verifiable elision witness. With remove_fences set, a
  // sealed ElisionCert is required (minted automatically from the spinloop
  // analysis when absent); a failed check aborts the recompilation.
  bool check_tso = false;
  // Run the static concurrency analyzer (src/analyze) after every rebuild:
  // classify each guest access (stack-local / thread-local heap / shared),
  // detect potential races, stamp kHeapLocal witnesses on proven-private
  // heap accesses and elide their fences (fenceopt::ApplyStaticElision),
  // and mint the StaticCert the TSO checker needs to accept those
  // witnesses. Part of the additive-cache fingerprint (it mutates the IR).
  bool analyze = false;
  // Certificate justifying per-access kHeapLocal elision. Populated by
  // Rebuild() when `analyze` is set and none was supplied; handed to the
  // TSO checker alongside the program's external-name table.
  std::optional<check::StaticCert> static_cert;
  // Certificate justifying whole-module fence removal. Populated by
  // Recompile() when check_tso && remove_fences and none was supplied.
  std::optional<check::ElisionCert> elision_cert;
  // Sound indirect control-flow recovery (--cfg-sound): recover the CFG with
  // landing-pad entries, run the icf pass (src/analyze/icf.h) over a first
  // build, mint a sealed CfgCert, and rebuild with the cfmiss stubs of
  // proven sites replaced by covered dispatcher fallbacks (no tier-1/2
  // uncovered-edge guards). Replay digests and step counts are unchanged:
  // the fallback arm is statically infeasible at a proven site.
  bool cfg_sound = false;
  // Certificate consumed when cfg_sound is set, and ignored otherwise.
  // Recompile() always derives it afresh from the image and stores the
  // derived cert here. A supplied certificate whose claims (sites, target
  // sets, covered functions) or image binding differ from the derived one is
  // rejected and counted in stats.icf_certs_rejected; the build uses the
  // derived cert either way.
  std::optional<check::CfgCert> cfg_cert;
  // Observability sinks (all nullable; see src/obs). The driver fans the
  // session out to every phase: "cfg"/"trace"/"recomp"/"emit" spans here,
  // per-function "lift"/"opt" spans on worker lanes, "check"/"fenceopt"
  // spans in the soundness machinery, and the corresponding counters.
  // Deliberately absent from the additive-cache fingerprint — observability
  // must never change what a function lifts/optimizes to.
  obs::Session obs;
};

struct RecompileStats {
  // Wall-clock time per phase.
  uint64_t disassemble_ns = 0;
  uint64_t trace_ns = 0;
  uint64_t lift_ns = 0;
  uint64_t opt_ns = 0;
  // Process CPU time per parallel phase (sums all worker threads, so
  // cpu/wall approximates effective parallelism).
  uint64_t lift_cpu_ns = 0;
  uint64_t opt_cpu_ns = 0;
  size_t icft_count = 0;       // traced indirect-transfer targets (Table 4)
  int additive_rounds = 0;     // recompilation loops triggered (Figure 4)
  // Additive-cache effectiveness.
  size_t cache_hits = 0;    // function bodies cloned from the previous round
  size_t cache_misses = 0;  // function bodies lifted (first build included)
  std::vector<size_t> relifted_per_round;  // bodies lifted, one entry/rebuild
  // TSO checker counters (accumulated over every rebuild when check_tso).
  size_t tso_accesses_checked = 0;
  size_t tso_witnesses_consumed = 0;
  size_t tso_heap_witnesses_consumed = 0;
  size_t tso_violations = 0;
  // Static concurrency analyzer counters (accumulated when analyze).
  uint64_t analyze_ns = 0;
  size_t analyze_races = 0;        // race pairs in the LAST rebuild's report
  size_t analyze_fences_elided = 0;  // fences removed via kHeapLocal, total
  // Sound indirect-control-flow recovery (cfg_sound).
  int icf_landing_pads = 0;
  int icf_sites_proven = 0;
  int icf_sites_open = 0;
  size_t icf_certs_rejected = 0;  // supplied CfgCerts unlike the derived one
  uint64_t total_ns() const {
    return disassemble_ns + trace_ns + lift_ns + opt_ns;
  }
};

// The recompiled artifact: original image (stays mapped) + lifted program +
// the CFG it was built from.
struct RecompiledBinary {
  binary::Image image;
  cfg::ControlFlowGraph graph;
  lift::LiftedProgram program;

  // Executes the recompiled program.
  exec::ExecResult Run(const std::vector<std::vector<uint8_t>>& inputs,
                       exec::ExecOptions options = {}) const;
};

class Recompiler {
 public:
  Recompiler(binary::Image image, RecompileOptions options)
      : image_(std::move(image)), options_(std::move(options)) {}

  // One full pipeline pass: disassemble (+trace), lift, optimize.
  Expected<RecompiledBinary> Recompile();

  // Runs the recompiled binary; on a control-flow miss, integrates the
  // discovered target and recompiles (additive lifting), until the run
  // completes or the round limit is hit.
  Expected<exec::ExecResult> RunAdditive(
      RecompiledBinary& binary,
      const std::vector<std::vector<uint8_t>>& inputs,
      exec::ExecOptions exec_options = {});

  // Dynamic callback analysis (§3.3.3): runs the recompiled binary over the
  // input sets recording external entries, then produces a slimmed artifact
  // with only observed callbacks marked external (enabling inlining).
  Expected<RecompiledBinary> RecompileWithCallbackAnalysis(
      const std::vector<std::vector<std::vector<uint8_t>>>& input_sets);

  // Dynamic half of the TSO check: rebuilds a fully-fenced reference module
  // from `binary`'s CFG and runs it against the optimized module under
  // perturbed schedules (check::RunScheduleDifferential), diffing observable
  // results.
  Expected<check::DifferentialResult> RunTsoDifferential(
      const RecompiledBinary& binary,
      const std::vector<std::vector<std::vector<uint8_t>>>& input_sets,
      const check::DifferentialOptions& options = {});

  const RecompileStats& stats() const { return stats_; }
  const binary::Image& image() const { return image_; }
  RecompileOptions& options() { return options_; }
  // polynima-analyze/v1 document from the last analyzed Rebuild (null until
  // `analyze` has run); plugs straight into obs::RunInfo::analysis.
  const json::Value& analysis_json() const { return analysis_json_; }
  // polynima-icf/v1 document from the cfg_sound analysis (null until
  // Recompile has minted a certificate); attached to the analysis report as
  // its "icf" section.
  const json::Value& icf_json() const { return icf_json_; }

 private:
  // One cached function from the previous recompilation round. `holder`
  // keeps the module that owns `fn` alive after the round's RecompiledBinary
  // is superseded; after every Rebuild the cache re-points at the new module
  // so earlier modules can be freed.
  struct CacheEntry {
    uint64_t key = 0;  // CFG + options hash; mismatch forces a re-lift
    ir::Function* fn = nullptr;
    std::shared_ptr<ir::Module> holder;
  };

  Expected<RecompiledBinary> Rebuild(const cfg::ControlFlowGraph& graph);
  void PersistCfg(const cfg::ControlFlowGraph& graph);

  binary::Image image_;
  RecompileOptions options_;
  RecompileStats stats_;
  json::Value analysis_json_;
  json::Value icf_json_;
  std::map<uint64_t, CacheEntry> cache_;  // guest entry -> cached function
};

}  // namespace polynima::recomp

#endif  // POLYNIMA_RECOMP_RECOMPILER_H_
