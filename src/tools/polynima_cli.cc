// polynima — the single command-line utility the paper describes (§4
// "Environment and Software"): project management, disassembly, lifting and
// (additive) recompilation of binaries.
//
//   polynima compile  <src.c> -o <img.plyb> [-O0|-O2] [--landing-pads]
//            build a test binary; --landing-pads emits endbr64 at every
//            indirect-transfer target (function entries, jump-table cases)
//            so --cfg-sound recovery can bound indirect sites
//   polynima disasm   <img.plyb>                        disassembly + CFG
//   polynima recompile <img.plyb> -p <projectdir>
//            [--trace <inputfile>...] [--remove-fences] [--no-optimize]
//            [--jobs N] [--check-tso] [--analyze] [--cfg-sound]
//   polynima run      <img.plyb> -p <projectdir> [--input <file>]...
//            [--original] [--jobs N] [--check-tso] [--cfg-sound]
//            [--tier 0|1|2] [--tier-threshold N]        additive execution
//   polynima analyze  <img.plyb> [--input <file>]... [--jobs N] [--cfg-sound]
//            static concurrency analysis (src/analyze): classifies every
//            guest access (stack-local / thread-local heap / shared),
//            reports potentially-racing access pairs with guest addresses,
//            and counts the fences elided under kHeapLocal witnesses; with
//            --input it additionally runs the spinloop analysis
//   polynima check    <img.plyb> [--input <file>]... [--schedules N]
//            [--jobs N]                                 full TSO soundness
//   polynima explore  <img.plyb> [--input <file>]... [--remove-fences]
//            [--budget N] [--depth N] [--strategy pct|dfs|both] [--seed N]
//            [--dfs-bound N] [--replay <sched|file>] [--save-sched <file>]
//            [--analyze] [--cfg-sound] [--tier 0|1|2] [--tier-threshold N]
//            deterministic schedule exploration (src/sched): diff the
//            outcome sets of the fenced reference and the optimized build,
//            shrink any divergence to a minimal schedule, print the repro
//   polynima report   <obs.json>... [--top N] [--validate]
//            render any observability artifact (trace / metrics / profile /
//            tierprof / run report) as human tables; --validate only checks
//            structure and exits non-zero on a malformed or empty document
//
// Observability (src/obs) — every subcommand that builds or runs a binary
// accepts:
//   --trace-out <f>    Chrome trace_event JSON of the pipeline/run spans
//                      (load in Perfetto / about:tracing)
//   --metrics-out <f>  merged counter/gauge/histogram dump
//                      (polynima-metrics/v1)
//   --profile <f>      per-basic-block guest execution profile from the
//                      exec engine (polynima-profile/v1): entry counts and
//                      per-site fence/atomic frequencies
//   --report-out <f>   one polynima-report/v1 document tying the run and
//                      its artifacts together (implies a metrics registry)
//   --tier-prof <f>    execution-tier telemetry (polynima-tierprof/v1):
//                      JIT lifecycle events (translation, tier-up, OSR,
//                      per-reason deopts), per-function tier-residency
//                      timelines, tier-flap counts and tier-2 helper-call
//                      frequencies (run / explore)
//   --perf-map <f>     Linux perf-compatible map of the installed native
//                      code ranges (`addr size tierN:<function>` rows;
//                      implies the --tier-prof recorder)
// Flags may be spelled --flag value or --flag=value. A numeric flag takes a
// non-negative decimal count (--seed and --tier-threshold also take 0x hex
// and leading-0 octal); a malformed or out-of-range value is a usage error
// (exit 2). All sinks are off by default; the disabled cost at every
// instrumentation point is one branch on a null pointer — and with no sink
// at all, dispatch selects instruction loops with every check compiled out.
//
// Tiered execution (src/exec, DESIGN.md §4f-4g) — `run` and `explore` accept:
//   --tier 0|1|2         highest execution tier (default 0). Tier 1
//                        translates hot functions to direct-threaded
//                        superinstruction bytecode; tier 2 re-emits the
//                        tier-1 stream as native x86 behind the same deopt
//                        guards (silently capped at 1 when the host cannot
//                        map executable code). Results, schedules and state
//                        digests are bit-identical across all tiers.
//   --tier-threshold N   block-entry count before a function is translated
//                        (default 0 = translate eagerly on first entry);
//                        tier-2 re-emission fires at twice this threshold
//
// `explore` builds a fully-fenced reference and an optimized build
// (--remove-fences deletes every fence — the fault-injection mode used to
// validate the harness), then explores thread schedules with seeded PCT and
// bounded-preemption DFS under the controlled scheduler. A divergence in
// either direction (new or lost outcome) exits 1 and prints a
// `polysched/v1` repro string that replays bit-identically; --replay runs
// one such schedule (inline or from a .sched corpus file) instead of
// exploring.
//
// --jobs N runs the lift, per-function optimization and analysis phases on N
// worker threads (default 1; 0 = one per hardware thread; output is
// identical for any N). N must be a decimal count no larger than the host's
// hardware concurrency; anything else is a usage error.
//
// --check-tso runs the static TSO-soundness checker (src/check) after every
// (re)compilation: each guest memory access must be covered by a
// fence/atomic on every path or carry a machine-checkable elision witness.
// With --remove-fences it additionally demands a sealed spinloop
// certificate, which `recompile`/`run` mint automatically (and refuse when
// the analysis finds a potentially-spinning loop).
//
// --analyze runs the static concurrency analyzer (src/analyze) after every
// (re)compilation: escape/region classification, static race detection, and
// kHeapLocal fence elision under a sealed StaticCert (which --check-tso
// re-derives access by access). The analysis section lands in the
// --report-out document (polynima-analyze/v1). `explore` feeds the reported
// race addresses to the scheduler as preemption hints.
//
// --cfg-sound runs sound indirect control-flow recovery (src/analyze/icf):
// CFG exploration seeded from endbr64 landing pads, pointer-provenance
// bounding of every indirect jump/call's feasible target set, and a sealed
// image-bound CfgCert for proven-complete sites. Builds consuming the cert
// drop the cfmiss stub (and the tier-1/2 uncovered-edge deopt guards) at
// proven sites; open sites keep dynamic recovery. Digests, step counts and
// schedule replays are bit-identical with the flag on or off. The analysis
// lands in the --report-out document as its "icf" section, which
// `report --validate` cross-checks against tierprof deopt forensics.
//
// `check` is the full soundness workflow: static check of the fenced build,
// spinloop analysis + certificate, static check of the fence-removed build,
// then the schedule-perturbing differential run (fenced vs optimized under
// --schedules N perturbed thread interleavings).
//
// A project directory persists the on-disk CFG (cfg.json) across runs, so
// control-flow misses discovered on one execution benefit the next — the
// on-device lifting workflow of §3.2.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "src/analyze/analyze.h"
#include "src/cc/compiler.h"
#include "src/cfg/cfg.h"
#include "src/exec/engine.h"
#include "src/fenceopt/spinloop.h"
#include "src/obs/report.h"
#include "src/recomp/recompiler.h"
#include "src/sched/explore.h"
#include "src/sched/schedule.h"
#include "src/sched/scheduler.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"
#include "src/vm/vm.h"
#include "src/x86/decoder.h"
#include "src/x86/printer.h"

namespace polynima {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: polynima "
      "<compile|disasm|recompile|run|analyze|check|explore|report> ...\n"
      "see the header of src/tools/polynima_cli.cc\n");
  return 2;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

struct Args {
  std::vector<std::string> positional;
  std::vector<std::string> inputs;       // --input files
  std::vector<std::string> trace_files;  // --trace files
  std::string output;
  std::string project;
  int opt_level = 2;
  int jobs = 1;  // 0 = one per hardware thread
  int schedules = 4;
  bool remove_fences = false;
  bool optimize = true;
  bool original = false;
  bool check_tso = false;
  bool analyze = false;
  bool cfg_sound = false;
  bool landing_pads = false;  // compile: emit endbr64 landing pads
  // explore
  int budget = 128;
  int depth = 3;
  int dfs_bound = 2;
  uint64_t seed = 1;
  // tiered execution (run / explore)
  int tier = 0;
  uint64_t tier_threshold = 0;
  std::string strategy = "both";
  std::string replay;      // inline repro string or .sched file path
  std::string save_sched;  // write the shrunk witness here
  // observability
  std::string trace_out;    // Chrome trace_event JSON
  std::string metrics_out;  // polynima-metrics/v1
  std::string profile_out;  // polynima-profile/v1 (--profile)
  std::string report_out;   // polynima-report/v1
  std::string tierprof_out;  // polynima-tierprof/v1 (--tier-prof)
  std::string perf_map;      // Linux perf /tmp/perf-<pid>.map format
  int top = 10;             // report: rows per table
  bool validate = false;    // report: structural validation only
};

// Parses the value of the numeric flag `flag` into 0..max: digits only, so
// a sign, a space, trailing junk or an empty value is refused. Decimal,
// unless `prefixed`, where a 0x prefix reads hex and a leading 0 octal (the
// spellings strtoull's base 0 accepts). Prints a usage error otherwise;
// `note` explains the range.
bool ParseCount(const std::string& flag, const std::string& v, uint64_t max,
                bool prefixed, const char* note, uint64_t* out) {
  std::string_view digits = v;
  int base = 10;
  if (prefixed && digits.size() > 1 && digits[0] == '0') {
    base = digits[1] == 'x' || digits[1] == 'X' ? 16 : 8;
    digits.remove_prefix(base == 16 ? 2 : 1);
  }
  uint64_t n = 0;
  const char* last = digits.data() + digits.size();
  auto [end, ec] = std::from_chars(digits.data(), last, n, base);
  if (digits.empty() || ec != std::errc() || end != last || n > max) {
    std::fprintf(stderr, "%s expects 0..%llu%s, got '%s'\n", flag.c_str(),
                 static_cast<unsigned long long>(max), note, v.c_str());
    return false;
  }
  *out = n;
  return true;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    // --flag=value is equivalent to --flag value.
    std::string inline_value;
    bool has_inline = false;
    if (a.size() > 2 && a[0] == '-' && a[1] == '-') {
      size_t eq = a.find('=');
      if (eq != std::string::npos) {
        inline_value = a.substr(eq + 1);
        a.resize(eq);
        has_inline = true;
      }
    }
    auto next = [&](std::string& out) {
      if (has_inline) {
        out = inline_value;
        return true;
      }
      if (i + 1 >= argc) {
        return false;
      }
      out = argv[++i];
      return true;
    };
    // Reads the value of numeric flag `a` into `*out` (see ParseCount).
    auto count = [&](uint64_t max, auto* out, bool prefixed = false,
                     const char* note = "") {
      std::string v;
      uint64_t n = 0;
      if (!next(v) || !ParseCount(a, v, max, prefixed, note, &n)) {
        return false;
      }
      *out = static_cast<std::remove_pointer_t<decltype(out)>>(n);
      return true;
    };
    constexpr uint64_t kIntMax = std::numeric_limits<int>::max();
    constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();
    if (a == "-o") {
      if (!next(args.output)) return false;
    } else if (a == "-p") {
      if (!next(args.project)) return false;
    } else if (a == "--input") {
      std::string f;
      if (!next(f)) return false;
      args.inputs.push_back(f);
    } else if (a == "--trace") {
      std::string f;
      if (!next(f)) return false;
      args.trace_files.push_back(f);
    } else if (a == "-O0") {
      args.opt_level = 0;
    } else if (a == "-O2" || a == "-O3") {
      args.opt_level = 2;
    } else if (a == "--jobs") {
      if (!count(static_cast<uint64_t>(ThreadPool::ResolveJobs(0)), &args.jobs,
                 false, " (0 = one per hardware thread)")) {
        return false;
      }
    } else if (a == "--remove-fences") {
      args.remove_fences = true;
    } else if (a == "--check-tso") {
      args.check_tso = true;
    } else if (a == "--analyze") {
      args.analyze = true;
    } else if (a == "--cfg-sound") {
      args.cfg_sound = true;
    } else if (a == "--landing-pads") {
      args.landing_pads = true;
    } else if (a == "--schedules") {
      if (!count(kIntMax, &args.schedules)) return false;
    } else if (a == "--no-optimize") {
      args.optimize = false;
    } else if (a == "--budget") {
      if (!count(kIntMax, &args.budget)) return false;
    } else if (a == "--depth") {
      if (!count(kIntMax, &args.depth)) return false;
    } else if (a == "--dfs-bound") {
      if (!count(kIntMax, &args.dfs_bound)) return false;
    } else if (a == "--seed") {
      if (!count(kU64Max, &args.seed, /*prefixed=*/true)) return false;
    } else if (a == "--tier") {
      if (!count(2, &args.tier)) return false;
    } else if (a == "--tier-threshold") {
      if (!count(kU64Max, &args.tier_threshold, /*prefixed=*/true)) {
        return false;
      }
    } else if (a == "--strategy") {
      if (!next(args.strategy)) return false;
    } else if (a == "--replay") {
      if (!next(args.replay)) return false;
    } else if (a == "--save-sched") {
      if (!next(args.save_sched)) return false;
    } else if (a == "--original") {
      args.original = true;
    } else if (a == "--trace-out") {
      if (!next(args.trace_out)) return false;
    } else if (a == "--metrics-out") {
      if (!next(args.metrics_out)) return false;
    } else if (a == "--profile") {
      if (!next(args.profile_out)) return false;
    } else if (a == "--report-out") {
      if (!next(args.report_out)) return false;
    } else if (a == "--tier-prof") {
      if (!next(args.tierprof_out)) return false;
    } else if (a == "--perf-map") {
      if (!next(args.perf_map)) return false;
    } else if (a == "--top") {
      if (!count(kIntMax, &args.top)) return false;
    } else if (a == "--validate") {
      args.validate = true;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return false;
    } else {
      args.positional.push_back(a);
    }
  }
  return true;
}

std::vector<std::vector<uint8_t>> LoadInputs(const Args& args) {
  std::vector<std::vector<uint8_t>> inputs;
  for (const std::string& f : args.inputs) {
    inputs.push_back(ReadFileBytes(f));
  }
  return inputs;
}

// CLI-owned observability sinks, one per requested output file, plus the
// Session handed down to the pipeline. Finish() writes every artifact (and
// the run report) once, after the command body.
struct ObsSinks {
  std::optional<obs::TraceSink> trace;
  std::optional<obs::MetricsRegistry> metrics;
  std::optional<obs::GuestProfile> profile;
  std::optional<obs::TierProf> tierprof;
  obs::Session session;
  // polynima-analyze/v1 section for the run report (set by commands that ran
  // the static concurrency analyzer; null otherwise).
  json::Value analysis;
  // polynima-icf/v1 section (set by commands that ran --cfg-sound).
  json::Value icf;

  explicit ObsSinks(const Args& args) {
    if (!args.trace_out.empty()) {
      session.trace = &trace.emplace();
    }
    // --report-out inlines the merged metrics dump, so it implies a
    // registry even without --metrics-out.
    if (!args.metrics_out.empty() || !args.report_out.empty()) {
      session.metrics = &metrics.emplace();
    }
    if (!args.profile_out.empty()) {
      session.profile = &profile.emplace();
    }
    // --perf-map implies the tier-telemetry recorder: the map rows come from
    // its installed-code registry.
    if (!args.tierprof_out.empty() || !args.perf_map.empty()) {
      session.tierprof = &tierprof.emplace();
    }
  }

  // Writes the requested artifacts; returns `exit_code`, or 1 if a write
  // failed. `run_ok` is stamped into the report, so a failing run still
  // produces its observability output.
  int Finish(const Args& args, const char* command, bool run_ok,
             int exit_code) {
    auto write = [&](const Status& st, const char* kind,
                     const std::string& path) {
      if (!st.ok()) {
        std::fprintf(stderr, "obs: %s\n", st.ToString().c_str());
        exit_code = 1;
        return;
      }
      info.artifacts.emplace_back(kind, path);
    };
    info.command = command;
    info.input = args.positional.empty() ? "" : args.positional[0];
    info.ok = run_ok;
    info.analysis = std::move(analysis);
    info.icf = std::move(icf);
    if (trace.has_value()) {
      write(trace->WriteTo(args.trace_out), "trace", args.trace_out);
    }
    if (metrics.has_value() && !args.metrics_out.empty()) {
      write(metrics->WriteTo(args.metrics_out), "metrics", args.metrics_out);
    }
    if (profile.has_value()) {
      write(profile->WriteTo(args.profile_out), "profile", args.profile_out);
    }
    if (tierprof.has_value() && !args.tierprof_out.empty()) {
      write(tierprof->WriteTo(args.tierprof_out), "tierprof",
            args.tierprof_out);
    }
    if (tierprof.has_value() && !args.perf_map.empty()) {
      write(tierprof->WritePerfMap(args.perf_map), "perf-map", args.perf_map);
    }
    if (!args.report_out.empty()) {
      Status st = json::WriteFile(args.report_out,
                                  obs::BuildRunReport(info, session));
      if (!st.ok()) {
        std::fprintf(stderr, "obs: %s\n", st.ToString().c_str());
        exit_code = 1;
      }
    }
    return exit_code;
  }

 private:
  obs::RunInfo info;
};

int CmdCompile(const Args& args) {
  if (args.positional.empty() || args.output.empty()) {
    return Usage();
  }
  std::ifstream in(args.positional[0]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", args.positional[0].c_str());
    return 1;
  }
  std::string source((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  cc::CompileOptions options;
  options.name = std::filesystem::path(args.output).stem();
  options.opt_level = args.opt_level;
  options.landing_pads = args.landing_pads;
  auto image = cc::Compile(source, options);
  if (!image.ok()) {
    std::fprintf(stderr, "%s\n", image.status().ToString().c_str());
    return 1;
  }
  Status st = image->WriteTo(args.output);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu code bytes, entry %s)\n", args.output.c_str(),
              image->segments[0].bytes.size(),
              HexString(image->entry_point).c_str());
  return 0;
}

int CmdDisasm(const Args& args) {
  if (args.positional.empty()) {
    return Usage();
  }
  auto image = binary::Image::ReadFrom(args.positional[0]);
  if (!image.ok()) {
    std::fprintf(stderr, "%s\n", image.status().ToString().c_str());
    return 1;
  }
  auto graph = cfg::RecoverStatic(*image);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  for (const auto& [entry, fn] : graph->functions) {
    std::printf("\n%s:\n", fn.name.c_str());
    for (uint64_t start : fn.block_starts) {
      auto bit = graph->blocks.find(start);
      if (bit == graph->blocks.end()) {
        continue;
      }
      const cfg::BlockInfo& block = bit->second;
      std::printf(".block_%s:  ; %s\n", HexString(start).c_str() + 2,
                  cfg::TermKindName(block.term));
      uint64_t addr = block.start;
      while (addr < block.end) {
        std::vector<uint8_t> bytes = image->ReadBytes(addr, 16);
        auto inst = x86::Decode(bytes, addr);
        if (!inst.ok()) {
          std::printf("  %s: (bad)\n", HexString(addr).c_str());
          break;
        }
        std::printf("  %s: %s\n", HexString(addr).c_str(),
                    x86::FormatInst(*inst).c_str());
        addr = inst->Next();
      }
      if (!block.indirect_targets.empty()) {
        std::printf("  ; %zu known indirect targets\n",
                    block.indirect_targets.size());
      }
    }
  }
  std::printf("\n%zu functions, %zu blocks, %zu indirect targets\n",
              graph->functions.size(), graph->blocks.size(),
              graph->TotalIndirectTargets());
  return 0;
}

recomp::RecompileOptions MakeOptions(const Args& args,
                                     const obs::Session& session = {}) {
  recomp::RecompileOptions options;
  if (!args.project.empty()) {
    options.project_dir = args.project;
  }
  options.remove_fences = args.remove_fences;
  options.optimize = args.optimize;
  options.jobs = args.jobs;
  options.check_tso = args.check_tso;
  options.analyze = args.analyze;
  options.cfg_sound = args.cfg_sound;
  options.obs = session;
  if (!args.trace_files.empty()) {
    options.use_icft_tracer = true;
    for (const std::string& f : args.trace_files) {
      options.trace_input_sets.push_back({ReadFileBytes(f)});
    }
  }
  return options;
}

// Shared --cfg-sound epilogue: prints the indirect-coverage summary, hands
// the polynima-icf/v1 section to the run report, and returns the entries of
// CfgCert-covered functions for ExecOptions::cfg_certified_entries.
std::set<uint64_t> FinishCfgSound(recomp::Recompiler& recompiler,
                                  ObsSinks& sinks) {
  const recomp::RecompileStats& stats = recompiler.stats();
  std::set<uint64_t> certified;
  size_t covered = 0;
  if (recompiler.options().cfg_cert.has_value()) {
    for (uint64_t e : recompiler.options().cfg_cert->covered_functions) {
      certified.insert(e);
    }
    covered = certified.size();
  }
  std::printf("  cfg-sound: %d landing pads, %d/%d indirect sites proven, "
              "%zu fully-covered function(s)%s\n",
              stats.icf_landing_pads, stats.icf_sites_proven,
              stats.icf_sites_proven + stats.icf_sites_open, covered,
              stats.icf_certs_rejected > 0
                  ? " (stale/forged certificate rejected, re-derived)"
                  : "");
  sinks.icf = recompiler.icf_json();
  return certified;
}

int CmdRecompile(const Args& args) {
  if (args.positional.empty()) {
    return Usage();
  }
  auto image = binary::Image::ReadFrom(args.positional[0]);
  if (!image.ok()) {
    std::fprintf(stderr, "%s\n", image.status().ToString().c_str());
    return 1;
  }
  ObsSinks sinks(args);
  recomp::Recompiler recompiler(*image, MakeOptions(args, sinks.session));
  auto binary = recompiler.Recompile();
  if (!binary.ok()) {
    std::fprintf(stderr, "%s\n", binary.status().ToString().c_str());
    return sinks.Finish(args, "recompile", /*run_ok=*/false, 1);
  }
  const recomp::RecompileStats& stats = recompiler.stats();
  std::printf("recompiled %s: %zu functions, %zu blocks\n",
              args.positional[0].c_str(),
              binary->program.functions_by_entry.size(),
              binary->graph.blocks.size());
  std::printf("  disassemble %.1f ms, trace %.1f ms (%zu ICFTs), "
              "lift %.1f ms, optimize %.1f ms\n",
              stats.disassemble_ns / 1e6, stats.trace_ns / 1e6,
              stats.icft_count, stats.lift_ns / 1e6, stats.opt_ns / 1e6);
  std::printf("  jobs %d: lift cpu %.1f ms, optimize cpu %.1f ms\n",
              ThreadPool::ResolveJobs(args.jobs),
              stats.lift_cpu_ns / 1e6, stats.opt_cpu_ns / 1e6);
  std::printf("  additive cache: %zu hits, %zu misses\n", stats.cache_hits,
              stats.cache_misses);
  if (args.check_tso) {
    std::printf("  tso check: %zu accesses, %zu witnesses (%zu heap), "
                "%zu violations\n",
                stats.tso_accesses_checked, stats.tso_witnesses_consumed,
                stats.tso_heap_witnesses_consumed, stats.tso_violations);
  }
  if (args.analyze) {
    std::printf("  analyze: %.1f ms, %zu race pair(s), "
                "%zu fence(s) elided statically\n",
                stats.analyze_ns / 1e6, stats.analyze_races,
                stats.analyze_fences_elided);
    sinks.analysis = recompiler.analysis_json();
  }
  if (args.cfg_sound) {
    FinishCfgSound(recompiler, sinks);
  }
  if (!args.project.empty()) {
    std::printf("  project CFG: %s/cfg.json\n", args.project.c_str());
  }
  return sinks.Finish(args, "recompile", /*run_ok=*/true, 0);
}

int CmdRun(const Args& args) {
  if (args.positional.empty()) {
    return Usage();
  }
  auto image = binary::Image::ReadFrom(args.positional[0]);
  if (!image.ok()) {
    std::fprintf(stderr, "%s\n", image.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<uint8_t>> inputs = LoadInputs(args);
  ObsSinks sinks(args);
  if (args.original) {
    vm::ExternalLibrary library;
    vm::VmOptions vm_options;
    vm_options.obs = sinks.session;
    vm::Vm virtual_machine(*image, &library, vm_options);
    virtual_machine.SetInputs(inputs);
    vm::RunResult r = virtual_machine.Run();
    std::fputs(r.output.c_str(), stdout);
    if (!r.ok) {
      std::fprintf(stderr, "fault: %s\n", r.fault_message.c_str());
      return sinks.Finish(args, "run", /*run_ok=*/false, 1);
    }
    return sinks.Finish(args, "run", /*run_ok=*/true,
                        static_cast<int>(r.exit_code) & 0xff);
  }
  recomp::Recompiler recompiler(*image, MakeOptions(args, sinks.session));
  auto binary = recompiler.Recompile();
  if (!binary.ok()) {
    std::fprintf(stderr, "%s\n", binary.status().ToString().c_str());
    return sinks.Finish(args, "run", /*run_ok=*/false, 1);
  }
  exec::ExecOptions exec_options;
  exec_options.obs = sinks.session;
  exec_options.tier = args.tier;
  exec_options.tier_threshold = args.tier_threshold;
  if (args.cfg_sound) {
    exec_options.cfg_certified_entries = FinishCfgSound(recompiler, sinks);
  }
  auto result = recompiler.RunAdditive(*binary, inputs, exec_options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return sinks.Finish(args, "run", /*run_ok=*/false, 1);
  }
  std::fputs(result->output.c_str(), stdout);
  if (recompiler.stats().additive_rounds > 0) {
    std::fprintf(stderr,
                 "[polynima] %d recompilation loop(s) this run "
                 "(%zu bodies re-lifted, %zu reused from cache)\n",
                 recompiler.stats().additive_rounds,
                 recompiler.stats().cache_misses,
                 recompiler.stats().cache_hits);
  }
  if (!result->ok) {
    std::fprintf(stderr, "fault: %s\n", result->fault_message.c_str());
    return sinks.Finish(args, "run", /*run_ok=*/false, 1);
  }
  return sinks.Finish(args, "run", /*run_ok=*/true,
                      static_cast<int>(result->exit_code) & 0xff);
}

int CmdAnalyze(const Args& args) {
  if (args.positional.empty()) {
    return Usage();
  }
  auto image = binary::Image::ReadFrom(args.positional[0]);
  if (!image.ok()) {
    std::fprintf(stderr, "%s\n", image.status().ToString().c_str());
    return 1;
  }
  ObsSinks sinks(args);
  // Static concurrency analysis (the subsystem this subcommand fronts):
  // recompile with `analyze` so the lifted+optimized IR — the IR that will
  // actually execute — is what gets classified.
  recomp::RecompileOptions options = MakeOptions(args, sinks.session);
  options.analyze = true;
  recomp::Recompiler recompiler(*image, options);
  auto binary = recompiler.Recompile();
  if (!binary.ok()) {
    std::fprintf(stderr, "%s\n", binary.status().ToString().c_str());
    return sinks.Finish(args, "analyze", /*run_ok=*/false, 1);
  }
  sinks.analysis = recompiler.analysis_json();
  if (args.cfg_sound) {
    FinishCfgSound(recompiler, sinks);
  }
  const json::Value& a = recompiler.analysis_json();
  auto num = [&](const char* key) -> int64_t {
    const json::Value* v = a.Find(key);
    return v != nullptr && v->is_int() ? v->as_int() : 0;
  };
  std::printf("analyzed %lld function(s): %lld accesses "
              "(%lld stack-local, %lld heap-local, %lld shared)\n",
              static_cast<long long>(num("functions")),
              static_cast<long long>(num("accesses")),
              static_cast<long long>(num("stack_local")),
              static_cast<long long>(num("heap_local")),
              static_cast<long long>(num("shared")));
  std::printf("allocation sites: %lld (%lld escaped); "
              "%lld heap witness(es), %lld fence(s) elided statically\n",
              static_cast<long long>(num("alloc_sites")),
              static_cast<long long>(num("escaped_sites")),
              static_cast<long long>(num("heap_witnesses")),
              static_cast<long long>(num("fences_elided_static")));
  const json::Value* pairs = a.Find("race_pairs");
  size_t race_count =
      pairs != nullptr && pairs->is_array() ? pairs->as_array().size() : 0;
  std::printf("thread roots: %lld%s; race pairs: %zu%s\n",
              static_cast<long long>(num("thread_roots")),
              num("conservative_roots") != 0 ? " (conservative)" : "",
              race_count, num("truncated") != 0 ? " (truncated)" : "");
  if (race_count != 0) {
    for (const json::Value& p : pairs->as_array()) {
      auto side = [&](const char* key) -> std::string {
        const json::Value* s = p.Find(key);
        if (s == nullptr || !s->is_object()) {
          return "?";
        }
        const json::Value* fn = s->Find("function");
        const json::Value* ga = s->Find("guest_address");
        const json::Value* w = s->Find("write");
        return StrCat(
            fn != nullptr && fn->is_string() ? fn->as_string() : "?", "@",
            HexString(ga != nullptr && ga->is_int() ? ga->as_uint() : 0),
            w != nullptr && w->is_bool() && w->as_bool() ? " W" : " R");
      };
      const json::Value* reason = p.Find("reason");
      std::printf("RACE  %s <-> %s (%s)\n", side("a").c_str(),
                  side("b").c_str(),
                  reason != nullptr && reason->is_string()
                      ? reason->as_string().c_str()
                      : "?");
    }
  }
  // With inputs, additionally run the dynamic spinloop analysis the fence
  // optimizer uses for whole-module removal (the subcommand's original job).
  if (!args.inputs.empty()) {
    auto spin = fenceopt::DetectImplicitSynchronization(
        *image, binary->graph, {LoadInputs(args)}, sinks.session);
    if (!spin.ok()) {
      std::fprintf(stderr, "%s\n", spin.status().ToString().c_str());
      return sinks.Finish(args, "analyze", /*run_ok=*/false, 1);
    }
    for (const auto& loop : spin->loops) {
      std::printf("%-10s loop %s/%s: %s\n",
                  loop.spinning ? "SPINNING" : "non-spin",
                  loop.function.c_str(), loop.header_block.c_str(),
                  loop.reason.c_str());
    }
    std::printf("fence removal: %s\n",
                spin->FenceRemovalSafe() ? "SAFE" : "withheld");
  }
  return sinks.Finish(args, "analyze", /*run_ok=*/true, 0);
}

// Full TSO-soundness workflow over one binary: static check fenced, spinloop
// analysis + certificate, static check fence-removed, schedule-perturbing
// differential run.
int CmdCheckImpl(const Args& args, const obs::Session& session) {
  auto image = binary::Image::ReadFrom(args.positional[0]);
  if (!image.ok()) {
    std::fprintf(stderr, "%s\n", image.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<uint8_t>> inputs = LoadInputs(args);

  // 1. Fenced build, statically checked after every (re)compilation round.
  recomp::RecompileOptions fenced_options;
  fenced_options.check_tso = true;
  fenced_options.jobs = args.jobs;
  fenced_options.obs = session;
  recomp::Recompiler fenced(*image, fenced_options);
  auto fenced_binary = fenced.Recompile();
  if (!fenced_binary.ok()) {
    std::fprintf(stderr, "FAIL (fenced build): %s\n",
                 fenced_binary.status().ToString().c_str());
    return 1;
  }
  auto fenced_run = fenced.RunAdditive(*fenced_binary, inputs);
  if (!fenced_run.ok() || !fenced_run->ok) {
    std::fprintf(stderr, "FAIL (fenced run): %s\n",
                 fenced_run.ok() ? fenced_run->fault_message.c_str()
                                 : fenced_run.status().ToString().c_str());
    return 1;
  }
  std::printf("fenced build: %zu accesses checked, %zu witnesses verified, "
              "0 violations\n",
              fenced.stats().tso_accesses_checked,
              fenced.stats().tso_witnesses_consumed);

  // 2. Spinloop analysis on the converged CFG; mint the elision cert.
  auto analysis = fenceopt::DetectImplicitSynchronization(
      *image, fenced_binary->graph, {inputs}, session);
  if (!analysis.ok()) {
    std::fprintf(stderr, "FAIL (spinloop analysis): %s\n",
                 analysis.status().ToString().c_str());
    return 1;
  }
  for (const auto& loop : analysis->loops) {
    std::printf("%-10s loop %s/%s: %s\n",
                loop.spinning ? "SPINNING" : "non-spin",
                loop.function.c_str(), loop.header_block.c_str(),
                loop.reason.c_str());
  }
  if (!analysis->FenceRemovalSafe()) {
    std::printf("fence removal withheld (%d potentially-spinning loop(s)); "
                "fenced build is TSO-sound — PASS\n",
                analysis->SpinningCount());
    return 0;
  }
  check::ElisionCert cert = fenceopt::MakeElisionCert(*analysis, *image);
  std::printf("elision certificate: %d loops, 0 spinning, checksum %s\n",
              cert.loops_analyzed, HexString(cert.checksum).c_str());

  // 3. Fence-removed build under the certificate, statically checked.
  recomp::RecompileOptions opt_options;
  opt_options.check_tso = true;
  opt_options.remove_fences = true;
  opt_options.elision_cert = cert;
  opt_options.jobs = args.jobs;
  opt_options.obs = session;
  recomp::Recompiler optimized(*image, opt_options);
  auto opt_binary = optimized.Recompile();
  if (!opt_binary.ok()) {
    std::fprintf(stderr, "FAIL (fence-removed build): %s\n",
                 opt_binary.status().ToString().c_str());
    return 1;
  }
  auto opt_run = optimized.RunAdditive(*opt_binary, inputs);
  if (!opt_run.ok() || !opt_run->ok) {
    std::fprintf(stderr, "FAIL (fence-removed run): %s\n",
                 opt_run.ok() ? opt_run->fault_message.c_str()
                              : opt_run.status().ToString().c_str());
    return 1;
  }
  std::printf("fence-removed build: %zu accesses checked, "
              "certificate accepted, 0 violations\n",
              optimized.stats().tso_accesses_checked);

  // 4. Schedule-perturbing differential: fenced reference vs optimized.
  check::DifferentialOptions diff_options;
  diff_options.schedules = args.schedules;
  auto diff = optimized.RunTsoDifferential(*opt_binary, {inputs},
                                           diff_options);
  if (!diff.ok()) {
    std::fprintf(stderr, "FAIL (differential): %s\n",
                 diff.status().ToString().c_str());
    return 1;
  }
  std::printf("differential: %d runs, %d divergences\n", diff->runs,
              diff->divergences);
  for (const std::string& report : diff->reports) {
    std::fprintf(stderr, "  divergence: %s\n", report.c_str());
  }
  if (!diff->ok()) {
    std::fprintf(stderr, "FAIL: optimized module diverges from the fenced "
                         "reference\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

int CmdCheck(const Args& args) {
  if (args.positional.empty()) {
    return Usage();
  }
  ObsSinks sinks(args);
  int rc = CmdCheckImpl(args, sinks.session);
  return sinks.Finish(args, "check", rc == 0, rc);
}

// Deterministic schedule exploration: fenced reference vs optimized build,
// outcome-set diff in both directions, shrinking, replayable repro strings.
int CmdExploreImpl(const Args& args, ObsSinks& sinks) {
  const obs::Session& session = sinks.session;
  auto image = binary::Image::ReadFrom(args.positional[0]);
  if (!image.ok()) {
    std::fprintf(stderr, "%s\n", image.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<uint8_t>> inputs = LoadInputs(args);

  // Reference: fully fenced, stack-local elision off — the gold behavior.
  recomp::RecompileOptions ref_options;
  ref_options.lift.elide_stack_local_fences = false;
  ref_options.jobs = args.jobs;
  ref_options.obs = session;
  recomp::Recompiler ref_recompiler(*image, ref_options);
  auto reference = ref_recompiler.Recompile();
  if (!reference.ok()) {
    std::fprintf(stderr, "FAIL (reference build): %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  // Converge the CFG under the default schedule so controlled runs do not
  // trip over control-flow misses mid-exploration.
  auto ref_warm = ref_recompiler.RunAdditive(*reference, inputs);
  if (!ref_warm.ok()) {
    std::fprintf(stderr, "FAIL (reference run): %s\n",
                 ref_warm.status().ToString().c_str());
    return 1;
  }

  // Optimized side: the build under test. --remove-fences deletes every
  // fence with no certificate — the fault-injection mode the harness's own
  // acceptance test uses.
  recomp::RecompileOptions opt_options;
  opt_options.remove_fences = args.remove_fences;
  opt_options.optimize = args.optimize;
  opt_options.jobs = args.jobs;
  // --analyze puts the statically-elided build under test and feeds the
  // reported race addresses to the explorer as preemption hints below.
  opt_options.analyze = args.analyze;
  // --cfg-sound puts the cfmiss-elided build under test: the optimized side
  // runs with the certified sites' uncovered-edge guards dropped, while the
  // fenced reference keeps full dynamic recovery — any digest divergence
  // would expose an unsound certificate.
  opt_options.cfg_sound = args.cfg_sound;
  opt_options.obs = session;
  recomp::Recompiler opt_recompiler(*image, opt_options);
  auto optimized = opt_recompiler.Recompile();
  if (!optimized.ok()) {
    std::fprintf(stderr, "FAIL (optimized build): %s\n",
                 optimized.status().ToString().c_str());
    return 1;
  }
  auto opt_warm = opt_recompiler.RunAdditive(*optimized, inputs);
  if (!opt_warm.ok()) {
    std::fprintf(stderr, "FAIL (optimized run): %s\n",
                 opt_warm.status().ToString().c_str());
    return 1;
  }
  std::set<uint64_t> certified_entries;
  if (args.cfg_sound) {
    certified_entries = FinishCfgSound(opt_recompiler, sinks);
  }

  auto make_run = [&](const lift::LiftedProgram* program) {
    return [&, program](sched::Scheduler* scheduler) {
      vm::ExternalLibrary library;
      exec::ExecOptions exec_options;
      exec_options.seed = args.seed;
      exec_options.scheduler = scheduler;
      exec_options.obs = session;
      exec_options.tier = args.tier;
      exec_options.tier_threshold = args.tier_threshold;
      if (program == &optimized->program) {
        exec_options.cfg_certified_entries = certified_entries;
      }
      exec::Engine engine(*program, *image, &library, exec_options);
      engine.SetInputs(inputs);
      exec::ExecResult r = engine.Run();
      sched::Outcome outcome;
      outcome.ok = r.ok;
      outcome.exit_code = r.exit_code;
      outcome.output = r.output;
      outcome.fault_message = r.fault_message;
      outcome.state_digest = r.state_digest;
      return outcome;
    };
  };
  sched::RunFn run_reference = make_run(&reference->program);
  sched::RunFn run_optimized = make_run(&optimized->program);

  if (!args.replay.empty()) {
    // Replay mode: run one schedule on both sides and report the outcomes.
    std::string text = args.replay;
    if (std::filesystem::exists(args.replay)) {
      std::ifstream in(args.replay);
      text.assign((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    }
    sched::Schedule schedule;
    auto parsed = sched::Schedule::Parse(text);
    if (!parsed.ok()) {
      auto corpus = sched::CorpusEntry::Parse(text);
      if (!corpus.ok()) {
        std::fprintf(stderr, "cannot parse schedule: %s\n",
                     parsed.status().ToString().c_str());
        return 1;
      }
      schedule = corpus->schedule;
    } else {
      schedule = *parsed;
    }
    for (bool on_reference : {true, false}) {
      sched::ReplayScheduler replay(schedule);
      sched::Outcome outcome =
          (on_reference ? run_reference : run_optimized)(&replay);
      std::printf("%s: [%s] digest=%s%s\n",
                  on_reference ? "reference" : "optimized",
                  outcome.Key().c_str(),
                  HexString(outcome.state_digest).c_str(),
                  replay.skipped_decisions() > 0 ? " (decisions skipped)" : "");
    }
    return 0;
  }

  sched::ExploreOptions explore_options;
  explore_options.seed = args.seed;
  explore_options.budget = args.budget;
  explore_options.pct.depth = args.depth;
  explore_options.dfs_preemption_bound = args.dfs_bound;
  explore_options.obs = session;
  if (args.analyze) {
    // Statically reported racing blocks become preemption hints: the PCT
    // side of the exploration forces context switches exactly where the
    // race detector believes two threads can collide.
    analyze::AnalyzeOptions analyze_options;
    analyze_options.jobs = args.jobs;
    analyze::AnalysisResult analysis =
        analyze::AnalyzeProgram(optimized->program, analyze_options);
    explore_options.preemption_hints =
        analyze::RaceHintAddresses(analysis.races);
    std::printf("analyze: %zu race pair(s) -> %zu preemption hint(s)\n",
                analysis.races.pairs.size(),
                explore_options.preemption_hints.size());
  }
  if (args.strategy == "pct") {
    explore_options.strategy = sched::ExploreOptions::Strategy::kPct;
  } else if (args.strategy == "dfs") {
    explore_options.strategy = sched::ExploreOptions::Strategy::kDfs;
  } else if (args.strategy == "both") {
    explore_options.strategy = sched::ExploreOptions::Strategy::kBoth;
  } else {
    std::fprintf(stderr, "unknown --strategy %s\n", args.strategy.c_str());
    return Usage();
  }

  sched::DiffReport report = sched::DiffExplore(run_reference, run_optimized,
                                               args.seed, explore_options);
  std::printf("%s\n", report.message.c_str());
  if (!report.diverged) {
    std::printf("PASS\n");
    return 0;
  }
  if (!args.save_sched.empty()) {
    sched::CorpusEntry entry;
    entry.program = args.positional[0];
    // The side the schedule must be replayed on to exhibit `expect`.
    entry.variant = report.missing_in_optimized
                        ? "fenced"
                        : (args.remove_fences ? "nofence" : "optimized");
    entry.expect = report.divergence_key;
    entry.schedule = report.witness;
    std::ofstream out(args.save_sched);
    out << "# saved by `polynima explore`; replay with --replay\n"
        << entry.Serialize();
    std::printf("witness schedule written to %s\n", args.save_sched.c_str());
  }
  std::fprintf(stderr, "FAIL: optimized build diverges from the fenced "
                       "reference under the explored schedules\n");
  return 1;
}

int CmdExplore(const Args& args) {
  if (args.positional.empty()) {
    return Usage();
  }
  ObsSinks sinks(args);
  int rc = CmdExploreImpl(args, sinks);
  return sinks.Finish(args, "explore", rc == 0, rc);
}

// Renders (or, with --validate, only structurally validates) observability
// artifacts: any mix of trace / metrics / profile / tierprof / report JSON
// files.
int CmdReport(const Args& args) {
  if (args.positional.empty()) {
    return Usage();
  }
  int rc = 0;
  for (const std::string& path : args.positional) {
    auto doc = json::ReadFile(path);
    if (!doc.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   doc.status().ToString().c_str());
      rc = 1;
      continue;
    }
    auto kind = obs::ValidateObsJson(*doc);
    if (!kind.ok()) {
      std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                   kind.status().ToString().c_str());
      rc = 1;
      continue;
    }
    if (args.validate) {
      std::printf("%s: valid %s\n", path.c_str(), kind->c_str());
      continue;
    }
    if (args.positional.size() > 1) {
      std::printf("== %s ==\n", path.c_str());
    }
    if (*kind == "trace") {
      std::fputs(obs::RenderTraceSummary(*doc).c_str(), stdout);
    } else if (*kind == "metrics") {
      std::fputs(obs::RenderMetrics(*doc).c_str(), stdout);
    } else if (*kind == "profile") {
      std::fputs(obs::RenderProfile(*doc, args.top).c_str(), stdout);
    } else if (*kind == "tierprof") {
      std::fputs(obs::RenderTierProf(*doc, args.top).c_str(), stdout);
    } else {
      std::fputs(obs::RenderReport(*doc, args.top).c_str(), stdout);
    }
  }
  return rc;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    return Usage();
  }
  std::string cmd = argv[1];
  if (cmd == "compile") {
    return CmdCompile(args);
  }
  if (cmd == "disasm") {
    return CmdDisasm(args);
  }
  if (cmd == "recompile") {
    return CmdRecompile(args);
  }
  if (cmd == "run") {
    return CmdRun(args);
  }
  if (cmd == "analyze") {
    return CmdAnalyze(args);
  }
  if (cmd == "check") {
    return CmdCheck(args);
  }
  if (cmd == "explore") {
    return CmdExplore(args);
  }
  if (cmd == "report") {
    return CmdReport(args);
  }
  return Usage();
}

}  // namespace
}  // namespace polynima

int main(int argc, char** argv) { return polynima::Main(argc, argv); }
