// Driver for the static concurrency analyzer (ISSUE 5 tentpole): runs the
// thread-escape / memory-region pass (escape.h) per function on the shared
// thread pool, then the whole-program static race detector (race.h), and
// summarizes everything into
//   - an AnalysisResult (counts + per-function escape results + race report),
//   - a sealed check::StaticCert justifying kHeapLocal fence elision,
//   - a polynima-analyze/v1 JSON section for the run report.
//
// The analysis is purely static — no guest execution — and deliberately
// conservative: every claim it certifies (an access is thread-private) is
// re-derivable by the TSO checker with the same check::RegionDeriver, and
// every fact it cannot prove degrades toward "shared" / "racing", never the
// other way.
#ifndef POLYNIMA_ANALYZE_ANALYZE_H_
#define POLYNIMA_ANALYZE_ANALYZE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/analyze/escape.h"
#include "src/analyze/race.h"
#include "src/binary/image.h"
#include "src/check/witness.h"
#include "src/lift/lifter.h"
#include "src/obs/report.h"
#include "src/support/json.h"

namespace polynima::analyze {

struct AnalyzeOptions {
  // Worker threads for the per-function escape pass (0 = one per hardware
  // thread, same convention as LiftOptions::jobs).
  int jobs = 1;
  // Observability sinks (all nullable).
  obs::Session obs;
};

struct AnalysisResult {
  int functions = 0;
  int accesses = 0;
  int stack_local = 0;
  int heap_local = 0;
  int shared = 0;
  int alloc_sites = 0;
  int escaped_sites = 0;
  // Accesses stamped FenceWitness::kHeapLocal and fences removed for them —
  // zero until fenceopt::ApplyStaticElision runs over the same module.
  int heap_witnesses = 0;
  int fences_elided = 0;
  int64_t analyze_ns = 0;
  RaceReport races;
  // Keyed by the analyzed functions; referenced by ApplyStaticElision.
  std::map<const ir::Function*, EscapeResult> escapes;
  // Human-readable "function@addr: classification" lines (escaped sites and
  // race pairs), also sealed into the StaticCert.
  std::vector<std::string> site_summaries;

  std::string Summary() const;
  // polynima-analyze/v1 section for the run report (obs::RunInfo::analysis).
  json::Value ToJson() const;
};

// Analyzes every lifted function of `program`. Thread-private claims are
// only meaningful when the program was lifted with thread_local_state (each
// guest thread gets its own virtual CPU) — callers gate on that.
AnalysisResult AnalyzeProgram(const lift::LiftedProgram& program,
                              const AnalyzeOptions& options = {});

// Mints the sealed certificate binding this analysis to `image`. Must be
// called after ApplyStaticElision so heap_witnesses is final — the TSO
// checker cross-checks every stamped access against the cert.
check::StaticCert MakeStaticCert(const AnalysisResult& result,
                                 const binary::Image& image);

}  // namespace polynima::analyze

#endif  // POLYNIMA_ANALYZE_ANALYZE_H_
