// Sound indirect control-flow recovery (--cfg-sound): classifies every
// indirect jump / indirect call site of the lifted program as
//
//   proven-complete  the feasible target set was bounded by a concrete-set
//                    value analysis over the lifted IR (constants, masked
//                    indices, loads from read-only tables, spill slots of a
//                    non-escaping frame) and every member is an endbr64
//                    landing pad — the site cannot transfer anywhere else;
//   open             the target derives from a writable location, an
//                    unbounded computation, or an escaped frame — dynamic
//                    recovery (cfmiss) must stay in place.
//
// A proven site's target set is sealed into a check::CfgCert bound to the
// image fingerprint; the lifter consuming a valid cert replaces the cfmiss
// stub at that site with a covered dispatcher-fallback block, which in turn
// lets tiers 1 and 2 drop their uncovered-edge deopt guards. Soundness
// argument: DESIGN.md §4i.
#ifndef POLYNIMA_ANALYZE_ICF_H_
#define POLYNIMA_ANALYZE_ICF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/binary/image.h"
#include "src/cfg/cfg.h"
#include "src/check/witness.h"
#include "src/lift/lifter.h"
#include "src/obs/report.h"
#include "src/support/json.h"

namespace polynima::analyze {

struct IcfOptions {
  // Observability sinks (all nullable).
  obs::Session obs;
};

// Classification of one indirect transfer site.
struct IcfSite {
  uint64_t transfer_address = 0;  // address of the jmp r/m | call r/m
  uint64_t function_entry = 0;    // guest entry of the owning function
  std::string function_name;      // "fn_<hex>"
  bool is_call = false;           // kIndirectCall (else kIndirectJump)
  bool proven = false;
  std::vector<uint64_t> targets;  // proven: sorted complete feasible set
  std::string reason;             // why proven / why open
};

// A function all of whose indirect sites are proven: its tier-1/2 code keeps
// zero uncovered-edge guards, so tierprof must report zero uncovered-edge
// deopts for it (the `report --validate` cross-check).
struct IcfCoveredFunction {
  uint64_t entry = 0;
  std::string name;
};

struct IcfResult {
  int landing_pads = 0;   // endbr64 pads found in the image
  int sites_total = 0;
  int sites_proven = 0;
  int sites_open = 0;
  int64_t analyze_ns = 0;
  std::vector<IcfSite> sites;
  std::vector<IcfCoveredFunction> covered_functions;
  // One line per site: "function@addr: proven|open (reason)".
  std::vector<std::string> site_summaries;

  std::string Summary() const;
  // "icf" section of the analysis report (polynima-icf/v1).
  json::Value ToJson() const;
};

// Runs the target-set analysis over every lifted function containing an
// indirect transfer. `graph` supplies the site inventory (blocks whose
// terminator is kIndirectJump / kIndirectCall); the lifted IR supplies the
// dataflow; the image supplies landing pads and read-only table bytes.
IcfResult AnalyzeIndirectControlFlow(const lift::LiftedProgram& program,
                                     const binary::Image& image,
                                     const cfg::ControlFlowGraph& graph,
                                     const IcfOptions& options = {});

// Mints the sealed certificate binding this analysis to `image`.
check::CfgCert MakeCfgCert(const IcfResult& result,
                           const binary::Image& image);

}  // namespace polynima::analyze

#endif  // POLYNIMA_ANALYZE_ICF_H_
