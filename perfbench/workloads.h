// The benchmark's workloads (see README.md for why each was chosen).
#ifndef POLYNIMA_PERFBENCH_WORKLOADS_H_
#define POLYNIMA_PERFBENCH_WORKLOADS_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/exec/engine.h"
#include "src/recomp/recompiler.h"

namespace perfbench {

// A final build of one program from a pass, kept for the output checks.
struct Built {
  const Program* program = nullptr;
  std::unique_ptr<polynima::recomp::Recompiler> recompiler;
  polynima::recomp::RecompiledBinary binary;
  // Entries of CfgCert-covered functions (cfg-sound builds only).
  std::set<uint64_t> certified;
  // The tier-2 run made by CheckOutputs.
  polynima::exec::ExecResult tier2;
};

struct Builds {
  std::vector<Built> final;
  // When set, the untraced pass records each build's printed IR in `ir`,
  // which the traced pass then compares its own builds against.
  bool capture_ir = false;
  std::map<std::string, std::string> ir;
};

// One pass over a workload's program set.
struct PassStats {
  double seconds = 0;  // the timed part
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ir_instrs = 0;  // IR instructions after opt, all final builds
  uint64_t fences = 0;     // fences in those builds
};

struct WorkloadDef {
  const char* name;
  std::vector<Spec> (*specs)();
  // One pass. With a ledger, the pipeline is rebuilt from module calls and
  // each build is compared against `builds->ir`; without one, final builds
  // go to `builds` (when set).
  PassStats (*pass)(const std::vector<Program>& programs, Ledger* ledger,
                    Builds* builds);
  // Workload-specific checks on the last pass's builds, after CheckOutputs.
  void (*check)(Builds& builds);
};

const WorkloadDef* FindWorkloadDef(const std::string& name);

// Runs every final build at tier 2 against the original binary's output.
// Returns the normalised runtime: the geomean over the builds of simulated
// cycles, recompiled over original.
double CheckOutputs(Builds& builds);

}  // namespace perfbench

#endif  // POLYNIMA_PERFBENCH_WORKLOADS_H_
