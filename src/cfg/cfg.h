// Control-flow-graph representation shared by the static disassembler, the
// ICFT tracer, and the additive-lifting loop. This is the moral equivalent of
// the paper's radare2-wrapper JSON output (§4 "Environment and Software"):
// functions, their basic blocks, and explicit direct/indirect labels on
// control transfers.
#ifndef POLYNIMA_CFG_CFG_H_
#define POLYNIMA_CFG_CFG_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/binary/image.h"
#include "src/support/json.h"
#include "src/support/status.h"

namespace polynima::cfg {

enum class TermKind : uint8_t {
  kFallthrough,   // block ends because the next address is a leader
  kJump,          // direct unconditional jump
  kCondJump,      // direct conditional jump (target + fallthrough)
  kIndirectJump,  // jmp r/m — targets listed in indirect_targets
  kCall,          // direct call (continues at fallthrough)
  kIndirectCall,  // call r/m
  kExternalCall,  // direct call into the external-library range
  kRet,
  kTrap,  // ud2 / int3
};

const char* TermKindName(TermKind k);
Expected<TermKind> TermKindFromName(const std::string& name);

struct BlockInfo {
  uint64_t start = 0;
  uint64_t end = 0;  // exclusive
  TermKind term = TermKind::kFallthrough;
  // Address of the terminator instruction (== last instruction).
  uint64_t term_address = 0;
  uint64_t direct_target = 0;  // kJump / kCondJump / kCall
  uint64_t fallthrough = 0;    // kCondJump / kCall / kFallthrough / kExternalCall
  uint64_t external_slot = 0;  // kExternalCall
  // Known targets of an indirect transfer (heuristics + tracing + additive).
  std::set<uint64_t> indirect_targets;
};

struct FunctionInfo {
  uint64_t entry = 0;
  std::string name;  // "fn_<hex>"
  std::set<uint64_t> block_starts;
};

class ControlFlowGraph {
 public:
  std::map<uint64_t, BlockInfo> blocks;
  std::map<uint64_t, FunctionInfo> functions;

  // Adds `target` to the indirect-target set of the transfer at
  // `transfer_address`. Returns true if it was new.
  bool AddIndirectTarget(uint64_t transfer_address, uint64_t target);
  // Block containing `addr`, or nullptr.
  const BlockInfo* BlockContaining(uint64_t addr) const;
  BlockInfo* MutableBlockContaining(uint64_t addr);
  // Function owning the block starting at `block_start` (first match).
  const FunctionInfo* FunctionOwning(uint64_t block_start) const;

  size_t TotalIndirectTargets() const;

  json::Value ToJson() const;
  static Expected<ControlFlowGraph> FromJson(const json::Value& v);
  Status WriteTo(const std::string& path) const;
  static Expected<ControlFlowGraph> ReadFrom(const std::string& path);
};

struct RecoverOptions {
  // Run the jump-table heuristic for indirect jumps (on by default; off
  // models a weaker disassembler).
  bool jump_table_heuristic = true;
  // Treat code-address constants materialized by movabs as candidate
  // function entries (how disassemblers discover callback targets).
  bool address_constant_heuristic = true;
  // Sound mode (--cfg-sound): additionally treat every endbr64 landing pad
  // in the image as a function entry, so indirect-transfer targets are
  // recovered exhaustively rather than heuristically.
  bool landing_pad_entries = false;
};

// All addresses of endbr64 landing pads in the image's executable segments
// (byte scan for F3 0F 1E FA), sorted ascending. The sound recovery mode and
// the icf pass both consume this set.
std::vector<uint64_t> CollectLandingPads(const binary::Image& image);

// Static recursive-descent recovery starting from the image entry point plus
// `extra_entries` (used by additive lifting to integrate newly discovered
// targets). Never consults image symbols.
Expected<ControlFlowGraph> RecoverStatic(const binary::Image& image,
                                         const RecoverOptions& options = {},
                                         const std::set<uint64_t>& extra_entries = {});

// Re-explores from `new_target` and merges the discovered blocks/functions
// into `graph` (the additive-lifting integration step). `is_call_target`
// marks the target as a function entry rather than an intra-function block.
Status IntegrateDiscoveredTarget(const binary::Image& image,
                                 ControlFlowGraph& graph,
                                 uint64_t transfer_address, uint64_t new_target,
                                 const RecoverOptions& options = {});

}  // namespace polynima::cfg

#endif  // POLYNIMA_CFG_CFG_H_
