// The CFG and semantic facts every client of the IR shares: predecessor
// maps, reverse post-order, the dominator tree with natural loops, constant
// folding of the binary ops and the SysV callee-saved register set. The
// optimizer, the verifier, the §3.4 spinloop analysis and the soundness
// analyses (src/check, src/analyze) all read these from here, so each fact
// has exactly one definition.
#ifndef POLYNIMA_IR_ANALYSIS_H_
#define POLYNIMA_IR_ANALYSIS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/ir.h"

namespace polynima::ir {

// Predecessor map for a function: every block has an entry (possibly empty),
// and a block jumping twice to the same successor is listed twice.
// Unreachable blocks count as predecessors too.
std::map<BasicBlock*, std::vector<BasicBlock*>> Predecessors(
    const Function& f);

// Reverse post-order over the blocks reachable from entry (depth-first,
// successors visited in terminator order).
std::vector<BasicBlock*> ReversePostOrder(const Function& f);

// Dominator tree over the blocks reachable from entry (Cooper-Harvey-Kennedy
// iterative scheme over reverse post-order). Unreachable blocks have no
// immediate dominator: they are dominated by nothing and dominate nothing.
class DominatorTree {
 public:
  explicit DominatorTree(const Function& f);

  bool Reachable(const BasicBlock* b) const { return index_.count(b) != 0; }
  // True when `a` dominates `b` (every block dominates itself). False when
  // either block is unreachable.
  bool Dominates(const BasicBlock* a, const BasicBlock* b) const;

 private:
  // Reachable blocks by reverse post-order position; idom_[i] is the
  // position of block i's immediate dominator (entry: itself).
  std::unordered_map<const BasicBlock*, int> index_;
  std::vector<int> idom_;
};

// A natural loop: the header plus every block that reaches a back edge's
// tail without passing through the header. Back edges sharing a header are
// merged into one loop.
struct NaturalLoop {
  BasicBlock* header = nullptr;
  std::set<BasicBlock*> body;
};

// Natural loops of the reachable part of `f`, in the order of their headers
// in the function's block list.
std::vector<NaturalLoop> FindNaturalLoops(const Function& f);

// Constant-folds a two-operand arithmetic/bitwise op with the semantics
// every executor implements: wrapping arithmetic, shifts by 64 or more give
// 0 (sign fill for kAShr). Returns false for ops that are not binary and for
// divisions the executors fault on (by zero, INT64_MIN / -1).
bool FoldBinary(Op op, int64_t a, int64_t b, int64_t* out);

// True for the virtual registers a callee preserves under the SysV ABI
// (vr_rbx, vr_rbp, vr_rsp, vr_r12..vr_r15). The lifter's guest calls and the
// engine's external dispatch both honor it: every other register is
// clobbered at a call boundary.
bool IsCalleeSavedGpr(const std::string& global_name);

}  // namespace polynima::ir

#endif  // POLYNIMA_IR_ANALYSIS_H_
