#include "src/ir/verifier.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "src/ir/analysis.h"
#include "src/support/strings.h"

namespace polynima::ir {

namespace {

// Expected operand count for fixed-arity ops; -1 for ops whose arity depends
// on other fields (br, ret, call, phi) and is checked separately.
int FixedOperandCount(Op op) {
  switch (op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kSDiv:
    case Op::kSRem:
    case Op::kUDiv:
    case Op::kURem:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kShl:
    case Op::kLShr:
    case Op::kAShr:
    case Op::kICmp:
    case Op::kStore:      // addr, value
    case Op::kAtomicRmw:  // addr, operand
      return 2;
    case Op::kSelect:   // cond, a, b
    case Op::kCmpXchg:  // addr, expected, desired
      return 3;
    case Op::kSExt:
    case Op::kLoad:         // addr
    case Op::kGlobalStore:  // value
    case Op::kSwitch:       // selector
      return 1;
    case Op::kGlobalLoad:
    case Op::kFence:
    case Op::kUnreachable:
      return 0;
    case Op::kBr:
    case Op::kRet:
    case Op::kCall:
    case Op::kPhi:
      return -1;
  }
  return -1;
}

}  // namespace

Status Verify(const Function& f) {
  auto fail = [&](const std::string& m) {
    return Status::Internal(StrCat("verify @", f.name(), ": ", m));
  };
  if (f.blocks().empty()) {
    return fail("no blocks");
  }

  std::set<const BasicBlock*> block_set;
  for (const auto& b : f.blocks()) {
    block_set.insert(b.get());
  }

  // Predecessor map for phi checking (one entry per predecessor block).
  std::map<const BasicBlock*, std::set<const BasicBlock*>> preds;
  for (const auto& b : f.blocks()) {
    for (BasicBlock* succ : b->Successors()) {
      if (block_set.count(succ) == 0) {
        return fail(StrCat("block ", b->name(), " targets foreign block"));
      }
      preds[succ].insert(b.get());
    }
  }

  // Every value-producing instruction in this function, plus its arguments:
  // the only values an operand may legally name (besides shared constants,
  // globals and callees).
  std::set<const Value*> defined;
  for (int i = 0; i < f.num_args(); ++i) {
    defined.insert(const_cast<Function&>(f).arg(i));
  }
  // Position of each instruction within its block, for same-block ordering.
  // Calls double as the justification points for kHeapLocal witnesses below.
  std::map<const Instruction*, int> position;
  std::vector<const Instruction*> calls;
  for (const auto& b : f.blocks()) {
    int index = 0;
    for (const auto& inst : b->insts()) {
      position[inst.get()] = index++;
      if (inst->HasResult()) {
        defined.insert(inst.get());
      }
      if (inst->op() == Op::kCall) {
        calls.push_back(inst.get());
      }
    }
  }

  DominatorTree dom(f);

  // Def-before-use: the definition must dominate the use. Phi operands are
  // validated against their incoming edge (the def must be live at the end
  // of the incoming block), not the phi's own position. Unreachable blocks
  // are exempt: passes may orphan blocks that DCE later removes.
  auto check_use = [&](const Instruction* user, const Value* v,
                       const BasicBlock* use_block,
                       const char* what) -> Status {
    if (!v->is_inst()) {
      return Status::Ok();
    }
    const auto* def = static_cast<const Instruction*>(v);
    const BasicBlock* def_block = def->parent();
    if (!dom.Reachable(use_block) || !dom.Reachable(def_block)) {
      return Status::Ok();
    }
    if (def_block == use_block) {
      if (user != nullptr && position[def] >= position[user]) {
        return fail(StrCat("use before def in ", use_block->name(), ": %",
                           def->id, " used at position ", position[user],
                           " but defined at position ", position[def]));
      }
      return Status::Ok();
    }
    if (!dom.Dominates(def_block, use_block)) {
      return fail(StrCat(what, " in ", use_block->name(),
                         " not dominated by its definition in ",
                         def_block->name()));
    }
    return Status::Ok();
  };

  for (const auto& b : f.blocks()) {
    if (b->insts().empty()) {
      return fail(StrCat("empty block ", b->name()));
    }
    bool seen_terminator = false;
    bool in_phi_prefix = true;
    for (const auto& inst : b->insts()) {
      if (seen_terminator) {
        return fail(StrCat("instruction after terminator in ", b->name()));
      }
      if (inst->op() == Op::kPhi) {
        if (!in_phi_prefix) {
          return fail(StrCat("phi not at head of ", b->name()));
        }
        if (inst->phi_blocks.size() !=
            static_cast<size_t>(inst->num_operands())) {
          return fail("phi incoming count mismatch");
        }
        // Exact multiset equality with the predecessor set: every
        // predecessor exactly once, nothing else. A size comparison alone
        // would accept a phi listing one predecessor twice while omitting
        // another.
        const auto& expected = preds[b.get()];
        std::vector<BasicBlock*> incoming = inst->phi_blocks;
        std::sort(incoming.begin(), incoming.end());
        for (size_t i = 0; i + 1 < incoming.size(); ++i) {
          if (incoming[i] == incoming[i + 1]) {
            return fail(StrCat("phi in ", b->name(),
                               " lists predecessor ", incoming[i]->name(),
                               " twice"));
          }
        }
        for (BasicBlock* in : incoming) {
          if (expected.count(in) == 0) {
            return fail(StrCat("phi in ", b->name(),
                               " has non-predecessor incoming ", in->name()));
          }
        }
        if (incoming.size() != expected.size()) {
          return fail(StrCat("phi in ", b->name(), " has ", incoming.size(),
                             " incoming, block has ", expected.size(),
                             " preds"));
        }
      } else {
        in_phi_prefix = false;
      }
      if (inst->IsTerminator()) {
        seen_terminator = true;
      }
      // Operand sanity: every operand must be a value-producing node defined
      // in this function (for instruction operands) and the use lists must
      // contain this instruction.
      for (int i = 0; i < inst->num_operands(); ++i) {
        const Value* v = inst->operand(i);
        if (v == nullptr) {
          return fail("null operand");
        }
        if (v->is_inst() &&
            !static_cast<const Instruction*>(v)->HasResult()) {
          return fail("operand has no result");
        }
        if ((v->is_inst() || v->kind() == Value::Kind::kArgument) &&
            defined.count(v) == 0) {
          return fail(StrCat("operand of ", OpName(inst->op()), " in ",
                             b->name(), " is not defined in this function"));
        }
        // Shared values (constants, globals, functions) do not track users;
        // only function-local values carry use lists to check.
        if (v->tracks_users()) {
          const auto& users = v->users();
          if (std::find(users.begin(), users.end(), inst.get()) ==
              users.end()) {
            return fail("use-list missing user");
          }
        }
        if (inst->op() == Op::kPhi) {
          const BasicBlock* incoming =
              inst->phi_blocks[static_cast<size_t>(i)];
          POLY_RETURN_IF_ERROR(
              check_use(nullptr, v, incoming, "phi incoming value"));
        } else {
          POLY_RETURN_IF_ERROR(check_use(inst.get(), v, b.get(), "operand"));
        }
      }
      int want = FixedOperandCount(inst->op());
      if (want >= 0 && inst->num_operands() != want) {
        return fail(StrCat(OpName(inst->op()), " in ", b->name(), " has ",
                           inst->num_operands(), " operands, expected ",
                           want));
      }
      if (inst->op() == Op::kBr) {
        size_t want_targets = inst->num_operands() == 0 ? 1 : 2;
        if (inst->num_operands() > 1) {
          return fail("br with more than one operand");
        }
        if (inst->targets.size() != want_targets) {
          return fail("br target count mismatch");
        }
      }
      if (inst->op() == Op::kSwitch &&
          inst->targets.size() != inst->case_values.size() + 1) {
        return fail("switch case/target mismatch");
      }
      if (inst->op() == Op::kCall && inst->callee != nullptr &&
          inst->num_operands() != inst->callee->num_args()) {
        return fail(StrCat("call to @", inst->callee->name(), " passes ",
                           inst->num_operands(), " args, callee takes ",
                           inst->callee->num_args()));
      }
      if (inst->op() == Op::kRet) {
        if (f.has_result() && inst->num_operands() != 1) {
          return fail("ret without value in value-returning function");
        }
        if (!f.has_result() && inst->num_operands() != 0) {
          return fail("ret with value in void function");
        }
      }
      // Memory-ordering metadata consistency. A fence-elision witness is a
      // claim about a guest memory access, so it may only annotate the two
      // plain access ops (atomics order themselves; everything else has no
      // fence to elide). The two witness kinds additionally have structural
      // preconditions that any honest producer satisfies by construction:
      //   - kStackLocal claims the address derives from the emulated stack
      //     pointer; a literal-constant address (a global) trivially cannot,
      //     so such a stamp is rejected before the TSO checker ever runs.
      //   - kHeapLocal claims the address derives from an allocation made by
      //     this function, which requires *some* call on every path to the
      //     access: a call that reaches the access same-block-earlier or
      //     from a dominating block. (The TSO checker re-derives the full
      //     provenance; this catches stamps that cannot possibly be valid.)
      if (inst->fence_witness != FenceWitness::kNone) {
        if (inst->op() != Op::kLoad && inst->op() != Op::kStore) {
          return fail(StrCat("fence witness on non-access op ",
                             OpName(inst->op()), " in ", b->name()));
        }
        if (inst->fence_witness == FenceWitness::kStackLocal &&
            inst->operand(0)->is_const()) {
          return fail(StrCat("stack-local witness on constant address in ",
                             b->name()));
        }
        if (inst->fence_witness == FenceWitness::kHeapLocal &&
            dom.Reachable(b.get())) {
          bool justified = false;
          for (const Instruction* c : calls) {
            const BasicBlock* cb = c->parent();
            if (cb == b.get()) {
              justified |= position[c] < position[inst.get()];
            } else if (dom.Reachable(cb)) {
              justified |= dom.Dominates(cb, b.get());
            }
          }
          if (!justified) {
            return fail(StrCat("heap-local witness in ", b->name(),
                               " with no dominating call (no allocation "
                               "site can reach it)"));
          }
        }
      }
    }
    if (!seen_terminator) {
      return fail(StrCat("block ", b->name(), " lacks terminator"));
    }
  }
  return Status::Ok();
}

Status Verify(const Module& m) {
  for (const auto& f : m.functions()) {
    POLY_RETURN_IF_ERROR(Verify(*f));
  }
  return Status::Ok();
}

}  // namespace polynima::ir
