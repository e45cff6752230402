#include <set>

#include "src/ir/analysis.h"
#include "src/opt/passes.h"

namespace polynima::opt {

using ir::BasicBlock;
using ir::Constant;
using ir::Function;
using ir::Instruction;
using ir::Op;
using ir::Value;

namespace {

// Removes `pred` from every phi at the head of `block`.
void RemovePhiIncoming(BasicBlock* block, BasicBlock* pred) {
  for (auto& inst : block->insts()) {
    if (inst->op() != Op::kPhi) {
      break;
    }
    for (size_t i = 0; i < inst->phi_blocks.size(); ++i) {
      if (inst->phi_blocks[i] == pred) {
        // Drop operand i.
        Instruction* phi = inst.get();
        Value* victim = phi->operand(static_cast<int>(i));
        victim->RemoveUser(phi);
        // Compact by swapping with the last entry.
        size_t last = phi->phi_blocks.size() - 1;
        if (i != last) {
          phi->SetOperand(static_cast<int>(i),
                          phi->operand(static_cast<int>(last)));
          phi->phi_blocks[i] = phi->phi_blocks[last];
        }
        // Remove the final operand slot.
        Value* dup = phi->operand(static_cast<int>(last));
        dup->RemoveUser(phi);
        phi->phi_blocks.pop_back();
        // Rebuild operand vector without the last element.
        std::vector<Value*> ops;
        for (int k = 0; k < phi->num_operands() - 1; ++k) {
          ops.push_back(phi->operand(k));
        }
        phi->DropOperands();
        for (Value* v : ops) {
          phi->AddOperand(v);
        }
        break;
      }
    }
  }
}

// Replaces phi incoming-block references from `old_pred` to `new_pred`.
void RetargetPhiIncoming(BasicBlock* block, BasicBlock* old_pred,
                         BasicBlock* new_pred) {
  for (auto& inst : block->insts()) {
    if (inst->op() != Op::kPhi) {
      break;
    }
    for (auto& from : inst->phi_blocks) {
      if (from == old_pred) {
        from = new_pred;
      }
    }
  }
}

}  // namespace

bool SimplifyCfg(Function& f) {
  bool changed = false;

  // 1. Fold constant / degenerate conditional branches.
  for (auto& block : f.blocks()) {
    Instruction* term = block->terminator();
    if (term == nullptr || term->op() != Op::kBr || term->targets.size() != 2) {
      continue;
    }
    BasicBlock* taken = nullptr;
    BasicBlock* dead = nullptr;
    if (term->targets[0] == term->targets[1]) {
      taken = term->targets[0];
    } else if (term->operand(0)->is_const()) {
      bool cond = static_cast<Constant*>(term->operand(0))->value() != 0;
      taken = cond ? term->targets[0] : term->targets[1];
      dead = cond ? term->targets[1] : term->targets[0];
    }
    if (taken != nullptr) {
      if (dead != nullptr) {
        RemovePhiIncoming(dead, block.get());
      }
      term->DropOperands();
      term->targets = {taken};
      changed = true;
    }
  }

  // 2. Remove unreachable blocks.
  std::vector<BasicBlock*> rpo = ir::ReversePostOrder(f);
  std::set<BasicBlock*> reachable(rpo.begin(), rpo.end());
  std::vector<BasicBlock*> to_remove;
  for (auto& block : f.blocks()) {
    if (reachable.count(block.get()) == 0) {
      to_remove.push_back(block.get());
    }
  }
  for (BasicBlock* dead : to_remove) {
    for (BasicBlock* succ : dead->Successors()) {
      if (reachable.count(succ) != 0) {
        RemovePhiIncoming(succ, dead);
      }
    }
  }
  for (BasicBlock* dead : to_remove) {
    f.RemoveBlock(dead);
    changed = true;
  }

  // 3. Merge single-successor blocks whose successor has a single
  // predecessor (and no phis).
  bool merged = true;
  while (merged) {
    merged = false;
    auto preds = ir::Predecessors(f);
    for (auto& block : f.blocks()) {
      Instruction* term = block->terminator();
      if (term == nullptr || term->op() != Op::kBr ||
          term->targets.size() != 1) {
        continue;
      }
      BasicBlock* succ = term->targets[0];
      if (succ == block.get() || preds[succ].size() != 1 ||
          succ == f.entry()) {
        continue;
      }
      if (!succ->insts().empty() &&
          succ->insts().front()->op() == Op::kPhi) {
        continue;
      }
      // Phi references to `succ` as an incoming block must be retargeted to
      // the merged block.
      for (BasicBlock* ss : succ->Successors()) {
        RetargetPhiIncoming(ss, succ, block.get());
      }
      // Splice: drop our br, move succ's instructions in.
      block->Erase(std::prev(block->insts().end()));
      while (!succ->insts().empty()) {
        std::unique_ptr<Instruction> inst = std::move(succ->insts().front());
        succ->insts().pop_front();
        inst->set_parent(block.get());
        block->insts().push_back(std::move(inst));
      }
      f.RemoveBlock(succ);
      changed = true;
      merged = true;
      break;  // iterator invalidation: restart scan
    }
  }

  return changed;
}

}  // namespace polynima::opt
