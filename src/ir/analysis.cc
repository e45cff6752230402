#include "src/ir/analysis.h"

#include <algorithm>
#include <unordered_set>

namespace polynima::ir {

std::map<BasicBlock*, std::vector<BasicBlock*>> Predecessors(
    const Function& f) {
  std::map<BasicBlock*, std::vector<BasicBlock*>> preds;
  for (const auto& block : f.blocks()) {
    preds[block.get()];  // ensure presence
    for (BasicBlock* succ : block->Successors()) {
      preds[succ].push_back(block.get());
    }
  }
  return preds;
}

std::vector<BasicBlock*> ReversePostOrder(const Function& f) {
  std::vector<BasicBlock*> order;
  BasicBlock* entry = f.entry();
  if (entry == nullptr) {
    return order;
  }
  std::unordered_set<const BasicBlock*> visited{entry};
  std::vector<std::pair<BasicBlock*, size_t>> stack{{entry, 0}};
  while (!stack.empty()) {
    auto& [block, idx] = stack.back();
    std::vector<BasicBlock*> succs = block->Successors();
    if (idx < succs.size()) {
      BasicBlock* next = succs[idx++];
      if (visited.insert(next).second) {
        stack.push_back({next, 0});
      }
    } else {
      order.push_back(block);
      stack.pop_back();
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

DominatorTree::DominatorTree(const Function& f) {
  std::vector<BasicBlock*> rpo = ReversePostOrder(f);
  const int n = static_cast<int>(rpo.size());
  index_.reserve(rpo.size());
  for (int i = 0; i < n; ++i) {
    index_[rpo[i]] = i;
  }
  std::vector<std::vector<int>> preds(rpo.size());
  for (int i = 0; i < n; ++i) {
    for (BasicBlock* succ : rpo[i]->Successors()) {
      preds[index_.at(succ)].push_back(i);
    }
  }
  idom_.assign(rpo.size(), -1);
  if (n == 0) {
    return;
  }
  idom_[0] = 0;
  // Dominators precede the blocks they dominate in reverse post-order, so
  // walking up the tree strictly decreases the position.
  auto intersect = [this](int a, int b) {
    while (a != b) {
      while (a > b) {
        a = idom_[a];
      }
      while (b > a) {
        b = idom_[b];
      }
    }
    return a;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 1; i < n; ++i) {
      int new_idom = -1;
      for (int p : preds[i]) {
        if (idom_[p] < 0) {
          continue;  // predecessor not yet processed
        }
        new_idom = new_idom < 0 ? p : intersect(p, new_idom);
      }
      if (new_idom >= 0 && idom_[i] != new_idom) {
        idom_[i] = new_idom;
        changed = true;
      }
    }
  }
}

bool DominatorTree::Dominates(const BasicBlock* a, const BasicBlock* b) const {
  auto ia = index_.find(a);
  auto ib = index_.find(b);
  if (ia == index_.end() || ib == index_.end()) {
    return false;
  }
  int up = ib->second;
  while (up > ia->second) {
    up = idom_[up];
  }
  return up == ia->second;
}

std::vector<NaturalLoop> FindNaturalLoops(const Function& f) {
  DominatorTree dom(f);
  auto preds = Predecessors(f);
  std::map<BasicBlock*, NaturalLoop> by_header;
  for (const auto& block : f.blocks()) {
    for (BasicBlock* succ : block->Successors()) {
      if (!dom.Dominates(succ, block.get())) {
        continue;  // not a back edge (or unreachable)
      }
      // Natural loop of back edge block->succ: reverse reachability from
      // the tail without passing through the header.
      NaturalLoop& loop = by_header[succ];
      loop.header = succ;
      loop.body.insert(succ);
      std::vector<BasicBlock*> work{block.get()};
      while (!work.empty()) {
        BasicBlock* b = work.back();
        work.pop_back();
        if (!loop.body.insert(b).second) {
          continue;
        }
        for (BasicBlock* p : preds[b]) {
          work.push_back(p);
        }
      }
    }
  }
  std::vector<NaturalLoop> loops;
  for (const auto& block : f.blocks()) {
    auto it = by_header.find(block.get());
    if (it != by_header.end()) {
      loops.push_back(std::move(it->second));
    }
  }
  return loops;
}

bool FoldBinary(Op op, int64_t a, int64_t b, int64_t* out) {
  uint64_t ua = static_cast<uint64_t>(a);
  uint64_t ub = static_cast<uint64_t>(b);
  switch (op) {
    case Op::kAdd:
      *out = static_cast<int64_t>(ua + ub);
      return true;
    case Op::kSub:
      *out = static_cast<int64_t>(ua - ub);
      return true;
    case Op::kMul:
      *out = static_cast<int64_t>(ua * ub);
      return true;
    case Op::kAnd:
      *out = a & b;
      return true;
    case Op::kOr:
      *out = a | b;
      return true;
    case Op::kXor:
      *out = a ^ b;
      return true;
    case Op::kShl:
      *out = ub >= 64 ? 0 : static_cast<int64_t>(ua << ub);
      return true;
    case Op::kLShr:
      *out = ub >= 64 ? 0 : static_cast<int64_t>(ua >> ub);
      return true;
    case Op::kAShr:
      *out = a >> (ub >= 64 ? 63 : ub);
      return true;
    case Op::kSDiv:
    case Op::kSRem:
      if (b == 0 || (a == INT64_MIN && b == -1)) {
        return false;
      }
      *out = op == Op::kSDiv ? a / b : a % b;
      return true;
    case Op::kUDiv:
    case Op::kURem:
      if (b == 0) {
        return false;
      }
      *out = static_cast<int64_t>(op == Op::kUDiv ? ua / ub : ua % ub);
      return true;
    default:
      return false;
  }
}

bool IsCalleeSavedGpr(const std::string& global_name) {
  return global_name == "vr_rbx" || global_name == "vr_rbp" ||
         global_name == "vr_rsp" || global_name == "vr_r12" ||
         global_name == "vr_r13" || global_name == "vr_r14" ||
         global_name == "vr_r15";
}

}  // namespace polynima::ir
