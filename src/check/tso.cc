#include "src/check/tso.h"

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/check/derive.h"
#include "src/support/strings.h"

namespace polynima::check {

namespace {

using ir::BasicBlock;
using ir::FenceOrder;
using ir::FenceWitness;
using ir::Function;
using ir::Global;
using ir::Instruction;
using ir::Op;
using ir::Value;

bool IsCall(const Instruction& inst) { return inst.op() == Op::kCall; }

bool IsAtomic(const Instruction& inst) {
  return inst.op() == Op::kAtomicRmw || inst.op() == Op::kCmpXchg;
}

// Barriers that discharge a load's acquire obligation / a store's release
// obligation. Calls count: this repo's optimizer never moves guest memory
// operations across calls, and the callee re-establishes ordering for its
// own accesses.
bool IsAcquireBarrier(const Instruction& inst) {
  if (inst.op() == Op::kFence) {
    return inst.fence_order == FenceOrder::kAcquire ||
           inst.fence_order == FenceOrder::kSeqCst;
  }
  return IsAtomic(inst) || IsCall(inst);
}

bool IsReleaseBarrier(const Instruction& inst) {
  if (inst.op() == Op::kFence) {
    return inst.fence_order == FenceOrder::kRelease ||
           inst.fence_order == FenceOrder::kSeqCst;
  }
  return IsAtomic(inst) || IsCall(inst);
}

// ---------------------------------------------------------------------------
// Stack-locality re-derivation
// ---------------------------------------------------------------------------
//
// Re-proves a lifter kStackLocal claim from the IR alone: the address must
// be computed from the emulated stack pointer. Mirrors the lifter's taint
// rules (src/lift: IsStackLocal/UpdateStackTracking) at the IR level:
//   - GlobalLoad @vr_rsp is always a stack root; @vr_rbp is a root in
//     functions the lifter marked frame_pointer;
//   - GlobalLoad of another virtual register is derived iff an earlier
//     GlobalStore IN THE SAME BLOCK (with no intervening call) stored a
//     derived value — the lifter's taint is per-block, so a sound witness
//     never needs a longer chase;
//   - add/sub propagate from either operand (pointer +/- offset);
//   - phi/select require every data operand to be derived (optimistic on
//     phi cycles: a loop-carried pointer increment stays derived);
//   - a load from a derived address is derived (push/pop and spill slots
//     live on the emulated stack, which is thread-private).
// Constants alone are NOT derived: a forged witness on a global-address
// access fails re-derivation.
class StackDeriver {
 public:
  explicit StackDeriver(const Function& f) : f_(f) {}

  bool Derived(const Value* v) {
    if (v == nullptr || !v->is_inst()) {
      return false;
    }
    const auto* inst = static_cast<const Instruction*>(v);
    auto it = state_.find(inst);
    if (it != state_.end()) {
      return it->second != State::kNot;
    }
    state_[inst] = State::kInProgress;
    bool derived = Compute(*inst);
    state_[inst] = derived ? State::kDerived : State::kNot;
    return derived;
  }

 private:
  enum class State { kInProgress, kDerived, kNot };

  bool Compute(const Instruction& inst) {
    switch (inst.op()) {
      case Op::kGlobalLoad: {
        const Global* g = inst.global;
        if (g == nullptr) {
          return false;
        }
        if (g->name() == "vr_rsp") {
          return true;
        }
        if (g->name() == "vr_rbp" && f_.frame_pointer) {
          return true;
        }
        return ChaseReachingStore(inst);
      }
      case Op::kAdd:
      case Op::kSub:
        return Derived(inst.operand(0)) || Derived(inst.operand(1));
      case Op::kSelect:
        return Derived(inst.operand(1)) && Derived(inst.operand(2));
      case Op::kPhi: {
        if (inst.num_operands() == 0) {
          return false;
        }
        for (int i = 0; i < inst.num_operands(); ++i) {
          if (!Derived(inst.operand(i))) {
            return false;
          }
        }
        return true;
      }
      case Op::kLoad:
        return Derived(inst.operand(0));
      default:
        return false;
    }
  }

  // GlobalLoad of a non-root virtual register: find the last GlobalStore to
  // the same global earlier in the block (calls clobber the chase — the
  // lifter's taint never crosses one) and classify the stored value.
  bool ChaseReachingStore(const Instruction& gload) {
    const BasicBlock* b = gload.parent();
    if (b == nullptr) {
      return false;
    }
    const Value* stored = nullptr;
    for (const auto& inst : b->insts()) {
      if (inst.get() == &gload) {
        break;
      }
      if (inst->op() == Op::kCall) {
        stored = nullptr;
      } else if (inst->op() == Op::kGlobalStore &&
                 inst->global == gload.global) {
        stored = inst->operand(0);
      }
    }
    return stored != nullptr && Derived(stored);
  }

  const Function& f_;
  std::map<const Instruction*, State> state_;
};

// ---------------------------------------------------------------------------
// Path obligations
// ---------------------------------------------------------------------------

// What a whole-block scan encounters first, per direction.
enum class Hit : uint8_t {
  kBarrier,      // discharged inside the block
  kAccess,       // reaches a guest access with no barrier -> offender
  kExit,         // forward: ret/unreachable terminator ends the path
  kFallthrough,  // obligation flows to successors (fwd) / predecessors (bwd)
};

struct BlockFacts {
  Hit fwd = Hit::kFallthrough;
  const Instruction* fwd_offender = nullptr;
  Hit bwd = Hit::kFallthrough;
  const Instruction* bwd_offender = nullptr;
};

// Per-function path analysis: for every block, whether an obligation that
// reaches its boundary is discharged on all paths. Solved as a greatest
// fixpoint (all-true start), so a barrier-free, access-free cycle counts as
// discharged — an infinite loop that never touches guest memory cannot
// misorder anything.
class PathAnalysis {
 public:
  PathAnalysis(const Function& f,
               const std::set<const Instruction*>& transparent)
      : f_(f), transparent_(transparent) {
    for (const auto& b : f.blocks()) {
      for (ir::BasicBlock* succ : b->Successors()) {
        preds_[succ].push_back(b.get());
      }
    }
    for (const auto& b : f.blocks()) {
      BlockFacts facts;
      // Forward: first event scanning from the top.
      for (const auto& inst : b->insts()) {
        if (IsGuestAccess(*inst)) {
          facts.fwd = Hit::kAccess;
          facts.fwd_offender = inst.get();
          break;
        }
        if (IsAcquireBarrier(*inst)) {
          facts.fwd = Hit::kBarrier;
          break;
        }
        if (inst->op() == Op::kRet || inst->op() == Op::kUnreachable) {
          facts.fwd = Hit::kExit;
          break;
        }
      }
      // Backward: first event scanning from the bottom.
      for (auto it = b->insts().rbegin(); it != b->insts().rend(); ++it) {
        const Instruction& inst = **it;
        if (IsGuestAccess(inst)) {
          facts.bwd = Hit::kAccess;
          facts.bwd_offender = &inst;
          break;
        }
        if (IsReleaseBarrier(inst)) {
          facts.bwd = Hit::kBarrier;
          break;
        }
      }
      facts_[b.get()] = facts;
      fwd_ok_[b.get()] = true;
      bwd_ok_[b.get()] = true;
    }
    Solve();
  }

  bool IsGuestAccess(const Instruction& inst) const {
    return (inst.op() == Op::kLoad || inst.op() == Op::kStore) &&
           transparent_.count(&inst) == 0;
  }

  // All forward paths from the TOP of `b` discharge an acquire obligation.
  bool ForwardOk(const BasicBlock* b) const { return fwd_ok_.at(b); }
  // All backward paths from the BOTTOM of `b` discharge a release
  // obligation.
  bool BackwardOk(const BasicBlock* b) const { return bwd_ok_.at(b); }

  // Shortest offending forward path starting at `from` (a block whose
  // ForwardOk is false): block names joined with " -> ", ending at the
  // first conflicting access. Mirrored for backward.
  std::string ForwardPath(const BasicBlock* from, std::string* offender) const;
  std::string BackwardPath(const BasicBlock* from,
                           std::string* offender) const;

 private:
  void Solve() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& b : f_.blocks()) {
        const BlockFacts& facts = facts_.at(b.get());
        bool fwd = true;
        switch (facts.fwd) {
          case Hit::kBarrier:
          case Hit::kExit:
            fwd = true;
            break;
          case Hit::kAccess:
            fwd = false;
            break;
          case Hit::kFallthrough: {
            std::vector<BasicBlock*> succs = b->Successors();
            // A block that falls off the end without a terminator cannot
            // verify anyway; treat no-successor fallthrough as discharged.
            for (BasicBlock* s : succs) {
              fwd = fwd && fwd_ok_.at(s);
            }
            break;
          }
        }
        bool bwd = true;
        switch (facts.bwd) {
          case Hit::kBarrier:
          case Hit::kExit:
            bwd = true;
            break;
          case Hit::kAccess:
            bwd = false;
            break;
          case Hit::kFallthrough: {
            if (b.get() != f_.entry()) {
              auto it = preds_.find(b.get());
              if (it != preds_.end()) {
                for (const BasicBlock* p : it->second) {
                  bwd = bwd && bwd_ok_.at(p);
                }
              }
            }
            // Entry head discharges: the call that entered the function is
            // itself a barrier.
            break;
          }
        }
        if (fwd != fwd_ok_.at(b.get())) {
          fwd_ok_[b.get()] = fwd;
          changed = true;
        }
        if (bwd != bwd_ok_.at(b.get())) {
          bwd_ok_[b.get()] = bwd;
          changed = true;
        }
      }
    }
  }

  const Function& f_;
  const std::set<const Instruction*>& transparent_;
  std::map<const BasicBlock*, std::vector<const BasicBlock*>> preds_;
  std::map<const BasicBlock*, BlockFacts> facts_;
  std::map<const BasicBlock*, bool> fwd_ok_;
  std::map<const BasicBlock*, bool> bwd_ok_;
};

std::string DescribeAccess(const Instruction& inst) {
  return StrCat(inst.op() == Op::kLoad ? "load" : "store", " i",
                inst.size * 8);
}

std::string PathAnalysis::ForwardPath(const BasicBlock* from,
                                      std::string* offender) const {
  // BFS over failing blocks to the nearest block whose own scan hits an
  // access: that prefix is a concrete offending path.
  std::map<const BasicBlock*, const BasicBlock*> parent;
  std::deque<const BasicBlock*> queue = {from};
  parent[from] = nullptr;
  while (!queue.empty()) {
    const BasicBlock* b = queue.front();
    queue.pop_front();
    const BlockFacts& facts = facts_.at(b);
    if (facts.fwd == Hit::kAccess) {
      std::string path = b->name();
      for (const BasicBlock* p = parent[b]; p != nullptr; p = parent[p]) {
        path = StrCat(p->name(), " -> ", path);
      }
      *offender = StrCat(DescribeAccess(*facts.fwd_offender), " in ",
                         b->name());
      return path;
    }
    for (const BasicBlock* s : b->Successors()) {
      if (!fwd_ok_.at(s) && parent.count(s) == 0) {
        parent[s] = b;
        queue.push_back(s);
      }
    }
  }
  *offender = "guest access";
  return from->name();
}

std::string PathAnalysis::BackwardPath(const BasicBlock* from,
                                       std::string* offender) const {
  std::map<const BasicBlock*, const BasicBlock*> parent;
  std::deque<const BasicBlock*> queue = {from};
  parent[from] = nullptr;
  while (!queue.empty()) {
    const BasicBlock* b = queue.front();
    queue.pop_front();
    const BlockFacts& facts = facts_.at(b);
    if (facts.bwd == Hit::kAccess) {
      std::string path = b->name();
      for (const BasicBlock* p = parent[b]; p != nullptr; p = parent[p]) {
        path = StrCat(p->name(), " <- ", path);
      }
      *offender = StrCat(DescribeAccess(*facts.bwd_offender), " in ",
                         b->name());
      return path;
    }
    auto it = preds_.find(b);
    if (it != preds_.end()) {
      for (const BasicBlock* p : it->second) {
        if (!bwd_ok_.at(p) && parent.count(p) == 0) {
          parent[p] = b;
          queue.push_back(p);
        }
      }
    }
  }
  *offender = "guest access";
  return from->name();
}

// Checks one function; appends to the report.
void CheckFunction(const ir::Module& m, const Function& f, bool cert_ok,
                   bool static_ok, const std::vector<std::string>* externals,
                   TsoCheckReport* report) {
  // Pass 1: verify every elision witness; verified accesses become
  // transparent to the path scans below (thread-private traffic cannot
  // participate in a TSO violation).
  StackDeriver deriver(f);
  // The heap-witness machinery (whole-function provenance dataflow + escape
  // sink walk — the same code the analyzer ran) is built lazily: most
  // functions carry no kHeapLocal stamps.
  std::unique_ptr<RegionDeriver> regions;
  std::unique_ptr<EscapeFacts> escapes;
  auto heap_private = [&](const ir::Value* addr) {
    if (regions == nullptr) {
      static const std::vector<std::string> kNoExternals;
      regions = std::make_unique<RegionDeriver>(
          f, externals != nullptr ? *externals : kNoExternals);
      escapes = std::make_unique<EscapeFacts>(
          ComputeEscapeFacts(f, m, *regions));
    }
    const Provenance& p = regions->ValueOf(addr);
    if (!p.PureHeap()) {
      return false;
    }
    for (const Instruction* site : p.allocs) {
      if (escapes->SiteEscaped(site)) {
        return false;
      }
    }
    return true;
  };
  std::set<const Instruction*> transparent;
  for (const auto& b : f.blocks()) {
    for (const auto& inst : b->insts()) {
      if (inst->op() != Op::kLoad && inst->op() != Op::kStore) {
        continue;
      }
      if (inst->fence_witness == FenceWitness::kStackLocal) {
        if (deriver.Derived(inst->operand(0))) {
          transparent.insert(inst.get());
          ++report->witnesses_consumed;
        } else {
          report->violations.push_back(
              {f.name(), b->name(), b->guest_address, "forged-witness",
               StrCat(DescribeAccess(*inst), " in @", f.name(), "/",
                      b->name(),
                      " claims a stack-local elision witness, but its "
                      "address does not derive from the stack pointer")});
        }
      } else if (inst->fence_witness == FenceWitness::kHeapLocal) {
        if (!static_ok) {
          report->violations.push_back(
              {f.name(), b->name(), b->guest_address, "forged-witness",
               StrCat(DescribeAccess(*inst), " in @", f.name(), "/",
                      b->name(),
                      " claims a heap-local elision witness, but no valid "
                      "static certificate accompanies the module")});
        } else if (heap_private(inst->operand(0))) {
          transparent.insert(inst.get());
          ++report->heap_witnesses_consumed;
        } else {
          report->violations.push_back(
              {f.name(), b->name(), b->guest_address, "forged-witness",
               StrCat(DescribeAccess(*inst), " in @", f.name(), "/",
                      b->name(),
                      " claims a heap-local elision witness, but its "
                      "address does not re-derive as a non-escaping "
                      "same-thread allocation")});
        }
      }
    }
  }

  PathAnalysis paths(f, transparent);

  // Pass 2: discharge each remaining access's obligation on every path.
  for (const auto& b : f.blocks()) {
    auto& insts = b->insts();
    for (auto it = insts.begin(); it != insts.end(); ++it) {
      const Instruction& inst = **it;
      if (inst.op() != Op::kLoad && inst.op() != Op::kStore) {
        continue;
      }
      ++report->accesses_checked;
      if (transparent.count(&inst) != 0) {
        continue;  // verified thread-private: no ordering obligation
      }
      bool discharged = false;
      std::string path;
      std::string offender;
      if (inst.op() == Op::kLoad) {
        // Acquire must separate this load from the next guest access on
        // every forward path.
        discharged = true;
        bool settled = false;
        for (auto jt = std::next(it); jt != insts.end(); ++jt) {
          const Instruction& next = **jt;
          if (paths.IsGuestAccess(next)) {
            discharged = false;
            settled = true;
            path = b->name();
            offender = StrCat(DescribeAccess(next), " in ", b->name());
            break;
          }
          if (IsAcquireBarrier(next) || next.op() == Op::kRet ||
              next.op() == Op::kUnreachable) {
            settled = true;
            break;
          }
        }
        if (!settled) {
          // Fell through the block end: consult the successors.
          for (ir::BasicBlock* s : b->Successors()) {
            ++report->path_scans;
            if (!paths.ForwardOk(s)) {
              discharged = false;
              path = StrCat(b->name(), " -> ", paths.ForwardPath(s, &offender));
              break;
            }
          }
        }
        if (!discharged) {
          report->violations.push_back(
              {f.name(), b->name(), b->guest_address, "load-acquire",
               StrCat(DescribeAccess(inst), " in @", f.name(), "/", b->name(),
                      b->guest_address != 0
                          ? StrCat(" (guest ", HexString(b->guest_address),
                                   ")")
                          : "",
                      " requires an acquire fence before the next guest "
                      "access, but the path ",
                      path, " reaches ", offender,
                      " with no intervening barrier")});
        }
      } else {
        // Release must separate the previous guest access from this store
        // on every backward path.
        discharged = true;
        bool settled = false;
        for (auto jt = std::make_reverse_iterator(it); jt != insts.rend();
             ++jt) {
          const Instruction& prev = **jt;
          if (paths.IsGuestAccess(prev)) {
            discharged = false;
            settled = true;
            path = b->name();
            offender = StrCat(DescribeAccess(prev), " in ", b->name());
            break;
          }
          if (IsReleaseBarrier(prev)) {
            settled = true;
            break;
          }
        }
        if (!settled) {
          if (b.get() != f.entry()) {
            for (const auto& pb : f.blocks()) {
              bool is_pred = false;
              for (ir::BasicBlock* s : pb->Successors()) {
                is_pred = is_pred || s == b.get();
              }
              if (is_pred) {
                ++report->path_scans;
              }
              if (is_pred && !paths.BackwardOk(pb.get())) {
                discharged = false;
                path = StrCat(b->name(), " <- ",
                              paths.BackwardPath(pb.get(), &offender));
                break;
              }
            }
          }
          // Entry head discharges (caller's call is the barrier).
        }
        if (!discharged) {
          report->violations.push_back(
              {f.name(), b->name(), b->guest_address, "store-release",
               StrCat(DescribeAccess(inst), " in @", f.name(), "/", b->name(),
                      b->guest_address != 0
                          ? StrCat(" (guest ", HexString(b->guest_address),
                                   ")")
                          : "",
                      " requires a release fence after the previous guest "
                      "access, but the path ",
                      path, " reaches back to ", offender,
                      " with no intervening barrier")});
        }
      }
      if (discharged) {
        ++report->fenced_accesses;
      }
    }
  }
  // Under a valid module-wide cert the undischarged accesses are covered:
  // reclassify the load/store violations recorded for this function.
  if (cert_ok) {
    std::vector<TsoViolation> kept;
    for (TsoViolation& v : report->violations) {
      if (v.function == f.name() &&
          (v.kind == "load-acquire" || v.kind == "store-release")) {
        ++report->cert_covered;
      } else {
        kept.push_back(std::move(v));
      }
    }
    report->violations = std::move(kept);
  }
}

}  // namespace

std::string TsoCheckReport::Summary() const {
  return StrCat("tso-check: ", accesses_checked, " accesses, ",
                fenced_accesses, " fenced, ", witnesses_consumed,
                " witnessed, ", heap_witnesses_consumed, " heap-witnessed, ",
                cert_covered, " cert-covered, ", violations.size(),
                " violations");
}

TsoCheckReport CheckModule(const ir::Module& m,
                           const TsoCheckOptions& options) {
  obs::Span span(options.obs.trace, "check", "tso-check");
  TsoCheckReport report;
  bool cert_ok = false;
  if (options.cert != nullptr) {
    const ElisionCert& cert = *options.cert;
    if (!cert.Sealed()) {
      report.violations.push_back(
          {"", "", 0, "bad-cert",
           "elision certificate checksum mismatch: the certificate was "
           "tampered with or hand-forged"});
    } else if (cert.spinning_loops != 0) {
      report.violations.push_back(
          {"", "", 0, "bad-cert",
           StrCat("elision certificate records ", cert.spinning_loops,
                  " potentially-spinning loop(s): full fence removal is not "
                  "justified")});
    } else if (options.binary_key != 0 &&
               cert.binary_key != options.binary_key) {
      report.violations.push_back(
          {"", "", 0, "bad-cert",
           "elision certificate is bound to a different binary image"});
    } else {
      cert_ok = true;
    }
  }
  bool static_ok = false;
  if (options.static_cert != nullptr) {
    const StaticCert& cert = *options.static_cert;
    if (!cert.Sealed()) {
      report.violations.push_back(
          {"", "", 0, "bad-cert",
           "static elision certificate checksum mismatch: the certificate "
           "was tampered with or hand-forged"});
    } else if (options.binary_key != 0 &&
               cert.binary_key != options.binary_key) {
      report.violations.push_back(
          {"", "", 0, "bad-cert",
           "static elision certificate is bound to a different binary "
           "image"});
    } else {
      static_ok = true;
    }
  }
  for (const auto& f : m.functions()) {
    if (f->blocks().empty()) {
      continue;  // declaration
    }
    CheckFunction(m, *f, cert_ok, static_ok, options.externals, &report);
  }
  if (static_ok &&
      report.heap_witnesses_consumed >
          static_cast<size_t>(options.static_cert->heap_witnesses)) {
    report.violations.push_back(
        {"", "", 0, "bad-cert",
         StrCat("module carries ", report.heap_witnesses_consumed,
                " heap-local witnesses but the static certificate records "
                "only ",
                options.static_cert->heap_witnesses,
                ": stamped after certification")});
  }
  if (options.obs.metrics != nullptr) {
    const obs::Session& obs = options.obs;
    obs.Add(obs::Counter::kCheckAccessesChecked, report.accesses_checked);
    obs.Add(obs::Counter::kCheckObligationsDischarged,
            report.fenced_accesses + report.witnesses_consumed +
                report.heap_witnesses_consumed + report.cert_covered);
    obs.Add(obs::Counter::kCheckPathsExplored, report.path_scans);
    obs.Add(obs::Counter::kCheckWitnessesVerified,
            report.witnesses_consumed + report.heap_witnesses_consumed);
    obs.Add(obs::Counter::kCheckViolations, report.violations.size());
  }
  span.Arg("accesses", static_cast<int64_t>(report.accesses_checked));
  span.Arg("violations", static_cast<int64_t>(report.violations.size()));
  return report;
}

}  // namespace polynima::check
