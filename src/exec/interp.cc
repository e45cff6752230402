// Tier-0 execution: the reference IR interpreter (DESIGN.md §4f).
//
// Hosts Engine::StepInstruction — one IR instruction per call — and the
// intrinsic handler. The body is instantiated twice: the <true> variant
// carries the per-instruction observability hooks (guest profile, exec.*
// counters), the <false> variant compiles them out entirely, so unobserved
// runs pay no per-instruction null checks in the dispatch loop.
#include "src/exec/interp.h"

#include "src/exec/engine.h"
#include "src/exec/exec_util.h"
#include "src/exec/tier1.h"
#include "src/support/check.h"
#include "src/support/strings.h"

namespace polynima::exec {

using ir::BasicBlock;
using ir::Instruction;
using ir::Op;
using ir::RmwOp;

bool InterpreterBackend::Step(Thread& t, StepMode /*mode*/) {
  return e_.StepInstruction(t);
}

bool Engine::StepInstruction(Thread& t) {
  return obs_attached_ ? StepInstructionImpl<true>(t)
                       : StepInstructionImpl<false>(t);
}

template <bool kObs>
bool Engine::StepInstructionImpl(Thread& t) {
  // Index, not reference: intrinsics (qsort callbacks) may push frames and
  // reallocate the stack vector.
  const size_t frame_index = t.stack.size() - 1;
  Frame& f = t.stack.back();
  POLY_CHECK(f.it != f.block->insts().end())
      << "fell off block " << f.block->name();
  const Instruction& inst = **f.it;
  if constexpr (kObs) {
    if (options_.obs.profile != nullptr) {
      options_.obs.profile->AddInstrs(f.profile_site, 1);
    }
    if (tierprof_ != nullptr) {
      ++f.info->tp_steps[0];  // tier-0 residency attribution
    }
  }
  // Copy: `f` may dangle after a call pushes a frame (vector reallocation).
  const FuncInfo* info = f.info;
  uint64_t cost = costs_.alu;
  bool advance = true;

  switch (inst.op()) {
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
    case Op::kAShr: {
      uint64_t a = Eval(f, inst.operand(0));
      uint64_t b = Eval(f, inst.operand(1));
      uint64_t r = 0;
      switch (inst.op()) {
        case Op::kAdd:
          r = a + b;
          break;
        case Op::kSub:
          r = a - b;
          break;
        case Op::kMul:
          r = a * b;
          cost += 2;
          break;
        case Op::kSDiv:
        case Op::kSRem: {
          if (b == 0) {
            Fault("division by zero in lifted code");
            return false;
          }
          int64_t sa = static_cast<int64_t>(a);
          int64_t sb = static_cast<int64_t>(b);
          if (sa == INT64_MIN && sb == -1) {
            Fault("division overflow in lifted code");
            return false;
          }
          r = static_cast<uint64_t>(inst.op() == Op::kSDiv ? sa / sb
                                                           : sa % sb);
          cost += 20;
          break;
        }
        case Op::kUDiv:
        case Op::kURem:
          if (b == 0) {
            Fault("division by zero in lifted code");
            return false;
          }
          r = inst.op() == Op::kUDiv ? a / b : a % b;
          cost += 20;
          break;
        case Op::kAnd:
          r = a & b;
          break;
        case Op::kOr:
          r = a | b;
          break;
        case Op::kXor:
          r = a ^ b;
          break;
        case Op::kShl:
          r = b >= 64 ? 0 : a << b;
          break;
        case Op::kLShr:
          r = b >= 64 ? 0 : a >> b;
          break;
        case Op::kAShr:
          r = static_cast<uint64_t>(
              static_cast<int64_t>(a) >> (b >= 64 ? 63 : b));
          break;
        default:
          POLY_UNREACHABLE("covered above");
      }
      f.values[static_cast<size_t>(inst.id)] = r;
      break;
    }

    case Op::kICmp: {
      uint64_t a = Eval(f, inst.operand(0));
      uint64_t b = Eval(f, inst.operand(1));
      f.values[static_cast<size_t>(inst.id)] = EvalPred(inst.pred, a, b);
      break;
    }

    case Op::kSelect: {
      uint64_t c = Eval(f, inst.operand(0));
      f.values[static_cast<size_t>(inst.id)] =
          c != 0 ? Eval(f, inst.operand(1)) : Eval(f, inst.operand(2));
      break;
    }

    case Op::kSExt: {
      uint64_t v = Eval(f, inst.operand(0));
      int shift = 64 - inst.width;
      f.values[static_cast<size_t>(inst.id)] = static_cast<uint64_t>(
          (static_cast<int64_t>(v << shift)) >> shift);
      break;
    }

    case Op::kLoad: {
      uint64_t addr = Eval(f, inst.operand(0));
      RecordAccess(&inst, t, addr);
      f.values[static_cast<size_t>(inst.id)] = memory_.Read(addr, inst.size);
      cost = costs_.mem_access;
      break;
    }
    case Op::kStore: {
      uint64_t addr = Eval(f, inst.operand(0));
      RecordAccess(&inst, t, addr);
      memory_.Write(addr, inst.size,
                    MaskBytes(Eval(f, inst.operand(1)), inst.size));
      cost = costs_.mem_access;
      break;
    }

    case Op::kGlobalLoad:
      f.values[static_cast<size_t>(inst.id)] = GlobalSlot(t, inst.global);
      cost = costs_.global_access;
      break;
    case Op::kGlobalStore:
      GlobalSlot(t, inst.global) = Eval(f, inst.operand(0));
      cost = costs_.global_access;
      break;

    case Op::kBr: {
      BasicBlock* target;
      if (inst.num_operands() == 0) {
        target = inst.targets[0];
      } else {
        target = Eval(f, inst.operand(0)) != 0 ? inst.targets[0]
                                               : inst.targets[1];
      }
      EnterBlock(f, target);
      advance = false;
      cost = costs_.branch;
      break;
    }

    case Op::kSwitch: {
      uint64_t v = Eval(f, inst.operand(0));
      BasicBlock* target = inst.targets[0];
      for (size_t i = 0; i < inst.case_values.size(); ++i) {
        if (static_cast<uint64_t>(inst.case_values[i]) == v) {
          target = inst.targets[i + 1];
          break;
        }
      }
      EnterBlock(f, target);
      advance = false;
      // Dispatch cost grows with the target set (switch-on-PC, §3.2).
      uint64_t n = inst.case_values.size();
      cost = 2;
      while (n > 1) {
        n >>= 1;
        ++cost;
      }
      break;
    }

    case Op::kRet: {
      uint64_t value =
          inst.num_operands() > 0 ? Eval(f, inst.operand(0)) : 0;
      bool was_root = f.dispatch_root;
      t.stack.pop_back();
      cost = costs_.ret;
      if (t.stack.empty() || was_root) {
        t.pending_pc = value;
        t.last_toplevel_pc = value;
      } else {
        Frame& caller = t.stack.back();
        if (caller.translated) {
          // Cross-tier return: the caller is parked on a tier-1 kCall.
          const Translation& tr = *caller.info->translation;
          const TInst& call = tr.code[caller.tpc];
          POLY_CHECK(call.op == TOp::kCall);
          if (call.dst != kNoDst) {
            caller.values[call.dst] = value;
          }
          ++caller.tpc;
        } else {
          const Instruction& call_inst = **caller.it;
          POLY_CHECK(call_inst.op() == Op::kCall);
          if (call_inst.HasResult()) {
            caller.values[static_cast<size_t>(call_inst.id)] = value;
          }
          ++caller.it;
        }
      }
      advance = false;
      break;
    }

    case Op::kUnreachable:
      Fault(StrCat("unreachable executed in @", f.info->fn->name()));
      return false;

    case Op::kCall: {
      if (inst.callee != nullptr) {
        PushFrame(t, InfoFor(inst.callee), /*dispatch_root=*/false);
        cost = costs_.call;
        advance = false;  // the matching ret advances the caller
        break;
      }
      if (!HandleIntrinsic(t, frame_index, inst)) {
        return !faulted_ && miss_ == std::nullopt;
      }
      // HandleIntrinsic may request a retry (blocking external).
      if (retry_pending_) {
        retry_pending_ = false;
        last_step_retried_ = true;
        advance = false;
      }
      cost = 0;  // intrinsics charge their own cost
      break;
    }

    case Op::kPhi:
      // Materialized at block entry.
      cost = costs_.phi;
      break;

    case Op::kFence:
      if constexpr (kObs) {
        if (options_.obs.profile != nullptr) {
          options_.obs.profile->AddFence(f.profile_site);
        }
        options_.obs.Add(obs::Counter::kExecFences);
      }
      cost = costs_.fence;
      break;

    case Op::kAtomicRmw: {
      uint64_t addr = Eval(f, inst.operand(0));
      uint64_t operand = Eval(f, inst.operand(1));
      RecordAccess(&inst, t, addr);
      uint64_t old = memory_.Read(addr, inst.size);
      uint64_t r = old;
      switch (inst.rmw_op) {
        case RmwOp::kAdd:
          r = old + operand;
          break;
        case RmwOp::kSub:
          r = old - operand;
          break;
        case RmwOp::kAnd:
          r = old & operand;
          break;
        case RmwOp::kOr:
          r = old | operand;
          break;
        case RmwOp::kXor:
          r = old ^ operand;
          break;
        case RmwOp::kXchg:
          r = operand;
          break;
      }
      memory_.Write(addr, inst.size, MaskBytes(r, inst.size));
      f.values[static_cast<size_t>(inst.id)] = old;
      if constexpr (kObs) {
        if (options_.obs.profile != nullptr) {
          options_.obs.profile->AddAtomic(f.profile_site);
        }
        options_.obs.Add(obs::Counter::kExecAtomics);
      }
      cost = costs_.atomic;
      break;
    }

    case Op::kCmpXchg: {
      uint64_t addr = Eval(f, inst.operand(0));
      uint64_t expected = MaskBytes(Eval(f, inst.operand(1)), inst.size);
      uint64_t desired = Eval(f, inst.operand(2));
      RecordAccess(&inst, t, addr);
      uint64_t old = memory_.Read(addr, inst.size);
      if (old == expected) {
        memory_.Write(addr, inst.size, MaskBytes(desired, inst.size));
      }
      f.values[static_cast<size_t>(inst.id)] = old;
      if constexpr (kObs) {
        if (options_.obs.profile != nullptr) {
          options_.obs.profile->AddAtomic(f.profile_site);
        }
        options_.obs.Add(obs::Counter::kExecAtomics);
      }
      cost = costs_.atomic;
      break;
    }
  }

  // Address arithmetic feeding only memory operands is free: the native
  // backend folds it into x86 addressing modes.
  if (inst.id >= 0 && info->fold_by_id[static_cast<size_t>(inst.id)] != 0) {
    cost = 0;
  } else {
    cost += t.jitter_rng.Next() & 1;
  }
  t.clock += cost;
  if (advance) {
    ++t.stack[frame_index].it;
  }
  return true;
}

template bool Engine::StepInstructionImpl<true>(Thread& t);
template bool Engine::StepInstructionImpl<false>(Thread& t);

bool Engine::HandleIntrinsic(Thread& t, size_t frame_index,
                             const Instruction& inst) {
  const std::string& name = inst.intrinsic;
  // Re-fetch the frame on every use: nested dispatch may reallocate.
  auto frame = [&]() -> Frame& { return t.stack[frame_index]; };
  auto set_result = [&](uint64_t v) {
    if (inst.HasResult()) {
      frame().values[static_cast<size_t>(inst.id)] = v;
    }
  };
  Frame& f = frame();  // valid until a nested dispatch occurs

  if (name == "ext_call") {
    uint64_t slot = Eval(f, inst.operand(0));
    if (slot >= program_.externals.size()) {
      Fault(StrCat("ext_call to unmapped slot ", slot));
      return false;
    }
    t.clock += costs_.ext_marshal;
    options_.obs.Add(obs::Counter::kExecExtCalls);
    vm::ExtResult result = library_->Call(program_.externals[slot], *this);
    switch (result.status) {
      case vm::ExtStatus::kDone:
        set_result(0);
        return true;
      case vm::ExtStatus::kBlock:
        retry_pending_ = true;
        return true;
      case vm::ExtStatus::kFault:
        Fault(StrCat("external ", program_.externals[slot], ": ",
                     result.fault_message));
        return false;
    }
    return false;
  }
  if (name == "cfmiss") {
    uint64_t target = Eval(f, inst.operand(0));
    uint64_t transfer = Eval(f, inst.operand(1));
    miss_ = MissInfo{transfer, target};
    Fault(StrCat("control flow miss: ", HexString(transfer), " -> ",
                 HexString(target)));
    return false;
  }
  if (name == "trap") {
    Fault(StrCat("lifted trap at ",
                 HexString(Eval(f, inst.operand(0)))));
    return false;
  }
  if (name == "parity") {
    uint64_t v = Eval(f, inst.operand(0));
    set_result((__builtin_popcountll(v & 0xff) % 2) == 0 ? 1 : 0);
    t.clock += 1;
    return true;
  }
  if (name == "pause") {
    t.clock += 4;
    set_result(0);
    return true;
  }
  if (name == "helper_paddd" || name == "helper_psubd" ||
      name == "helper_pmulld") {
    uint64_t a = Eval(f, inst.operand(0));
    uint64_t b = Eval(f, inst.operand(1));
    char op = name == "helper_paddd" ? '+' : name == "helper_psubd" ? '-' : '*';
    set_result(PackedLanes32(a, b, op));
    t.clock += costs_.helper;
    return true;
  }
  if (name == "simd_paddd" || name == "simd_psubd" || name == "simd_pmulld") {
    // First-class SIMD translation (§5.3): lowers back to one packed
    // instruction, so it costs like one.
    uint64_t a = Eval(f, inst.operand(0));
    uint64_t b = Eval(f, inst.operand(1));
    char op = name == "simd_paddd" ? '+' : name == "simd_psubd" ? '-' : '*';
    set_result(PackedLanes32(a, b, op));
    t.clock += costs_.alu;
    return true;
  }
  if (name == "helper_mulh") {
    __int128 full = static_cast<__int128>(
                        static_cast<int64_t>(Eval(f, inst.operand(0)))) *
                    static_cast<__int128>(
                        static_cast<int64_t>(Eval(f, inst.operand(1))));
    set_result(static_cast<uint64_t>(full >> 64));
    t.clock += costs_.helper;
    return true;
  }
  if (name == "helper_sdiv128" || name == "helper_srem128") {
    __int128 dividend =
        (static_cast<__int128>(static_cast<int64_t>(Eval(f, inst.operand(0))))
         << 64) |
        static_cast<__int128>(Eval(f, inst.operand(1)));
    int64_t divisor = static_cast<int64_t>(Eval(f, inst.operand(2)));
    if (divisor == 0) {
      Fault("division by zero in lifted code");
      return false;
    }
    set_result(static_cast<uint64_t>(name == "helper_sdiv128"
                                         ? dividend / divisor
                                         : dividend % divisor));
    t.clock += costs_.helper + 20;
    return true;
  }
  if (name == "global_lock") {
    if (global_lock_owner_ != -1 && global_lock_owner_ != t.id) {
      retry_pending_ = true;
      t.clock += 10;
      return true;
    }
    global_lock_owner_ = t.id;
    set_result(0);
    t.clock += 8;
    return true;
  }
  if (name == "global_unlock") {
    global_lock_owner_ = -1;
    set_result(0);
    t.clock += 8;
    return true;
  }
  Fault("unknown intrinsic: " + name);
  return false;
}

}  // namespace polynima::exec
