#include "src/opt/passes.h"

namespace polynima::opt {

using ir::Instruction;
using ir::Op;

bool IsMemoryBarrier(const Instruction& inst) {
  return inst.op() == Op::kCall;
}

bool IsStateBoundary(const Instruction& inst) {
  if (inst.op() != Op::kCall) {
    return false;
  }
  if (inst.callee != nullptr) {
    return true;  // lifted function: reads/writes virtual state
  }
  // Re-entrant or state-observing intrinsics.
  return inst.intrinsic == "ext_call" || inst.intrinsic == "cfmiss" ||
         inst.intrinsic == "trap";
}

}  // namespace polynima::opt
