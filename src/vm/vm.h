// Multithreaded x86 virtual machine.
//
// Executes Polynima-subset binaries with a deterministic parallel scheduler:
// each thread carries a simulated clock, every instruction advances it by a
// cost-model amount (plus seeded jitter), and the runnable thread with the
// smallest clock always steps next. Simulated wall time is therefore the
// maximum thread clock at exit, interleavings are reproducible per seed, and
// sweeping seeds explores different interleavings.
//
// "Precise race mode" splits non-lock-prefixed read-modify-write memory
// instructions into separate load and store scheduling points, making data
// races (lost updates) actually observable — lock-prefixed instructions stay
// indivisible, as the ISA guarantees.
#ifndef POLYNIMA_VM_VM_H_
#define POLYNIMA_VM_VM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/binary/image.h"
#include "src/obs/report.h"
#include "src/support/rng.h"
#include "src/support/status.h"
#include "src/vm/external.h"
#include "src/vm/guest_context.h"
#include "src/vm/memory.h"
#include "src/x86/decoder.h"
#include "src/x86/inst.h"

namespace polynima::vm {

struct VmOptions {
  uint64_t seed = 1;
  // Split non-atomic RMW memory instructions into micro-steps.
  bool precise_races = false;
  // Observability sinks (all nullable; see src/obs): one "vm"-category span
  // per run plus the vm.* counters (instructions, lock-prefixed atomics,
  // faults).
  obs::Session obs;
};

// Cost model for original-binary execution (simulated cycles).
struct X86CostModel {
  uint64_t base = 1;
  uint64_t mem_access = 2;
  uint64_t mul_extra = 2;
  uint64_t div_extra = 20;
  uint64_t lock_extra = 8;
  uint64_t transfer_extra = 1;  // call/ret/jmp overheads
  uint64_t pause_cost = 4;
};

struct CpuState {
  uint64_t gpr[16] = {0};
  uint64_t rip = 0;
  bool flags[x86::kNumFlags] = {false};
  struct Xmm {
    uint64_t lo = 0, hi = 0;
  } xmm[16];
};

// One executed control transfer, reported to the transfer hook.
struct TransferEvent {
  enum class Kind : uint8_t { kJump, kCall, kRet };
  Kind kind;
  bool indirect;
  uint64_t from;  // address of the transfer instruction
  uint64_t to;    // actual next rip
  int thread;
};

struct RunResult {
  bool ok = false;
  int64_t exit_code = 0;
  std::string fault_message;
  uint64_t fault_pc = 0;
  // Simulated wall time: max thread clock at exit.
  uint64_t wall_time = 0;
  uint64_t instructions = 0;
  std::string output;
};

class Vm : public GuestContext {
 public:
  Vm(const binary::Image& image, ExternalLibrary* library, VmOptions options);

  void SetInputs(std::vector<std::vector<uint8_t>> inputs) {
    inputs_ = std::move(inputs);
  }
  // Called for every executed control transfer (jmp/jcc taken-or-not,
  // call, ret).
  void SetTransferHook(std::function<void(const TransferEvent&)> hook) {
    transfer_hook_ = std::move(hook);
  }
  // Called before every executed instruction (heavyweight tracing).
  void SetStepHook(std::function<void(GuestContext&, const x86::Inst&, int)> hook) {
    step_hook_ = std::move(hook);
  }

  RunResult Run();

  // --- GuestContext ---
  uint64_t GetArg(int index) override;
  void SetResult(uint64_t value) override;
  Memory& memory() override { return memory_; }
  int SpawnThread(uint64_t entry, uint64_t arg0, uint64_t arg1) override;
  bool ThreadFinished(int tid, uint64_t* retval) override;
  int current_thread() override { return current_; }
  uint64_t CallGuest(uint64_t entry, std::span<const uint64_t> args) override;
  void AddCost(uint64_t cycles) override;
  uint64_t now() override;
  std::string& output() override { return output_; }
  const std::vector<std::vector<uint8_t>>& inputs() override { return inputs_; }
  void RequestExit(int64_t code) override;

 private:
  struct Thread {
    int id = 0;
    CpuState cpu;
    uint64_t clock = 0;
    bool finished = false;
    uint64_t retval = 0;
    // In-flight split RMW (precise race mode).
    bool rmw_pending = false;
    uint64_t rmw_addr = 0;
    uint64_t rmw_loaded = 0;
  };

  Thread& CreateThread(uint64_t entry, uint64_t arg0, uint64_t arg1,
                       uint64_t exit_magic);
  // Executes one scheduling step of thread `t`. Returns false on fault (the
  // fault fields of the result are filled).
  bool Step(Thread& t);
  bool ExecuteInst(Thread& t, const x86::Inst& inst);
  bool HandleExternal(Thread& t);

  const x86::Inst* DecodeAt(uint64_t addr);

  uint64_t EffectiveAddress(const Thread& t, const x86::MemRef& mem,
                            const x86::Inst& inst) const;
  uint64_t ReadOperand(Thread& t, const x86::Operand& op, int size,
                       const x86::Inst& inst);
  void WriteOperand(Thread& t, const x86::Operand& op, int size, uint64_t v,
                    const x86::Inst& inst);

  void Fault(std::string message, uint64_t pc);
  void ReportTransfer(TransferEvent::Kind kind, bool indirect, uint64_t from,
                      uint64_t to, int tid);

  const binary::Image& image_;
  ExternalLibrary* library_;
  VmOptions options_;
  X86CostModel costs_;
  Memory memory_;
  Rng rng_;

  std::vector<std::unique_ptr<Thread>> threads_;
  int current_ = 0;

  std::unordered_map<uint64_t, x86::Inst> decode_cache_;

  std::function<void(const TransferEvent&)> transfer_hook_;
  std::function<void(GuestContext&, const x86::Inst&, int)> step_hook_;

  std::vector<std::vector<uint8_t>> inputs_;
  std::string output_;

  bool exited_ = false;
  int64_t exit_code_ = 0;
  bool faulted_ = false;
  std::string fault_message_;
  uint64_t fault_pc_ = 0;
  uint64_t steps_ = 0;
};

}  // namespace polynima::vm

#endif  // POLYNIMA_VM_VM_H_
