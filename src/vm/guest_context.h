// GuestContext: the engine-agnostic interface external library functions
// (mini libc / pthreads / OpenMP runtime) use to interact with a running
// guest program.
//
// Two engines implement it: the x86 VM (executing the original binary) and
// the IR execution engine (executing the recompiled program). Sharing the
// external library between them is what makes "the recompiled binary behaves
// like the original under the same inputs" a meaningful correctness check.
#ifndef POLYNIMA_VM_GUEST_CONTEXT_H_
#define POLYNIMA_VM_GUEST_CONTEXT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/vm/memory.h"

namespace polynima::vm {

class GuestContext {
 public:
  virtual ~GuestContext() = default;

  // SysV integer argument registers (rdi, rsi, rdx, rcx, r8, r9).
  virtual uint64_t GetArg(int index) = 0;
  // Sets the call's return value (rax).
  virtual void SetResult(uint64_t value) = 0;

  virtual Memory& memory() = 0;

  // Spawns a guest thread entering `entry` with (arg0, arg1) in the first two
  // argument registers. Returns the new thread id.
  virtual int SpawnThread(uint64_t entry, uint64_t arg0, uint64_t arg1) = 0;
  // True once thread `tid` has finished; `*retval` receives its return value.
  virtual bool ThreadFinished(int tid, uint64_t* retval) = 0;
  // Id of the thread currently executing the external call.
  virtual int current_thread() = 0;

  // Synchronously runs guest code at `entry` with up to six integer args on
  // the current thread (used by callback-taking externals such as qsort).
  virtual uint64_t CallGuest(uint64_t entry, std::span<const uint64_t> args) = 0;

  // Charges simulated cycles to the current thread (models the work an
  // external function performs).
  virtual void AddCost(uint64_t cycles) = 0;
  // Current thread's simulated clock.
  virtual uint64_t now() = 0;

  // Program stdout.
  virtual std::string& output() = 0;
  // Read-only input byte streams ("files") supplied by the harness.
  virtual const std::vector<std::vector<uint8_t>>& inputs() = 0;

  // Requests program termination with the given exit code.
  virtual void RequestExit(int64_t code) = 0;
};

}  // namespace polynima::vm

#endif  // POLYNIMA_VM_GUEST_CONTEXT_H_
