// Shared pieces of the perfbench harness: the program set a workload runs,
// its seeded inputs and reference results, and the per-layer ledger the
// traced run fills.
#ifndef POLYNIMA_PERFBENCH_BENCH_H_
#define POLYNIMA_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/binary/image.h"
#include "src/ir/ir.h"
#include "src/vm/vm.h"
#include "src/workloads/workloads.h"

namespace perfbench {

using polynima::binary::Image;
using polynima::workloads::Workload;

double NowS();     // steady clock, seconds
double CpuNowS();  // process CPU time (all threads), seconds
double Median(std::vector<double> values);

// Thrown by Require(); the harness turns it into a non-zero exit without a
// result line.
struct BenchError {
  std::string message;
};
void Require(bool condition, const std::string& message);

// Seconds spent inside each module's public calls and the counts they
// report, keyed by per-layer metric name ("lift.lift_s", "cfg.blocks").
// A null ledger (the untraced runs) times nothing.
struct Ledger {
  std::map<std::string, double> values;
  void Add(const std::string& key, double amount) { values[key] += amount; }
};

// Runs `fn`, adding its wall time to `key` when `ledger` is set.
template <typename Fn>
auto Timed(Ledger* ledger, const char* key, Fn&& fn) {
  if (ledger == nullptr) {
    return fn();
  }
  double t0 = NowS();
  auto result = fn();
  ledger->Add(key, NowS() - t0);
  return result;
}

// Like Timed, and also adds the process CPU time to `cpu_key`.
template <typename Fn>
auto TimedCpu(Ledger* ledger, const char* key, const char* cpu_key,
              Fn&& fn) {
  if (ledger == nullptr) {
    return fn();
  }
  double c0 = CpuNowS();
  double t0 = NowS();
  auto result = fn();
  ledger->Add(key, NowS() - t0);
  ledger->Add(cpu_key, CpuNowS() - c0);
  return result;
}

// What a program is built from: a registry workload at one optimisation
// level, with inputs of the registry's shape at `scale` (0 small, 2 large).
struct Spec {
  const Workload* workload = nullptr;
  int opt_level = 2;
  int scale = 0;
};

// A compiled program with its seeded inputs and the original binary's
// result in the x86 VM on them — the reference every recompiled output is
// checked against.
struct Program {
  std::string name;  // "<suite>/<workload>-O<level>"
  Spec spec;
  Image image;
  std::vector<std::vector<uint8_t>> inputs;
  polynima::vm::RunResult reference;
};

// Inputs of the registry's shape for `workload` at `scale`, with fresh
// random bytes or random text drawn from `seed`.
std::vector<std::vector<uint8_t>> MakeInputs(const Workload& workload,
                                             int scale, uint64_t seed);

// Compiles every spec, draws its inputs and runs the original binary in the
// VM. cc and vm time and VM steps go to `ledger`.
std::vector<Program> SetUp(const std::vector<Spec>& specs, uint64_t seed,
                           Ledger* ledger);

// Instruction and fence counts of a module.
struct IrCounts {
  uint64_t instrs = 0;
  uint64_t fences = 0;
};
IrCounts CountIr(const polynima::ir::Module& module);

}  // namespace perfbench

#endif  // POLYNIMA_PERFBENCH_BENCH_H_
