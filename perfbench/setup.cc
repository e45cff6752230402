#include <algorithm>
#include <chrono>
#include <ctime>
#include <set>

#include "perfbench/bench.h"
#include "src/cc/compiler.h"
#include "src/support/rng.h"
#include "src/vm/external.h"

namespace perfbench {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNowS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double Median(std::vector<double> values) {
  Require(!values.empty(), "median of no samples");
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void Require(bool condition, const std::string& message) {
  if (!condition) {
    throw BenchError{message};
  }
}

namespace {

// The registry's random-text alphabet: letters and word breaks.
constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz      ";

// Phoenix programs that tokenize their input as text.
const std::set<std::string> kTextPrograms = {"string_match", "word_count"};

uint64_t StreamSeed(uint64_t seed, const std::string& name, size_t index) {
  uint64_t h = 14695981039346656037ull ^ seed;
  for (char c : name) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return (h ^ index) * 1099511628211ull;
}

}  // namespace

std::vector<std::vector<uint8_t>> MakeInputs(const Workload& workload,
                                             int scale, uint64_t seed) {
  std::vector<std::vector<uint8_t>> inputs = workload.make_inputs(scale);
  // The apps miniatures parse structured inputs (request streams, a
  // compressible buffer, an FTP session): random bytes would only exercise
  // their error paths, so they keep the registry's fixed inputs.
  if (workload.suite == "apps") {
    return inputs;
  }
  const bool text = kTextPrograms.count(workload.name) != 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    polynima::Rng rng(StreamSeed(seed, workload.name, i));
    for (uint8_t& byte : inputs[i]) {
      byte = text ? static_cast<uint8_t>(kAlphabet[rng.NextBelow(32)])
                  : static_cast<uint8_t>(rng.Next());
    }
  }
  return inputs;
}

std::vector<Program> SetUp(const std::vector<Spec>& specs, uint64_t seed,
                           Ledger* ledger) {
  std::vector<Program> programs;
  for (const Spec& spec : specs) {
    const Workload& w = *spec.workload;
    Program p;
    p.name = w.suite + "/" + w.name + "-O" + std::to_string(spec.opt_level);
    p.spec = spec;
    polynima::cc::CompileOptions options;
    options.name = w.name;
    options.opt_level = spec.opt_level;
    options.landing_pads = w.landing_pads;
    auto image = Timed(ledger, "cc.compile_s", [&] {
      return polynima::cc::Compile(w.source, options);
    });
    Require(image.ok(), p.name + ": compile failed: " +
                            (image.ok() ? "" : image.status().ToString()));
    p.image = std::move(*image);
    p.inputs = MakeInputs(w, spec.scale, seed);
    polynima::vm::ExternalLibrary library;
    polynima::vm::Vm vm(p.image, &library, {});
    vm.SetInputs(p.inputs);
    p.reference = Timed(ledger, "vm.run_s", [&] { return vm.Run(); });
    Require(p.reference.ok, p.name + ": original binary faulted in the VM: " +
                                p.reference.fault_message);
    if (ledger != nullptr) {
      ledger->Add("vm.guest_steps",
                  static_cast<double>(p.reference.instructions));
    }
    programs.push_back(std::move(p));
  }
  return programs;
}

IrCounts CountIr(const polynima::ir::Module& module) {
  IrCounts counts;
  for (const auto& fn : module.functions()) {
    for (const auto& block : fn->blocks()) {
      for (const auto& inst : block->insts()) {
        ++counts.instrs;
        counts.fences += inst->op() == polynima::ir::Op::kFence ? 1 : 0;
      }
    }
  }
  return counts;
}

}  // namespace perfbench
