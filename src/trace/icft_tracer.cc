#include "src/trace/icft_tracer.h"

#include "src/support/clock.h"
#include "src/vm/external.h"

namespace polynima::trace {

size_t TraceResult::TotalTargets() const {
  size_t n = 0;
  for (const auto& [from, targets] : indirect_targets) {
    n += targets.size();
  }
  return n;
}

void TraceResult::MergeFrom(const TraceResult& other) {
  for (const auto& [from, targets] : other.indirect_targets) {
    indirect_targets[from].insert(targets.begin(), targets.end());
  }
  host_ns += other.host_ns;
  for (const auto& r : other.runs) {
    runs.push_back(r);
  }
}

TraceResult TraceRun(const binary::Image& image,
                     const std::vector<std::vector<uint8_t>>& inputs,
                     vm::VmOptions options) {
  TraceResult result;
  uint64_t start = NowNs();
  vm::ExternalLibrary library;
  vm::Vm virtual_machine(image, &library, options);
  virtual_machine.SetInputs(inputs);
  virtual_machine.SetTransferHook([&](const vm::TransferEvent& e) {
    // Rets resolve natively in the recompiled output (return-PC
    // convention); only indirect jumps and calls need target sets.
    if (e.kind == vm::TransferEvent::Kind::kRet || !e.indirect) {
      return;
    }
    if (!image.IsCodeAddress(e.to)) {
      return;  // transfers into externals are lifted as ext_call
    }
    result.indirect_targets[e.from].insert(e.to);
  });
  result.runs.push_back(virtual_machine.Run());
  result.host_ns = NowNs() - start;
  return result;
}

TraceResult TraceAll(
    const binary::Image& image,
    const std::vector<std::vector<std::vector<uint8_t>>>& input_sets,
    vm::VmOptions options) {
  TraceResult merged;
  if (input_sets.empty()) {
    return TraceRun(image, {}, options);
  }
  for (const auto& inputs : input_sets) {
    merged.MergeFrom(TraceRun(image, inputs, options));
  }
  return merged;
}

Expected<int> AugmentCfg(const binary::Image& image,
                         cfg::ControlFlowGraph& graph,
                         const TraceResult& trace,
                         const cfg::RecoverOptions& options) {
  int added = 0;
  for (const auto& [from, targets] : trace.indirect_targets) {
    for (uint64_t target : targets) {
      const cfg::BlockInfo* block = graph.BlockContaining(from);
      bool known = block != nullptr &&
                   block->indirect_targets.count(target) != 0 &&
                   graph.blocks.count(target) != 0;
      if (known) {
        continue;
      }
      POLY_RETURN_IF_ERROR(
          cfg::IntegrateDiscoveredTarget(image, graph, from, target, options));
      ++added;
    }
  }
  return added;
}

}  // namespace polynima::trace
