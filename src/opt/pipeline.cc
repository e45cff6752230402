#include "src/opt/passes.h"

#include <vector>

#include "src/ir/verifier.h"
#include "src/support/clock.h"
#include "src/support/thread_pool.h"

namespace polynima::opt {

namespace {

// Upper bound on rounds of the per-function pass loop, which stops early at
// a fixpoint.
constexpr int kPassIterations = 3;

}  // namespace

void OptimizeFunction(ir::Function& f, ir::Module& m,
                      const PipelineOptions& options) {
  SimplifyCfg(f);
  PromoteGlobals(f);
  int iterations_run = 0;
  for (int i = 0; i < kPassIterations; ++i) {
    ++iterations_run;
    bool changed = false;
    changed |= LocalCse(f);
    changed |= InstCombine(f, m);
    changed |= MemOpt(f);
    changed |= DeadFlagElim(f);
    changed |= DeadCodeElim(f);
    changed |= SimplifyCfg(f);
    if (!changed) {
      break;
    }
  }
  if (options.obs.metrics != nullptr) {
    options.obs.Add(obs::Counter::kOptFunctionsOptimized);
    options.obs.Add(obs::Counter::kOptPassIterations,
                    static_cast<uint64_t>(iterations_run));
  }
}

Status RunPipelineOnFunctions(ir::Module& m,
                              const std::vector<ir::Function*>& functions,
                              const PipelineOptions& options) {
  // Inlining mutates caller/callee pairs and must see the whole module; it
  // is a serial barrier before the per-function phase.
  if (options.inline_functions) {
    InlineFunctions(m);
  }
  ThreadPool pool(options.jobs);
  const obs::Session& obs = options.obs;
  POLY_RETURN_IF_ERROR(pool.ParallelFor(functions.size(), [&](size_t i) {
    obs::Span span(obs.trace, "opt", functions[i]->name());
    uint64_t t0 = obs.metrics != nullptr ? NowNs() : 0;
    OptimizeFunction(*functions[i], m, options);
    if (obs.metrics != nullptr) {
      obs.Observe(obs::Histogram::kOptFunctionNs, NowNs() - t0);
    }
    return Status::Ok();
  }));
  obs::Span verify_span(obs.trace, "verify", "ir-verify");
  return ir::Verify(m);
}

Status RunPipeline(ir::Module& m, const PipelineOptions& options) {
  std::vector<ir::Function*> fns;
  fns.reserve(m.functions().size());
  for (auto& f : m.functions()) {
    fns.push_back(f.get());
  }
  return RunPipelineOnFunctions(m, fns, options);
}

}  // namespace polynima::opt
