// Optimizer tests: every pass must preserve end-to-end behaviour of lifted
// programs, and the pipeline must deliver the structural improvements the
// paper's performance story depends on (dead flag elimination, register
// promotion, fence-blocked vs fence-free memory optimization).
#include <gtest/gtest.h>

#include "src/cc/compiler.h"
#include "src/cfg/cfg.h"
#include "src/exec/engine.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/lift/lifter.h"
#include "src/opt/passes.h"
#include "src/recomp/recompiler.h"
#include "src/vm/vm.h"

namespace polynima::opt {
namespace {

struct Recompiled {
  binary::Image image;
  lift::LiftedProgram program;
};

Expected<Recompiled> Recompile(const std::string& source, int opt_level,
                               lift::LiftOptions lift_options = {},
                               bool run_pipeline = true,
                               PipelineOptions pipe = {}) {
  cc::CompileOptions cc_options;
  cc_options.name = "opt_test";
  cc_options.opt_level = opt_level;
  POLY_ASSIGN_OR_RETURN(binary::Image image, cc::Compile(source, cc_options));
  POLY_ASSIGN_OR_RETURN(cfg::ControlFlowGraph graph,
                        cfg::RecoverStatic(image));
  POLY_ASSIGN_OR_RETURN(lift::LiftedProgram program,
                        lift::Lift(image, graph, lift_options));
  if (run_pipeline) {
    POLY_RETURN_IF_ERROR(RunPipeline(*program.module, pipe));
  }
  Recompiled r{std::move(image), std::move(program)};
  return r;
}

exec::ExecResult RunLifted(const Recompiled& r,
                           std::vector<std::vector<uint8_t>> inputs = {},
                           exec::ExecOptions options = {}) {
  vm::ExternalLibrary library;
  exec::Engine engine(r.program, r.image, &library, options);
  engine.SetInputs(std::move(inputs));
  return engine.Run();
}

vm::RunResult RunOriginal(const binary::Image& image,
                          std::vector<std::vector<uint8_t>> inputs = {}) {
  vm::ExternalLibrary library;
  vm::Vm virtual_machine(image, &library, {});
  virtual_machine.SetInputs(std::move(inputs));
  return virtual_machine.Run();
}

size_t CountOps(const ir::Module& m, ir::Op op) {
  size_t n = 0;
  for (const auto& f : m.functions()) {
    for (const auto& block : f->blocks()) {
      for (const auto& inst : block->insts()) {
        if (inst->op() == op) {
          ++n;
        }
      }
    }
  }
  return n;
}

size_t TotalInsts(const ir::Module& m) {
  size_t n = 0;
  for (const auto& f : m.functions()) {
    for (const auto& block : f->blocks()) {
      n += block->insts().size();
    }
  }
  return n;
}

const char* kComputeProgram = R"(
  extern void print_i64(long v);
  long table[64];
  long churn(long n) {
    long acc = 7;
    for (long i = 0; i < n; i++) {
      acc = acc * 31 + i;
      acc = acc ^ (acc >> 7);
      table[i & 63] += acc & 0xff;
    }
    return acc;
  }
  int main() {
    long h = churn(300);
    long sum = 0;
    for (int i = 0; i < 64; i++) sum += table[i];
    print_i64(h % 1000003);
    print_i64(sum);
    return 0;
  })";

const char* kThreadProgram = R"(
  extern int pthread_create(long* tid, long attr, long (*fn)(long), long arg);
  extern int pthread_join(long tid, long* ret);
  extern void print_i64(long v);
  long lock = 0;
  long shared = 0;
  long worker(long n) {
    for (long i = 0; i < n; i++) {
      while (__atomic_cas(&lock, 0, 1) != 0) { __pause(); }
      shared += 1;
      __atomic_store(&lock, 0);
    }
    return 0;
  }
  int main() {
    long tids[4];
    for (int i = 0; i < 4; i++) pthread_create(&tids[i], 0, worker, 50);
    for (int i = 0; i < 4; i++) pthread_join(tids[i], 0);
    print_i64(shared);
    return 0;
  })";

class OptLevels : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(O0O2, OptLevels, ::testing::Values(0, 2));

TEST_P(OptLevels, PipelinePreservesBehaviour) {
  for (const char* source : {kComputeProgram, kThreadProgram}) {
    auto unopt = Recompile(source, GetParam(), {}, /*run_pipeline=*/false);
    auto opt = Recompile(source, GetParam());
    ASSERT_TRUE(unopt.ok()) << unopt.status().ToString();
    ASSERT_TRUE(opt.ok()) << opt.status().ToString();
    vm::RunResult original = RunOriginal(unopt->image);
    exec::ExecResult before = RunLifted(*unopt);
    exec::ExecResult after = RunLifted(*opt);
    ASSERT_TRUE(original.ok) << original.fault_message;
    ASSERT_TRUE(before.ok) << before.fault_message;
    ASSERT_TRUE(after.ok) << after.fault_message;
    EXPECT_EQ(before.output, original.output);
    EXPECT_EQ(after.output, original.output);
    EXPECT_EQ(after.exit_code, original.exit_code);
  }
}

TEST_P(OptLevels, PipelineReducesWorkSubstantially) {
  auto unopt = Recompile(kComputeProgram, GetParam(), {}, false);
  auto opt = Recompile(kComputeProgram, GetParam());
  ASSERT_TRUE(unopt.ok());
  ASSERT_TRUE(opt.ok());
  exec::ExecResult before = RunLifted(*unopt);
  exec::ExecResult after = RunLifted(*opt);
  ASSERT_TRUE(before.ok);
  ASSERT_TRUE(after.ok);
  // The pipeline must at least halve dynamic cost (dead flags alone are
  // ~5 global stores per ALU instruction).
  EXPECT_LT(after.wall_time * 2, before.wall_time)
      << "before=" << before.wall_time << " after=" << after.wall_time;
}

TEST_P(OptLevels, DeadFlagStoresAreMostlyEliminated) {
  auto unopt = Recompile(kComputeProgram, GetParam(), {}, false);
  auto opt = Recompile(kComputeProgram, GetParam());
  ASSERT_TRUE(unopt.ok());
  ASSERT_TRUE(opt.ok());
  auto count_flag_stores = [](const ir::Module& m) {
    size_t n = 0;
    for (const auto& f : m.functions()) {
      for (const auto& block : f->blocks()) {
        for (const auto& inst : block->insts()) {
          if (inst->op() == ir::Op::kGlobalStore &&
              inst->global->name().substr(0, 3) == "fl_") {
            ++n;
          }
        }
      }
    }
    return n;
  };
  size_t before = count_flag_stores(*unopt->program.module);
  size_t after = count_flag_stores(*opt->program.module);
  EXPECT_LT(after * 4, before) << "before=" << before << " after=" << after;
}

TEST_P(OptLevels, RegisterPromotionRemovesMostGlobalTraffic) {
  auto unopt = Recompile(kComputeProgram, GetParam(), {}, false);
  auto opt = Recompile(kComputeProgram, GetParam());
  ASSERT_TRUE(unopt.ok());
  ASSERT_TRUE(opt.ok());
  size_t before = CountOps(*unopt->program.module, ir::Op::kGlobalLoad);
  size_t after = CountOps(*opt->program.module, ir::Op::kGlobalLoad);
  EXPECT_LT(after * 3, before) << "before=" << before << " after=" << after;
}

TEST(OptPasses, FencesBlockLoadForwardingAcrossThem) {
  // Same heap location loaded twice: with fences the second load must stay
  // (acquire fences pin it); without fences RLE forwards it.
  const char* source = R"(
    long g = 5;
    int main() {
      long a = g;
      long b = g;
      return (int)(a + b);
    })";
  auto fenced = Recompile(source, 0);
  ASSERT_TRUE(fenced.ok());
  cc::CompileOptions cc_options;
  cc_options.name = "opt_test";
  cc_options.opt_level = 0;
  auto image = cc::Compile(source, cc_options);
  ASSERT_TRUE(image.ok());
  recomp::RecompileOptions no_fences;
  no_fences.remove_fences = true;
  recomp::Recompiler recompiler(std::move(*image), no_fences);
  auto unfenced = recompiler.Recompile();
  ASSERT_TRUE(unfenced.ok());
  size_t fenced_loads = CountOps(*fenced->program.module, ir::Op::kLoad);
  size_t unfenced_loads = CountOps(*unfenced->program.module, ir::Op::kLoad);
  EXPECT_LT(unfenced_loads, fenced_loads);

  // Behaviour identical either way (single-threaded program).
  exec::ExecResult a = RunLifted(*fenced);
  exec::ExecResult b = unfenced->Run({});
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.exit_code, 10);
  EXPECT_EQ(b.exit_code, 10);
  // And the fence-free version is cheaper.
  EXPECT_LT(b.wall_time, a.wall_time);
}

TEST(OptPasses, RemoveFencesThenPipelineMatchesLiftingWithoutFences) {
  auto r = Recompile(kComputeProgram, 0, {}, /*run_pipeline=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(CountOps(*r->program.module, ir::Op::kFence), 0u);
  int removed = RemoveFences(*r->program.module);
  EXPECT_GT(removed, 0);
  EXPECT_EQ(CountOps(*r->program.module, ir::Op::kFence), 0u);
  ASSERT_TRUE(RunPipeline(*r->program.module).ok());
  exec::ExecResult result = RunLifted(*r);
  ASSERT_TRUE(result.ok) << result.fault_message;
  vm::RunResult original = RunOriginal(r->image);
  EXPECT_EQ(result.output, original.output);
}

TEST(OptPasses, InlineRequiresCallbackAnalysis) {
  const char* source = R"(
    long helper(long x) { return x * 3 + 1; }
    int main() {
      long acc = 0;
      for (int i = 0; i < 10; i++) acc += helper(i);
      return (int)acc;
    })";
  // Conservative mode: everything is an external entry; nothing inlines.
  auto conservative = Recompile(source, 0, {}, /*run_pipeline=*/false);
  ASSERT_TRUE(conservative.ok());
  EXPECT_EQ(InlineFunctions(*conservative->program.module), 0);

  // After callback analysis: only main stays external; helper inlines.
  lift::LiftOptions analyzed;
  analyzed.mark_all_external = false;
  auto slim = Recompile(source, 0, analyzed, /*run_pipeline=*/false);
  ASSERT_TRUE(slim.ok());
  EXPECT_GT(InlineFunctions(*slim->program.module), 0);
  ASSERT_TRUE(RunPipeline(*slim->program.module).ok());
  exec::ExecResult result = RunLifted(*slim);
  ASSERT_TRUE(result.ok) << result.fault_message;
  EXPECT_EQ(result.exit_code, 145);
}

TEST(OptPasses, InliningImprovesPerformance) {
  const char* source = R"(
    long f1(long x) { return x * 3 + 1; }
    long f2(long x) { return f1(x) ^ (x >> 2); }
    int main() {
      long acc = 0;
      for (int i = 0; i < 200; i++) acc += f2(i);
      return (int)(acc & 0xff);
    })";
  auto plain = Recompile(source, 2);
  lift::LiftOptions analyzed;
  analyzed.mark_all_external = false;
  PipelineOptions pipe;
  pipe.inline_functions = true;
  auto inlined = Recompile(source, 2, analyzed, true, pipe);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(inlined.ok());
  exec::ExecResult a = RunLifted(*plain);
  exec::ExecResult b = RunLifted(*inlined);
  ASSERT_TRUE(a.ok) << a.fault_message;
  ASSERT_TRUE(b.ok) << b.fault_message;
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_LT(b.wall_time, a.wall_time);
}

TEST(OptPasses, SimplifyCfgMergesChains) {
  auto r = Recompile(kComputeProgram, 0, {}, /*run_pipeline=*/false);
  ASSERT_TRUE(r.ok());
  size_t before = 0;
  for (const auto& f : r->program.module->functions()) {
    before += f->blocks().size();
  }
  for (auto& f : r->program.module->functions()) {
    SimplifyCfg(*f);
  }
  size_t after = 0;
  for (const auto& f : r->program.module->functions()) {
    after += f->blocks().size();
  }
  EXPECT_LE(after, before);
  EXPECT_TRUE(ir::Verify(*r->program.module).ok());
}

TEST(OptPasses, MultithreadedCorrectnessAfterFullPipeline) {
  // Seed sweep: the optimized spinlock program must stay exact under many
  // interleavings.
  lift::LiftOptions analyzed;
  analyzed.mark_all_external = false;
  analyzed.observed_callbacks = {};  // worker discovered at runtime? keep all:
  analyzed.mark_all_external = true;
  auto r = Recompile(kThreadProgram, 2, analyzed);
  ASSERT_TRUE(r.ok());
  for (uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    exec::ExecOptions options;
    options.seed = seed;
    exec::ExecResult result = RunLifted(*r, {}, options);
    ASSERT_TRUE(result.ok) << result.fault_message;
    EXPECT_EQ(result.output, "200");
  }
}

TEST(OptPasses, OptimizedIrIsSmaller) {
  auto unopt = Recompile(kComputeProgram, 0, {}, false);
  auto opt = Recompile(kComputeProgram, 0);
  ASSERT_TRUE(unopt.ok());
  ASSERT_TRUE(opt.ok());
  EXPECT_LT(TotalInsts(*opt->program.module),
            TotalInsts(*unopt->program.module) / 2);
}

}  // namespace
}  // namespace polynima::opt
