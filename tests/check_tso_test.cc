// Tests for the static TSO-soundness checker (src/check): obligation
// discharge on straight-line and branching code, witness re-derivation
// (including forged-witness rejection), elision-certificate validation, the
// recompiler integration (--check-tso), and the schedule-perturbing
// differential runner. The two acceptance-criterion tests are
// DeletedAcquireFenceIsCaught and ForgedWitnessInRecompiledModuleIsCaught:
// breaking the fence discipline of a real recompiled module by hand must
// produce a path-specific diagnostic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cc/compiler.h"
#include "src/check/differential.h"
#include "src/check/tso.h"
#include "src/check/witness.h"
#include "src/ir/builder.h"
#include "src/ir/verifier.h"
#include "src/recomp/recompiler.h"

namespace polynima::check {
namespace {

using ir::BasicBlock;
using ir::FenceOrder;
using ir::FenceWitness;
using ir::Function;
using ir::Instruction;
using ir::IRBuilder;
using ir::Op;

// --- Hand-built IR -------------------------------------------------------

TEST(TsoCheck, FencedAccessesPass) {
  ir::Module m;
  Function* f = m.AddFunction("f", 0, false);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  b.Load(8, b.Const(0x1000));
  b.Fence(FenceOrder::kAcquire);
  b.Fence(FenceOrder::kRelease);
  b.Store(8, b.Const(0x1008), b.Const(7));
  b.Ret();
  ASSERT_TRUE(ir::Verify(*f).ok());
  TsoCheckReport r = CheckModule(m);
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_EQ(r.accesses_checked, 2u);
  EXPECT_EQ(r.fenced_accesses, 2u);
}

TEST(TsoCheck, MissingAcquireBetweenLoadsIsViolation) {
  ir::Module m;
  Function* f = m.AddFunction("f", 0, false);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  b.Load(8, b.Const(0x1000));  // no acquire before the next access
  b.Load(8, b.Const(0x1008));
  b.Fence(FenceOrder::kAcquire);
  b.Ret();
  TsoCheckReport r = CheckModule(m);
  ASSERT_EQ(r.violations.size(), 1u) << r.Summary();
  EXPECT_EQ(r.violations[0].kind, "load-acquire");
  EXPECT_NE(r.violations[0].message.find("requires an acquire fence"),
            std::string::npos)
      << r.violations[0].message;
}

TEST(TsoCheck, MissingReleaseBetweenStoresIsViolation) {
  ir::Module m;
  Function* f = m.AddFunction("f", 0, false);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  b.Fence(FenceOrder::kRelease);
  b.Store(8, b.Const(0x1000), b.Const(1));
  b.Store(8, b.Const(0x1008), b.Const(2));  // no release since previous access
  b.Ret();
  TsoCheckReport r = CheckModule(m);
  ASSERT_EQ(r.violations.size(), 1u) << r.Summary();
  EXPECT_EQ(r.violations[0].kind, "store-release");
  EXPECT_NE(r.violations[0].message.find("requires a release fence"),
            std::string::npos)
      << r.violations[0].message;
}

TEST(TsoCheck, AtomicsAndCallsActAsBarriers) {
  ir::Module m;
  Function* callee = m.AddFunction("callee", 0, false);
  {
    IRBuilder cb(&m);
    cb.SetInsertBlock(callee->AddBlock("entry"));
    cb.Ret();
  }
  Function* f = m.AddFunction("f", 0, false);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  b.Load(8, b.Const(0x1000));
  b.AtomicRmw(ir::RmwOp::kAdd, 8, b.Const(0x2000), b.Const(1));
  b.Store(8, b.Const(0x1008), b.Const(1));  // rmw discharges backward too
  b.Load(8, b.Const(0x1010));
  b.Call(callee, {});  // call discharges the load's forward obligation
  b.Store(8, b.Const(0x1018), b.Const(2));  // ...and this store's backward one
  b.Ret();
  TsoCheckReport r = CheckModule(m);
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_EQ(r.fenced_accesses, 4u);
}

TEST(TsoCheck, UnfencedPathThroughDiamondGetsPathDiagnostic) {
  // entry: load; branch. Left arm fences, right arm does not; both reach a
  // second access at the join. The diagnostic must name the failing path.
  ir::Module m;
  Function* f = m.AddFunction("f", 0, false);
  BasicBlock* entry = f->AddBlock("entry");
  BasicBlock* left = f->AddBlock("left");
  BasicBlock* right = f->AddBlock("right");
  BasicBlock* join = f->AddBlock("join");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  Instruction* flag = b.Load(8, b.Const(0x1000));
  b.CondBr(flag, left, right);
  b.SetInsertBlock(left);
  b.Fence(FenceOrder::kAcquire);
  b.Br(join);
  b.SetInsertBlock(right);
  b.Br(join);
  b.SetInsertBlock(join);
  b.Load(8, b.Const(0x1008));
  b.Fence(FenceOrder::kAcquire);
  b.Ret();
  ASSERT_TRUE(ir::Verify(*f).ok());
  TsoCheckReport r = CheckModule(m);
  ASSERT_EQ(r.violations.size(), 1u) << r.Summary();
  const TsoViolation& v = r.violations[0];
  EXPECT_EQ(v.kind, "load-acquire");
  // The failing path runs through `right`, never through `left`.
  EXPECT_NE(v.message.find("right -> join"), std::string::npos) << v.message;
  EXPECT_EQ(v.message.find("left"), std::string::npos) << v.message;
}

TEST(TsoCheck, StackLocalWitnessIsReverifiedAndConsumed) {
  ir::Module m;
  ir::Global* rsp = m.AddGlobal("vr_rsp", false, 0);
  Function* f = m.AddFunction("f", 0, false);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Instruction* sp = b.GLoad(rsp);
  Instruction* slot = b.Sub(sp, b.Const(8));
  Instruction* spill = b.Store(8, slot, b.Const(42));
  spill->fence_witness = FenceWitness::kStackLocal;
  Instruction* reload = b.Load(8, slot);
  reload->fence_witness = FenceWitness::kStackLocal;
  b.Ret();
  TsoCheckReport r = CheckModule(m);
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_EQ(r.witnesses_consumed, 2u);
  EXPECT_EQ(r.fenced_accesses, 0u);
}

TEST(TsoCheck, WitnessedAccessIsTransparentToOtherObligations) {
  // A verified stack-local store between a shared load and its acquire
  // fence must not count as "the next guest access".
  ir::Module m;
  ir::Global* rsp = m.AddGlobal("vr_rsp", false, 0);
  Function* f = m.AddFunction("f", 0, false);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Instruction* sp = b.GLoad(rsp);
  Instruction* shared = b.Load(8, b.Const(0x1000));
  Instruction* spill = b.Store(8, b.Sub(sp, b.Const(16)), shared);
  spill->fence_witness = FenceWitness::kStackLocal;
  b.Fence(FenceOrder::kAcquire);
  b.Ret();
  TsoCheckReport r = CheckModule(m);
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_EQ(r.witnesses_consumed, 1u);
}

TEST(TsoCheck, ForgedWitnessOnGlobalAddressIsRejected) {
  // kStackLocal claimed on an access whose address is a plain constant (a
  // shared global): the re-derivation must fail and report a forgery, even
  // though the access would otherwise just be an ordinary violation.
  ir::Module m;
  Function* f = m.AddFunction("f", 0, false);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Instruction* ld = b.Load(8, b.Const(0x4000));
  ld->fence_witness = FenceWitness::kStackLocal;
  b.Fence(FenceOrder::kAcquire);
  b.Ret();
  TsoCheckReport r = CheckModule(m);
  ASSERT_EQ(r.violations.size(), 1u) << r.Summary();
  EXPECT_EQ(r.violations[0].kind, "forged-witness");
  EXPECT_NE(r.violations[0].message.find(
                "does not derive from the stack pointer"),
            std::string::npos)
      << r.violations[0].message;
  EXPECT_EQ(r.witnesses_consumed, 0u);
}

TEST(TsoCheck, FramePointerWitnessRequiresFunctionFlag) {
  // vr_rbp roots a stack derivation only in functions the lifter marked as
  // frame-pointer-based; elsewhere rbp is a general-purpose register.
  ir::Module m;
  ir::Global* rbp = m.AddGlobal("vr_rbp", false, 0);
  for (bool fp : {false, true}) {
    Function* f = m.AddFunction(fp ? "with_fp" : "without_fp", 0, false);
    f->frame_pointer = fp;
    BasicBlock* bb = f->AddBlock("entry");
    IRBuilder b(&m);
    b.SetInsertBlock(bb);
    Instruction* base = b.GLoad(rbp);
    Instruction* ld = b.Load(8, b.Sub(base, b.Const(8)));
    ld->fence_witness = FenceWitness::kStackLocal;
    b.Fence(FenceOrder::kAcquire);
    b.Ret();
  }
  TsoCheckReport r = CheckModule(m);
  ASSERT_EQ(r.violations.size(), 1u) << r.Summary();
  EXPECT_EQ(r.violations[0].function, "without_fp");
  EXPECT_EQ(r.violations[0].kind, "forged-witness");
}

// --- Elision certificates ------------------------------------------------

void BuildUnfencedModule(ir::Module& m) {
  Function* f = m.AddFunction("f", 0, false);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  b.Load(8, b.Const(0x1000));
  b.Load(8, b.Const(0x1008));
  b.Store(8, b.Const(0x1010), b.Const(1));
  b.Store(8, b.Const(0x1018), b.Const(2));
  b.Ret();
}

ElisionCert SpinFreeCert() {
  ElisionCert cert;
  cert.binary_key = 0x1234;
  cert.loops_analyzed = 3;
  cert.spinning_loops = 0;
  cert.loop_summaries = {"f/loop@0x40: non-spinning — index-driven"};
  cert.Seal();
  return cert;
}

TEST(TsoCert, SealedSpinFreeCertCoversUnfencedModule) {
  ir::Module m;
  BuildUnfencedModule(m);
  EXPECT_FALSE(CheckModule(m).ok());  // without a cert the module fails
  ElisionCert cert = SpinFreeCert();
  TsoCheckOptions options;
  options.cert = &cert;
  options.binary_key = 0x1234;
  TsoCheckReport r = CheckModule(m, options);
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_GE(r.cert_covered, 2u);
}

TEST(TsoCert, TamperedChecksumIsRejected) {
  ir::Module m;
  BuildUnfencedModule(m);
  ElisionCert cert = SpinFreeCert();
  cert.loops_analyzed = 99;  // tamper after sealing
  TsoCheckOptions options;
  options.cert = &cert;
  TsoCheckReport r = CheckModule(m, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].kind, "bad-cert");
  EXPECT_NE(r.violations[0].message.find("checksum mismatch"),
            std::string::npos);
  // The broken cert must not silence the underlying access violations.
  EXPECT_GT(r.violations.size(), 1u) << r.Summary();
  EXPECT_EQ(r.cert_covered, 0u);
}

TEST(TsoCert, SpinningCertIsRejected) {
  ir::Module m;
  BuildUnfencedModule(m);
  ElisionCert cert = SpinFreeCert();
  cert.spinning_loops = 1;
  cert.Seal();  // properly sealed, but records a spinning loop
  TsoCheckOptions options;
  options.cert = &cert;
  TsoCheckReport r = CheckModule(m, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].kind, "bad-cert");
  EXPECT_NE(r.violations[0].message.find("not justified"), std::string::npos);
}

TEST(TsoCert, CertBoundToOtherBinaryIsRejected) {
  ir::Module m;
  BuildUnfencedModule(m);
  ElisionCert cert = SpinFreeCert();
  TsoCheckOptions options;
  options.cert = &cert;
  options.binary_key = 0x9999;  // cert says 0x1234
  TsoCheckReport r = CheckModule(m, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].kind, "bad-cert");
  EXPECT_NE(r.violations[0].message.find("different binary image"),
            std::string::npos);
}

// A certificate without a binding (key 0) is not a wildcard: checked against
// a keyed image, both the ElisionCert and the StaticCert are refused.
TEST(TsoCert, UnboundCertAgainstKeyedImageIsRejected) {
  ir::Module m;
  BuildUnfencedModule(m);
  ElisionCert cert = SpinFreeCert();
  cert.binary_key = 0;
  cert.Seal();
  TsoCheckOptions options;
  options.cert = &cert;
  options.binary_key = 0x1234;
  TsoCheckReport r = CheckModule(m, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].kind, "bad-cert");
  EXPECT_NE(r.violations[0].message.find("different binary image"),
            std::string::npos);
  EXPECT_EQ(r.cert_covered, 0u);

  StaticCert static_cert;
  static_cert.Seal();
  TsoCheckOptions static_options;
  static_options.static_cert = &static_cert;
  static_options.binary_key = 0x1234;
  TsoCheckReport s = CheckModule(m, static_options);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.violations[0].kind, "bad-cert");
  EXPECT_NE(s.violations[0].message.find("different binary image"),
            std::string::npos);
}

// --- Recompiler integration ---------------------------------------------

Expected<binary::Image> CompileSource(const std::string& source,
                                      int opt_level = 0) {
  cc::CompileOptions options;
  options.name = "check_tso_test";
  options.opt_level = opt_level;
  return cc::Compile(source, options);
}

constexpr char kGlobalsProgram[] = R"(
  extern void print_i64(long v);
  long g1 = 3;
  long g2 = 4;
  long out = 0;
  int main() {
    out = g1 * g2 + g1;
    print_i64(out);
    return 0;
  })";

TEST(TsoRecomp, RecompiledModulePassesChecker) {
  auto image = CompileSource(kGlobalsProgram);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  recomp::RecompileOptions options;
  options.check_tso = true;
  recomp::Recompiler recompiler(*image, options);
  auto binary = recompiler.Recompile();
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  auto result = recompiler.RunAdditive(*binary, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok) << result->fault_message;
  EXPECT_GT(recompiler.stats().tso_accesses_checked, 0u);
  EXPECT_GT(recompiler.stats().tso_witnesses_consumed, 0u);
  EXPECT_EQ(recompiler.stats().tso_violations, 0u);
}

// Deletes one acquire fence that separates an unwitnessed guest load from
// the next unwitnessed guest access in the same block; returns whether a
// removable fence was found. This is exactly the fence the lifter inserted
// to pin TSO load order, so the checker must notice its absence.
bool DeleteOneRequiredAcquireFence(ir::Module* m) {
  for (const auto& f : m->functions()) {
    for (const auto& b : f->blocks()) {
      auto& insts = b->insts();
      for (auto it = insts.begin(); it != insts.end(); ++it) {
        if ((*it)->op() != Op::kLoad ||
            (*it)->fence_witness != FenceWitness::kNone) {
          continue;
        }
        auto fence = std::next(it);
        if (fence == insts.end() || (*fence)->op() != Op::kFence ||
            (*fence)->fence_order == FenceOrder::kRelease) {
          continue;
        }
        // The deletion only creates a violation if another unwitnessed
        // access follows before any other acquire barrier in this block.
        for (auto jt = std::next(fence); jt != insts.end(); ++jt) {
          const Instruction& next = **jt;
          bool access = (next.op() == Op::kLoad || next.op() == Op::kStore) &&
                        next.fence_witness == FenceWitness::kNone;
          if (access) {
            b->Erase(fence);
            return true;
          }
          bool barrier = next.op() == Op::kCall ||
                         next.op() == Op::kAtomicRmw ||
                         next.op() == Op::kCmpXchg ||
                         (next.op() == Op::kFence &&
                          next.fence_order != FenceOrder::kRelease) ||
                         next.IsTerminator();
          if (barrier) {
            break;
          }
        }
      }
    }
  }
  return false;
}

TEST(TsoRecomp, DeletedAcquireFenceIsCaught) {
  auto image = CompileSource(kGlobalsProgram);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  recomp::Recompiler recompiler(*image, {});
  auto binary = recompiler.Recompile();
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  ir::Module& m = *binary->program.module;
  TsoCheckOptions options;
  options.binary_key = BinaryKey(*image);
  ASSERT_TRUE(CheckModule(m, options).ok());  // intact module is sound
  ASSERT_TRUE(DeleteOneRequiredAcquireFence(&m));
  TsoCheckReport r = CheckModule(m, options);
  ASSERT_FALSE(r.ok()) << "checker missed a deleted fence";
  const TsoViolation& v = r.violations[0];
  EXPECT_EQ(v.kind, "load-acquire");
  // The diagnostic names the function, the path, and the reached access.
  EXPECT_NE(v.message.find("@" + v.function + "/" + v.block),
            std::string::npos)
      << v.message;
  EXPECT_NE(v.message.find("the path"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("with no intervening barrier"), std::string::npos)
      << v.message;
}

TEST(TsoRecomp, ForgedWitnessInRecompiledModuleIsCaught) {
  auto image = CompileSource(kGlobalsProgram);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  recomp::Recompiler recompiler(*image, {});
  auto binary = recompiler.Recompile();
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  ir::Module& m = *binary->program.module;
  // Forge: claim stack-locality on a global (constant-address) access.
  Instruction* victim = nullptr;
  for (const auto& f : m.functions()) {
    for (const auto& b : f->blocks()) {
      for (const auto& inst : b->insts()) {
        if ((inst->op() == Op::kLoad || inst->op() == Op::kStore) &&
            inst->fence_witness == FenceWitness::kNone &&
            inst->operand(0)->kind() == ir::Value::Kind::kConstant) {
          victim = inst.get();
          break;
        }
      }
      if (victim != nullptr) break;
    }
    if (victim != nullptr) break;
  }
  ASSERT_NE(victim, nullptr) << "no constant-address guest access found";
  victim->fence_witness = FenceWitness::kStackLocal;
  TsoCheckReport r = CheckModule(m);
  ASSERT_FALSE(r.ok()) << "checker accepted a forged witness";
  bool forged = false;
  for (const TsoViolation& v : r.violations) {
    forged |= v.kind == "forged-witness";
  }
  EXPECT_TRUE(forged) << r.Summary();
}

// --- Differential runner -------------------------------------------------

TEST(TsoDifferential, PerturbedSchedulesAgreeOnMutexProgram) {
  auto image = CompileSource(R"(
    extern int pthread_create(long* tid, long attr, long (*fn)(long), long arg);
    extern int pthread_join(long tid, long* ret);
    extern int pthread_mutex_init(long* m, long attr);
    extern int pthread_mutex_lock(long* m);
    extern int pthread_mutex_unlock(long* m);
    extern void print_i64(long v);
    long mutex;
    long total = 0;
    long worker(long n) {
      for (long i = 0; i < n; i++) {
        pthread_mutex_lock(&mutex);
        total += 1;
        pthread_mutex_unlock(&mutex);
      }
      return 0;
    }
    int main() {
      pthread_mutex_init(&mutex, 0);
      long tids[2];
      for (int i = 0; i < 2; i++) pthread_create(&tids[i], 0, worker, 25);
      for (int i = 0; i < 2; i++) pthread_join(tids[i], 0);
      print_i64(total);
      return 0;
    })",
                             2);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  recomp::RecompileOptions options;
  options.check_tso = true;
  recomp::Recompiler recompiler(*image, options);
  auto binary = recompiler.Recompile();
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  auto warm = recompiler.RunAdditive(*binary, {});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  DifferentialOptions diff;
  diff.schedules = 3;
  auto result = recompiler.RunTsoDifferential(*binary, {{}}, diff);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->runs, 3);
  EXPECT_EQ(result->divergences, 0)
      << (result->reports.empty() ? "" : result->reports.front());
  EXPECT_TRUE(result->ok());
}

}  // namespace
}  // namespace polynima::check
