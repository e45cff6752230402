// Unit tests for the IR core: use lists, replaceAllUsesWith, block/function
// surgery, the verifier's error detection, printing, and the shared CFG and
// folding facts of src/ir/analysis.h.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "src/ir/analysis.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"

namespace polynima::ir {
namespace {

TEST(IrCore, UseListsTrackOperands) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);

  Constant* c1 = b.Const(1);
  Instruction* add = b.Add(c1, b.Const(2));
  Instruction* mul = b.Mul(add, add);
  b.Ret(mul);

  // add is used twice by mul.
  int uses = 0;
  for (const Instruction* u : add->users()) {
    uses += u == mul ? 1 : 0;
  }
  EXPECT_EQ(uses, 2);

  // RAUW rewires both operand slots.
  Constant* c9 = m.GetConstant(9);
  add->ReplaceAllUsesWith(c9);
  EXPECT_EQ(mul->operand(0), c9);
  EXPECT_EQ(mul->operand(1), c9);
  EXPECT_TRUE(add->users().empty());
}

TEST(IrCore, EraseDropsUses) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Instruction* x = b.Add(b.Const(1), b.Const(2));
  Instruction* y = b.Add(x, b.Const(3));
  b.Ret(y);
  // Erase y (the only user of x).
  for (auto it = bb->insts().begin(); it != bb->insts().end(); ++it) {
    if (it->get() == y) {
      // Rewire ret first so the verifier stays happy conceptually.
      y->ReplaceAllUsesWith(x);
      bb->Erase(it);
      break;
    }
  }
  EXPECT_EQ(x->users().size(), 1u);  // the ret
}

TEST(IrCore, ConstantsAreInterned) {
  Module m;
  EXPECT_EQ(m.GetConstant(42), m.GetConstant(42));
  EXPECT_NE(m.GetConstant(42), m.GetConstant(43));
}

TEST(IrCore, GlobalsHaveStableSlots) {
  Module m;
  Global* a = m.AddGlobal("a", true);
  Global* g = m.AddGlobal("b", false, 7);
  EXPECT_EQ(a->slot(), 0);
  EXPECT_EQ(g->slot(), 1);
  EXPECT_EQ(m.num_global_slots(), 2);
  EXPECT_TRUE(a->is_thread_local());
  EXPECT_FALSE(g->is_thread_local());
  EXPECT_EQ(g->initial(), 7);
  EXPECT_EQ(m.GetGlobal("b"), g);
  EXPECT_EQ(m.GetGlobal("missing"), nullptr);
}

TEST(IrAnalysis, DominatorTreeAndNaturalLoops) {
  // entry -> head; head -> body | exit; body -> head (back edge);
  // dead -> body (unreachable).
  Module m;
  Function* f = m.AddFunction("loop", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  BasicBlock* head = f->AddBlock("head");
  BasicBlock* body = f->AddBlock("body");
  BasicBlock* exit_block = f->AddBlock("exit");
  BasicBlock* dead = f->AddBlock("dead");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.Br(head);
  b.SetInsertBlock(head);
  b.CondBr(b.Const(1), body, exit_block);
  b.SetInsertBlock(body);
  b.Br(head);
  b.SetInsertBlock(exit_block);
  b.Ret(b.Const(0));
  b.SetInsertBlock(dead);
  b.Br(body);

  EXPECT_EQ(ReversePostOrder(*f),
            (std::vector<BasicBlock*>{entry, head, exit_block, body}));
  auto preds = Predecessors(*f);
  EXPECT_EQ(preds[body], (std::vector<BasicBlock*>{head, dead}));
  EXPECT_TRUE(preds[entry].empty());

  DominatorTree dom(*f);
  EXPECT_TRUE(dom.Reachable(body));
  EXPECT_FALSE(dom.Reachable(dead));
  EXPECT_TRUE(dom.Dominates(entry, exit_block));
  EXPECT_TRUE(dom.Dominates(head, body));
  EXPECT_TRUE(dom.Dominates(body, body));
  EXPECT_FALSE(dom.Dominates(body, exit_block));
  EXPECT_FALSE(dom.Dominates(exit_block, head));
  EXPECT_FALSE(dom.Dominates(dead, body));
  EXPECT_FALSE(dom.Dominates(entry, dead));

  // The body walk follows every predecessor, the unreachable one included.
  std::vector<NaturalLoop> loops = FindNaturalLoops(*f);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].header, head);
  EXPECT_EQ(loops[0].body, (std::set<BasicBlock*>{head, body, dead}));
}

TEST(IrAnalysis, FoldBinaryMatchesExecutorSemantics) {
  int64_t r = -1;
  EXPECT_TRUE(FoldBinary(Op::kLShr, 8, 64, &r));
  EXPECT_EQ(r, 0);
  EXPECT_TRUE(FoldBinary(Op::kShl, 8, 65, &r));
  EXPECT_EQ(r, 0);
  EXPECT_TRUE(FoldBinary(Op::kAShr, -8, 64, &r));
  EXPECT_EQ(r, -1);
  EXPECT_TRUE(FoldBinary(Op::kLShr, 8, 3, &r));
  EXPECT_EQ(r, 1);
  EXPECT_TRUE(FoldBinary(Op::kAdd, INT64_MAX, 1, &r));
  EXPECT_EQ(r, INT64_MIN);
  EXPECT_FALSE(FoldBinary(Op::kURem, 5, 0, &r));
  EXPECT_FALSE(FoldBinary(Op::kSDiv, INT64_MIN, -1, &r));
  EXPECT_FALSE(FoldBinary(Op::kICmp, 1, 2, &r));
  EXPECT_TRUE(IsCalleeSavedGpr("vr_rbx"));
  EXPECT_FALSE(IsCalleeSavedGpr("vr_rax"));
}

TEST(IrVerifier, AcceptsWellFormedFunction) {
  Module m;
  Function* f = m.AddFunction("ok", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  BasicBlock* exit_block = f->AddBlock("exit");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  Instruction* v = b.Add(b.Const(1), b.Const(2));
  b.Br(exit_block);
  b.SetInsertBlock(exit_block);
  Instruction* phi = b.Phi();
  IRBuilder::AddIncoming(phi, v, entry);
  b.Ret(phi);
  EXPECT_TRUE(Verify(*f).ok()) << Verify(*f).ToString();
}

TEST(IrVerifier, RejectsMissingTerminator) {
  Module m;
  Function* f = m.AddFunction("bad", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.Add(b.Const(1), b.Const(2));  // no terminator
  EXPECT_FALSE(Verify(*f).ok());
}

TEST(IrVerifier, RejectsPhiWithWrongIncomingCount) {
  Module m;
  Function* f = m.AddFunction("bad", 0, true);
  BasicBlock* a = f->AddBlock("a");
  BasicBlock* c = f->AddBlock("c");
  IRBuilder b(&m);
  b.SetInsertBlock(a);
  b.Br(c);
  b.SetInsertBlock(c);
  Instruction* phi = b.Phi();  // no incomings, one predecessor
  (void)phi;
  b.Ret(b.Const(0));
  EXPECT_FALSE(Verify(*f).ok());
}

TEST(IrVerifier, RejectsInstructionAfterTerminator) {
  Module m;
  Function* f = m.AddFunction("bad", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.Ret(b.Const(0));
  b.Add(b.Const(1), b.Const(2));  // dead code after ret
  EXPECT_FALSE(Verify(*f).ok());
}

TEST(IrVerifier, RejectsRetWithoutValueInValueFunction) {
  Module m;
  Function* f = m.AddFunction("bad", 0, /*has_result=*/true);
  BasicBlock* entry = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.Ret();  // missing value
  EXPECT_FALSE(Verify(*f).ok());
}

TEST(IrPrinter, StableFormatting) {
  Module m;
  Global* g = m.AddGlobal("vr_rax", true);
  Function* f = m.AddFunction("demo", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  Instruction* v = b.GLoad(g);
  Instruction* sum = b.Add(v, b.Const(5));
  Instruction* cmp = b.ICmp(Pred::kSlt, sum, b.Const(100));
  b.GStore(g, sum);
  Instruction* sel = b.Select(cmp, sum, b.Const(0));
  b.Ret(sel);

  std::string text = Print(*f);
  EXPECT_NE(text.find("%0 = gload @vr_rax"), std::string::npos);
  EXPECT_NE(text.find("%1 = add %0, 5"), std::string::npos);
  EXPECT_NE(text.find("icmp slt %1, 100"), std::string::npos);
  EXPECT_NE(text.find("gstore @vr_rax %1"), std::string::npos);
  EXPECT_NE(text.find("ret %3"), std::string::npos);
}

TEST(IrCore, RenumberSkipsVoidInstructions) {
  Module m;
  Global* g = m.AddGlobal("g", true);
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  Instruction* a = b.Add(b.Const(1), b.Const(1));
  b.GStore(g, a);  // void
  Instruction* c = b.Add(a, a);
  b.Ret(c);
  int slots = f->Renumber();
  EXPECT_EQ(slots, 2);
  EXPECT_EQ(a->id, 0);
  EXPECT_EQ(c->id, 1);
}

}  // namespace
}  // namespace polynima::ir
