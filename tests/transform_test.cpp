// Unit tests for the transformation passes: behaviour, legality guards,
// and semantics preservation.
#include <gtest/gtest.h>

#include "ir/evaluator.h"
#include "ir/printer.h"
#include "testutil.h"
#include "transform/const_fold.h"
#include "transform/loop_transforms.h"
#include "adl/platform.h"
#include "transform/spm_alloc.h"
#include "wcet/analyzer.h"

namespace argo::transform {
namespace {

using ir::ScalarKind;
using ir::Storage;
using ir::Type;
using ir::VarRole;

int countTopLevelLoops(const ir::Function& fn) {
  int count = 0;
  for (const ir::StmtPtr& s : fn.body().stmts()) {
    if (ir::isa<ir::For>(*s)) ++count;
  }
  return count;
}

TEST(ConstFold, FoldsLiteralArithmetic) {
  ir::Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(ir::assign(
      ir::ref("y"), ir::add(ir::mul(ir::lit(2), ir::lit(3)), ir::lit(4))));
  ConstantFolding pass;
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(ir::toString(*fn.body().stmts()[0]), "y = 10;\n");
}

TEST(ConstFold, FoldsIdentities) {
  ir::Function fn("f");
  fn.declare("x", Type::float64(), VarRole::Input);
  fn.declare("y", Type::float64(), VarRole::Output);
  // y = (x + 0) * 1
  fn.body().append(ir::assign(
      ir::ref("y"), ir::mul(ir::add(ir::var("x"), ir::lit(0)), ir::lit(1))));
  ConstantFolding pass;
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(ir::toString(*fn.body().stmts()[0]), "y = x;\n");
}

TEST(ConstFold, FoldsScilabIndexAdjustment) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Output);
  // a[(i + 1) - 1] = 0 — the classic 1-based adjustment residue.
  auto body = ir::block();
  body->append(ir::assign(
      ir::ref("a", ir::exprVec(ir::sub(ir::add(ir::var("i"), ir::lit(1)),
                                       ir::lit(1)))),
      ir::flt(0.0)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body)));
  ConstantFolding pass;
  EXPECT_TRUE(pass.run(fn));
  const std::string text = ir::toString(fn);
  EXPECT_NE(text.find("a[i] = 0;"), std::string::npos);
}

TEST(ConstFold, KeepsDivisionByZeroForRuntime) {
  ir::Function fn("f");
  fn.declare("y", Type::int32(), VarRole::Output);
  fn.body().append(ir::assign(ir::ref("y"), ir::div(ir::lit(1), ir::lit(0))));
  ConstantFolding pass;
  EXPECT_FALSE(pass.run(fn));  // untouched
}

TEST(ConstFold, FoldsSelectOnLiteralCondition) {
  ir::Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(ir::assign(
      ir::ref("y"), ir::select(ir::boolean(true), ir::flt(1.0),
                               ir::flt(2.0))));
  ConstantFolding pass;
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(ir::toString(*fn.body().stmts()[0]), "y = 1;\n");
}

TEST(Unroll, FullyUnrollsShortLoop) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {4}), VarRole::Output);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                          ir::var("i")));
  fn.body().append(ir::forLoop("i", 0, 3, std::move(body)));
  LoopUnroll pass(4);
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(countTopLevelLoops(fn), 0);
  EXPECT_EQ(fn.body().size(), 3u);
  EXPECT_TRUE(ir::validate(fn).empty());
}

TEST(Unroll, LeavesLongLoopsAlone) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {64}), VarRole::Output);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                          ir::var("i")));
  fn.body().append(ir::forLoop("i", 0, 64, std::move(body)));
  LoopUnroll pass(4);
  EXPECT_FALSE(pass.run(fn));
  EXPECT_EQ(countTopLevelLoops(fn), 1);
}

TEST(Unroll, PreservesSemantics) {
  test::ProgramGenerator gen(1234);
  for (int trial = 0; trial < 10; ++trial) {
    auto original = gen.generate(test::numbered("p", trial));
    auto transformed = original->clone();
    LoopUnroll pass(8);
    pass.run(*transformed);
    ASSERT_TRUE(ir::validate(*transformed).empty());
    ir::Environment envA = gen.makeInputs(*original);
    ir::Environment envB = envA;
    ir::Evaluator(*original).run(envA);
    ir::Evaluator(*transformed).run(envB);
    EXPECT_TRUE(test::outputsMatch(*original, envA, envB)) << "trial " << trial;
  }
}

TEST(Fission, SplitsIndependentStatements) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  fn.declare("b", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  fn.declare("u", Type::array(ScalarKind::Float64, {8}), VarRole::Input);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                          ir::ref("u", ir::exprVec(ir::var("i")))));
  body->append(ir::assign(ir::ref("b", ir::exprVec(ir::var("i"))),
                          ir::ref("u", ir::exprVec(ir::var("i")))));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body)));
  LoopFission pass;
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(countTopLevelLoops(fn), 2);
  EXPECT_TRUE(ir::validate(fn).empty());
}

TEST(Fission, RefusesValueFlowBetweenStatements) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  fn.declare("t", Type::float64(), VarRole::Temp);
  fn.declare("u", Type::array(ScalarKind::Float64, {8}), VarRole::Input);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("t"),
                          ir::ref("u", ir::exprVec(ir::var("i")))));
  body->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                          ir::mul(ir::var("t"), ir::var("t"))));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body)));
  LoopFission pass;
  EXPECT_FALSE(pass.run(fn));  // t flows between the statements
  EXPECT_EQ(countTopLevelLoops(fn), 1);
}

TEST(Fusion, MergesAdjacentIndependentLoops) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  fn.declare("b", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  auto body1 = ir::block();
  body1->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                           ir::flt(1.0)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body1)));
  auto body2 = ir::block();
  body2->append(ir::assign(ir::ref("b", ir::exprVec(ir::var("j"))),
                           ir::flt(2.0)));
  fn.body().append(ir::forLoop("j", 0, 8, std::move(body2)));
  LoopFusion pass;
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(countTopLevelLoops(fn), 1);
  EXPECT_TRUE(ir::validate(fn).empty());
  // Fused body executes both statements.
  ir::Environment env = ir::makeZeroEnvironment(fn);
  ir::Evaluator(fn).run(env);
  EXPECT_DOUBLE_EQ(env.at("a").getFloat(7), 1.0);
  EXPECT_DOUBLE_EQ(env.at("b").getFloat(7), 2.0);
}

TEST(Fusion, RefusesConflictingBodies) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  auto body1 = ir::block();
  body1->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                           ir::flt(1.0)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body1)));
  auto body2 = ir::block();
  // Reads a shifted: interleaving would observe partial writes.
  body2->append(ir::assign(
      ir::ref("a", ir::exprVec(ir::var("j"))),
      ir::add(ir::ref("a", ir::exprVec(ir::var("j"))), ir::flt(1.0))));
  fn.body().append(ir::forLoop("j", 0, 8, std::move(body2)));
  LoopFusion pass;
  EXPECT_FALSE(pass.run(fn));
  EXPECT_EQ(countTopLevelLoops(fn), 2);
}

TEST(Fusion, RefusesDifferentRanges) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  fn.declare("b", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  auto body1 = ir::block();
  body1->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))), ir::flt(1.0)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body1)));
  auto body2 = ir::block();
  body2->append(ir::assign(ir::ref("b", ir::exprVec(ir::var("j"))), ir::flt(2.0)));
  fn.body().append(ir::forLoop("j", 0, 4, std::move(body2)));
  LoopFusion pass;
  EXPECT_FALSE(pass.run(fn));
}

TEST(IndexSplit, SplitsGuardedLoop) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Output);
  auto thenB = ir::block();
  thenB->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))), ir::flt(1.0)));
  auto elseB = ir::block();
  elseB->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))), ir::flt(2.0)));
  auto body = ir::block();
  body->append(ir::ifStmt(ir::lt(ir::var("i"), ir::lit(3)), std::move(thenB),
                          std::move(elseB)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body)));
  IndexSetSplitting pass;
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(countTopLevelLoops(fn), 2);
  EXPECT_TRUE(ir::validate(fn).empty());
  ir::Environment env = ir::makeZeroEnvironment(fn);
  ir::Evaluator(fn).run(env);
  EXPECT_DOUBLE_EQ(env.at("a").getFloat(2), 1.0);
  EXPECT_DOUBLE_EQ(env.at("a").getFloat(3), 2.0);
}

TEST(IndexSplit, HandlesGeAndClampsSplitPoint) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Output);
  auto thenB = ir::block();
  thenB->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))), ir::flt(1.0)));
  auto body = ir::block();
  body->append(
      ir::ifStmt(ir::ge(ir::var("i"), ir::lit(100)), std::move(thenB)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body)));
  IndexSetSplitting pass;
  EXPECT_TRUE(pass.run(fn));
  // Condition never true in range: the then-loop vanishes, the else part
  // is empty, so nothing is left (or a single empty-body low loop).
  ir::Environment env = ir::makeZeroEnvironment(fn);
  ir::Evaluator(fn).run(env);
  EXPECT_DOUBLE_EQ(env.at("a").getFloat(5), 0.0);
}

TEST(IndexSplit, IgnoresDataDependentConditions) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Output);
  fn.declare("x", Type::float64(), VarRole::Input);
  auto thenB = ir::block();
  thenB->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))), ir::flt(1.0)));
  auto body = ir::block();
  body->append(ir::ifStmt(ir::lt(ir::var("x"), ir::flt(3.0)), std::move(thenB)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body)));
  IndexSetSplitting pass;
  EXPECT_FALSE(pass.run(fn));
}

TEST(IndexSplit, PreservesSemanticsOnRandomSplitPoints) {
  for (std::int64_t split = -2; split <= 10; ++split) {
    ir::Function fn("f");
    fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Output);
    auto thenB = ir::block();
    thenB->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                             ir::flt(1.0)));
    auto elseB = ir::block();
    elseB->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                             ir::flt(2.0)));
    auto body = ir::block();
    body->append(ir::ifStmt(ir::bin(ir::BinOpKind::Le, ir::var("i"),
                                    ir::lit(split)),
                            std::move(thenB), std::move(elseB)));
    fn.body().append(ir::forLoop("i", 0, 8, std::move(body)));

    auto reference = fn.clone();
    IndexSetSplitting pass;
    pass.run(fn);
    ASSERT_TRUE(ir::validate(fn).empty()) << "split " << split;
    ir::Environment envA = ir::makeZeroEnvironment(*reference);
    ir::Environment envB = envA;
    ir::Evaluator(*reference).run(envA);
    ir::Evaluator(fn).run(envB);
    EXPECT_TRUE(envA.at("a").approxEquals(envB.at("a"))) << "split " << split;
  }
}

TEST(SpmAlloc, CountsWorstCaseAccesses) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                          ir::flt(0.0)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body)));
  const auto counts = worstCaseAccessCounts(fn);
  EXPECT_EQ(counts.at("a"), 8);
}

TEST(SpmAlloc, CountsConditionalOnBothArms) {
  ir::Function fn("f");
  fn.declare("a", Type::float64(), VarRole::Temp);
  auto thenB = ir::block();
  thenB->append(ir::assign(ir::ref("a"), ir::flt(1.0)));
  auto elseB = ir::block();
  elseB->append(ir::assign(ir::ref("a"), ir::flt(2.0)));
  fn.body().append(
      ir::ifStmt(ir::boolean(true), std::move(thenB), std::move(elseB)));
  // Worst case counts both arms (sound upper bound).
  EXPECT_EQ(worstCaseAccessCounts(fn).at("a"), 2);
}

TEST(SpmAlloc, DemotesHotReadOnlyData) {
  ir::Function fn("f");
  fn.declare("table", Type::array(ScalarKind::Float64, {16}), VarRole::Const);
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(ir::assign(ir::ref("y"), ir::flt(0.0)));
  auto body = ir::block();
  body->append(ir::assign(
      ir::ref("y"),
      ir::add(ir::var("y"), ir::ref("table", ir::exprVec(ir::var("i"))))));
  fn.body().append(ir::forLoop("i", 0, 16, std::move(body)));
  ScratchpadAllocation pass(/*capacity=*/1024, /*shared=*/10, /*spm=*/1);
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(fn.lookup("table").storage, Storage::Scratchpad);
  EXPECT_EQ(fn.lookup("y").storage, Storage::Shared);  // Output stays shared
  EXPECT_EQ(pass.report().demoted.size(), 1u);
  EXPECT_GT(pass.report().estimatedSaving, 0);
}

TEST(SpmAlloc, RespectsCapacity) {
  ir::Function fn("f");
  fn.declare("big", Type::array(ScalarKind::Float64, {1024}), VarRole::Const);
  fn.declare("small", Type::array(ScalarKind::Float64, {4}), VarRole::Const);
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(ir::assign(ir::ref("y"), ir::flt(0.0)));
  auto body = ir::block();
  body->append(ir::assign(
      ir::ref("y"),
      ir::add(ir::add(ir::var("y"),
                      ir::ref("big", ir::exprVec(ir::var("i")))),
              ir::ref("small", ir::exprVec(ir::bin(ir::BinOpKind::Mod,
                                                   ir::var("i"), ir::lit(4)))))));
  fn.body().append(ir::forLoop("i", 0, 1024, std::move(body)));
  ScratchpadAllocation pass(/*capacity=*/64, /*shared=*/10, /*spm=*/1);
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(fn.lookup("big").storage, Storage::Shared);  // does not fit
  EXPECT_EQ(fn.lookup("small").storage, Storage::Scratchpad);
}

TEST(SpmAlloc, SkipsMultiNodeWrittenVariables) {
  ir::Function fn("f");
  fn.declare("shared_tmp", Type::array(ScalarKind::Float64, {8}),
             VarRole::Temp);
  // Written by one top-level loop, read by another: must stay shared.
  auto body1 = ir::block();
  body1->append(ir::assign(ir::ref("shared_tmp", ir::exprVec(ir::var("i"))),
                           ir::flt(1.0)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body1)));
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(ir::assign(ir::ref("y"), ir::flt(0.0)));
  auto body2 = ir::block();
  body2->append(ir::assign(
      ir::ref("y"), ir::add(ir::var("y"),
                            ir::ref("shared_tmp", ir::exprVec(ir::var("j"))))));
  fn.body().append(ir::forLoop("j", 0, 8, std::move(body2)));
  ScratchpadAllocation pass(/*capacity=*/4096, /*shared=*/10, /*spm=*/1);
  pass.run(fn);
  EXPECT_EQ(fn.lookup("shared_tmp").storage, Storage::Shared);
}

TEST(SpmAlloc, NoGainNoChange) {
  ir::Function fn("f");
  fn.declare("t", Type::array(ScalarKind::Float64, {4}), VarRole::Const);
  ScratchpadAllocation pass(/*capacity=*/4096, /*shared=*/1, /*spm=*/1);
  EXPECT_FALSE(pass.run(fn));
}


TEST(PartialUnroll, ReplicatesBodyAndKeepsTail) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {22}), VarRole::Output);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                          ir::var("i")));
  fn.body().append(ir::forLoop("i", 0, 22, std::move(body)));
  PartialUnroll pass(/*factor=*/4, /*minTrip=*/8);
  EXPECT_TRUE(pass.run(fn));
  ASSERT_EQ(fn.body().size(), 2u);  // main + remainder
  const auto& main = ir::cast<ir::For>(*fn.body().stmts()[0]);
  const auto& tail = ir::cast<ir::For>(*fn.body().stmts()[1]);
  EXPECT_EQ(main.step(), 4);
  EXPECT_EQ(main.lower(), 0);
  EXPECT_EQ(main.upper(), 20);
  EXPECT_EQ(main.body().size(), 4u);
  EXPECT_EQ(tail.lower(), 20);
  EXPECT_EQ(tail.upper(), 22);
  EXPECT_TRUE(ir::validate(fn).empty());
  // Values intact.
  ir::Environment env = ir::makeZeroEnvironment(fn);
  ir::Evaluator(fn).run(env);
  for (int k = 0; k < 22; ++k) {
    EXPECT_DOUBLE_EQ(env.at("a").getFloat(k), static_cast<double>(k));
  }
}

TEST(PartialUnroll, ExactMultipleHasNoTail) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {16}), VarRole::Output);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                          ir::flt(1.0)));
  fn.body().append(ir::forLoop("i", 0, 16, std::move(body)));
  PartialUnroll pass(4, 8);
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(fn.body().size(), 1u);
}

TEST(PartialUnroll, SkipsShortAndStridedLoops) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {32}), VarRole::Output);
  auto body1 = ir::block();
  body1->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                           ir::flt(1.0)));
  fn.body().append(ir::forLoop("i", 0, 6, std::move(body1)));  // short
  auto body2 = ir::block();
  body2->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("j"))),
                           ir::flt(2.0)));
  fn.body().append(ir::forLoop("j", 0, 32, std::move(body2), 2));  // strided
  PartialUnroll pass(4, 8);
  EXPECT_FALSE(pass.run(fn));
}

TEST(PartialUnroll, ReducesWcetWhenBackEdgesAreExpensive) {
  // Unrolling trades one LoopStep per iteration for offset arithmetic in
  // the replicated bodies; it pays exactly on cores whose back-edges cost
  // more than an add (deep fetch pipelines without branch prediction —
  // the architecture class Sec. III-B mandates).
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {64}), VarRole::Output,
             ir::Storage::Local);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                          ir::var("i")));
  fn.body().append(ir::forLoop("i", 0, 64, std::move(body)));
  auto unrolled = fn.clone();
  PartialUnroll pass(8, 16);
  ASSERT_TRUE(pass.run(*unrolled));

  adl::CoreModel slowBranch = adl::CoreModel::xentiumDsp();
  slowBranch.opCycles[static_cast<std::size_t>(ir::OpClass::LoopStep)] = 8;
  const wcet::TimingModel model(slowBranch, /*sharedAccessCycles=*/10);
  const adl::Cycles before =
      wcet::SchemaAnalyzer(fn, model).analyzeFunction().cycles;
  const adl::Cycles after =
      wcet::SchemaAnalyzer(*unrolled, model).analyzeFunction().cycles;
  EXPECT_LT(after, before);

  // On a single-cycle-back-edge core the trade reverses: the pass is a
  // tuning knob, not a universal win (the feedback loop decides).
  const wcet::TimingModel cheap(adl::CoreModel::xentiumDsp(), 10);
  EXPECT_GT(wcet::SchemaAnalyzer(*unrolled, cheap).analyzeFunction().cycles,
            wcet::SchemaAnalyzer(fn, cheap).analyzeFunction().cycles);
}

TEST(PartialUnroll, PreservesSemanticsOnRandomPrograms) {
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    test::ProgramGenerator gen(seed);
    auto original = gen.generate("p");
    auto transformed = original->clone();
    PartialUnroll pass(3, 4);
    pass.run(*transformed);
    ASSERT_TRUE(ir::validate(*transformed).empty()) << "seed " << seed;
    ir::Environment envA = gen.makeInputs(*original);
    ir::Environment envB = envA;
    ir::Evaluator(*original).run(envA);
    ir::Evaluator(*transformed).run(envB);
    EXPECT_TRUE(test::outputsMatch(*original, envA, envB)) << "seed " << seed;
  }
}

TEST(AllPasses, PreserveSemanticsOnRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    test::ProgramGenerator gen(seed * 7919);
    auto original = gen.generate("p");
    auto transformed = original->clone();

    ConstantFolding fold;
    LoopUnroll unroll(4);
    LoopFission fission;
    LoopFusion fusion;
    IndexSetSplitting split;
    fold.run(*transformed);
    split.run(*transformed);
    fission.run(*transformed);
    fusion.run(*transformed);
    unroll.run(*transformed);
    fold.run(*transformed);
    ASSERT_TRUE(ir::validate(*transformed).empty()) << "seed " << seed;

    ir::Environment envA = gen.makeInputs(*original);
    ir::Environment envB = envA;
    ir::Evaluator(*original).run(envA);
    ir::Evaluator(*transformed).run(envB);
    EXPECT_TRUE(test::outputsMatch(*original, envA, envB)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace argo::transform
