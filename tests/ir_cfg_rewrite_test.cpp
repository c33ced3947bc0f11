// Unit tests for the hierarchical CFG (including its single-entry
// single-exit discipline) and the rewriting utilities.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ir/builder.h"
#include "ir/cfg.h"
#include "ir/printer.h"
#include "ir/rewrite.h"
#include "testutil.h"

namespace argo::ir {
namespace {

TEST(Cfg, EmptyBlockIsEntryExit) {
  const auto cfg = Cfg::build(*block());
  ASSERT_EQ(cfg->nodes().size(), 2u);
  EXPECT_EQ(cfg->node(cfg->entry()).kind, CfgNodeKind::Entry);
  EXPECT_EQ(cfg->node(cfg->exit()).kind, CfgNodeKind::Exit);
}

TEST(Cfg, ConsecutiveAssignsShareBasicBlock) {
  auto b = block();
  b->append(assign(ref("x"), lit(1)));
  b->append(assign(ref("y"), lit(2)));
  b->append(assign(ref("z"), lit(3)));
  const auto cfg = Cfg::build(*b);
  int basics = 0;
  for (const CfgNode& n : cfg->nodes()) {
    if (n.kind == CfgNodeKind::Basic) {
      ++basics;
      EXPECT_EQ(n.assigns.size(), 3u);
    }
  }
  EXPECT_EQ(basics, 1);
}

TEST(Cfg, IfCreatesBranchAndJoin) {
  auto thenB = block();
  thenB->append(assign(ref("x"), lit(1)));
  auto elseB = block();
  elseB->append(assign(ref("x"), lit(2)));
  auto b = block();
  b->append(ifStmt(boolean(true), std::move(thenB), std::move(elseB)));
  const auto cfg = Cfg::build(*b);
  int branches = 0;
  int joins = 0;
  for (const CfgNode& n : cfg->nodes()) {
    if (n.kind == CfgNodeKind::Branch) {
      ++branches;
      EXPECT_EQ(n.succs.size(), 2u);
    }
    if (n.kind == CfgNodeKind::Join) ++joins;
  }
  EXPECT_EQ(branches, 1);
  EXPECT_EQ(joins, 1);
}

TEST(Cfg, EmptyElseStillJoins) {
  auto thenB = block();
  thenB->append(assign(ref("x"), lit(1)));
  auto b = block();
  b->append(ifStmt(boolean(false), std::move(thenB)));
  const auto cfg = Cfg::build(*b);
  // Must reach the exit regardless of branch direction.
  EXPECT_NO_THROW((void)cfg->topoOrder());
  for (const CfgNode& n : cfg->nodes()) {
    if (n.kind == CfgNodeKind::Branch) {
      EXPECT_EQ(n.succs.size(), 2u);
    }
  }
}

TEST(Cfg, LoopBecomesHierarchicalNode) {
  auto body = block();
  body->append(assign(ref("a", exprVec(var("i"))), var("i")));
  auto b = block();
  b->append(forLoop("i", 0, 8, std::move(body)));
  const auto cfg = Cfg::build(*b);
  int loops = 0;
  for (const CfgNode& n : cfg->nodes()) {
    if (n.kind == CfgNodeKind::Loop) {
      ++loops;
      ASSERT_NE(n.loop, nullptr);
      EXPECT_EQ(n.loop->tripCount(), 8);
      ASSERT_NE(n.body, nullptr);
      EXPECT_GE(n.body->nodes().size(), 3u);  // entry + basic + exit
    }
  }
  EXPECT_EQ(loops, 1);
}

TEST(Cfg, TopoOrderCoversAllNodes) {
  auto thenB = block();
  thenB->append(assign(ref("x"), lit(1)));
  auto b = block();
  b->append(assign(ref("y"), lit(0)));
  b->append(ifStmt(boolean(true), std::move(thenB)));
  b->append(assign(ref("z"), lit(2)));
  const auto cfg = Cfg::build(*b);
  const auto order = cfg->topoOrder();
  EXPECT_EQ(order.size(), cfg->nodes().size());
  EXPECT_EQ(order.front(), cfg->entry());
}

TEST(Cfg, TotalNodeCountIncludesNesting) {
  auto inner = block();
  inner->append(assign(ref("a", exprVec(var("j"))), var("j")));
  auto outerBody = block();
  outerBody->append(forLoop("j", 0, 2, std::move(inner)));
  auto b = block();
  b->append(forLoop("i", 0, 2, std::move(outerBody)));
  const auto cfg = Cfg::build(*b);
  EXPECT_GT(cfg->totalNodeCount(), cfg->nodes().size());
}

/// The SESE discipline the timing-schema decomposition relies on, checked
/// from first principles: every node is dominated by the entry, and every
/// Join's immediate dominator is a Branch, recursively into loop bodies.
/// Each level is a DAG, so dominator sets follow in one topological pass.
std::vector<std::string> seseProblems(const Cfg& cfg) {
  const std::size_t n = cfg.nodes().size();
  std::vector<std::vector<bool>> dom(n, std::vector<bool>(n, false));
  for (int id : cfg.topoOrder()) {
    std::vector<bool>& d = dom[static_cast<std::size_t>(id)];
    const std::vector<int>& preds = cfg.node(id).preds;
    if (!preds.empty()) d = dom[static_cast<std::size_t>(preds.front())];
    for (int p : preds) {
      for (std::size_t k = 0; k < n; ++k) {
        d[k] = d[k] && dom[static_cast<std::size_t>(p)][k];
      }
    }
    d[static_cast<std::size_t>(id)] = true;
  }
  const auto dominatorCount = [&](std::size_t id) {
    std::size_t count = 0;
    for (bool b : dom[id]) count += b ? 1 : 0;
    return count;
  };

  std::vector<std::string> problems;
  for (std::size_t id = 0; id < n; ++id) {
    const CfgNode& node = cfg.nodes()[id];
    if (!dom[id][static_cast<std::size_t>(cfg.entry())]) {
      problems.push_back("node " + std::to_string(id) +
                         " not dominated by entry");
    }
    if (node.kind == CfgNodeKind::Join) {
      // The immediate dominator is the deepest strict dominator.
      std::size_t idom = n;
      for (std::size_t k = 0; k < n; ++k) {
        if (k != id && dom[id][k] &&
            (idom == n || dominatorCount(k) > dominatorCount(idom))) {
          idom = k;
        }
      }
      if (idom == n || cfg.nodes()[idom].kind != CfgNodeKind::Branch) {
        problems.push_back("join node " + std::to_string(id) +
                           " not immediately dominated by a branch");
      }
    }
    if (node.body) {
      for (std::string& p : seseProblems(*node.body)) {
        problems.push_back("loop body: " + std::move(p));
      }
    }
  }
  return problems;
}

TEST(SeseCheck, AcceptsStructuredPrograms) {
  auto thenB = block();
  thenB->append(assign(ref("x"), lit(1)));
  auto body = block();
  body->append(ifStmt(boolean(false), std::move(thenB)));
  auto b = block();
  b->append(forLoop("i", 0, 4, std::move(body)));
  b->append(assign(ref("y"), lit(2)));
  const auto cfg = Cfg::build(*b);
  EXPECT_TRUE(seseProblems(*cfg).empty());
}

TEST(SeseCheck, CoversNestedLoopBodies) {
  auto inner = block();
  auto thenB = block();
  thenB->append(assign(ref("a", exprVec(var("j"))), var("j")));
  inner->append(ifStmt(boolean(true), std::move(thenB)));
  auto outerBody = block();
  outerBody->append(forLoop("j", 0, 2, std::move(inner)));
  auto b = block();
  b->append(forLoop("i", 0, 2, std::move(outerBody)));
  const auto cfg = Cfg::build(*b);
  EXPECT_TRUE(seseProblems(*cfg).empty());
}

TEST(SeseCheck, HoldsOnRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    test::ProgramGenerator gen(seed * 37);
    const auto fn = gen.generate("p");
    const auto cfg = Cfg::build(fn->body());
    EXPECT_TRUE(seseProblems(*cfg).empty()) << "seed " << seed;
  }
}

TEST(SeseCheck, HoldsOnCompiledUseCases) {
  // Regression net: the generated programs must only ever produce
  // SESE-disciplined control flow.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    test::ProgramGenerator gen(seed);
    const auto fn = gen.generate("p");
    EXPECT_TRUE(seseProblems(*Cfg::build(fn->body())).empty());
  }
}

TEST(Rewrite, RenameVariablesEverywhere) {
  StmtPtr s = assign(ref("a", exprVec(var("i"))),
                     add(var("x"), ref("x", exprVec())));
  renameVars(*s, {{"a", "A"}, {"x", "X"}});
  EXPECT_EQ(toString(*s), "A[i] = (X + X);\n");
}

TEST(Rewrite, RenameLoopVariable) {
  auto body = block();
  body->append(assign(ref("a", exprVec(var("i"))), var("i")));
  StmtPtr loop = forLoop("i", 0, 4, std::move(body));
  renameVars(*loop, {{"i", "k"}});
  const std::string text = toString(*loop);
  EXPECT_NE(text.find("for (k = 0"), std::string::npos);
  EXPECT_NE(text.find("a[k] = k;"), std::string::npos);
}

TEST(Rewrite, RenameLeavesOthersAlone) {
  StmtPtr s = assign(ref("y"), var("x"));
  renameVars(*s, {{"z", "Z"}});
  EXPECT_EQ(toString(*s), "y = x;\n");
}

TEST(Rewrite, SubstituteScalarEverywhere) {
  StmtPtr s = assign(ref("a", exprVec(add(var("i"), lit(1)))),
                     mul(var("i"), var("i")));
  const IntLit three(3);
  substituteVar(*s, "i", three);
  EXPECT_EQ(toString(*s), "a[(3 + 1)] = (3 * 3);\n");
}

TEST(Rewrite, SubstituteRespectsShadowing) {
  // Substituting i must not touch a nested loop that redefines i.
  auto inner = block();
  inner->append(assign(ref("a", exprVec(var("i"))), var("i")));
  auto outer = block();
  outer->append(forLoop("i", 0, 2, std::move(inner)));
  outer->append(assign(ref("y"), var("i")));
  StmtPtr wrapper = std::make_unique<Block>(std::move(outer->stmts()));
  const IntLit seven(7);
  substituteVar(*wrapper, "i", seven);
  const std::string text = toString(*wrapper);
  EXPECT_NE(text.find("a[i] = i;"), std::string::npos);  // untouched
  EXPECT_NE(text.find("y = 7;"), std::string::npos);     // substituted
}

TEST(Rewrite, SubstituteInIfCondition) {
  auto thenB = block();
  thenB->append(assign(ref("y"), lit(1)));
  StmtPtr s = ifStmt(lt(var("i"), lit(4)), std::move(thenB));
  const IntLit two(2);
  substituteVar(*s, "i", two);
  EXPECT_NE(toString(*s).find("if ((2 < 4))"), std::string::npos);
}

TEST(Rewrite, SubstituteWholeExpression) {
  ExprPtr e = add(var("i"), mul(var("i"), lit(2)));
  const ExprPtr replacement = add(var("base"), lit(5));
  e = substituteVar(std::move(e), "i", *replacement);
  EXPECT_EQ(toString(*e), "((base + 5) + ((base + 5) * 2))");
}

}  // namespace
}  // namespace argo::ir
