// Shared test helpers: a deterministic random structured-program generator
// used by the property-based suites (transform equivalence, analyzer
// agreement, simulator safety).
#pragma once

#include <string>
#include <vector>

#include "ir/builder.h"
#include "ir/evaluator.h"
#include "ir/function.h"
#include "numbered.h"
#include "support/rng.h"

namespace argo::test {

/// Shape of generated programs.
struct GenOptions {
  int arrayCount = 3;
  int arrayLength = 12;
  int scalarCount = 3;
  int maxTopStatements = 6;
  int maxDepth = 2;
  int maxLoopTrip = 6;
};

/// Generates a deterministic random function: declared float arrays
/// a0..aN (Inputs and Temps), scalars s0..sM, body mixing elementwise
/// loops, conditionals, selects and scalar math. Programs are total
/// (indices clamped by construction) and division-free.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed, GenOptions options = {})
      : rng_(seed), options_(options) {}

  std::unique_ptr<ir::Function> generate(const std::string& name) {
    auto fn = std::make_unique<ir::Function>(name);
    const ir::Type arrayType = ir::Type::array(
        ir::ScalarKind::Float64, {options_.arrayLength});
    for (int i = 0; i < options_.arrayCount; ++i) {
      // First array is a read-only input, the rest are read-write temps.
      fn->declare(numbered("a", i), arrayType,
                  i == 0 ? ir::VarRole::Input : ir::VarRole::Temp);
    }
    for (int i = 0; i < options_.scalarCount; ++i) {
      fn->declare(numbered("s", i), ir::Type::float64(),
                  ir::VarRole::Temp);
    }
    fn->declare("result", ir::Type::float64(), ir::VarRole::Output);
    // Seed scalars so later reads are defined.
    for (int i = 0; i < options_.scalarCount; ++i) {
      fn->body().append(ir::assign(ir::ref(numbered("s", i)),
                                   ir::flt(0.25 * (i + 1))));
    }
    const int statements =
        1 + static_cast<int>(rng_.uniformInt(1, options_.maxTopStatements));
    for (int s = 0; s < statements; ++s) {
      fn->body().append(genStmt(0, /*loopVars=*/{}));
    }
    fn->body().append(ir::assign(ir::ref("result"), genScalarExpr({}, 0)));
    return fn;
  }

  /// Random input environment for a generated function.
  ir::Environment makeInputs(const ir::Function& fn) {
    ir::Environment env;
    for (const ir::VarDecl& d : fn.decls()) {
      ir::Value v = ir::Value::zeros(d.type);
      for (std::int64_t k = 0; k < v.size(); ++k) {
        v.setFloat(k, rng_.uniformDouble() * 4.0 - 2.0);
      }
      env.emplace(d.name, std::move(v));
    }
    return env;
  }

 private:
  std::string randomArray() {
    return numbered("a", rng_.uniformInt(0, options_.arrayCount - 1));
  }
  std::string randomWritableArray() {
    if (options_.arrayCount <= 1) return "a0";
    return numbered("a", rng_.uniformInt(1, options_.arrayCount - 1));
  }
  std::string randomScalar() {
    return numbered("s", rng_.uniformInt(0, options_.scalarCount - 1));
  }

  /// Index expression valid for any loop variable set: either a literal in
  /// range, or loopvar (+/- small offset wrapped by min/max clamps).
  ir::ExprPtr genIndex(const std::vector<std::string>& loopVars) {
    if (loopVars.empty() || rng_.chance(0.3)) {
      return ir::lit(rng_.uniformInt(0, options_.arrayLength - 1));
    }
    const std::string& v =
        loopVars[static_cast<std::size_t>(rng_.uniformInt(
            0, static_cast<int>(loopVars.size()) - 1))];
    const std::int64_t offset = rng_.uniformInt(-2, 2);
    if (offset == 0) return ir::var(v);
    // Clamp into range: min(max(v + off, 0), len-1).
    return ir::bin(
        ir::BinOpKind::Min, ir::lit(options_.arrayLength - 1),
        ir::bin(ir::BinOpKind::Max, ir::lit(0),
                ir::add(ir::var(v), ir::lit(offset))));
  }

  ir::ExprPtr genScalarExpr(const std::vector<std::string>& loopVars,
                            int depth) {
    const int choice = static_cast<int>(rng_.uniformInt(0, 9));
    if (depth >= 3 || choice <= 1) {
      return ir::flt(rng_.uniformDouble() * 2.0 - 1.0);
    }
    if (choice == 2) return ir::var(randomScalar());
    if (choice == 3) {
      return ir::ref(randomArray(), ir::exprVec(genIndex(loopVars)));
    }
    if (choice == 4) {
      return ir::un(ir::UnOpKind::Abs, genScalarExpr(loopVars, depth + 1));
    }
    if (choice == 5) {
      return ir::un(ir::UnOpKind::Sin, genScalarExpr(loopVars, depth + 1));
    }
    if (choice == 6) {
      return ir::select(
          ir::lt(genScalarExpr(loopVars, depth + 1), ir::flt(0.0)),
          genScalarExpr(loopVars, depth + 1),
          genScalarExpr(loopVars, depth + 1));
    }
    const ir::BinOpKind ops[] = {ir::BinOpKind::Add, ir::BinOpKind::Sub,
                                 ir::BinOpKind::Mul, ir::BinOpKind::Min,
                                 ir::BinOpKind::Max};
    return ir::bin(ops[rng_.uniformInt(0, 4)],
                   genScalarExpr(loopVars, depth + 1),
                   genScalarExpr(loopVars, depth + 1));
  }

  ir::StmtPtr genStmt(int depth, std::vector<std::string> loopVars) {
    const int choice = static_cast<int>(rng_.uniformInt(0, 9));
    if (depth >= options_.maxDepth || choice <= 3) {
      // Assignment: scalar or array element.
      if (rng_.chance(0.5)) {
        return ir::assign(ir::ref(randomScalar()),
                          genScalarExpr(loopVars, 0));
      }
      return ir::assign(
          ir::ref(randomWritableArray(), ir::exprVec(genIndex(loopVars))),
          genScalarExpr(loopVars, 0));
    }
    if (choice <= 6) {
      // Counted loop with a fresh variable name.
      const std::string loopVar = numbered("i", counter_++);
      const std::int64_t lo = rng_.uniformInt(0, 2);
      const std::int64_t hi =
          lo + rng_.uniformInt(1, options_.maxLoopTrip);
      loopVars.push_back(loopVar);
      auto body = ir::block();
      const int n = static_cast<int>(rng_.uniformInt(1, 3));
      for (int s = 0; s < n; ++s) {
        body->append(genStmt(depth + 1, loopVars));
      }
      loopVars.pop_back();
      return ir::forLoop(loopVar, lo,
                         std::min<std::int64_t>(hi, options_.arrayLength),
                         std::move(body));
    }
    // Conditional.
    auto thenB = ir::block();
    thenB->append(genStmt(depth + 1, loopVars));
    auto elseB = ir::block();
    if (rng_.chance(0.6)) elseB->append(genStmt(depth + 1, loopVars));
    return ir::ifStmt(
        ir::lt(genScalarExpr(loopVars, 1), genScalarExpr(loopVars, 1)),
        std::move(thenB), std::move(elseB));
  }

  support::Rng rng_;
  GenOptions options_;
  int counter_ = 0;
};

/// Deep-compares two environments on the given function's Output and Temp
/// variables.
inline bool outputsMatch(const ir::Function& fn, const ir::Environment& a,
                         const ir::Environment& b, double tol = 1e-9) {
  for (const ir::VarDecl& d : fn.decls()) {
    if (d.role != ir::VarRole::Output && d.role != ir::VarRole::Temp) continue;
    const auto ia = a.find(d.name);
    const auto ib = b.find(d.name);
    if (ia == a.end() || ib == b.end()) return false;
    if (!ia->second.approxEquals(ib->second, tol)) return false;
  }
  return true;
}

}  // namespace argo::test
