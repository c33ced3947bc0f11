// Shared inputs of the scheduling-policy differential oracles
// (tests/bnb_test.cpp against a copy of the stack search,
// tests/parallel_phases_test.cpp against a copy of the per-move annealing
// chain): the platform corpus, the wide-loop graph, and the repeated-edge
// variant of a graph.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adl/platform.h"
#include "htg/htg.h"
#include "ir/builder.h"
#include "ir/function.h"

namespace argo::test {

/// A single wide loop, y[i] = 2 * u[i]: expanded into chunks it gives
/// independent tasks with no edges, and the cheapest way to a graph with
/// more tasks than the branch-and-bound bitmask can represent.
inline std::unique_ptr<ir::Function> makeWideLoopFn(int width = 80) {
  using ir::ScalarKind;
  using ir::Type;
  using ir::VarRole;
  auto fn = std::make_unique<ir::Function>("wide");
  fn->declare("u", Type::array(ScalarKind::Float64, {width}), VarRole::Input);
  fn->declare("y", Type::array(ScalarKind::Float64, {width}), VarRole::Output);
  auto body = ir::block();
  body->append(
      ir::assign(ir::ref("y", ir::exprVec(ir::var("i"))),
                 ir::mul(ir::ref("u", ir::exprVec(ir::var("i"))),
                         ir::flt(2.0))));
  fn->body().append(ir::forLoop("i", 0, width, std::move(body)));
  return fn;
}

/// The interconnect flavours the oracles run on: a round-robin bus, a TDMA
/// bus, and a tile-asymmetric 2x2 NoC whose last tile is the math
/// accelerator.
inline std::vector<std::pair<std::string, adl::Platform>> oraclePlatforms() {
  std::vector<std::pair<std::string, adl::Platform>> out;
  out.emplace_back("bus", adl::makeRecoreXentiumBus(4));
  out.emplace_back("tdma",
                   adl::makeRecoreXentiumBus(4, adl::Arbitration::Tdma));
  out.emplace_back("noc",
                   adl::makeKitLeon3Inoc(2, 2, /*withAccelerator=*/true));
  return out;
}

/// Appends a copy of every edge at eight times the payload: for a repeated
/// (from, to) pair the first listed edge is the one that counts, so the
/// schedules must not change.
inline void repeatEdgesHeavier(htg::TaskGraph& graph) {
  const std::size_t edges = graph.deps.size();
  for (std::size_t i = 0; i < edges; ++i) {
    htg::Dep heavier = graph.deps[i];
    heavier.bytes *= 8;
    graph.deps.push_back(heavier);
  }
}

}  // namespace argo::test
