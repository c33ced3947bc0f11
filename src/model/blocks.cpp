#include "model/blocks.h"

#include "support/diagnostics.h"

namespace argo::model {

using ir::ExprPtr;
using ir::Type;
using support::ToolchainError;

namespace {

[[noreturn]] void typeError(const Block& block, const std::string& message) {
  throw ToolchainError("block '" + block.name() + "': " + message);
}

void expectInputCount(const Block& block, const std::vector<Type>& inputs) {
  if (static_cast<int>(inputs.size()) != block.inputCount()) {
    typeError(block, "expected " + std::to_string(block.inputCount()) +
                         " inputs, got " + std::to_string(inputs.size()));
  }
}

void expectSameShape(const Block& block, const std::vector<Type>& inputs) {
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    if (inputs[i].dims() != inputs[0].dims()) {
      typeError(block, "input shapes differ: " + inputs[0].str() + " vs " +
                           inputs[i].str());
    }
  }
}

/// Reference to input port `port`, at element `idx` (cloned).
std::unique_ptr<ir::VarRef> inRef(const EmitContext& ctx, int port,
                                  const std::vector<ExprPtr>& idx) {
  return ir::ref(ctx.inputs.at(static_cast<std::size_t>(port)),
                 cloneIndices(idx));
}

std::unique_ptr<ir::VarRef> outRef(const EmitContext& ctx, int port,
                                   const std::vector<ExprPtr>& idx) {
  return ir::ref(ctx.outputs.at(static_cast<std::size_t>(port)),
                 cloneIndices(idx));
}

/// By value: emitters declare new variables after reading it, and a
/// declaration may reallocate the function's declaration table.
Type signalType(const EmitContext& ctx, int inputPort) {
  return ctx.fn.lookup(ctx.inputs.at(static_cast<std::size_t>(inputPort))).type;
}

}  // namespace

// ---------------------------------------------------------------- InputBlock

std::vector<Type> InputBlock::inferTypes(const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  return {type_};
}

void InputBlock::emit(EmitContext& ctx) const {
  // The diagram compiler aliases the output wire directly to the function
  // Input variable; nothing to compute.
  (void)ctx;
}

// --------------------------------------------------------------- OutputBlock

std::vector<Type> OutputBlock::inferTypes(
    const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  return {};
}

void OutputBlock::emit(EmitContext& ctx) const {
  // Copy the incoming wire into the function Output variable. ctx.outputs
  // holds the output variable name even though outputCount() == 0; the
  // compiler arranges this.
  const Type& type = signalType(ctx, 0);
  forEachElement(ctx, ctx.body, type, [&](std::vector<ExprPtr> idx) {
    return ir::assign(outRef(ctx, 0, idx), inRef(ctx, 0, idx));
  });
}

// ---------------------------------------------------------------- ConstBlock

ConstBlock::ConstBlock(std::string name, Type type, std::vector<double> values)
    : Block(std::move(name)), type_(std::move(type)), values_(std::move(values)) {
  if (static_cast<std::int64_t>(values_.size()) != type_.elementCount()) {
    throw ToolchainError("block '" + Block::name() + "': " +
                         std::to_string(values_.size()) + " values for type " +
                         type_.str());
  }
}

std::vector<Type> ConstBlock::inferTypes(const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  return {type_};
}

void ConstBlock::emit(EmitContext& ctx) const {
  if (type_.isScalar()) {
    ctx.body.append(ir::assign(outRef(ctx, 0, {}), ir::flt(values_[0])));
    return;
  }
  // Array constants become read-only data: the compiler aliases the output
  // wire to a Const variable whose initial values live in the model's
  // constant table; nothing to compute per step. (Re-initializing a table
  // every step would dominate the WCET for large tables.)
}

// ----------------------------------------------------------------- GainBlock

std::vector<Type> GainBlock::inferTypes(const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  return {inputs[0]};
}

void GainBlock::emit(EmitContext& ctx) const {
  const Type& type = signalType(ctx, 0);
  forEachElement(ctx, ctx.body, type, [&](std::vector<ExprPtr> idx) {
    return ir::assign(outRef(ctx, 0, idx),
                      ir::mul(ir::flt(gain_), inRef(ctx, 0, idx)));
  });
}

// ------------------------------------------------------------------ SumBlock

SumBlock::SumBlock(std::string name, std::vector<int> signs)
    : Block(std::move(name)), signs_(std::move(signs)) {
  if (signs_.size() < 2) {
    throw ToolchainError("block '" + Block::name() + "': needs >= 2 inputs");
  }
}

std::vector<Type> SumBlock::inferTypes(const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  expectSameShape(*this, inputs);
  return {inputs[0]};
}

void SumBlock::emit(EmitContext& ctx) const {
  const Type& type = signalType(ctx, 0);
  forEachElement(ctx, ctx.body, type, [&](std::vector<ExprPtr> idx) {
    ExprPtr acc;
    for (std::size_t k = 0; k < signs_.size(); ++k) {
      ExprPtr term = inRef(ctx, static_cast<int>(k), idx);
      if (signs_[k] < 0) term = ir::neg(std::move(term));
      acc = acc ? ir::add(std::move(acc), std::move(term)) : std::move(term);
    }
    return ir::assign(outRef(ctx, 0, idx), std::move(acc));
  });
}

// -------------------------------------------------------------- ProductBlock

std::vector<Type> ProductBlock::inferTypes(
    const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  expectSameShape(*this, inputs);
  return {inputs[0]};
}

void ProductBlock::emit(EmitContext& ctx) const {
  const Type& type = signalType(ctx, 0);
  forEachElement(ctx, ctx.body, type, [&](std::vector<ExprPtr> idx) {
    ExprPtr acc;
    for (int k = 0; k < inputs_; ++k) {
      ExprPtr term = inRef(ctx, k, idx);
      acc = acc ? ir::mul(std::move(acc), std::move(term)) : std::move(term);
    }
    return ir::assign(outRef(ctx, 0, idx), std::move(acc));
  });
}

// ---------------------------------------------------------------- DelayBlock

std::vector<Type> DelayBlock::inferTypes(const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  if (declaredType_.has_value() && inputs[0] != *declaredType_) {
    typeError(*this, "declared type " + declaredType_->str() +
                         " does not match input " + inputs[0].str());
  }
  return {inputs[0]};
}

void DelayBlock::emit(EmitContext& ctx) const {
  const Type& type = signalType(ctx, 0);
  const std::string state = ctx.uniqueName(name() + "_z");
  ctx.fn.declare(state, type, ir::VarRole::State);
  forEachElement(ctx, ctx.body, type, [&](std::vector<ExprPtr> idx) {
    return ir::assign(outRef(ctx, 0, idx), ir::ref(state, cloneIndices(idx)));
  });
  forEachElement(ctx, ctx.epilogue, type, [&](std::vector<ExprPtr> idx) {
    return ir::assign(ir::ref(state, cloneIndices(idx)), inRef(ctx, 0, idx));
  });
}

// ------------------------------------------------------------- SaturateBlock

std::vector<Type> SaturateBlock::inferTypes(
    const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  if (lo_ > hi_) typeError(*this, "lo > hi");
  return {inputs[0]};
}

void SaturateBlock::emit(EmitContext& ctx) const {
  const Type& type = signalType(ctx, 0);
  forEachElement(ctx, ctx.body, type, [&](std::vector<ExprPtr> idx) {
    ExprPtr clamped = ir::bin(
        ir::BinOpKind::Min, ir::flt(hi_),
        ir::bin(ir::BinOpKind::Max, ir::flt(lo_), inRef(ctx, 0, idx)));
    return ir::assign(outRef(ctx, 0, idx), std::move(clamped));
  });
}

// ----------------------------------------------------------------- MathBlock

std::vector<Type> MathBlock::inferTypes(const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  return {inputs[0]};
}

void MathBlock::emit(EmitContext& ctx) const {
  const Type& type = signalType(ctx, 0);
  forEachElement(ctx, ctx.body, type, [&](std::vector<ExprPtr> idx) {
    return ir::assign(outRef(ctx, 0, idx),
                      ir::un(op_, inRef(ctx, 0, idx)));
  });
}

// ---------------------------------------------------------------- Atan2Block

std::vector<Type> Atan2Block::inferTypes(const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  expectSameShape(*this, inputs);
  return {inputs[0]};
}

void Atan2Block::emit(EmitContext& ctx) const {
  const Type& type = signalType(ctx, 0);
  forEachElement(ctx, ctx.body, type, [&](std::vector<ExprPtr> idx) {
    std::vector<ExprPtr> args;
    args.push_back(inRef(ctx, 0, idx));
    args.push_back(inRef(ctx, 1, idx));
    return ir::assign(outRef(ctx, 0, idx), ir::call("atan2", std::move(args)));
  });
}

// ----------------------------------------------------------- RelationalBlock

std::vector<Type> RelationalBlock::inferTypes(
    const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  expectSameShape(*this, inputs);
  if (!ir::isComparison(op_)) typeError(*this, "operator is not relational");
  return {inputs[0]};
}

void RelationalBlock::emit(EmitContext& ctx) const {
  const Type& type = signalType(ctx, 0);
  forEachElement(ctx, ctx.body, type, [&](std::vector<ExprPtr> idx) {
    ExprPtr cmp = ir::bin(op_, inRef(ctx, 0, idx), inRef(ctx, 1, idx));
    return ir::assign(outRef(ctx, 0, idx),
                      ir::select(std::move(cmp), ir::flt(1.0), ir::flt(0.0)));
  });
}

// --------------------------------------------------------------- SwitchBlock

std::vector<Type> SwitchBlock::inferTypes(const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  if (inputs[1].dims() != inputs[2].dims()) {
    typeError(*this, "data inputs must have identical shapes");
  }
  if (!inputs[0].isScalar() && inputs[0].dims() != inputs[1].dims()) {
    typeError(*this, "control input must be scalar or match data shape");
  }
  return {inputs[1]};
}

void SwitchBlock::emit(EmitContext& ctx) const {
  const Type& dataType = signalType(ctx, 1);
  const bool scalarControl = signalType(ctx, 0).isScalar();
  forEachElement(ctx, ctx.body, dataType, [&](std::vector<ExprPtr> idx) {
    std::vector<ExprPtr> ctrlIdx =
        scalarControl ? std::vector<ExprPtr>{} : cloneIndices(idx);
    ExprPtr cond = ir::ge(ir::ref(ctx.inputs[0], std::move(ctrlIdx)),
                          ir::flt(threshold_));
    return ir::assign(
        outRef(ctx, 0, idx),
        ir::select(std::move(cond), inRef(ctx, 1, idx), inRef(ctx, 2, idx)));
  });
}

// --------------------------------------------------------------- ReduceBlock

std::vector<Type> ReduceBlock::inferTypes(const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  if (inputs[0].isScalar()) typeError(*this, "reduce needs an array input");
  return {Type::float64()};
}

void ReduceBlock::emit(EmitContext& ctx) const {
  const Type& type = signalType(ctx, 0);
  double init = 0.0;
  ir::BinOpKind op = ir::BinOpKind::Add;
  switch (op_) {
    case Op::Sum: init = 0.0; op = ir::BinOpKind::Add; break;
    case Op::Min: init = 1e300; op = ir::BinOpKind::Min; break;
    case Op::Max: init = -1e300; op = ir::BinOpKind::Max; break;
  }
  // Accumulate in a register-allocated local: the reduction loop is
  // inherently sequential, and a shared-memory read-modify-write per
  // element would dominate both the WCET and the interconnect load.
  const std::string acc = ctx.uniqueName(name() + "_acc");
  ctx.fn.declare(acc, Type::float64(), ir::VarRole::Temp, ir::Storage::Local);
  ctx.body.append(ir::assign(ir::ref(acc), ir::flt(init)));
  forEachElement(ctx, ctx.body, type, [&](std::vector<ExprPtr> idx) {
    return ir::assign(ir::ref(acc),
                      ir::bin(op, ir::var(acc), inRef(ctx, 0, idx)));
  });
  ctx.body.append(ir::assign(outRef(ctx, 0, {}), ir::var(acc)));
}

// ------------------------------------------------------------------ FirBlock

FirBlock::FirBlock(std::string name, std::vector<double> coeffs)
    : Block(std::move(name)), coeffs_(std::move(coeffs)) {
  if (coeffs_.empty()) {
    throw ToolchainError("block '" + Block::name() + "': empty coefficients");
  }
}

std::vector<Type> FirBlock::inferTypes(const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  if (!inputs[0].isScalar()) typeError(*this, "FIR input must be scalar");
  return {Type::float64()};
}

void FirBlock::emit(EmitContext& ctx) const {
  const int taps = static_cast<int>(coeffs_.size());
  if (taps == 1) {
    ctx.body.append(ir::assign(outRef(ctx, 0, {}),
                               ir::mul(ir::flt(coeffs_[0]), inRef(ctx, 0, {}))));
    return;
  }
  const std::string state = ctx.uniqueName(name() + "_z");
  ctx.fn.declare(state, Type::array(ir::ScalarKind::Float64, {taps - 1}),
                 ir::VarRole::State);
  // y = c0*u + sum_{k>=1} c[k] * z[k-1]
  ExprPtr acc = ir::mul(ir::flt(coeffs_[0]), inRef(ctx, 0, {}));
  for (int k = 1; k < taps; ++k) {
    acc = ir::add(std::move(acc),
                  ir::mul(ir::flt(coeffs_[static_cast<std::size_t>(k)]),
                          ir::ref(state, ir::exprVec(ir::lit(k - 1)))));
  }
  ctx.body.append(ir::assign(outRef(ctx, 0, {}), std::move(acc)));
  // Shift register update, oldest first (unrolled; taps are small constants).
  for (int k = taps - 2; k >= 1; --k) {
    ctx.epilogue.append(ir::assign(ir::ref(state, ir::exprVec(ir::lit(k))),
                                   ir::ref(state, ir::exprVec(ir::lit(k - 1)))));
  }
  ctx.epilogue.append(
      ir::assign(ir::ref(state, ir::exprVec(ir::lit(0))), inRef(ctx, 0, {})));
}

// --------------------------------------------------------------- BiquadBlock

std::vector<Type> BiquadBlock::inferTypes(const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  if (!inputs[0].isScalar()) typeError(*this, "biquad input must be scalar");
  return {Type::float64()};
}

void BiquadBlock::emit(EmitContext& ctx) const {
  // Direct form II transposed:
  //   y  = b0*u + s1
  //   s1' = b1*u - a1*y + s2
  //   s2' = b2*u - a2*y
  const std::string s1 = ctx.uniqueName(name() + "_s1");
  const std::string s2 = ctx.uniqueName(name() + "_s2");
  ctx.fn.declare(s1, Type::float64(), ir::VarRole::State);
  ctx.fn.declare(s2, Type::float64(), ir::VarRole::State);
  ctx.body.append(ir::assign(
      outRef(ctx, 0, {}),
      ir::add(ir::mul(ir::flt(b0_), inRef(ctx, 0, {})), ir::var(s1))));
  ctx.epilogue.append(ir::assign(
      ir::ref(s1),
      ir::add(ir::sub(ir::mul(ir::flt(b1_), inRef(ctx, 0, {})),
                      ir::mul(ir::flt(a1_), outRef(ctx, 0, {}))),
              ir::var(s2))));
  ctx.epilogue.append(ir::assign(
      ir::ref(s2), ir::sub(ir::mul(ir::flt(b2_), inRef(ctx, 0, {})),
                           ir::mul(ir::flt(a2_), outRef(ctx, 0, {})))));
}

// --------------------------------------------------------------- MatVecBlock

MatVecBlock::MatVecBlock(std::string name, int rows, int cols,
                         std::vector<double> matrix)
    : Block(std::move(name)), rows_(rows), cols_(cols),
      matrix_(std::move(matrix)) {
  if (static_cast<int>(matrix_.size()) != rows_ * cols_) {
    throw ToolchainError("block '" + Block::name() + "': matrix size mismatch");
  }
}

std::vector<Type> MatVecBlock::inferTypes(const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  const Type expected = Type::array(ir::ScalarKind::Float64, {cols_});
  if (inputs[0].dims() != expected.dims()) {
    typeError(*this, "expected input " + expected.str() + ", got " +
                         inputs[0].str());
  }
  return {Type::array(ir::ScalarKind::Float64, {rows_})};
}

void MatVecBlock::emit(EmitContext& ctx) const {
  const std::string mat = ctx.declareConst(
      name() + "_A", Type::array(ir::ScalarKind::Float64, {rows_, cols_}),
      matrix_);
  const std::string m = ctx.uniqueName("m");
  const std::string k = ctx.uniqueName("k");
  auto inner = ir::block();
  std::vector<ExprPtr> midx;
  midx.push_back(ir::var(m));
  inner->append(ir::assign(
      outRef(ctx, 0, midx),
      ir::add(outRef(ctx, 0, midx),
              ir::mul(ir::ref(mat, ir::exprVec(ir::var(m), ir::var(k))),
                      ir::ref(ctx.inputs[0], ir::exprVec(ir::var(k)))))));
  auto outer = ir::block();
  outer->append(ir::assign(outRef(ctx, 0, midx), ir::flt(0.0)));
  outer->append(ir::forLoop(k, 0, cols_, std::move(inner)));
  ctx.body.append(ir::forLoop(m, 0, rows_, std::move(outer)));
}

// --------------------------------------------------------------- Conv2dBlock

Conv2dBlock::Conv2dBlock(std::string name, int kernelH, int kernelW,
                         std::vector<double> kernel)
    : Block(std::move(name)), kernelH_(kernelH), kernelW_(kernelW),
      kernel_(std::move(kernel)) {
  if (static_cast<int>(kernel_.size()) != kernelH_ * kernelW_) {
    throw ToolchainError("block '" + Block::name() + "': kernel size mismatch");
  }
}

std::vector<Type> Conv2dBlock::inferTypes(const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  if (inputs[0].rank() != 2) typeError(*this, "conv2d input must be 2-D");
  return {inputs[0]};
}

void Conv2dBlock::emit(EmitContext& ctx) const {
  const Type& type = signalType(ctx, 0);
  const int height = type.dims()[0];
  const int width = type.dims()[1];
  const int ch = kernelH_ / 2;
  const int cw = kernelW_ / 2;
  const std::string kern = ctx.declareConst(
      name() + "_K", Type::array(ir::ScalarKind::Float64, {kernelH_, kernelW_}),
      kernel_);
  const std::string i = ctx.uniqueName("i");
  const std::string j = ctx.uniqueName("j");
  const std::string ki = ctx.uniqueName("ki");
  const std::string kj = ctx.uniqueName("kj");

  std::vector<ExprPtr> oidx;
  oidx.push_back(ir::var(i));
  oidx.push_back(ir::var(j));

  // Guarded accumulation (zero padding): skip out-of-image taps.
  auto srcRow = [&] { return ir::sub(ir::add(ir::var(i), ir::var(ki)), ir::lit(ch)); };
  auto srcCol = [&] { return ir::sub(ir::add(ir::var(j), ir::var(kj)), ir::lit(cw)); };
  ExprPtr inBounds = ir::bin(
      ir::BinOpKind::And,
      ir::bin(ir::BinOpKind::And, ir::ge(srcRow(), ir::lit(0)),
              ir::lt(srcRow(), ir::lit(height))),
      ir::bin(ir::BinOpKind::And, ir::ge(srcCol(), ir::lit(0)),
              ir::lt(srcCol(), ir::lit(width))));
  auto guarded = ir::block();
  guarded->append(ir::assign(
      outRef(ctx, 0, oidx),
      ir::add(outRef(ctx, 0, oidx),
              ir::mul(ir::ref(kern, ir::exprVec(ir::var(ki), ir::var(kj))),
                      ir::ref(ctx.inputs[0], ir::exprVec(srcRow(), srcCol()))))));
  auto kjBody = ir::block();
  kjBody->append(ir::ifStmt(std::move(inBounds), std::move(guarded)));
  auto kiBody = ir::block();
  kiBody->append(ir::forLoop(kj, 0, kernelW_, std::move(kjBody)));
  auto jBody = ir::block();
  jBody->append(ir::assign(outRef(ctx, 0, oidx), ir::flt(0.0)));
  jBody->append(ir::forLoop(ki, 0, kernelH_, std::move(kiBody)));
  auto iBody = ir::block();
  iBody->append(ir::forLoop(j, 0, width, std::move(jBody)));
  ctx.body.append(ir::forLoop(i, 0, height, std::move(iBody)));
}

// ------------------------------------------------------------- Lookup1dBlock

Lookup1dBlock::Lookup1dBlock(std::string name, double x0, double dx,
                             std::vector<double> table)
    : Block(std::move(name)), x0_(x0), dx_(dx), table_(std::move(table)) {
  if (table_.size() < 2) {
    throw ToolchainError("block '" + Block::name() + "': table needs >= 2 entries");
  }
  if (dx_ <= 0.0) {
    throw ToolchainError("block '" + Block::name() + "': dx must be positive");
  }
}

std::vector<Type> Lookup1dBlock::inferTypes(
    const std::vector<Type>& inputs) const {
  expectInputCount(*this, inputs);
  return {inputs[0]};
}

void Lookup1dBlock::emit(EmitContext& ctx) const {
  const Type& type = signalType(ctx, 0);
  const int n = static_cast<int>(table_.size());
  const std::string table = ctx.declareConst(
      name() + "_T", Type::array(ir::ScalarKind::Float64, {n}), table_);
  const std::string pos = ctx.uniqueName(name() + "_pos");
  const std::string cell = ctx.uniqueName(name() + "_cell");
  const std::string frac = ctx.uniqueName(name() + "_frac");
  ctx.fn.declare(pos, Type::float64(), ir::VarRole::Temp, ir::Storage::Local);
  ctx.fn.declare(cell, Type::int32(), ir::VarRole::Temp, ir::Storage::Local);
  ctx.fn.declare(frac, Type::float64(), ir::VarRole::Temp, ir::Storage::Local);

  forEachElement(ctx, ctx.body, type, [&](std::vector<ExprPtr> idx) {
    auto seq = ir::block();
    // pos = (u - x0) / dx, clamped to [0, n-1].
    seq->append(ir::assign(
        ir::ref(pos),
        ir::bin(ir::BinOpKind::Min, ir::flt(static_cast<double>(n - 1)),
                ir::bin(ir::BinOpKind::Max, ir::flt(0.0),
                        ir::div(ir::sub(inRef(ctx, 0, idx), ir::flt(x0_)),
                                ir::flt(dx_))))));
    // cell = min(int(floor(pos)), n-2); frac = pos - cell.
    seq->append(ir::assign(
        ir::ref(cell),
        ir::bin(ir::BinOpKind::Min, ir::lit(n - 2),
                ir::un(ir::UnOpKind::ToInt,
                       ir::un(ir::UnOpKind::Floor, ir::var(pos))))));
    seq->append(ir::assign(
        ir::ref(frac),
        ir::sub(ir::var(pos), ir::un(ir::UnOpKind::ToFloat, ir::var(cell)))));
    seq->append(ir::assign(
        outRef(ctx, 0, idx),
        ir::add(ir::mul(ir::ref(table, ir::exprVec(ir::var(cell))),
                        ir::sub(ir::flt(1.0), ir::var(frac))),
                ir::mul(ir::ref(table, ir::exprVec(ir::add(ir::var(cell),
                                                           ir::lit(1)))),
                        ir::var(frac)))));
    ir::StmtPtr out = std::move(seq);
    return out;
  });
}

}  // namespace argo::model
