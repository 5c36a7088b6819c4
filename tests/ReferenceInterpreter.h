//===- tests/ReferenceInterpreter.h - Op-by-op reference oracle ---*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The test suite's reference oracle: an op-by-op interpreter that shares
/// no code path with the execution engine it checks. It walks the graph in
/// topological order and materializes every node into a tensor of its own
/// — no rewriting, no fusion plan, no instruction tape, no packing, no
/// kernel registry.
///
///  - Elementwise, data-movement and pool/reduce operators run the
///    materializing runRefKernel families (ops/Kernels.h), which touch none
///    of the engine's tape, packing or dispatch code.
///  - MatMul, Gemm, Conv and ConvTranspose run this file's own definition
///    loops, in the per-element accumulation order the engine documents
///    (ops/KernelsGemmPacked.h): MatMul and Gemm start from 0.0f, add
///    products in ascending k, and add the Gemm bias last; Conv starts
///    from the bias and accumulates input channel outer, kernel position
///    inner, skipping padded taps; ConvTranspose starts from the bias and
///    accumulates input channel, then input position, ascending.
///
/// Because every engine path keeps those orders, the engine's outputs are
/// bit-identical to the oracle's wherever the engine promises exactness
/// (the "exact" fuzz config, the zoo sweep); the deliberate relaxations
/// (online-softmax attention, the avx2fma tier) are compared at their
/// documented tolerance.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_TESTS_REFERENCEINTERPRETER_H
#define DNNFUSION_TESTS_REFERENCEINTERPRETER_H

#include "graph/Graph.h"
#include "ops/Attributes.h"
#include "ops/OpKind.h"
#include "tensor/Tensor.h"

#include <vector>

namespace dnnfusion {
namespace testutil {

/// Computes one operator: writes \p Out (pre-allocated with the inferred
/// shape) from \p Inputs.
void referenceOp(OpKind Kind, const AttrMap &Attrs,
                 const std::vector<const Tensor *> &Inputs, Tensor &Out);

/// The value of every node of \p G, indexed by NodeId (dead nodes stay
/// null). \p Inputs binds the live Input nodes in ascending NodeId order —
/// the positional convention of ExecutionContext::run.
std::vector<Tensor> interpretNodes(const Graph &G,
                                   const std::vector<Tensor> &Inputs);

/// The outputs of \p G in graph-output order.
std::vector<Tensor> interpretGraph(const Graph &G,
                                   const std::vector<Tensor> &Inputs);

} // namespace testutil
} // namespace dnnfusion

#endif // DNNFUSION_TESTS_REFERENCEINTERPRETER_H
