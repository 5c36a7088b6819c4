//===- perfbench/src/Checks.h - Output checks of the benchmark ----*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output checks every workload applies, each against a property the
/// method must have or an independent computation. Every check returns ""
/// when the outputs pass and a description of the first offending element
/// otherwise; perfbench_selftest proves each one fails when one output
/// element is perturbed.
///
/// Also home of the serving MLP: the bandwidth-bound model of the serve
/// workload, built from weights the benchmark draws itself so that its
/// outputs can be checked against a float64 evaluation of the same
/// network.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <dnnfusion/dnnfusion.h>

#include <string>
#include <vector>

namespace perfbench {

/// Tolerance of the serving MLP against its float64 evaluation. Outputs
/// are softmax probabilities; float32 accumulation over at most 1024
/// terms stays orders of magnitude inside this.
inline constexpr double MlpRelTol = 1e-4;
inline constexpr double MlpAbsTol = 1e-6;

/// Bitwise equality of two output lists (shape and every float's bits).
std::string compareBitwise(const std::vector<dnnfusion::Tensor> &Got,
                           const std::vector<dnnfusion::Tensor> &Want);

/// Byte equality of two serialized artifacts.
std::string compareBytes(const std::string &Got, const std::string &Want);

/// One float32 output against float64 expected values.
std::string compareToFloat64(const dnnfusion::Tensor &Got,
                             const std::vector<double> &Want, double Rel,
                             double Abs);

//===----------------------------------------------------------------------===//
// The serving MLP
//===----------------------------------------------------------------------===//

/// Weights of the serving MLP: three dense layers 256 -> 1024 -> 1024 ->
/// 64, row-major W[Out][In] plus bias[Out].
struct MlpWeights {
  struct Layer {
    int64_t In = 0, Out = 0;
    std::vector<float> W, Bias;
  };
  std::vector<Layer> Layers;
};

/// Draws the weights (uniform in +-1/sqrt(In)) from \p Seed.
MlpWeights makeMlpWeights(uint64_t Seed);

/// The serving MLP at leading-dim batch \p Batch, in the weight-stationary
/// y = W.x formulation: rows {Batch, 256} are transposed into columns and
/// every dense layer is W[Out,In] @ x[In,Batch] + bias, then ReLU (the
/// last layer: softmax over the 64 outputs of each row). At batch 1 each
/// layer is a matrix-vector product that streams its whole weight matrix
/// per request — the regime where coalescing requests pays.
dnnfusion::Graph buildServingMlp(const MlpWeights &W, int64_t Batch);

/// The MLP's softmax output for one input row, evaluated in float64.
std::vector<double> mlpReference(const MlpWeights &W, const float *Row);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
