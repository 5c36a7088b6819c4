//===- perfbench/src/Checks.cpp - Output checks of the benchmark ----------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace dnnfusion;

namespace perfbench {

namespace {

std::string where(size_t Out, int64_t Elem) {
  return "output " + std::to_string(Out) + " element " + std::to_string(Elem);
}

std::string countMismatch(size_t Got, size_t Want) {
  return "got " + std::to_string(Got) + " outputs, want " +
         std::to_string(Want);
}

} // namespace

std::string compareBitwise(const std::vector<Tensor> &Got,
                           const std::vector<Tensor> &Want) {
  if (Got.size() != Want.size())
    return countMismatch(Got.size(), Want.size());
  for (size_t O = 0; O < Got.size(); ++O) {
    if (Got[O].shape() != Want[O].shape())
      return "output " + std::to_string(O) + " shape " +
             Got[O].shape().toString() + " != " + Want[O].shape().toString();
    for (int64_t I = 0; I < Got[O].numElements(); ++I) {
      float A = Got[O].at(I), B = Want[O].at(I);
      if (std::memcmp(&A, &B, sizeof(float)) != 0)
        return where(O, I) + ": " + std::to_string(A) + " is not bit-identical to " +
               std::to_string(B);
    }
  }
  return "";
}

std::string compareBytes(const std::string &Got, const std::string &Want) {
  if (Got.size() != Want.size())
    return "artifact sizes differ: " + std::to_string(Got.size()) + " vs " +
           std::to_string(Want.size());
  for (size_t I = 0; I < Got.size(); ++I)
    if (Got[I] != Want[I])
      return "artifacts differ at byte " + std::to_string(I);
  return "";
}

std::string compareToFloat64(const Tensor &Got, const std::vector<double> &Want,
                             double Rel, double Abs) {
  if (Got.numElements() != static_cast<int64_t>(Want.size()))
    return "got " + std::to_string(Got.numElements()) + " values, want " +
           std::to_string(Want.size());
  for (size_t I = 0; I < Want.size(); ++I) {
    double A = Got.at(static_cast<int64_t>(I));
    if (!(std::fabs(A - Want[I]) <= Abs + Rel * std::fabs(Want[I])))
      return "element " + std::to_string(I) + ": " + std::to_string(A) +
             " vs float64 " + std::to_string(Want[I]);
  }
  return "";
}

//===----------------------------------------------------------------------===//
// The serving MLP
//===----------------------------------------------------------------------===//

MlpWeights makeMlpWeights(uint64_t Seed) {
  Rng R(Seed);
  MlpWeights W;
  const int64_t Widths[] = {256, 1024, 1024, 64};
  for (int L = 0; L < 3; ++L) {
    MlpWeights::Layer Layer;
    Layer.In = Widths[L];
    Layer.Out = Widths[L + 1];
    float Scale = 1.0f / std::sqrt(static_cast<float>(Layer.In));
    Layer.W.resize(static_cast<size_t>(Layer.Out * Layer.In));
    Layer.Bias.resize(static_cast<size_t>(Layer.Out));
    for (float &V : Layer.W)
      V = R.nextFloatInRange(-Scale, Scale);
    for (float &V : Layer.Bias)
      V = R.nextFloatInRange(-Scale, Scale);
    W.Layers.push_back(std::move(Layer));
  }
  return W;
}

static Tensor tensorOf(const std::vector<float> &Values, Shape S) {
  Tensor T(std::move(S));
  std::memcpy(T.data(), Values.data(), Values.size() * sizeof(float));
  return T;
}

Graph buildServingMlp(const MlpWeights &W, int64_t Batch) {
  GraphBuilder B;
  const int64_t In0 = W.Layers.front().In;
  NodeId X = B.input(Shape({Batch, In0}), "features");
  NodeId H = B.transpose(X, {1, 0}); // {In, Batch}: one column per request.
  for (size_t L = 0; L < W.Layers.size(); ++L) {
    const MlpWeights::Layer &Layer = W.Layers[L];
    NodeId Wt = B.graph().addConstant(
        tensorOf(Layer.W, Shape({Layer.Out, Layer.In})));
    NodeId Bias =
        B.graph().addConstant(tensorOf(Layer.Bias, Shape({Layer.Out, 1})));
    H = B.add(B.binary(OpKind::MatMul, Wt, H), Bias);
    if (L + 1 < W.Layers.size())
      H = B.relu(H);
  }
  B.markOutput(B.softmax(B.transpose(H, {1, 0}), -1));
  return B.take();
}

std::vector<double> mlpReference(const MlpWeights &W, const float *Row) {
  std::vector<double> X(Row, Row + W.Layers.front().In);
  for (size_t L = 0; L < W.Layers.size(); ++L) {
    const MlpWeights::Layer &Layer = W.Layers[L];
    std::vector<double> Y(static_cast<size_t>(Layer.Out));
    for (int64_t O = 0; O < Layer.Out; ++O) {
      double Acc = Layer.Bias[static_cast<size_t>(O)];
      const float *WRow = Layer.W.data() + O * Layer.In;
      for (int64_t I = 0; I < Layer.In; ++I)
        Acc += static_cast<double>(WRow[I]) * X[static_cast<size_t>(I)];
      Y[static_cast<size_t>(O)] =
          L + 1 < W.Layers.size() ? std::max(Acc, 0.0) : Acc;
    }
    X = std::move(Y);
  }
  double Max = X[0];
  for (double V : X)
    Max = std::max(Max, V);
  double Sum = 0;
  for (double &V : X) {
    V = std::exp(V - Max);
    Sum += V;
  }
  for (double &V : X)
    V /= Sum;
  return X;
}

} // namespace perfbench
