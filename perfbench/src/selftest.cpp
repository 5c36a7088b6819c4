//===- perfbench/src/selftest.cpp - The benchmark's own test --------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
// Proves every output check the workloads apply is live: each passes on
// real outputs and fails once a single output element (or artifact byte)
// is perturbed — at the first, a middle and the last position, by the
// smallest step that must be caught. Exit code 0 iff every case behaves.
//
//   perfbench_selftest
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Harness.h"

#include "models/ModelZoo.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>

using namespace dnnfusion;
using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const std::string &What) {
  std::printf("%s %s\n", Ok ? "PASS" : "FAIL", What.c_str());
  Failures += Ok ? 0 : 1;
}

/// A deep copy (Tensor copies share storage).
std::vector<Tensor> deepCopy(const std::vector<Tensor> &Ts) {
  std::vector<Tensor> Out;
  for (const Tensor &T : Ts) {
    Tensor C(T.shape(), T.dtype());
    std::memcpy(C.data(), T.data(), T.byteSize());
    Out.push_back(std::move(C));
  }
  return Out;
}

/// Element positions to perturb in output 0: first, middle, last.
std::vector<int64_t> positions(const Tensor &T) {
  return {0, T.numElements() / 2, T.numElements() - 1};
}

/// Runs \p Check on \p Good (must pass) and on copies of \p Good with one
/// element of output 0 changed by \p Perturb (each must fail).
void checkCatchesPerturbation(
    const std::string &Name, const std::vector<Tensor> &Good,
    const std::function<std::string(const std::vector<Tensor> &)> &Check,
    const std::function<float(float)> &Perturb) {
  std::string Clean = Check(Good);
  expect(Clean.empty(), Name + " passes on real outputs" +
                            (Clean.empty() ? "" : " (" + Clean + ")"));
  for (int64_t Pos : positions(Good[0])) {
    std::vector<Tensor> Bad = deepCopy(Good);
    Bad[0].at(Pos) = Perturb(Bad[0].at(Pos));
    expect(!Check(Bad).empty(), Name + " catches element " +
                                    std::to_string(Pos) + " perturbed");
  }
}

} // namespace

int main() {
  // Real outputs: TinyBERT through the default pipeline, one seeded input.
  Graph G = buildModel("TinyBERT");
  CompiledModel M = cantFail(compileModel(G));
  std::string Artifact = serializeCompiledModel(M);
  InferenceSession Session(std::move(M));
  std::vector<Tensor> In = seededInputs(Session.signature(), 7);
  std::vector<Tensor> Out = cantFail(Session.run(In));

  // compile + serve: bit identity (cache hit vs cold; response vs batch-1).
  std::vector<Tensor> Again = cantFail(Session.run(In));
  checkCatchesPerturbation(
      "compareBitwise", Out,
      [&](const std::vector<Tensor> &Got) { return compareBitwise(Got, Again); },
      [](float V) {
        return std::nextafter(V, std::numeric_limits<float>::infinity());
      });

  // compile: a second cold compile serializes identically; a flipped byte
  // is caught.
  std::string Second = serializeCompiledModel(cantFail(compileModel(G)));
  expect(compareBytes(Second, Artifact).empty(),
         "compareBytes passes on two cold compiles");
  for (size_t Pos : {size_t(0), Artifact.size() / 2, Artifact.size() - 1}) {
    std::string Bad = Second;
    Bad[Pos] = static_cast<char>(Bad[Pos] ^ 1);
    expect(!compareBytes(Bad, Artifact).empty(),
           "compareBytes catches byte " + std::to_string(Pos) + " flipped");
  }

  // serve: the MLP against its float64 evaluation.
  MlpWeights W = makeMlpWeights(42);
  InferenceSession Mlp(cantFail(compileModel(buildServingMlp(W, 1))));
  std::vector<Tensor> MlpIn = seededInputs(Mlp.signature(), 11);
  std::vector<Tensor> MlpOut = cantFail(Mlp.run(MlpIn));
  std::vector<double> Want = mlpReference(W, MlpIn[0].data());
  checkCatchesPerturbation(
      "compareToFloat64", MlpOut,
      [&](const std::vector<Tensor> &Got) {
        return compareToFloat64(Got[0], Want, MlpRelTol, MlpAbsTol);
      },
      [](float V) {
        return V + static_cast<float>(2.0 * (MlpAbsTol + MlpRelTol * std::fabs(V)));
      });

  std::printf("%s: %d failing case(s)\n", Failures ? "FAILED" : "OK", Failures);
  return Failures ? 1 : 0;
}
