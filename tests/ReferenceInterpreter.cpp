//===- tests/ReferenceInterpreter.cpp - Op-by-op reference oracle ---------------===//

#include "ReferenceInterpreter.h"

#include "ops/Kernels.h"
#include "support/Error.h"

using namespace dnnfusion;

namespace {

std::vector<int64_t> intsOr(const AttrMap &Attrs, const char *Name,
                            size_t Count, int64_t Default) {
  std::vector<int64_t> V = Attrs.getInts(Name);
  if (V.empty())
    V.assign(Count, Default);
  return V;
}

Shape leadingDims(const Shape &S, int Drop) {
  return Shape(std::vector<int64_t>(S.dims().begin(), S.dims().end() - Drop));
}

/// Row-major strides of \p In right-aligned under \p Out, with stride 0
/// along every broadcast (missing or size-1) dimension.
std::vector<int64_t> broadcastStridesOf(const Shape &In, const Shape &Out) {
  std::vector<int64_t> Strides(static_cast<size_t>(Out.rank()), 0);
  int64_t Stride = 1;
  for (int D = In.rank() - 1; D >= 0; --D) {
    int OutD = D + Out.rank() - In.rank();
    if (In.dim(D) != 1)
      Strides[static_cast<size_t>(OutD)] = Stride;
    Stride *= In.dim(D);
  }
  return Strides;
}

int64_t offsetOf(const std::vector<int64_t> &Coords,
                 const std::vector<int64_t> &Strides) {
  int64_t Off = 0;
  for (size_t D = 0; D < Coords.size(); ++D)
    Off += Coords[D] * Strides[D];
  return Off;
}

/// C[b] = A[b] x B[b] over broadcast batch dimensions.
void referenceMatMul(const Tensor &A, const Tensor &B, Tensor &Out) {
  const Shape &OS = Out.shape();
  int64_t M = OS.dim(OS.rank() - 2), N = OS.dim(OS.rank() - 1);
  int64_t K = A.shape().dim(A.shape().rank() - 1);
  Shape Batch = leadingDims(OS, 2);
  std::vector<int64_t> SA = broadcastStridesOf(leadingDims(A.shape(), 2), Batch);
  std::vector<int64_t> SB = broadcastStridesOf(leadingDims(B.shape(), 2), Batch);
  std::vector<int64_t> Coords;
  for (int64_t Bi = 0; Bi < Batch.numElements(); ++Bi) {
    Batch.unflatten(Bi, Coords);
    const float *Am = A.data() + offsetOf(Coords, SA) * M * K;
    const float *Bm = B.data() + offsetOf(Coords, SB) * K * N;
    float *Cm = Out.data() + Bi * M * N;
    for (int64_t I = 0; I < M; ++I)
      for (int64_t J = 0; J < N; ++J) {
        float Acc = 0.0f;
        for (int64_t Kk = 0; Kk < K; ++Kk)
          Acc += Am[I * K + Kk] * Bm[Kk * N + J];
        Cm[I * N + J] = Acc;
      }
  }
}

/// C = op(A) x op(B) [+ bias broadcast to [M, N]].
void referenceGemm(const AttrMap &Attrs,
                   const std::vector<const Tensor *> &Inputs, Tensor &Out) {
  const Tensor &A = *Inputs[0], &B = *Inputs[1];
  bool TA = Attrs.getInt("transA", 0) != 0;
  bool TB = Attrs.getInt("transB", 0) != 0;
  int64_t M = Out.shape().dim(0), N = Out.shape().dim(1);
  int64_t K = TA ? A.shape().dim(0) : A.shape().dim(1);
  const Tensor *Bias = Inputs.size() == 3 ? Inputs[2] : nullptr;
  std::vector<int64_t> SBias;
  if (Bias)
    SBias = broadcastStridesOf(Bias->shape(), Out.shape());
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      float Acc = 0.0f;
      for (int64_t Kk = 0; Kk < K; ++Kk)
        Acc += (TA ? A.at(Kk * M + I) : A.at(I * K + Kk)) *
               (TB ? B.at(J * K + Kk) : B.at(Kk * N + J));
      if (Bias)
        Acc += Bias->at(offsetOf({I, J}, SBias));
      Out.at(I * N + J) = Acc;
    }
}

/// Grouped 1/2/3-D convolution with strides, symmetric pads and
/// dilations.
void referenceConv(const AttrMap &Attrs,
                   const std::vector<const Tensor *> &Inputs, Tensor &Out) {
  const Tensor &X = *Inputs[0], &W = *Inputs[1];
  const Tensor *Bias = Inputs.size() == 3 ? Inputs[2] : nullptr;
  int Sp = X.shape().rank() - 2;
  size_t USp = static_cast<size_t>(Sp);
  int64_t N = X.shape().dim(0), C = X.shape().dim(1);
  int64_t F = W.shape().dim(0), Cg = W.shape().dim(1);
  int64_t Fg = F / Attrs.getInt("group", 1);
  std::vector<int64_t> S = intsOr(Attrs, "strides", USp, 1);
  std::vector<int64_t> P = intsOr(Attrs, "pads", USp, 0);
  std::vector<int64_t> D = intsOr(Attrs, "dilations", USp, 1);
  Shape InSp(std::vector<int64_t>(X.shape().dims().begin() + 2,
                                  X.shape().dims().end()));
  Shape KSp(std::vector<int64_t>(W.shape().dims().begin() + 2,
                                 W.shape().dims().end()));
  Shape OutSp(std::vector<int64_t>(Out.shape().dims().begin() + 2,
                                   Out.shape().dims().end()));
  int64_t KernelN = KSp.numElements();
  // Dilated offset of every kernel position along every spatial dim.
  std::vector<int64_t> KOff(static_cast<size_t>(KernelN) * USp), OC, KC;
  for (int64_t Kk = 0; Kk < KernelN; ++Kk) {
    KSp.unflatten(Kk, KC);
    for (size_t Dd = 0; Dd < USp; ++Dd)
      KOff[static_cast<size_t>(Kk) * USp + Dd] = KC[Dd] * D[Dd];
  }
  for (int64_t Ni = 0; Ni < N; ++Ni)
    for (int64_t Fi = 0; Fi < F; ++Fi) {
      int64_t CBase = (Fi / Fg) * Cg;
      for (int64_t O = 0; O < OutSp.numElements(); ++O) {
        OutSp.unflatten(O, OC);
        float Acc = Bias ? Bias->at(Fi) : 0.0f;
        for (int64_t Ci = 0; Ci < Cg; ++Ci) {
          const float *Xc =
              X.data() + (Ni * C + CBase + Ci) * InSp.numElements();
          const float *Wc = W.data() + (Fi * Cg + Ci) * KernelN;
          for (int64_t Kk = 0; Kk < KernelN; ++Kk) {
            const int64_t *Off = &KOff[static_cast<size_t>(Kk) * USp];
            int64_t Flat = 0;
            bool InBounds = true;
            for (size_t Dd = 0; Dd < USp && InBounds; ++Dd) {
              int64_t In = OC[Dd] * S[Dd] - P[Dd] + Off[Dd];
              InBounds = In >= 0 && In < InSp.dim(static_cast<int>(Dd));
              Flat = Flat * InSp.dim(static_cast<int>(Dd)) + In;
            }
            if (InBounds)
              Acc += Xc[Flat] * Wc[Kk];
          }
        }
        Out.at((Ni * F + Fi) * OutSp.numElements() + O) = Acc;
      }
    }
}

/// 2-D transposed convolution, written as a gather per output element.
void referenceConvTranspose(const AttrMap &Attrs,
                            const std::vector<const Tensor *> &Inputs,
                            Tensor &Out) {
  const Tensor &X = *Inputs[0], &W = *Inputs[1];
  const Tensor *Bias = Inputs.size() == 3 ? Inputs[2] : nullptr;
  int64_t N = X.shape().dim(0), C = X.shape().dim(1);
  int64_t IH = X.shape().dim(2), IW = X.shape().dim(3);
  int64_t F = W.shape().dim(1), KH = W.shape().dim(2), KW = W.shape().dim(3);
  int64_t OH = Out.shape().dim(2), OW = Out.shape().dim(3);
  std::vector<int64_t> S = intsOr(Attrs, "strides", 2, 1);
  std::vector<int64_t> P = intsOr(Attrs, "pads", 2, 0);
  for (int64_t Ni = 0; Ni < N; ++Ni)
    for (int64_t Fi = 0; Fi < F; ++Fi)
      for (int64_t Oh = 0; Oh < OH; ++Oh)
        for (int64_t Ow = 0; Ow < OW; ++Ow) {
          float Acc = Bias ? Bias->at(Fi) : 0.0f;
          for (int64_t Ci = 0; Ci < C; ++Ci)
            for (int64_t Ih = 0; Ih < IH; ++Ih) {
              int64_t Kh = Oh + P[0] - Ih * S[0];
              if (Kh < 0 || Kh >= KH)
                continue;
              for (int64_t Iw = 0; Iw < IW; ++Iw) {
                int64_t Kw = Ow + P[1] - Iw * S[1];
                if (Kw < 0 || Kw >= KW)
                  continue;
                Acc += X.at(((Ni * C + Ci) * IH + Ih) * IW + Iw) *
                       W.at(((Ci * F + Fi) * KH + Kh) * KW + Kw);
              }
            }
          Out.at(((Ni * F + Fi) * OH + Oh) * OW + Ow) = Acc;
        }
}

} // namespace

namespace dnnfusion {
namespace testutil {

void referenceOp(OpKind Kind, const AttrMap &Attrs,
                 const std::vector<const Tensor *> &Inputs, Tensor &Out) {
  switch (Kind) {
  case OpKind::MatMul:
    return referenceMatMul(*Inputs[0], *Inputs[1], Out);
  case OpKind::Gemm:
    return referenceGemm(Attrs, Inputs, Out);
  case OpKind::Conv:
    return referenceConv(Attrs, Inputs, Out);
  case OpKind::ConvTranspose:
    return referenceConvTranspose(Attrs, Inputs, Out);
  default:
    // Elementwise, data-movement and pool/reduce families only: none of
    // them packs, dispatches through the registry, or runs a tape.
    return runRefKernel(Kind, Attrs, Inputs, Out);
  }
}

std::vector<Tensor> interpretNodes(const Graph &G,
                                   const std::vector<Tensor> &Inputs) {
  std::vector<Tensor> Values(static_cast<size_t>(G.numNodes()));
  size_t NextInput = 0;
  for (int Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    if (N.Dead || N.Kind != OpKind::Input)
      continue;
    DNNF_CHECK(NextInput < Inputs.size(), "too few inputs for the graph");
    DNNF_CHECK(Inputs[NextInput].shape() == N.OutShape,
               "input %zu has the wrong shape", NextInput);
    Values[static_cast<size_t>(Id)] = Inputs[NextInput++];
  }
  DNNF_CHECK(NextInput == Inputs.size(), "too many inputs for the graph");

  for (NodeId Id : G.topologicalOrder()) {
    const Node &N = G.node(Id);
    if (N.Kind == OpKind::Input)
      continue;
    if (N.Kind == OpKind::Constant) {
      Values[static_cast<size_t>(Id)] = N.ConstValue;
      continue;
    }
    std::vector<const Tensor *> Args;
    for (NodeId In : N.Inputs)
      Args.push_back(&Values[static_cast<size_t>(In)]);
    Tensor Out(N.OutShape);
    referenceOp(N.Kind, N.Attrs, Args, Out);
    Values[static_cast<size_t>(Id)] = std::move(Out);
  }
  return Values;
}

std::vector<Tensor> interpretGraph(const Graph &G,
                                   const std::vector<Tensor> &Inputs) {
  std::vector<Tensor> Values = interpretNodes(G, Inputs);
  std::vector<Tensor> Outputs;
  for (NodeId Id : G.outputs())
    Outputs.push_back(Values[static_cast<size_t>(Id)]);
  return Outputs;
}

} // namespace testutil
} // namespace dnnfusion
