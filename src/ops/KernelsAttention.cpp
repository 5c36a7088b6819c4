//===- ops/KernelsAttention.cpp - Fused attention / layernorm -------------------===//

#include "ops/KernelsAttention.h"

#include "ops/Kernels.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <cmath>

using namespace dnnfusion;

void dnnfusion::fusedAttentionRowsScalar(const AttentionRowArgs &Ar,
                                         int64_t RowBegin, int64_t RowEnd) {
  const float *Q = Ar.Q;
  const float *Kt = Ar.Kt;
  const float *V = Ar.V;
  const float *Mask = Ar.Mask;
  float Scale = Ar.Scale;
  bool Causal = Ar.Causal;
  int64_t S = Ar.S;
  int64_t Dh = Ar.Dh;
  constexpr int64_t KeyTile = FusedAttentionKeyTile;

  float Scores[KeyTile];
  float Acc[FusedAttentionMaxHeadDim];
  for (int64_t Row = RowBegin; Row < RowEnd; ++Row) {
    int64_t B = Row / S;
    int64_t I = Row % S;
    const float *Qrow = Q + (B * S + I) * Dh;
    const float *KtBase = Kt + B * Dh * S;
    const float *Vbase = V + B * S * Dh;
    const float *MaskRow =
        Mask ? Mask + B * Ar.MaskBatchStride + I * S : nullptr;

    float M = -INFINITY; // Running max.
    float L = 0.0f;      // Running sum of exp(score - M).
    for (int64_t D = 0; D < Dh; ++D)
      Acc[D] = 0.0f;

    int64_t Keys = Causal ? I + 1 : S;
    for (int64_t J0 = 0; J0 < Keys; J0 += KeyTile) {
      int64_t J1 = std::min(J0 + KeyTile, Keys);
      int64_t T = J1 - J0;

      // Score tile: a Dh-step broadcast-FMA over the contiguous key
      // columns (Kt row d holds key j's d-th component at column j).
      for (int64_t J = 0; J < T; ++J)
        Scores[J] = 0.0f;
      for (int64_t D = 0; D < Dh; ++D) {
        float Qv = Qrow[D];
        const float *KtRow = KtBase + D * S + J0;
        for (int64_t J = 0; J < T; ++J)
          Scores[J] += Qv * KtRow[J];
      }
      float ChunkMax = -INFINITY;
      if (MaskRow && !Causal) {
        for (int64_t J = 0; J < T; ++J) {
          Scores[J] = Scores[J] * Scale + MaskRow[J0 + J];
          ChunkMax = std::max(ChunkMax, Scores[J]);
        }
      } else {
        for (int64_t J = 0; J < T; ++J) {
          Scores[J] *= Scale;
          ChunkMax = std::max(ChunkMax, Scores[J]);
        }
      }

      // Online-softmax update: rescale the running state to the new
      // max, then fold the tile in.
      if (ChunkMax > M) {
        float Corr = std::exp(M - ChunkMax);
        M = ChunkMax;
        L *= Corr;
        for (int64_t D = 0; D < Dh; ++D)
          Acc[D] *= Corr;
      }
      for (int64_t J = 0; J < T; ++J) {
        float P = std::exp(Scores[J] - M);
        L += P;
        const float *Vrow = Vbase + (J0 + J) * Dh;
        for (int64_t D = 0; D < Dh; ++D)
          Acc[D] += P * Vrow[D];
      }
    }

    float *OutRow = Ar.Out + (B * S + I) * Dh;
    // Keys >= 1 always (causal rows see at least key I), so L > 0.
    float Inv = 1.0f / L;
    for (int64_t D = 0; D < Dh; ++D)
      OutRow[D] = Acc[D] * Inv;
  }
}

void dnnfusion::runFusedAttention(const float *Q, const float *Kt,
                                  const float *V, const float *Mask,
                                  int64_t MaskBatchStride, float Scale,
                                  bool Causal, float *Out, int64_t Batches,
                                  int64_t S, int64_t Dh,
                                  EngineCounters *Counters, KernelLevel Level) {
  DNNF_CHECK(Dh >= 1 && Dh <= FusedAttentionMaxHeadDim,
             "fused attention head dim %lld outside [1, %lld]",
             static_cast<long long>(Dh),
             static_cast<long long>(FusedAttentionMaxHeadDim));
  if (Counters)
    ++Counters->FusedAttentionSteps;

  AttentionRowArgs Ar;
  Ar.Q = Q;
  Ar.Kt = Kt;
  Ar.V = V;
  Ar.Mask = Mask;
  Ar.MaskBatchStride = MaskBatchStride;
  Ar.Scale = Scale;
  Ar.Causal = Causal;
  Ar.Out = Out;
  Ar.S = S;
  Ar.Dh = Dh;

  FusedAttentionRowsFn Rows = resolveFusedAttentionRows(Level);
  countKernelDispatch(Counters,
                      Rows ? KernelLevel::Avx2 : KernelLevel::Scalar);
  if (!Rows)
    Rows = &fusedAttentionRowsScalar;
  parallelFor(Batches * S,
              [&](int64_t Begin, int64_t End) { Rows(Ar, Begin, End); });
}

void dnnfusion::runFusedLayerNorm(const float *X, const float *Gamma,
                                  const float *Beta, float Eps, float *Out,
                                  int64_t Rows, int64_t H,
                                  EngineCounters *Counters) {
  DNNF_CHECK(H >= 1, "layernorm over empty rows");
  if (Counters)
    ++Counters->FusedLayerNormSteps;
  float N = static_cast<float>(H);
  parallelFor(Rows, [&](int64_t Begin, int64_t End) {
    for (int64_t R = Begin; R < End; ++R) {
      const float *Row = X + R * H;
      float *OutRow = Out + R * H;
      // Same ascending-index sums and divide-by-N as the graph's
      // ReduceMean, same per-element (x-mean)/std*gamma+beta order as the
      // decomposed expression — bit-identical to the unfused subgraph.
      float Sum = 0.0f;
      for (int64_t J = 0; J < H; ++J)
        Sum += Row[J];
      float Mean = Sum / N;
      float SqSum = 0.0f;
      for (int64_t J = 0; J < H; ++J) {
        float D = Row[J] - Mean;
        SqSum += D * D;
      }
      float Var = SqSum / N;
      float Std = std::sqrt(Var + Eps);
      for (int64_t J = 0; J < H; ++J)
        OutRow[J] = (Row[J] - Mean) / Std * Gamma[J] + Beta[J];
    }
  });
}
