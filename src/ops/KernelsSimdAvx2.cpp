//===- ops/KernelsSimdAvx2.cpp - AVX2 attention + eltwise kernels ---------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The AVX2 tier of the fused-attention inner loops and the eltwise tape
// ops. Compiled with -mavx2 -mfma -ffp-contract=off on x86-64 (see
// KernelsGemmPackedAvx2.cpp for the TU conventions); getters return null
// without __AVX2__.
//
// Everything here is bit-identical to the scalar kernels, by construction:
//
//  - The attention rows vectorize only loops whose lanes are independent
//    output elements (the score tile over keys j, the accumulator over
//    head dims d), each lane performing the same single-rounded mul/add
//    sequence in the same k-order as the scalar code. The order-sensitive
//    pieces — the running-max scan (NaN ordering, max associativity) and
//    the exp() calls — stay scalar, and the key tiling constant is shared
//    with the scalar kernel so the online-softmax rescale points match.
//  - The eltwise ops are pure lane-wise maps; comparisons are implemented
//    as cmp+blend to reproduce the exact ternary-select semantics of
//    evalScalarOp (including NaN and signed-zero behavior, where max/min
//    instructions would differ). Vector tails finish with the identical
//    scalar expression.
//
//===----------------------------------------------------------------------===//

#include "ops/KernelRegistry.h"
#include "ops/KernelsAttention.h"

#if defined(__AVX2__)

#include <cmath>
#include <immintrin.h>

namespace dnnfusion {
namespace {

//===----------------------------------------------------------------------===//
// Fused-attention rows
//===----------------------------------------------------------------------===//

void fusedAttentionRowsAvx2Impl(const AttentionRowArgs &Ar, int64_t RowBegin,
                                int64_t RowEnd) {
  const float *Q = Ar.Q;
  const float *Kt = Ar.Kt;
  const float *V = Ar.V;
  const float *Mask = Ar.Mask;
  float Scale = Ar.Scale;
  bool Causal = Ar.Causal;
  int64_t S = Ar.S;
  int64_t Dh = Ar.Dh;
  constexpr int64_t KeyTile = FusedAttentionKeyTile;

  alignas(32) float Scores[KeyTile];
  alignas(32) float Acc[FusedAttentionMaxHeadDim];
  for (int64_t Row = RowBegin; Row < RowEnd; ++Row) {
    int64_t B = Row / S;
    int64_t I = Row % S;
    const float *Qrow = Q + (B * S + I) * Dh;
    const float *KtBase = Kt + B * Dh * S;
    const float *Vbase = V + B * S * Dh;
    const float *MaskRow =
        Mask ? Mask + B * Ar.MaskBatchStride + I * S : nullptr;

    float M = -INFINITY;
    float L = 0.0f;
    for (int64_t D = 0; D < Dh; ++D)
      Acc[D] = 0.0f;

    int64_t Keys = Causal ? I + 1 : S;
    for (int64_t J0 = 0; J0 < Keys; J0 += KeyTile) {
      int64_t J1 = std::min(J0 + KeyTile, Keys);
      int64_t T = J1 - J0;

      for (int64_t J = 0; J < T; ++J)
        Scores[J] = 0.0f;
      // Score tile: lanes are distinct keys j; per key the products fold
      // in ascending d, mul then add — the scalar order exactly. The
      // vector body stays inside the tensor (loads end at KtRow[T - 1]).
      for (int64_t D = 0; D < Dh; ++D) {
        float Qv = Qrow[D];
        const float *KtRow = KtBase + D * S + J0;
        __m256 Qb = _mm256_set1_ps(Qv);
        int64_t J = 0;
        for (; J + 8 <= T; J += 8) {
          __m256 Sc = _mm256_load_ps(Scores + J);
          __m256 Kv = _mm256_loadu_ps(KtRow + J);
          _mm256_store_ps(Scores + J,
                          _mm256_add_ps(Sc, _mm256_mul_ps(Qb, Kv)));
        }
        for (; J < T; ++J)
          Scores[J] += Qv * KtRow[J];
      }
      // Scale/mask + running-max scan: scalar. The scan's left-to-right
      // order (and its NaN semantics) is part of the reference behavior.
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

      if (ChunkMax > M) {
        float Corr = std::exp(M - ChunkMax);
        M = ChunkMax;
        L *= Corr;
        __m256 Cb = _mm256_set1_ps(Corr);
        int64_t D = 0;
        for (; D + 8 <= Dh; D += 8)
          _mm256_store_ps(Acc + D,
                          _mm256_mul_ps(_mm256_load_ps(Acc + D), Cb));
        for (; D < Dh; ++D)
          Acc[D] *= Corr;
      }
      for (int64_t J = 0; J < T; ++J) {
        float P = std::exp(Scores[J] - M);
        L += P;
        const float *Vrow = Vbase + (J0 + J) * Dh;
        __m256 Pb = _mm256_set1_ps(P);
        int64_t D = 0;
        for (; D + 8 <= Dh; D += 8) {
          __m256 Av = _mm256_load_ps(Acc + D);
          __m256 Vv = _mm256_loadu_ps(Vrow + D);
          _mm256_store_ps(Acc + D,
                          _mm256_add_ps(Av, _mm256_mul_ps(Pb, Vv)));
        }
        for (; D < Dh; ++D)
          Acc[D] += P * Vrow[D];
      }
    }

    float *OutRow = Ar.Out + (B * S + I) * Dh;
    float Inv = 1.0f / L;
    __m256 Ib = _mm256_set1_ps(Inv);
    int64_t D = 0;
    for (; D + 8 <= Dh; D += 8)
      _mm256_storeu_ps(OutRow + D,
                       _mm256_mul_ps(_mm256_load_ps(Acc + D), Ib));
    for (; D < Dh; ++D)
      OutRow[D] = Acc[D] * Inv;
  }
}

//===----------------------------------------------------------------------===//
// Eltwise tape ops
//===----------------------------------------------------------------------===//

template <typename VecOp, typename ScalOp>
inline void mapUnary(const float *A, float *Out, int64_t Count, VecOp Vec,
                     ScalOp Scal) {
  int64_t I = 0;
  for (; I + 8 <= Count; I += 8)
    _mm256_storeu_ps(Out + I, Vec(_mm256_loadu_ps(A + I)));
  for (; I < Count; ++I)
    Out[I] = Scal(A[I]);
}

template <typename VecOp, typename ScalOp>
inline void mapBinary(const float *A, const float *B, float *Out,
                      int64_t Count, VecOp Vec, ScalOp Scal) {
  int64_t I = 0;
  for (; I + 8 <= Count; I += 8)
    _mm256_storeu_ps(Out + I,
                     Vec(_mm256_loadu_ps(A + I), _mm256_loadu_ps(B + I)));
  for (; I < Count; ++I)
    Out[I] = Scal(A[I], B[I]);
}

bool eltwiseChunkAvx2Impl(OpKind Kind, const ScalarParams &P,
                          const float *const *Args, int NumArgs, float *Out,
                          int64_t Count) {
  (void)NumArgs;
  const float *A = Args[0];
  const __m256 Zero = _mm256_setzero_ps();
  switch (Kind) {
  case OpKind::Add:
    mapBinary(A, Args[1], Out, Count,
              [](__m256 X, __m256 Y) { return _mm256_add_ps(X, Y); },
              [](float X, float Y) { return X + Y; });
    return true;
  case OpKind::Sub:
    mapBinary(A, Args[1], Out, Count,
              [](__m256 X, __m256 Y) { return _mm256_sub_ps(X, Y); },
              [](float X, float Y) { return X - Y; });
    return true;
  case OpKind::Mul:
    mapBinary(A, Args[1], Out, Count,
              [](__m256 X, __m256 Y) { return _mm256_mul_ps(X, Y); },
              [](float X, float Y) { return X * Y; });
    return true;
  case OpKind::Div:
    mapBinary(A, Args[1], Out, Count,
              [](__m256 X, __m256 Y) { return _mm256_div_ps(X, Y); },
              [](float X, float Y) { return X / Y; });
    return true;
  case OpKind::Maximum:
    // cmp+blend, not maxps: evalScalarOp's `a > b ? a : b` must survive
    // NaN and signed-zero inputs unchanged.
    mapBinary(A, Args[1], Out, Count,
              [](__m256 X, __m256 Y) {
                return _mm256_blendv_ps(Y, X,
                                        _mm256_cmp_ps(X, Y, _CMP_GT_OQ));
              },
              [](float X, float Y) { return X > Y ? X : Y; });
    return true;
  case OpKind::Minimum:
    mapBinary(A, Args[1], Out, Count,
              [](__m256 X, __m256 Y) {
                return _mm256_blendv_ps(Y, X,
                                        _mm256_cmp_ps(X, Y, _CMP_LT_OQ));
              },
              [](float X, float Y) { return X < Y ? X : Y; });
    return true;
  case OpKind::Relu:
    mapUnary(A, Out, Count,
             [Zero](__m256 X) {
               return _mm256_blendv_ps(Zero, X,
                                       _mm256_cmp_ps(X, Zero, _CMP_GT_OQ));
             },
             [](float X) { return X > 0.0f ? X : 0.0f; });
    return true;
  case OpKind::LeakyRelu: {
    float Alpha = P.A;
    __m256 Ab = _mm256_set1_ps(Alpha);
    mapUnary(A, Out, Count,
             [Zero, Ab](__m256 X) {
               return _mm256_blendv_ps(_mm256_mul_ps(Ab, X), X,
                                       _mm256_cmp_ps(X, Zero, _CMP_GE_OQ));
             },
             [Alpha](float X) { return X >= 0.0f ? X : Alpha * X; });
    return true;
  }
  case OpKind::Square:
    mapUnary(A, Out, Count,
             [](__m256 X) { return _mm256_mul_ps(X, X); },
             [](float X) { return X * X; });
    return true;
  case OpKind::Reciprocal: {
    // div, not rcpps: the approximation differs from 1.0f / x.
    __m256 One = _mm256_set1_ps(1.0f);
    mapUnary(A, Out, Count,
             [One](__m256 X) { return _mm256_div_ps(One, X); },
             [](float X) { return 1.0f / X; });
    return true;
  }
  case OpKind::Neg: {
    // Sign-bit xor, not 0 - x: negation of +0.0 must produce -0.0.
    __m256 SignBit = _mm256_set1_ps(-0.0f);
    mapUnary(A, Out, Count,
             [SignBit](__m256 X) { return _mm256_xor_ps(X, SignBit); },
             [](float X) { return -X; });
    return true;
  }
  case OpKind::Identity:
    mapUnary(A, Out, Count, [](__m256 X) { return X; },
             [](float X) { return X; });
    return true;
  default:
    return false; // Caller falls back to the scalar evalElementwiseChunk.
  }
}

} // namespace

FusedAttentionRowsFn simd::fusedAttentionRowsAvx2() {
  return &fusedAttentionRowsAvx2Impl;
}

EltwiseChunkFn simd::eltwiseChunkAvx2() { return &eltwiseChunkAvx2Impl; }

} // namespace dnnfusion

#else // !defined(__AVX2__)

namespace dnnfusion {

FusedAttentionRowsFn simd::fusedAttentionRowsAvx2() { return nullptr; }
EltwiseChunkFn simd::eltwiseChunkAvx2() { return nullptr; }

} // namespace dnnfusion

#endif
