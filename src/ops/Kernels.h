//===- ops/Kernels.h - Reference operator kernels ----------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The materializing reference kernels: one kernel invocation per operator,
/// each reading whole input tensors and writing a whole output tensor.
/// This is the substrate the no-fusion baseline (OurB) executes on; the
/// elementwise, data-movement and pool/reduce families also back the test
/// suite's op-by-op reference interpreter.
///
/// The compute-intensive Many-to-Many kernels (MatMul/Gemm/Conv) run the
/// packed register-blocked engine (KernelsGemmPacked.h) wherever a
/// per-shape profitability gate says it wins, and plain row-walk loops for
/// the narrow or tiny shapes it declines. Both produce bit-identical
/// results (same per-element k-order accumulation), so the gate is purely
/// a performance decision.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_OPS_KERNELS_H
#define DNNFUSION_OPS_KERNELS_H

#include "ops/Attributes.h"
#include "ops/OpKind.h"
#include "tensor/Tensor.h"

#include <vector>

namespace dnnfusion {

struct PackedOperand;

/// Tunable parameters of the compute-intensive kernels; the auto-tuner
/// (Figure 9b) searches the packed engine's blocking genes.
struct KernelConfig {
  /// Micro-kernel row-block height (accumulator tile rows, 1..8).
  int PackMR = 8;
  /// B-panel width (accumulator tile columns; clamped to 4/8/16/32). Wide
  /// panels give the inner loop a long fixed trip count that vectorizes
  /// well; the profitability gate declines shapes where tail padding
  /// would waste too much of the panel.
  int PackNR = 32;

  /// Forced kernel-registry dispatch tier: -1 (ForceKernelAuto) resolves
  /// automatically (env hook, then the highest bit-exact tier the host
  /// supports); 0 = scalar, 1 = avx2, 2 = avx2fma (see KernelRegistry.h).
  /// A forced tier the host cannot execute clamps down, never up. Like
  /// every engine knob this is excluded from the CompilationCache key and
  /// never serialized — cached artifacts re-resolve on the loading host.
  int ForceKernelLevel = -1;
};

/// Execution-engine path counters: which implementation each fused-block
/// step and each Many-to-Many kernel call actually took, and whether the
/// packed path found its weights prepacked. Accumulated per block, reduced
/// deterministically into ExecutionStats, surfaced per request through
/// SessionMetrics.
struct EngineCounters {
  /// Expression steps evaluated by the compiled DFT program.
  int64_t ProgramSteps = 0;
  /// MatMul/Gemm/Conv calls taking the packed / the naive kernel.
  int64_t PackedKernelCalls = 0;
  int64_t DirectKernelCalls = 0;
  /// Packed calls that used a compile-time prepacked operand vs. packed at
  /// run time (into scratch).
  int64_t PrepackHits = 0;
  int64_t PrepackMisses = 0;
  /// Fused-attention / fused-layernorm steps executed (one per carved
  /// attention or layernorm subgraph per inference).
  int64_t FusedAttentionSteps = 0;
  int64_t FusedLayerNormSteps = 0;
  /// Registry-dispatched kernel invocations by resolved tier (packed
  /// GEMM/conv calls and fused-attention steps, counted at the level the
  /// registry actually selected after host-feature clamping) — the audit
  /// trail proving which tier a run executed.
  int64_t KernelScalarCalls = 0;
  int64_t KernelAvx2Calls = 0;
  int64_t KernelAvx2FmaCalls = 0;

  void add(const EngineCounters &O) {
    ProgramSteps += O.ProgramSteps;
    PackedKernelCalls += O.PackedKernelCalls;
    DirectKernelCalls += O.DirectKernelCalls;
    PrepackHits += O.PrepackHits;
    PrepackMisses += O.PrepackMisses;
    FusedAttentionSteps += O.FusedAttentionSteps;
    FusedLayerNormSteps += O.FusedLayerNormSteps;
    KernelScalarCalls += O.KernelScalarCalls;
    KernelAvx2Calls += O.KernelAvx2Calls;
    KernelAvx2FmaCalls += O.KernelAvx2FmaCalls;
  }
};

/// Optional per-call runtime resources for a kernel invocation. All fields
/// are advisory: a kernel missing its prepack or scratch falls back to
/// packing on the fly (heap), never to wrong results.
struct KernelRuntime {
  /// Prepacked weight operand for this call (the step's PrepackIndex
  /// resolved against the model's prepack store), or null.
  const PackedOperand *Prepacked = nullptr;
  /// Per-lane packing scratch (MemoryPlan::PackScratchBytes elements).
  float *PackScratch = nullptr;
  int64_t PackScratchElems = 0;
  /// Engine-path counters to increment, or null.
  EngineCounters *Counters = nullptr;
};

/// Executes \p Kind on \p Inputs, writing \p Out (pre-allocated with the
/// inferred shape). Aborts on malformed inputs; shapes are assumed checked
/// by the graph verifier.
void runRefKernel(OpKind Kind, const AttrMap &Attrs,
                  const std::vector<const Tensor *> &Inputs, Tensor &Out,
                  const KernelConfig &Config = KernelConfig(),
                  const KernelRuntime &Rt = KernelRuntime());

namespace detail {
// Family implementations (one translation unit each).
void runElementwiseKernel(OpKind Kind, const AttrMap &Attrs,
                          const std::vector<const Tensor *> &Inputs,
                          Tensor &Out);
void runDataMovementKernel(OpKind Kind, const AttrMap &Attrs,
                           const std::vector<const Tensor *> &Inputs,
                           Tensor &Out);
void runMatMulKernel(OpKind Kind, const AttrMap &Attrs,
                     const std::vector<const Tensor *> &Inputs, Tensor &Out,
                     const KernelConfig &Config,
                     const KernelRuntime &Rt = KernelRuntime());
void runConvKernel(OpKind Kind, const AttrMap &Attrs,
                   const std::vector<const Tensor *> &Inputs, Tensor &Out,
                   const KernelConfig &Config = KernelConfig(),
                   const KernelRuntime &Rt = KernelRuntime());
void runPoolReduceKernel(OpKind Kind, const AttrMap &Attrs,
                         const std::vector<const Tensor *> &Inputs,
                         Tensor &Out);

/// Per-family packing-scratch sizing (elements; 0 = naive path / direct).
int64_t matmulPackScratchElems(OpKind Kind, const AttrMap &Attrs,
                               const Shape &AShape, const Shape &BShape,
                               const Shape &OutShape,
                               const KernelConfig &Config);
int64_t convPackScratchElems(const AttrMap &Attrs, const Shape &XShape,
                             const Shape &WShape, const Shape &OutShape,
                             const KernelConfig &Config);

/// Packing-scratch elements a MatMul/Gemm/Conv step may need at run time
/// under \p Config (0 when the gate sends the call to the naive path or
/// its packed operand is known-constant — \p WeightIsConstant — and therefore
/// served by the prepack store). The memory planner sizes the per-lane
/// pack scratch from the max over all steps.
int64_t packScratchElemsForStep(OpKind Kind, const AttrMap &Attrs,
                                const std::vector<Shape> &InputShapes,
                                const Shape &OutShape,
                                const KernelConfig &Config,
                                bool WeightIsConstant);
} // namespace detail

} // namespace dnnfusion

#endif // DNNFUSION_OPS_KERNELS_H
