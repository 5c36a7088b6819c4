//===- perfbench/src/Attribution.h - Block time by step kind ------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-layer attribution of traced executions: each fusion block is
/// classed by the steps it compiled to, its ExecutionStats::PerBlockMs is
/// summed per class, and the executor's share is the traced wall time
/// minus the summed block time. Used by every workload whose traced run
/// executes models through ExecutionContext::tryRun with per-block timing.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ATTRIBUTION_H
#define PERFBENCH_ATTRIBUTION_H

#include "Harness.h"

#include <vector>

namespace perfbench {

/// What a block's compiled steps make it: a FusedAttention or
/// FusedLayerNorm step first, then a MatMul/Gemm/Conv kernel (gemm), then
/// any other kernel (other), and otherwise expression tapes only (eltwise).
enum class BlockClass { Gemm, Attention, LayerNorm, Eltwise, Other, Count };

/// The class of every block of \p M, in block order.
std::vector<BlockClass> classifyBlocks(const dnnfusion::CompiledModel &M);

/// Sums over traced executions.
class BlockAttribution {
public:
  /// Adds one execution of \p M (classes from classifyBlocks) that took
  /// \p WallMs; \p Stats must carry PerBlockMs. Engine counters are kept
  /// from executions with \p CountEngine set (one pass over the models).
  void add(const dnnfusion::CompiledModel &M,
           const std::vector<BlockClass> &Classes,
           const dnnfusion::ExecutionStats &Stats, double WallMs,
           bool CountEngine);

  /// Files the ops.* / runtime.* / trace.latency_ms metrics, means per
  /// execution, with the schedule shape of \p Models, and logs the
  /// additivity of blocks + dispatch against the traced wall time.
  void report(Result &R,
              const std::vector<const dnnfusion::CompiledModel *> &Models) const;

private:
  int64_t Runs = 0;
  double Wall = 0;
  double ClassMs[static_cast<int>(BlockClass::Count)] = {};
  double GemmFlops = 0;
  double MainBytes = 0, ScratchBytes = 0;
  dnnfusion::EngineCounters Engine;
};

} // namespace perfbench

#endif // PERFBENCH_ATTRIBUTION_H
