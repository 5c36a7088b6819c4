//===- perfbench/src/Attribution.cpp - Block time by step kind ------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Attribution.h"

#include <algorithm>
#include <cstdio>

using namespace dnnfusion;

namespace perfbench {

std::vector<BlockClass> classifyBlocks(const CompiledModel &M) {
  std::vector<BlockClass> Classes;
  for (const CompiledBlock &B : M.Blocks) {
    BlockClass C = BlockClass::Eltwise;
    for (const CompiledStep &S : B.Steps) {
      if (S.K == CompiledStep::Kind::FusedAttention) {
        C = BlockClass::Attention;
        break;
      }
      if (S.K == CompiledStep::Kind::FusedLayerNorm) {
        C = BlockClass::LayerNorm;
        break;
      }
      if (S.K == CompiledStep::Kind::RefKernel) {
        if (S.Op == OpKind::MatMul || S.Op == OpKind::Gemm ||
            S.Op == OpKind::Conv)
          C = BlockClass::Gemm;
        else if (C != BlockClass::Gemm)
          C = BlockClass::Other;
      }
    }
    Classes.push_back(C);
  }
  return Classes;
}

void BlockAttribution::add(const CompiledModel &M,
                           const std::vector<BlockClass> &Classes,
                           const ExecutionStats &Stats, double WallMs,
                           bool CountEngine) {
  ++Runs;
  Wall += WallMs;
  for (size_t BI = 0; BI < Stats.PerBlockMs.size(); ++BI) {
    BlockClass C = Classes[BI];
    ClassMs[static_cast<int>(C)] += Stats.PerBlockMs[BI];
    if (C == BlockClass::Gemm)
      GemmFlops += static_cast<double>(M.BlockFlops[BI]);
  }
  MainBytes += static_cast<double>(Stats.MainBytesRead + Stats.MainBytesWritten);
  ScratchBytes += static_cast<double>(Stats.ScratchBytes);
  if (CountEngine)
    Engine.add(Stats.Engine);
}

void BlockAttribution::report(
    Result &R, const std::vector<const CompiledModel *> &Models) const {
  auto PerRun = [&](double Sum) {
    return Runs ? Sum / static_cast<double>(Runs) : 0.0;
  };
  const char *ClassMetric[] = {"ops.gemm_ms", "ops.attention_ms",
                               "ops.layernorm_ms", "ops.eltwise_ms",
                               "ops.other_ms"};
  double BlockMs = 0;
  for (int C = 0; C < static_cast<int>(BlockClass::Count); ++C) {
    R.Metrics[ClassMetric[C]] = PerRun(ClassMs[C]);
    BlockMs += R.Metrics[ClassMetric[C]];
  }
  R.Metrics["trace.latency_ms"] = PerRun(Wall);
  R.Metrics["runtime.dispatch_ms"] = R.Metrics["trace.latency_ms"] - BlockMs;
  double GemmMs = ClassMs[static_cast<int>(BlockClass::Gemm)];
  R.Metrics["ops.gemm_gflops"] = GemmMs > 0 ? GemmFlops / GemmMs / 1e6 : 0;
  R.Metrics["runtime.main_mb"] = PerRun(MainBytes) / 1e6;
  R.Metrics["runtime.scratch_mb"] = PerRun(ScratchBytes) / 1e6;
  R.Metrics["ops.packed_calls"] = static_cast<double>(Engine.PackedKernelCalls);
  R.Metrics["ops.direct_calls"] = static_cast<double>(Engine.DirectKernelCalls);
  R.Metrics["ops.avx2_calls"] =
      static_cast<double>(Engine.KernelAvx2Calls + Engine.KernelAvx2FmaCalls);
  R.Metrics["ops.scalar_calls"] = static_cast<double>(Engine.KernelScalarCalls);
  int64_t Levels = 0, MaxWidth = 0;
  for (const CompiledModel *M : Models) {
    Levels += M->Schedule.numLevels();
    MaxWidth = std::max(MaxWidth, M->Schedule.maxWidth());
  }
  R.Metrics["runtime.levels"] = static_cast<double>(Levels);
  R.Metrics["runtime.max_width"] = static_cast<double>(MaxWidth);
  std::printf("# traced: %lld executions; blocks %.4f + dispatch %.4f = %.4f "
              "ms of %.4f ms traced latency\n",
              static_cast<long long>(Runs), BlockMs,
              R.Metrics["runtime.dispatch_ms"],
              BlockMs + R.Metrics["runtime.dispatch_ms"],
              R.Metrics["trace.latency_ms"]);
}

} // namespace perfbench
