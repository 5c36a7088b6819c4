//===- runtime/MemoryPlanner.cpp - Liveness-based buffer planning ---------------===//

#include "runtime/MemoryPlanner.h"

#include "support/Error.h"

#include <algorithm>
#include <limits>

using namespace dnnfusion;

namespace {

/// Packing-scratch bytes the packed-GEMM engine may need for any single
/// RefKernel step of \p Blocks under \p Kernels (steps whose packed
/// operand is a constant weight are excluded — the prepack store serves
/// them).
int64_t computePackScratchBytes(const Graph &G,
                                const std::vector<CompiledBlock> &Blocks,
                                const KernelConfig &Kernels) {
  int64_t MaxElems = 0;
  for (const CompiledBlock &B : Blocks) {
    for (const CompiledStep &S : B.Steps) {
      if (S.K != CompiledStep::Kind::RefKernel)
        continue;
      bool WeightIsConstant = false;
      if (S.InputSlots.size() >= 2 &&
          S.InputSlots[1] < static_cast<int>(B.ExternalInputs.size()))
        WeightIsConstant =
            G.node(B.ExternalInputs[static_cast<size_t>(S.InputSlots[1])])
                .Kind == OpKind::Constant;
      MaxElems = std::max(
          MaxElems, detail::packScratchElemsForStep(
                        S.Op, S.Attrs, S.InputShapes, S.OutShape, Kernels,
                        WeightIsConstant));
    }
  }
  return MaxElems * static_cast<int64_t>(sizeof(float));
}

} // namespace

MemoryPlan dnnfusion::planMemory(const Graph &G, const FusionPlan &Plan,
                                 const std::vector<CompiledBlock> &Blocks,
                                 const BlockSchedule &Schedule,
                                 const KernelConfig &Kernels) {
  MemoryPlan M;
  M.PackScratchBytes = computePackScratchBytes(G, Blocks, Kernels);
  size_t N = static_cast<size_t>(G.numNodes());
  M.ArenaOffsetOfNode.assign(N, -1);
  M.InputOffsetOfNode.assign(N, -1);
  M.WeightOffsetOfNode.assign(N, -1);

  // Inputs and weights get fixed offsets in their own regions.
  for (int Id = 0; Id < G.numNodes(); ++Id) {
    const Node &Nd = G.node(Id);
    if (Nd.Dead)
      continue;
    if (Nd.Kind == OpKind::Input) {
      M.InputOffsetOfNode[static_cast<size_t>(Id)] = M.InputBytes;
      M.InputBytes += Nd.outBytes();
    } else if (Nd.Kind == OpKind::Constant) {
      M.WeightOffsetOfNode[static_cast<size_t>(Id)] = M.WeightBytes;
      M.WeightBytes += Nd.outBytes();
    }
  }

  // Allocation time per block is its wavefront level: every lifetime
  // widens to whole levels, so same-level blocks never alias.
  int EndTime = static_cast<int>(Schedule.numLevels());

  // Liveness of block outputs: last level a block reads them (graph
  // outputs live forever).
  std::vector<int> LastUse(N, -1);
  for (size_t BI = 0; BI < Plan.Blocks.size(); ++BI)
    for (NodeId Id : Plan.Blocks[BI].Members)
      for (NodeId In : G.node(Id).Inputs)
        LastUse[static_cast<size_t>(In)] = std::max(
            LastUse[static_cast<size_t>(In)], Schedule.LevelOfBlock[BI]);
  for (NodeId Out : G.outputs())
    LastUse[static_cast<size_t>(Out)] = EndTime;

  struct Allocation {
    int64_t Offset;
    int64_t Bytes;
    int FreeAfterTime;
  };
  std::vector<Allocation> Live;

  auto allocate = [&](int64_t Bytes, int FreeAfterTime) {
    // First-fit into gaps between live allocations (kept offset-sorted).
    int64_t Offset = 0;
    size_t InsertAt = 0;
    for (size_t I = 0; I <= Live.size(); ++I) {
      int64_t GapEnd = I < Live.size()
                           ? Live[I].Offset
                           : std::numeric_limits<int64_t>::max();
      if (GapEnd - Offset >= Bytes) {
        InsertAt = I;
        break;
      }
      Offset = Live[I].Offset + Live[I].Bytes;
      InsertAt = I + 1;
    }
    Live.insert(Live.begin() + static_cast<long>(InsertAt),
                Allocation{Offset, Bytes, FreeAfterTime});
    M.ArenaBytes = std::max(M.ArenaBytes, Offset + Bytes);
    return Offset;
  };

  // Allocate level by level (plan order need not be level-monotone; each
  // level lists its blocks in plan order).
  for (int Level = 0; Level < EndTime; ++Level) {
    // Release buffers whose last consumer level has passed.
    Live.erase(std::remove_if(Live.begin(), Live.end(),
                              [&](const Allocation &A) {
                                return A.FreeAfterTime < Level;
                              }),
               Live.end());
    for (int BI : Schedule.Levels[static_cast<size_t>(Level)]) {
      for (NodeId Out : Plan.Blocks[static_cast<size_t>(BI)].Outputs) {
        int Free = LastUse[static_cast<size_t>(Out)];
        DNNF_CHECK(Free >= Level,
                   "block output %d has no consumer and is not a graph "
                   "output",
                   Out);
        M.ArenaOffsetOfNode[static_cast<size_t>(Out)] =
            allocate(G.node(Out).outBytes(), Free);
      }
      M.ScratchBytes = std::max(
          M.ScratchBytes, Blocks[static_cast<size_t>(BI)].scratchBytes());
    }
  }
  return M;
}
