//===- serialize/PlanSerializer.cpp - Fusion plan persistence -------------------===//

#include "serialize/PlanSerializer.h"

using namespace dnnfusion;

namespace {

void writeIntVector(ByteWriter &W, const std::vector<int> &V) {
  W.u32(static_cast<uint32_t>(V.size()));
  for (int X : V)
    W.i32(X);
}

std::vector<int> readIntVector(ByteReader &R) {
  uint32_t N = R.count(/*MinBytesPerElement=*/4);
  std::vector<int> V;
  V.reserve(N);
  for (uint32_t I = 0; I < N && R.ok(); ++I)
    V.push_back(R.i32());
  return V;
}

void writeInt64Vector(ByteWriter &W, const std::vector<int64_t> &V) {
  W.u32(static_cast<uint32_t>(V.size()));
  for (int64_t X : V)
    W.i64(X);
}

std::vector<int64_t> readInt64Vector(ByteReader &R) {
  uint32_t N = R.count(/*MinBytesPerElement=*/8);
  std::vector<int64_t> V;
  V.reserve(N);
  for (uint32_t I = 0; I < N && R.ok(); ++I)
    V.push_back(R.i64());
  return V;
}

} // namespace

void dnnfusion::serializeFusionPlan(const FusionPlan &Plan, ByteWriter &W) {
  W.u32(static_cast<uint32_t>(Plan.Blocks.size()));
  for (const FusionBlock &B : Plan.Blocks) {
    W.u32(static_cast<uint32_t>(B.Members.size()));
    for (NodeId Id : B.Members)
      W.i32(Id);
    W.i32(B.Seed);
  }
}

DecodedPlanParts dnnfusion::readFusionPlanParts(ByteReader &R) {
  DecodedPlanParts Parts;
  uint32_t NumBlocks = R.count(/*MinBytesPerElement=*/8);
  Parts.Groups.reserve(R.ok() ? NumBlocks : 0);
  for (uint32_t I = 0; I < NumBlocks && R.ok(); ++I) {
    uint32_t NumMembers = R.count(/*MinBytesPerElement=*/4);
    std::vector<NodeId> Members;
    Members.reserve(NumMembers);
    for (uint32_t J = 0; J < NumMembers && R.ok(); ++J)
      Members.push_back(R.i32());
    Parts.Groups.push_back(std::move(Members));
    Parts.Seeds.push_back(R.i32());
  }
  return Parts;
}

void dnnfusion::serializeBlockSchedule(const BlockSchedule &S, ByteWriter &W) {
  writeIntVector(W, S.PredecessorCount);
  W.u32(static_cast<uint32_t>(S.Successors.size()));
  for (const std::vector<int> &Succ : S.Successors)
    writeIntVector(W, Succ);
  writeIntVector(W, S.LevelOfBlock);
  W.u32(static_cast<uint32_t>(S.Levels.size()));
  for (const std::vector<int> &Level : S.Levels)
    writeIntVector(W, Level);
}

BlockSchedule dnnfusion::readBlockSchedule(ByteReader &R) {
  BlockSchedule S;
  S.PredecessorCount = readIntVector(R);
  uint32_t NumSucc = R.count(/*MinBytesPerElement=*/4);
  S.Successors.reserve(R.ok() ? NumSucc : 0);
  for (uint32_t I = 0; I < NumSucc && R.ok(); ++I)
    S.Successors.push_back(readIntVector(R));
  S.LevelOfBlock = readIntVector(R);
  uint32_t NumLevels = R.count(/*MinBytesPerElement=*/4);
  S.Levels.reserve(R.ok() ? NumLevels : 0);
  for (uint32_t I = 0; I < NumLevels && R.ok(); ++I)
    S.Levels.push_back(readIntVector(R));
  return S;
}

void dnnfusion::serializeMemoryPlan(const MemoryPlan &M, ByteWriter &W) {
  writeInt64Vector(W, M.ArenaOffsetOfNode);
  writeInt64Vector(W, M.InputOffsetOfNode);
  writeInt64Vector(W, M.WeightOffsetOfNode);
  W.i64(M.ArenaBytes);
  W.i64(M.ScratchBytes);
  W.i64(M.WeightBytes);
  W.i64(M.InputBytes);
}

MemoryPlan dnnfusion::readMemoryPlan(ByteReader &R) {
  MemoryPlan M;
  M.ArenaOffsetOfNode = readInt64Vector(R);
  M.InputOffsetOfNode = readInt64Vector(R);
  M.WeightOffsetOfNode = readInt64Vector(R);
  M.ArenaBytes = R.i64();
  M.ScratchBytes = R.i64();
  M.WeightBytes = R.i64();
  M.InputBytes = R.i64();
  return M;
}

bool dnnfusion::blockSchedulesEqual(const BlockSchedule &A,
                                    const BlockSchedule &B) {
  return A.PredecessorCount == B.PredecessorCount &&
         A.Successors == B.Successors && A.LevelOfBlock == B.LevelOfBlock &&
         A.Levels == B.Levels;
}

bool dnnfusion::memoryPlansEqual(const MemoryPlan &A, const MemoryPlan &B) {
  return A.ArenaOffsetOfNode == B.ArenaOffsetOfNode &&
         A.InputOffsetOfNode == B.InputOffsetOfNode &&
         A.WeightOffsetOfNode == B.WeightOffsetOfNode &&
         A.ArenaBytes == B.ArenaBytes && A.ScratchBytes == B.ScratchBytes &&
         A.WeightBytes == B.WeightBytes && A.InputBytes == B.InputBytes;
}
