//===- tests/test_wavefront.cpp - wavefront runtime + serving layer ---------------===//
//
// The wavefront-parallel execution layer end to end: BlockSchedule
// invariants, concurrency-aware memory planning (same-level buffers never
// alias), bit-identical wavefront-vs-sequential execution across the model
// zoo and pool sizes, and InferenceSession multi-client serving.
//
//===----------------------------------------------------------------------===//

#include "TestUtils.h"

#include "models/ModelZoo.h"

#include <dnnfusion/dnnfusion.h>

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace dnnfusion;
using namespace dnnfusion::testutil;

namespace {

/// A diamond with two independent branches: guarantees a level of width 2.
Graph diamondGraph(uint64_t Seed) {
  GraphBuilder B(Seed);
  NodeId X = B.input(Shape({1, 4, 8, 8}));
  NodeId L = B.relu(B.conv(X, 4, {3, 3}, {1, 1}, {1, 1}));
  NodeId R = B.sigmoid(B.conv(X, 4, {3, 3}, {1, 1}, {1, 1}));
  B.markOutput(B.binary(OpKind::Add, L, R));
  return B.take();
}

ExecutionOptions sequentialExec() {
  ExecutionOptions Exec;
  Exec.Mode = ExecutionOptions::Schedule::Sequential;
  return Exec;
}

//===----------------------------------------------------------------------===//
// BlockSchedule
//===----------------------------------------------------------------------===//

TEST(BlockSchedule, LevelsPartitionBlocksAndEdgesIncreaseLevels) {
  for (uint64_t Seed : {1ull, 2ull, 3ull}) {
    FuzzSpec Spec = generateSpec(Seed);
    CompiledModel M = cantFail(compileModel(buildGraph(Spec), CompileOptions()));
    M.Schedule.verify(M.Plan);
    EXPECT_GE(M.Schedule.numLevels(), 1);
    EXPECT_LE(M.Schedule.numLevels(),
              static_cast<int64_t>(M.Plan.Blocks.size()));
  }
}

TEST(BlockSchedule, ChainHasOneBlockPerLevel) {
  GraphBuilder B(1);
  NodeId H = B.input(Shape({1, 64}));
  for (int I = 0; I < 4; ++I)
    H = B.unary(OpKind::Relu, B.op(OpKind::MatMul, {H, B.weight(Shape({64, 64}))}));
  B.markOutput(H);
  CompiledModel M = cantFail(compileModel(B.take(), CompileOptions()));
  // A pure chain admits no inter-block parallelism.
  EXPECT_EQ(M.Schedule.maxWidth(), 1);
  EXPECT_EQ(M.Schedule.numLevels(),
            static_cast<int64_t>(M.Plan.Blocks.size()));
  for (size_t BI = 0; BI + 1 < M.Plan.Blocks.size(); ++BI)
    EXPECT_EQ(M.Schedule.Successors[BI].size(), 1u);
}

TEST(BlockSchedule, IndependentBranchesShareALevel) {
  // Two branches that never rejoin: each holds a Many-to-Many operator,
  // so the planner cannot merge them into one block (Table 3), and both
  // depend only on the graph input — a guaranteed level of width >= 2.
  GraphBuilder B(2);
  NodeId X = B.input(Shape({1, 4, 8, 8}));
  B.markOutput(B.relu(B.conv(X, 4, {3, 3}, {1, 1}, {1, 1})));
  B.markOutput(B.sigmoid(B.conv(X, 4, {3, 3}, {1, 1}, {1, 1})));
  CompileOptions Opt;
  Opt.EnableGraphRewriting = false;
  CompiledModel M = cantFail(compileModel(B.take(), Opt));
  M.Schedule.verify(M.Plan);
  EXPECT_GE(M.Schedule.maxWidth(), 2) << M.Plan.toString(M.G);
  // Source blocks have no predecessors; level 0 holds all of them.
  for (int BI : M.Schedule.Levels[0])
    EXPECT_EQ(M.Schedule.PredecessorCount[static_cast<size_t>(BI)], 0);
}

TEST(BlockSchedule, WholeZooSchedulesVerify) {
  for (const ModelZooEntry &E : modelZoo()) {
    CompiledModel M = cantFail(compileModel(E.Build(), CompileOptions()));
    M.Schedule.verify(M.Plan);
    EXPECT_GE(M.Schedule.maxWidth(), 1) << E.Info.Name;
  }
}

//===----------------------------------------------------------------------===//
// Concurrency-aware memory planning
//===----------------------------------------------------------------------===//

TEST(MemoryPlanner, SameLevelBuffersNeverAlias) {
  // Outputs of blocks on the same level (plus any buffer still live into
  // that level) must occupy disjoint arena ranges.
  for (uint64_t Seed : {11ull, 12ull, 13ull, 14ull}) {
    FuzzSpec Spec = generateSpec(Seed);
    CompiledModel M = cantFail(compileModel(buildGraph(Spec), CompileOptions()));
    size_t N = static_cast<size_t>(M.G.numNodes());
    // Level-granular lifetime per arena buffer.
    std::vector<int> BornLevel(N, -1), DiesLevel(N, -1);
    for (size_t BI = 0; BI < M.Plan.Blocks.size(); ++BI) {
      int Level = M.Schedule.LevelOfBlock[BI];
      for (NodeId Out : M.Plan.Blocks[BI].Outputs)
        BornLevel[static_cast<size_t>(Out)] = Level;
      for (NodeId Id : M.Plan.Blocks[BI].Members)
        for (NodeId In : M.G.node(Id).Inputs)
          DiesLevel[static_cast<size_t>(In)] =
              std::max(DiesLevel[static_cast<size_t>(In)], Level);
    }
    for (NodeId Out : M.G.outputs())
      DiesLevel[static_cast<size_t>(Out)] =
          static_cast<int>(M.Schedule.numLevels());
    for (size_t A = 0; A < N; ++A) {
      if (BornLevel[A] < 0)
        continue;
      int64_t AOff = M.Memory.ArenaOffsetOfNode[A];
      int64_t ABytes = M.G.node(static_cast<NodeId>(A)).outBytes();
      for (size_t B = A + 1; B < N; ++B) {
        if (BornLevel[B] < 0)
          continue;
        bool LifetimesOverlap =
            BornLevel[A] <= DiesLevel[B] && BornLevel[B] <= DiesLevel[A];
        if (!LifetimesOverlap)
          continue;
        int64_t BOff = M.Memory.ArenaOffsetOfNode[B];
        int64_t BBytes = M.G.node(static_cast<NodeId>(B)).outBytes();
        EXPECT_FALSE(AOff < BOff + BBytes && BOff < AOff + ABytes)
            << "seed " << Seed << ": nodes " << A << " and " << B
            << " alias within a live level window";
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Wavefront execution: bit-identical to sequential
//===----------------------------------------------------------------------===//

TEST(Wavefront, BitIdenticalToSequentialOnWholeZoo) {
  for (const ModelZooEntry &E : modelZoo()) {
    CompiledModel M = cantFail(compileModel(E.Build(), CompileOptions()));
    std::vector<Tensor> Inputs = randomInputs(M.G, 17);
    ExecutionContext Seq(M, sequentialExec());
    ExecutionContext Wave(M);
    std::vector<Tensor> A = Seq.run(Inputs);
    std::vector<Tensor> B = Wave.run(Inputs);
    ASSERT_EQ(A.size(), B.size()) << E.Info.Name;
    for (size_t I = 0; I < A.size(); ++I)
      EXPECT_EQ(maxAbsDiff(A[I], B[I]), 0.0f)
          << E.Info.Name << " output " << I;
  }
}

TEST(Wavefront, BitIdenticalAcrossPoolSizes) {
  ThreadPool One(1), Eight(8);
  CompiledModel M = cantFail(compileModel(diamondGraph(4), CompileOptions()));
  std::vector<Tensor> Inputs = randomInputs(M.G, 23);
  ExecutionOptions E1, E8;
  E1.Pool = &One;
  E8.Pool = &Eight;
  std::vector<Tensor> A = ExecutionContext(M, E1).run(Inputs);
  std::vector<Tensor> B = ExecutionContext(M, E8).run(Inputs);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(maxAbsDiff(A[I], B[I]), 0.0f);
}

TEST(Wavefront, StatsAreIdenticalToSequential) {
  CompiledModel M = cantFail(compileModel(buildEfficientNetB0(), CompileOptions()));
  std::vector<Tensor> Inputs = randomInputs(M.G, 29);
  ExecutionStats SeqStats, WaveStats;
  ExecutionContext(M, sequentialExec()).run(Inputs, &SeqStats);
  ExecutionContext(M).run(Inputs, &WaveStats, /*PerBlockTiming=*/true);
  EXPECT_EQ(WaveStats.KernelLaunches, SeqStats.KernelLaunches);
  EXPECT_EQ(WaveStats.Flops, SeqStats.Flops);
  EXPECT_EQ(WaveStats.MainBytesRead, SeqStats.MainBytesRead);
  EXPECT_EQ(WaveStats.MainBytesWritten, SeqStats.MainBytesWritten);
  EXPECT_EQ(WaveStats.ScratchBytes, SeqStats.ScratchBytes);
  EXPECT_EQ(WaveStats.PeakArenaBytes, SeqStats.PeakArenaBytes);
  // Per-block timings are indexed by block and cover every block.
  ASSERT_EQ(WaveStats.PerBlockMs.size(), M.Blocks.size());
}

TEST(Wavefront, ContextIsReusableAcrossRuns) {
  CompiledModel M = cantFail(compileModel(diamondGraph(5), CompileOptions()));
  ExecutionContext Ctx(M);
  std::vector<Tensor> Inputs = randomInputs(M.G, 31);
  std::vector<Tensor> A = Ctx.run(Inputs);
  std::vector<Tensor> B = Ctx.run(Inputs);
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(maxAbsDiff(A[I], B[I]), 0.0f);
}

//===----------------------------------------------------------------------===//
// InferenceSession: multi-client serving
//===----------------------------------------------------------------------===//

TEST(InferenceSession, ServesConcurrentClientsCorrectly) {
  InferenceSession Session(
      cantFail(compileModel(buildEfficientNetB0(), CompileOptions())));
  std::vector<Tensor> Inputs = randomInputs(Session.model().G, 37);
  std::vector<Tensor> Golden = cantFail(Session.run(Inputs));

  // >= 4 genuinely simultaneous run() calls on one compiled model, each
  // from its own client thread, repeated to churn the context pool.
  const int Clients = 4, Rounds = 3;
  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&] {
      for (int R = 0; R < Rounds; ++R) {
        std::vector<Tensor> Out = cantFail(Session.run(Inputs));
        if (Out.size() != Golden.size()) {
          ++Mismatches;
          continue;
        }
        for (size_t I = 0; I < Out.size(); ++I)
          if (maxAbsDiff(Out[I], Golden[I]) != 0.0f)
            ++Mismatches;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0);
  EXPECT_GE(Session.contextsCreated(), 1u);
  EXPECT_LE(Session.contextsCreated(), static_cast<unsigned>(Clients));
}

TEST(InferenceSession, RunBatchMatchesIndividualRuns) {
  InferenceSession Session(cantFail(compileModel(diamondGraph(6), CompileOptions())));
  std::vector<std::vector<Tensor>> Batch;
  for (uint64_t Seed = 0; Seed < 6; ++Seed)
    Batch.push_back(randomInputs(Session.model().G, 41 + Seed));
  std::vector<Expected<std::vector<Tensor>>> Results = Session.runBatch(Batch);
  ASSERT_EQ(Results.size(), Batch.size());
  for (size_t R = 0; R < Batch.size(); ++R) {
    ASSERT_TRUE(Results[R].ok()) << Results[R].status().toString();
    std::vector<Tensor> Solo = cantFail(Session.run(Batch[R]));
    ASSERT_EQ(Results[R].value().size(), Solo.size());
    for (size_t I = 0; I < Solo.size(); ++I)
      EXPECT_EQ(maxAbsDiff(Results[R].value()[I], Solo[I]), 0.0f)
          << "request " << R << " output " << I;
  }
}

TEST(InferenceSession, MaxContextsCapsPoolGrowth) {
  SessionOptions Opts;
  Opts.MaxContexts = 2;
  InferenceSession Session(cantFail(compileModel(diamondGraph(7), CompileOptions())),
                           Opts);
  std::vector<Tensor> Inputs = randomInputs(Session.model().G, 43);
  const int Clients = 6;
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&] {
      for (int R = 0; R < 4; ++R)
        cantFail(Session.run(Inputs));
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_LE(Session.contextsCreated(), 2u);
}

TEST(InferenceSession, SequentialModeSessionsAlsoServeConcurrently) {
  SessionOptions Opts;
  Opts.Exec.Mode = ExecutionOptions::Schedule::Sequential;
  InferenceSession Session(cantFail(compileModel(diamondGraph(8), CompileOptions())),
                           Opts);
  std::vector<Tensor> Inputs = randomInputs(Session.model().G, 47);
  std::vector<Tensor> Golden = cantFail(Session.run(Inputs));
  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C < 4; ++C)
    Threads.emplace_back([&] {
      std::vector<Tensor> Out = cantFail(Session.run(Inputs));
      for (size_t I = 0; I < Out.size(); ++I)
        if (maxAbsDiff(Out[I], Golden[I]) != 0.0f)
          ++Mismatches;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0);
}

} // namespace
