//===- runtime/ExecutionContext.cpp - Model execution ----------------------------===//

#include "runtime/ExecutionContext.h"

#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/Timer.h"

#include <cstring>
#include <new>

using namespace dnnfusion;

ExecutionContext::ExecutionContext(const CompiledModel &Model,
                                   const ExecutionOptions &Options)
    : M(Model), Opts(Options) {
  // alloc.arena simulates context-construction OOM — the pool-growth path
  // InferenceSession::acquire must survive (it catches bad_alloc, restores
  // its slot accounting, and surfaces ResourceExhausted).
  if (faultShouldFail(faultpoints::AllocArena))
    throw std::bad_alloc();
  Arena.resize(static_cast<size_t>(elementsForBytes(M.Memory.ArenaBytes)));
  // Even a sequential run needs a lane per pool thread: it may itself be
  // executing on any worker (a batched request), and wavefront runs use
  // every lane.
  ScratchLanes.resize(pool().numLanes());
  size_t ScratchElems =
      static_cast<size_t>(elementsForBytes(M.Memory.ScratchBytes));
  for (std::vector<float> &Lane : ScratchLanes)
    Lane.resize(ScratchElems);
  PackLanes.resize(pool().numLanes());
  size_t PackElems =
      static_cast<size_t>(elementsForBytes(M.Memory.PackScratchBytes));
  for (std::vector<float> &Lane : PackLanes)
    Lane.resize(PackElems);
}

ThreadPool &ExecutionContext::pool() const {
  return Opts.Pool ? *Opts.Pool : ThreadPool::global();
}

const float *ExecutionContext::valuePtr(NodeId Id,
                                        const std::vector<Tensor> &Inputs) const {
  const Node &N = M.G.node(Id);
  if (N.Kind == OpKind::Constant)
    return N.ConstValue.data();
  if (N.Kind == OpKind::Input) {
    for (size_t I = 0; I < M.InputIds.size(); ++I)
      if (M.InputIds[I] == Id)
        return Inputs[I].data();
    reportFatalErrorf("input node %d not bound", Id);
  }
  int64_t Offset = M.Memory.ArenaOffsetOfNode[static_cast<size_t>(Id)];
  DNNF_CHECK(Offset >= 0, "node %d has no arena buffer", Id);
  return Arena.data() + elementIndexForByteOffset(Offset);
}

void ExecutionContext::setAbort(Status S) {
  {
    std::lock_guard<std::mutex> Lock(AbortMutex);
    if (!AbortFlag.load(std::memory_order_relaxed))
      AbortStatus = std::move(S);
  }
  AbortFlag.store(true, std::memory_order_release);
}

bool ExecutionContext::checkpointShouldStop(const RunControl &Control) {
  if (AbortFlag.load(std::memory_order_acquire))
    return true;
  if (!Control.active())
    return false;
  if (Control.Cancel &&
      Control.Cancel->load(std::memory_order_relaxed)) {
    setAbort(Status::error(ErrorCode::FailedPrecondition,
                           "run cancelled at block checkpoint"));
    return true;
  }
  if (std::chrono::steady_clock::now() >= Control.Deadline) {
    setAbort(Status::error(ErrorCode::DeadlineExceeded,
                           "deadline expired at block checkpoint"));
    return true;
  }
  return false;
}

void ExecutionContext::runBlock(size_t BI, unsigned Lane,
                                const std::vector<Tensor> &Inputs,
                                std::vector<double> *PerBlockMs,
                                std::vector<EngineCounters> *PerBlockCounters) {
  // The per-block fault hook: a faulting block aborts the run with a typed
  // Status at the next checkpoint instead of corrupting downstream blocks.
  // (Siblings already dispatched in the same wavefront level finish — they
  // write disjoint arena ranges — but no further level starts.)
  if (faultShouldFail(faultpoints::ExecBlock)) {
    setAbort(Status::errorf(ErrorCode::Internal,
                            "injected fault exec.block in block %zu", BI));
    return;
  }
  if (AbortFlag.load(std::memory_order_acquire))
    return;
  const CompiledBlock &CB = M.Blocks[BI];
  BlockIo Io;
  Io.Externals.reserve(CB.ExternalInputs.size());
  for (NodeId In : CB.ExternalInputs)
    Io.Externals.push_back(valuePtr(In, Inputs));
  Io.LocalPtrs.reserve(CB.Locals.size());
  std::vector<float> &Scratch = ScratchLanes[Lane];
  int64_t ScratchCursor = 0;
  for (const CompiledBlock::LocalBuffer &L : CB.Locals) {
    if (L.IsBlockOutput) {
      int64_t Offset = M.Memory.ArenaOffsetOfNode[static_cast<size_t>(L.Node)];
      DNNF_CHECK(Offset >= 0, "block output %d has no arena slot", L.Node);
      Io.LocalPtrs.push_back(Arena.data() + elementIndexForByteOffset(Offset));
    } else {
      Io.LocalPtrs.push_back(Scratch.data() +
                             elementIndexForByteOffset(ScratchCursor));
      ScratchCursor += L.Sh.numElements() * static_cast<int64_t>(sizeof(float));
    }
  }
  DNNF_CHECK(ScratchCursor <= M.Memory.ScratchBytes,
             "scratch overflow in block %zu", BI);

  BlockRuntime Rt;
  Rt.Prepack = &M.Prepack;
  std::vector<float> &PackLane = PackLanes[Lane];
  Rt.PackScratch = PackLane.empty() ? nullptr : PackLane.data();
  Rt.PackScratchElems = static_cast<int64_t>(PackLane.size());
  if (PerBlockCounters)
    Rt.Counters = &(*PerBlockCounters)[BI];

  if (PerBlockMs) {
    WallTimer BlockTimer;
    executeBlock(CB, Io, M.Codegen, Rt);
    (*PerBlockMs)[BI] = BlockTimer.millis();
  } else {
    executeBlock(CB, Io, M.Codegen, Rt);
  }
}

std::vector<Tensor> ExecutionContext::run(const std::vector<Tensor> &Inputs,
                                          ExecutionStats *Stats,
                                          bool PerBlockTiming) {
  return cantFail(tryRun(Inputs, Stats, PerBlockTiming, RunControl()));
}

Expected<std::vector<Tensor>>
ExecutionContext::tryRun(const std::vector<Tensor> &Inputs,
                         ExecutionStats *Stats, bool PerBlockTiming,
                         const RunControl &Control) {
  DNNF_CHECK(Inputs.size() == M.InputIds.size(),
             "expected %zu inputs, got %zu", M.InputIds.size(), Inputs.size());
  for (size_t I = 0; I < Inputs.size(); ++I)
    DNNF_CHECK(Inputs[I].shape() == M.G.node(M.InputIds[I]).OutShape,
               "input %zu shape %s does not match model shape %s", I,
               Inputs[I].shape().toString().c_str(),
               M.G.node(M.InputIds[I]).OutShape.toString().c_str());

  AbortFlag.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(AbortMutex);
    AbortStatus = Status();
  }

  WallTimer Total;
  std::vector<double> PerBlockMs;
  std::vector<double> *PerBlock = nullptr;
  if (PerBlockTiming) {
    PerBlockMs.assign(M.Blocks.size(), 0.0);
    PerBlock = &PerBlockMs;
  }
  // Engine-path counters accumulate per block (disjoint writes under
  // wavefront dispatch) and reduce in block-index order below. The
  // member vector is reused so a stats-collecting run allocates nothing
  // after the first.
  std::vector<EngineCounters> *Counters = nullptr;
  if (Stats) {
    CounterScratch.assign(M.Blocks.size(), EngineCounters());
    Counters = &CounterScratch;
  }

  if (Opts.Mode == ExecutionOptions::Schedule::Wavefront) {
    // Checkpoint between levels: a level is the wavefront analogue of a
    // block boundary (its blocks are already in flight together), so the
    // abort latency bound is one level's latency.
    ThreadPool &P = pool();
    for (const std::vector<int> &Level : M.Schedule.Levels) {
      if (checkpointShouldStop(Control))
        break;
      const int *BlockIdx = Level.data();
      P.forEach(static_cast<int64_t>(Level.size()),
                [&](int64_t I, unsigned Lane) {
                  runBlock(static_cast<size_t>(BlockIdx[I]), Lane, Inputs,
                           PerBlock, Counters);
                });
    }
  } else {
    // Sequential walk on the calling thread. The lane still comes from
    // the pool so a run() inside a pool worker (e.g. a batched request)
    // keeps its scratch distinct from other workers'. The memory plan
    // frees buffers at level granularity, so execution follows level
    // order (plan order is topological but not necessarily
    // level-monotone).
    unsigned Lane = pool().currentLane();
    for (const std::vector<int> &Level : M.Schedule.Levels) {
      if (checkpointShouldStop(Control))
        break;
      for (int BI : Level) {
        if (checkpointShouldStop(Control))
          break;
        runBlock(static_cast<size_t>(BI), Lane, Inputs, PerBlock, Counters);
      }
    }
  }

  if (AbortFlag.load(std::memory_order_acquire)) {
    // The context is clean for reuse right away: arena/scratch contents
    // are garbage, but every run rewrites what it reads.
    std::lock_guard<std::mutex> Lock(AbortMutex);
    DNNF_CHECK(!AbortStatus.ok(), "abort flag raised without a status");
    return AbortStatus;
  }

  if (Stats) {
    // Deterministic reduction in block-index order, independent of the
    // dispatch interleaving above.
    *Stats = ExecutionStats();
    Stats->PeakArenaBytes = M.Memory.ArenaBytes;
    for (size_t BI = 0; BI < M.Blocks.size(); ++BI) {
      ++Stats->KernelLaunches;
      Stats->Flops += M.BlockFlops[BI];
      Stats->MainBytesRead += M.BlockBytesRead[BI];
      Stats->MainBytesWritten += M.BlockBytesWritten[BI];
      Stats->ScratchBytes += M.BlockScratchBytes[BI];
      Stats->Engine.add(CounterScratch[BI]);
    }
    if (PerBlockTiming)
      Stats->PerBlockMs = std::move(PerBlockMs);
    Stats->WallMs = Total.millis();
  }

  std::vector<Tensor> Outputs;
  try {
    for (NodeId Out : M.G.outputs()) {
      Tensor T(M.G.node(Out).OutShape);
      std::memcpy(T.data(), valuePtr(Out, Inputs), T.byteSize());
      Outputs.push_back(std::move(T));
    }
  } catch (const std::bad_alloc &) {
    return Status::error(ErrorCode::ResourceExhausted,
                         "out of memory allocating run outputs");
  }
  return Outputs;
}
