//===- perfbench/src/CompileWorkload.cpp - The compile workload -----------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
// The deployer's wait. Every round compiles each of the 15 zoo models cold
// (no cache) and then warm through a populated CacheDir (a cache hit),
// model after model in a seeded order, so a slow phase of the host hits
// cold and warm compiles of every model alike. No kernel runs in the timed
// loop. Class a = cold compiles, class b = cache hits.
//
// The traced run replays a cold compileModel from outside, one public call
// per stage (rewriteGraph, planFusion + mergeMovementBlocks,
// carveTransformerGroups, compileModelWithPlan). A traced cache hit is
// compileModel itself; after it, outside its timing, the hit's stages
// (fingerprint, readFileBytes, deserializeCompiledModel) are replayed one
// span each as its breakdown. Both replays must serialize to exactly what
// compileModel produces.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Harness.h"

#include "core/TransformerPatterns.h"
#include "models/ModelZoo.h"
#include "serialize/CompilationCache.h"
#include "support/FileIO.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

using namespace dnnfusion;

namespace perfbench {

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int SetupRepeats = 3;

struct ModelCase {
  std::string Name;
  Graph Proto;
  std::vector<double> Cold, Warm;
  /// Serialized cold compile from the first round (determinism check).
  std::string FirstColdBytes;
};

/// Per-stage time sums of the traced rounds.
struct StageSums {
  int64_t ColdCount = 0, WarmCount = 0, StoreCount = 0;
  double ColdTotal = 0, Rewrite = 0, Plan = 0, Carve = 0, Codegen = 0;
  double WarmTotal = 0, Key = 0, Read = 0, Decode = 0, Store = 0;
  int64_t Rewrites = 0, Blocks = 0, PrepackBytes = 0;
};

/// compileModel's cold path, one public call per span.
Expected<CompiledModel> tracedCold(Graph G, SpanBuffer &T, int Label,
                                   int64_t Op, StageSums &S, bool CountIr) {
  const CompileOptions Opts;
  int Root = T.begin("compile.cold", Label, Op);
  if (Status V = G.validate(); !V.ok()) {
    T.end(Root);
    return V;
  }
  int Span = T.begin("core.rewrite", Label, Op);
  RewriteStats Rewrite = rewriteGraph(G, Opts.Rewrite);
  S.Rewrite += T.end(Span);

  Span = T.begin("core.plan", Label, Op);
  FusionPlan Plan = planFusion(G, nullptr, Opts.Planner);
  mergeMovementBlocks(G, Plan);
  S.Plan += T.end(Span);

  Span = T.begin("core.carve", Label, Op);
  carveTransformerGroups(G, Plan, Opts.Codegen.FuseAttention,
                         Opts.Codegen.FuseNorm);
  S.Carve += T.end(Span);

  Span = T.begin("runtime.codegen", Label, Op);
  Expected<CompiledModel> M =
      compileModelWithPlan(std::move(G), std::move(Plan), Opts.Codegen);
  S.Codegen += T.end(Span);
  S.ColdTotal += T.end(Root);
  ++S.ColdCount;
  if (M.ok() && CountIr) {
    S.Rewrites += Rewrite.Applications;
    S.Blocks += static_cast<int64_t>(M->Plan.Blocks.size());
    for (const PackedOperand &P : M->Prepack)
      S.PrepackBytes += static_cast<int64_t>(P.Data.size() * sizeof(float));
  }
  return M;
}

/// The stages of compileModel's cache-hit path, one public call per span,
/// under a root span of their own.
Expected<CompiledModel> replayWarm(const Graph &G, const CompileOptions &Opts,
                                   SpanBuffer &T, int Label, int64_t Op,
                                   StageSums &S) {
  int Root = T.begin("compile.warm.replay", Label, Op);
  int Span = T.begin("serialize.key", Label, Op);
  uint64_t Key = CompilationCache::fingerprint(G, Opts);
  S.Key += T.end(Span);
  Span = T.begin("serialize.read", Label, Op);
  Expected<std::string> Bytes =
      readFileBytes(CompilationCache(Opts.CacheDir).pathForKey(Key));
  S.Read += T.end(Span);
  Expected<CompiledModel> M = notRun();
  if (Bytes.ok()) {
    Span = T.begin("serialize.decode", Label, Op);
    M = deserializeCompiledModel(*Bytes);
    S.Decode += T.end(Span);
  } else {
    M = Bytes.status();
  }
  T.end(Root);
  return M;
}

} // namespace

void runCompileWorkload(const RunConfig &Config, Result &R) {
  namespace fs = std::filesystem;
  std::vector<ModelCase> Models;
  CompileOptions Warm;
  std::vector<double> SetupSeconds;
  int64_t ArtifactBytes = 0;

  // Set-up: build every graph, populate a fresh cache (cold compile +
  // store), and warm the hit path once per model. Repeated; the last
  // repetition's cache serves the timed loop.
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Clock::time_point Start = Rep == 0 ? Config.ProcessStart : Clock::now();
    Models.clear();
    for (const ModelZooEntry &E : modelZoo())
      Models.push_back({E.Info.Name, E.Build(), {}, {}, ""});
    Warm.CacheDir = Config.WorkDir + "/cache" + std::to_string(Rep);
    std::error_code Ignored;
    fs::remove_all(Warm.CacheDir, Ignored);
    for (ModelCase &M : Models) {
      Expected<CompiledModel> Populated = compileModel(M.Proto, Warm);
      Expected<CompiledModel> Hit = compileModel(M.Proto, Warm);
      if (!Populated.ok() || !Hit.ok() || !Hit->CacheHit)
        R.fail("set-up compile of " + M.Name + " did not populate the cache");
    }
    SetupSeconds.push_back(msBetween(Start, Clock::now()) / 1000.0);
    if (Rep > 0)
      fs::remove_all(Config.WorkDir + "/cache" + std::to_string(Rep - 1),
                     Ignored);
  }
  for (const CacheEntryInfo &E : CompilationCache(Warm.CacheDir).entries())
    ArtifactBytes += E.Bytes;

  // Timed loop: whole rounds; each round visits every model once, in a
  // seeded order, cold then warm.
  Rng Order(Config.Seed);
  std::vector<size_t> Idx(Models.size());
  for (size_t I = 0; I < Idx.size(); ++I)
    Idx[I] = I;
  SpanBuffer Trace(Clock::now(), 1);
  StageSums Stages;
  std::vector<double> TracedOps, UntracedOps;
  OpCount &Colds = R.Ops["compiles"];
  OpCount &Hits = R.Ops["cache_hits"];
  const std::string StorePath = Config.WorkDir + "/store.dnnf";
  int64_t Op = 0;
  double TimedMs = 0;
  std::vector<double> RoundRates;
  Clock::time_point LoopStart = Clock::now();
  for (int Round = 0; msBetween(LoopStart, Clock::now()) < Config.Seconds * 1000;
       ++Round) {
    Clock::time_point RoundStart = Clock::now();
    for (size_t I = Idx.size(); I > 1; --I)
      std::swap(Idx[I - 1], Idx[Order.nextBelow(I)]);
    // The traced run alternates traced and untraced rounds; the gap
    // between their per-operation times is the tracing overhead.
    const bool Traced = Config.Trace && Round % 2 == 1;
    for (size_t MI : Idx) {
      ModelCase &M = Models[MI];
      const int Label = Config.Trace ? R.label(M.Name) : -1;
      Graph ColdGraph = M.Proto, WarmGraph = M.Proto;
      Expected<CompiledModel> Cold = notRun(), Hit = notRun();
      ++Op;
      double ColdMs = timeMs([&] {
        Cold = Traced ? tracedCold(std::move(ColdGraph), Trace, Label, Op,
                                   Stages, Round == 1)
                      : compileModel(std::move(ColdGraph));
      });
      ++Colds.Attempted;
      if (!Cold.ok()) {
        R.opFailed(Colds,
                   "cold compile of " + M.Name + ": " + Cold.status().toString());
      } else if (Round == 0) {
        M.FirstColdBytes = serializeCompiledModel(*Cold);
      } else if (Traced && Round == 1) {
        // The traced replay must do exactly compileModel's work.
        if (std::string D = compareBytes(serializeCompiledModel(*Cold),
                                         M.FirstColdBytes);
            !D.empty())
          R.fail("traced compile of " + M.Name + " differs: " + D);
      }
      if (Traced && Cold.ok()) {
        int Span = Trace.begin("serialize.store", Label, Op);
        Status Saved = saveModel(*Cold, StorePath);
        Stages.Store += Trace.end(Span);
        ++Stages.StoreCount;
        if (!Saved.ok())
          R.fail("saveModel of " + M.Name + ": " + Saved.toString());
      }
      ++Op;
      double WarmMs = timeMs([&] {
        const int Span = Traced ? Trace.begin("compile.warm", Label, Op) : -1;
        Hit = compileModel(std::move(WarmGraph), Warm);
        if (Traced) {
          Stages.WarmTotal += Trace.end(Span);
          ++Stages.WarmCount;
        }
      });
      ++Hits.Attempted;
      if (!Hit.ok() || !Hit->CacheHit)
        R.opFailed(Hits, "warm compile of " + M.Name + " was not a cache hit");
      if (Traced && Hit.ok()) {
        // The replayed stages must do exactly the hit's work.
        Expected<CompiledModel> Replayed =
            replayWarm(M.Proto, Warm, Trace, Label, Op, Stages);
        std::string D =
            !Replayed.ok() ? Replayed.status().toString()
            : Round == 1   ? compareBytes(serializeCompiledModel(*Replayed),
                                          serializeCompiledModel(*Hit))
                           : "";
        if (!D.empty())
          R.fail("replayed cache hit of " + M.Name + " differs: " + D);
      }
      if (!Traced) {
        M.Cold.push_back(ColdMs);
        M.Warm.push_back(WarmMs);
      }
      (Traced ? TracedOps : UntracedOps).push_back(ColdMs);
      (Traced ? TracedOps : UntracedOps).push_back(WarmMs);
      TimedMs += ColdMs + WarmMs;
    }
    if (!Traced)
      RoundRates.push_back(2.0 * static_cast<double>(Models.size()) * 1000.0 /
                           msBetween(RoundStart, Clock::now()));
  }
  double LoopSeconds = msBetween(LoopStart, Clock::now()) / 1000.0;

  // Checks: a second cold compile serializes to the first one's bytes, and
  // a cache hit computes bit-identically to a cold compile.
  for (size_t MI = 0; MI < Models.size(); ++MI) {
    ModelCase &M = Models[MI];
    Expected<CompiledModel> Cold = compileModel(M.Proto);
    Expected<CompiledModel> Hit = compileModel(M.Proto, Warm);
    if (!Cold.ok() || !Hit.ok()) {
      R.fail("check compile of " + M.Name + " failed");
      continue;
    }
    if (std::string D = compareBytes(serializeCompiledModel(*Cold),
                                     M.FirstColdBytes);
        !D.empty())
      R.fail("cold compiles of " + M.Name + " are not deterministic: " + D);
    std::vector<Tensor> In =
        seededInputs(Cold->Signature, Config.Seed * 1000 + MI);
    InferenceSession ColdSession(std::move(*Cold)), HitSession(std::move(*Hit));
    Expected<std::vector<Tensor>> A = ColdSession.run(In), B = HitSession.run(In);
    if (!A.ok() || !B.ok()) {
      R.fail("check run of " + M.Name + " failed");
      continue;
    }
    if (std::string D = compareBitwise(*B, *A); !D.empty())
      R.fail("cache-hit outputs of " + M.Name + " differ from cold: " + D);
  }

  std::printf("# compile: %d setups, timed loop %.1f s (%.1f s inside compiles)\n",
              SetupRepeats, LoopSeconds, TimedMs / 1000.0);
  std::vector<double> Medians, ColdMed, WarmMed;
  int HitSlower = 0;
  std::printf("# %-18s %9s %9s %9s %9s %5s\n", "model", "cold_p50", "cold_p90",
              "warm_p50", "warm_p90", "n");
  for (const ModelCase &M : Models) {
    double C50 = median(M.Cold), W50 = median(M.Warm);
    std::printf("# %-18s %9.3f %9.3f %9.3f %9.3f %5zu\n", M.Name.c_str(), C50,
                quantile(M.Cold, 0.9), W50, quantile(M.Warm, 0.9),
                M.Cold.size());
    ColdMed.push_back(C50);
    WarmMed.push_back(W50);
    Medians.insert(Medians.end(), {C50, W50});
    HitSlower += W50 > C50;
  }
  std::printf("# a cache hit is slower than a cold compile on %d of %zu "
              "models\n",
              HitSlower, Models.size());
  Summary S;
  S.SetupSeconds = median(SetupSeconds);
  S.LatencyMs = geomean(Medians);
  S.ClassAMs = geomean(ColdMed);
  S.ClassBMs = geomean(WarmMed);
  S.ThroughputPerS = median(RoundRates);
  S.FootprintMb = static_cast<double>(ArtifactBytes) / 1e6;
  report(Config, R, S);
  if (!Config.Trace)
    return;

  auto PerCold = [&](double Sum) {
    return Stages.ColdCount ? Sum / static_cast<double>(Stages.ColdCount) : 0.0;
  };
  auto PerWarm = [&](double Sum) {
    return Stages.WarmCount ? Sum / static_cast<double>(Stages.WarmCount) : 0.0;
  };
  R.Metrics["trace.compile_ms"] = PerCold(Stages.ColdTotal);
  R.Metrics["core.rewrite_ms"] = PerCold(Stages.Rewrite);
  R.Metrics["core.plan_ms"] = PerCold(Stages.Plan);
  R.Metrics["core.carve_ms"] = PerCold(Stages.Carve);
  R.Metrics["runtime.codegen_ms"] = PerCold(Stages.Codegen);
  R.Metrics["runtime.compile_other_ms"] =
      PerCold(Stages.ColdTotal - Stages.Rewrite - Stages.Plan - Stages.Carve -
              Stages.Codegen);
  R.Metrics["trace.load_ms"] = PerWarm(Stages.WarmTotal);
  R.Metrics["serialize.key_ms"] = PerWarm(Stages.Key);
  R.Metrics["serialize.read_ms"] = PerWarm(Stages.Read);
  R.Metrics["serialize.decode_ms"] = PerWarm(Stages.Decode);
  R.Metrics["serialize.load_other_ms"] =
      PerWarm(Stages.WarmTotal - Stages.Key - Stages.Read - Stages.Decode);
  R.Metrics["serialize.store_ms"] =
      Stages.StoreCount ? Stages.Store / static_cast<double>(Stages.StoreCount)
                        : 0.0;
  R.Metrics["core.rewrites"] = static_cast<double>(Stages.Rewrites);
  R.Metrics["core.blocks"] = static_cast<double>(Stages.Blocks);
  R.Metrics["runtime.prepack_mb"] = static_cast<double>(Stages.PrepackBytes) / 1e6;
  R.Metrics["trace.overhead_ms"] = mean(TracedOps) - mean(UntracedOps);
  std::printf("# traced: %lld cold compiles, %lld cache hits; stages + other = "
              "%.4f ms of %.4f ms traced compile total\n",
              static_cast<long long>(Stages.ColdCount),
              static_cast<long long>(Stages.WarmCount),
              R.Metrics["core.rewrite_ms"] + R.Metrics["core.plan_ms"] +
                  R.Metrics["core.carve_ms"] + R.Metrics["runtime.codegen_ms"] +
                  R.Metrics["runtime.compile_other_ms"],
              R.Metrics["trace.compile_ms"]);
  std::printf("# tracing overhead: %.4f ms per compile (traced %.4f vs "
              "untraced %.4f)\n",
              R.Metrics["trace.overhead_ms"], mean(TracedOps),
              mean(UntracedOps));
  if (!Config.TraceOut.empty() &&
      !writeTraceEvents(Config.TraceOut, {&Trace}, R.Labels))
    R.fail("cannot write " + Config.TraceOut);
}

} // namespace perfbench
