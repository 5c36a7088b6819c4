//===- perfbench/src/ServeWorkload.cpp - The serve workload ---------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
// Served traffic: TinyBERT (compute-bound) and the weight-stationary
// serving MLP (bandwidth-bound, where batching pays) behind one
// ModelRegistry, each with its DynamicBatcher at default options. Every
// round runs three phases back to back, so a slow phase of the host hits
// them alike:
//
//   closed  nproc clients, each sending its next request when the last
//           one returns, ClosedRequestsPerClient requests each;
//   light   open loop, seeded Poisson arrivals at LightRate;
//   heavy   open loop, seeded Poisson arrivals at HeavyRate.
//
// Open-loop requests go out from nproc sender threads, each taking the
// next due arrival when it is free, and are timed from when they were
// due. Every request picks its model and its input from a seeded pool.
// Class a = the light rate, class b = the heavy rate; throughput is the
// closed loop's.
//
// latency_ms is the light phase's: the geomean over the two models of
// each one's lower-quartile latency. The heavy phase's queueing and the
// median both multiply the host's slow spells, so both are reported per
// layer and in the log but not gated (see README.md).
//
//===----------------------------------------------------------------------===//

#include "Attribution.h"
#include "Checks.h"
#include "Harness.h"

#include "models/ModelZoo.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <thread>

using namespace dnnfusion;

namespace perfbench {

namespace {

/// Arrival rates in requests per second, and arrivals per round (about
/// 1 s each). On the 4-vCPU reference host the closed loop serves 440 to
/// 490 req/s, and 280 to 390 in the host's slow phases. At the heavy rate
/// batches form (mean batch about 1.25 against 1.05 at the light rate); a
/// higher rate forms hardly larger batches but queues longer, which
/// multiplies the host's speed drift (see README.md).
constexpr double LightRate = 40.0;
constexpr double HeavyRate = 200.0;
constexpr int LightArrivals = 40;
constexpr int HeavyArrivals = 200;
constexpr int ClosedRequestsPerClient = 100;
/// Set-ups per run; setup_s is their median. One takes about a third of
/// a second, so there are more of them than on the compile workload.
constexpr int SetupRepeats = 7;
/// Batches of each size the warm-up runs per model, and its cap on waves
/// per model and size.
constexpr uint64_t WarmupBatches = 2;
constexpr int MaxWarmupWaves = 50;
constexpr int InputsPerModel = 16;
/// Weights of the serving MLP; fixed, like the zoo's.
constexpr uint64_t MlpSeed = 42;

enum Phase { Closed, Light, Heavy, NumPhases };
const char *const PhaseName[NumPhases] = {"closed", "light", "heavy"};

struct ServedModel {
  std::string Name;
  DynamicBatcher::GraphFactory Factory;
  std::vector<std::vector<Tensor>> Inputs;
  /// Batch-1 InferenceSession outputs per input: what every response
  /// must reproduce bit for bit.
  std::vector<std::vector<Tensor>> Expected;
  int64_t ArenaBytes = 0;
  /// The batch-1 session the expected outputs come from, and (traced run)
  /// a context over the same model for per-block attribution.
  std::unique_ptr<InferenceSession> Solo;
  std::unique_ptr<ExecutionContext> SoloTraced;
  std::vector<BlockClass> Classes;
};

/// One request of a phase: which model and input, and when it is due.
struct Request {
  int Model = 0;
  int Input = 0;
  double DueMs = 0; ///< Open loop only, from the phase start.
};

struct Sample {
  int Model = 0;
  double LatencyMs = 0;
  double LagMs = 0;
};

/// What the sender threads of one phase observed.
struct PhaseLog {
  std::mutex Mutex;
  std::vector<Sample> Samples;
  uint64_t Attempted = 0, Failed = 0, Shed = 0;
  /// First few failed requests (typed errors) and wrong responses.
  std::vector<std::string> Failures, Mismatches;
};

LatencyHistogram minus(const LatencyHistogram &A, const LatencyHistogram &B) {
  LatencyHistogram D;
  for (int I = 0; I < LatencyHistogram::NumBuckets; ++I)
    D.Buckets[static_cast<size_t>(I)] =
        A.Buckets[static_cast<size_t>(I)] - B.Buckets[static_cast<size_t>(I)];
  D.Count = A.Count - B.Count;
  D.SumMicros = A.SumMicros - B.SumMicros;
  D.MaxMicros = A.MaxMicros;
  return D;
}

/// ServingStats deltas of one phase kind, summed over models and rounds.
struct PhaseStats {
  LatencyHistogram Queue, Exec, Total;
  uint64_t Served = 0, Batches = 0;
};

/// Runs one phase's requests from \p Threads sender threads. Open loop:
/// each free thread takes the next arrival, waits until it is due, sends
/// it, and times it from the due time. Closed loop (no due times): thread
/// T sends requests T, T + Threads, ... back to back.
void runPhase(ModelRegistry &Reg, std::vector<ServedModel> &Models,
              const std::vector<Request> &Reqs, bool Open, int Threads,
              PhaseLog &Log, std::vector<std::unique_ptr<SpanBuffer>> *Spans,
              int PhaseLabel, std::atomic<int64_t> &OpIds) {
  std::atomic<size_t> Next{0};
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(1);
  auto Sender = [&](int T) {
    std::vector<Sample> Local;
    uint64_t Attempted = 0, Failed = 0, Shed = 0;
    std::vector<std::string> Failures, Mismatches;
    SpanBuffer *Buf = Spans ? (*Spans)[static_cast<size_t>(T)].get() : nullptr;
    for (size_t I = Open ? Next++ : static_cast<size_t>(T); I < Reqs.size();
         I = Open ? Next++ : I + static_cast<size_t>(Threads)) {
      const Request &Q = Reqs[I];
      ServedModel &M = Models[static_cast<size_t>(Q.Model)];
      Clock::time_point Due =
          Open ? Start + std::chrono::microseconds(
                             static_cast<int64_t>(Q.DueMs * 1000.0))
               : Clock::now();
      if (Open)
        std::this_thread::sleep_until(Due);
      Clock::time_point Sent = Clock::now();
      Expected<std::vector<Tensor>> Out = notRun();
      {
        ScopedSpan S(Buf, "ModelRegistry::run", PhaseLabel, OpIds++);
        Out = Reg.run(M.Name, M.Inputs[static_cast<size_t>(Q.Input)]);
      }
      Clock::time_point Done = Clock::now();
      ++Attempted;
      if (!Out.ok()) {
        ErrorCode C = Out.status().code();
        if (C == ErrorCode::ResourceExhausted ||
            C == ErrorCode::DeadlineExceeded)
          ++Shed;
        ++Failed;
        if (Failures.size() < 3)
          Failures.push_back(M.Name + ": " + Out.status().toString());
        continue;
      }
      if (std::string D = compareBitwise(
              *Out, M.Expected[static_cast<size_t>(Q.Input)]);
          !D.empty() && Mismatches.size() < 3)
        Mismatches.push_back(M.Name + " response differs from batch-1 run: " +
                             D);
      Local.push_back({Q.Model, msBetween(Due, Done), msBetween(Due, Sent)});
    }
    std::lock_guard<std::mutex> Lock(Log.Mutex);
    Log.Samples.insert(Log.Samples.end(), Local.begin(), Local.end());
    Log.Attempted += Attempted;
    Log.Failed += Failed;
    Log.Shed += Shed;
    Log.Failures.insert(Log.Failures.end(), Failures.begin(), Failures.end());
    Log.Mismatches.insert(Log.Mismatches.end(), Mismatches.begin(),
                          Mismatches.end());
  };
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back(Sender, T);
  for (std::thread &T : Pool)
    T.join();
}

/// Poisson arrivals at \p Rate per second, models and inputs uniform.
std::vector<Request> openSchedule(Rng &R, int Count, double Rate, int Models) {
  std::vector<Request> Reqs(static_cast<size_t>(Count));
  double T = 0;
  for (Request &Q : Reqs) {
    T += -std::log(1.0 - static_cast<double>(R.nextFloat())) / Rate * 1000.0;
    Q.DueMs = T;
    Q.Model = static_cast<int>(R.nextBelow(static_cast<uint64_t>(Models)));
    Q.Input = static_cast<int>(R.nextBelow(InputsPerModel));
  }
  return Reqs;
}

std::vector<Request> closedSchedule(Rng &R, int Count, int Models) {
  std::vector<Request> Reqs(static_cast<size_t>(Count));
  for (Request &Q : Reqs) {
    Q.Model = static_cast<int>(R.nextBelow(static_cast<uint64_t>(Models)));
    Q.Input = static_cast<int>(R.nextBelow(InputsPerModel));
  }
  return Reqs;
}

std::vector<ServingStats> snapshot(ModelRegistry &Reg,
                                   const std::vector<ServedModel> &Models) {
  std::vector<ServingStats> Out;
  for (const ServedModel &M : Models)
    Out.push_back(Reg.acquire(M.Name).value()->stats());
  return Out;
}

} // namespace

void runServeWorkload(const RunConfig &Config, Result &R) {
  const int Threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  auto Weights = std::make_shared<const MlpWeights>(makeMlpWeights(MlpSeed));
  std::vector<ServedModel> Models;
  std::unique_ptr<ModelRegistry> Reg;
  std::vector<double> SetupSeconds;
  std::atomic<int64_t> OpIds{0};

  // Batch sizes of the default ladder the load generator can form: it
  // never has more than nproc requests in flight.
  const BatcherOptions Batching;
  std::vector<int64_t> Buckets;
  for (int64_t B : Batching.BatchSizes)
    if (B <= std::min<int64_t>(Threads, Batching.MaxBatchSize))
      Buckets.push_back(B);

  // One set-up. The previous one is torn down untimed and its freed
  // memory handed back, so that set-ups do not pile up in peak_rss_mb.
  // Returns false when it could not be completed.
  size_t HighWater = 0; // Over every registry of the run.
  auto SetUp = [&](int Rep) -> bool {
    if (Reg)
      for (const ServingStats &S : snapshot(*Reg, Models))
        HighWater = std::max(HighWater, S.HighWaterQueueDepth);
    Reg.reset();
    Models.clear();
    malloc_trim(0);
    Clock::time_point Start = Rep == 0 ? Config.ProcessStart : Clock::now();
    Models.resize(2);
    Models[0].Name = "TinyBERT";
    Models[0].Factory = [](int64_t B) {
      return buildModelBatched("TinyBERT", B);
    };
    Models[1].Name = "serving-mlp";
    Models[1].Factory = [Weights](int64_t B) {
      return buildServingMlp(*Weights, B);
    };
    Reg = std::make_unique<ModelRegistry>();
    double ExpectedMs = 0;
    for (size_t MI = 0; MI < Models.size(); ++MI) {
      ServedModel &M = Models[MI];
      if (Status S = Reg->load(M.Name, M.Factory); !S.ok()) {
        R.fail("load of " + M.Name + ": " + S.toString());
        return false;
      }
      Expected<CompiledModel> Solo = compileModel(M.Factory(1));
      if (!Solo.ok()) {
        R.fail("batch-1 compile of " + M.Name + ": " + Solo.status().toString());
        return false;
      }
      M.ArenaBytes = Solo->Memory.ArenaBytes;
      M.Solo = std::make_unique<InferenceSession>(Solo.takeValue());
      InferenceSession &Session = *M.Solo;
      M.Classes = classifyBlocks(Session.model());
      if (Config.Trace)
        M.SoloTraced = std::make_unique<ExecutionContext>(Session.model());
      Clock::time_point ExpectedStart = Clock::now();
      for (int I = 0; I < InputsPerModel; ++I) {
        M.Inputs.push_back(seededInputs(
            Session.signature(),
            Config.Seed * 1000 + MI * InputsPerModel + static_cast<size_t>(I)));
        Expected<std::vector<Tensor>> Want = Session.run(M.Inputs.back());
        if (!Want.ok()) {
          R.fail("batch-1 run of " + M.Name + ": " + Want.status().toString());
          return false;
        }
        M.Expected.push_back(Want.takeValue());
      }
      ExpectedMs += msBetween(ExpectedStart, Clock::now());
    }
    // Warm-up: per model and reachable batch size B, waves of B requests
    // all due at the same instant (so they coalesce into one batch of B)
    // until WarmupBatches batches of B have run. The first compiles the
    // variant, so none compiles in the timed loop.
    Clock::time_point WarmStart = Clock::now();
    int Waves = 0;
    for (int MI = 0; MI < static_cast<int>(Models.size()); ++MI) {
      const ServedModel &M = Models[static_cast<size_t>(MI)];
      std::shared_ptr<DynamicBatcher> Batcher = Reg->acquire(M.Name).value();
      for (int64_t B : Buckets) {
        std::vector<Request> Reqs;
        for (int I = 0; I < B; ++I)
          Reqs.push_back({MI, I % InputsPerModel, 0});
        auto Formed = [&] {
          return Batcher->stats().BatchSizeCounts[static_cast<size_t>(B)];
        };
        for (int Wave = 0; Wave < MaxWarmupWaves && Formed() < WarmupBatches;
             ++Wave, ++Waves) {
          PhaseLog Log;
          runPhase(*Reg, Models, Reqs, /*Open=*/true, static_cast<int>(B), Log,
                   nullptr, -1, OpIds);
          if (Log.Failed)
            R.fail("warm-up request failed: " + Log.Failures.front());
          for (const std::string &F : Log.Mismatches)
            R.fail("warm-up: " + F);
        }
        if (Formed() < WarmupBatches)
          std::printf("# warm-up formed %llu batches of %lld for %s\n",
                      static_cast<unsigned long long>(Formed()),
                      static_cast<long long>(B), M.Name.c_str());
      }
    }
    Clock::time_point End = Clock::now();
    SetupSeconds.push_back(msBetween(Start, End) / 1000.0);
    std::printf("# setup %d: %.4f s (expected outputs %.4f s, warm-up %.4f s "
                "in %d waves), peak RSS so far %.1f MB\n",
                Rep, SetupSeconds.back(), ExpectedMs / 1000.0,
                msBetween(WarmStart, End) / 1000.0, Waves, peakRssMb());
    return true;
  };
  if (!SetUp(0))
    return;
  int SetupsDone = 1;

  // Timed loop.
  std::vector<std::unique_ptr<SpanBuffer>> Spans;
  Clock::time_point TraceOrigin = Clock::now();
  for (int T = 0; T < Threads; ++T)
    Spans.push_back(std::make_unique<SpanBuffer>(TraceOrigin, T + 1));
  int PhaseLabels[NumPhases];
  for (int P = 0; P < NumPhases; ++P)
    PhaseLabels[P] = R.label(PhaseName[P]);
  Rng Sched(Config.Seed);
  std::vector<Sample> Samples[NumPhases];
  PhaseStats Deltas[NumPhases];
  OpCount &Requests = R.Ops["served_requests"];
  OpCount &Sheds = R.Ops["sheds"];
  Sheds.InTotals = false;
  std::vector<double> ClosedRates;
  std::vector<double> TracedOps, UntracedOps;
  BlockAttribution Attr;
  Clock::time_point LoopStart = Clock::now();
  for (int Round = 0; msBetween(LoopStart, Clock::now()) < Config.Seconds * 1000;
       ++Round) {
    // The other set-ups are spread over the run, between rounds, so that
    // setup_s samples the host's speed across the run as the rounds do.
    if (SetupsDone < SetupRepeats &&
        msBetween(LoopStart, Clock::now()) >=
            SetupsDone * Config.Seconds * 1000 / SetupRepeats &&
        !SetUp(SetupsDone++))
      return;
    const bool Traced = Config.Trace && Round % 2 == 1;
    for (int P = 0; P < NumPhases; ++P) {
      std::vector<Request> Reqs =
          P == Closed
              ? closedSchedule(Sched, ClosedRequestsPerClient * Threads,
                               static_cast<int>(Models.size()))
              : openSchedule(Sched, P == Light ? LightArrivals : HeavyArrivals,
                             P == Light ? LightRate : HeavyRate,
                             static_cast<int>(Models.size()));
      std::vector<ServingStats> Before = snapshot(*Reg, Models);
      PhaseLog Log;
      Clock::time_point PhaseStart = Clock::now();
      runPhase(*Reg, Models, Reqs, P != Closed, Threads, Log,
               Traced ? &Spans : nullptr, PhaseLabels[P], OpIds);
      double PhaseSeconds = msBetween(PhaseStart, Clock::now()) / 1000.0;
      std::vector<ServingStats> After = snapshot(*Reg, Models);
      for (size_t MI = 0; MI < Models.size(); ++MI) {
        Deltas[P].Queue.add(minus(After[MI].QueueMicros, Before[MI].QueueMicros));
        Deltas[P].Exec.add(minus(After[MI].Sessions.ExecMicros,
                                 Before[MI].Sessions.ExecMicros));
        Deltas[P].Total.add(minus(After[MI].TotalMicros, Before[MI].TotalMicros));
        Deltas[P].Served += After[MI].Served - Before[MI].Served;
        Deltas[P].Batches += After[MI].BatchesExecuted - Before[MI].BatchesExecuted;
      }
      for (const Sample &S : Log.Samples)
        (Traced ? TracedOps : UntracedOps).push_back(S.LatencyMs);
      if (!Traced) {
        if (P == Closed)
          ClosedRates.push_back(
              static_cast<double>(Log.Attempted - Log.Failed) / PhaseSeconds);
        Samples[P].insert(Samples[P].end(), Log.Samples.begin(),
                          Log.Samples.end());
      }
      Requests.Attempted += Log.Attempted;
      Sheds.Attempted += Log.Attempted;
      Sheds.Failed += Log.Shed;
      if (Log.Failed)
        R.opFailed(Requests,
                   std::string(PhaseName[P]) + " phase: " + Log.Failures.front(),
                   Log.Failed);
      for (const std::string &F : Log.Mismatches)
        R.fail(std::string(PhaseName[P]) + " phase: " + F);
    }
    if (!Traced)
      continue;
    // Traced rounds end with every pool input run once, batch-1 and
    // single-stream, with per-block timing: the ops/runtime attribution of
    // the served models (outside the served path, which hides per-block
    // stats).
    for (ServedModel &M : Models)
      for (size_t I = 0; I < M.Inputs.size(); ++I) {
        ExecutionStats Stats;
        Expected<std::vector<Tensor>> Out = notRun();
        double Ms;
        {
          ScopedSpan S(Spans[0].get(), "ExecutionContext::tryRun",
                       R.label(M.Name), OpIds++);
          Ms = timeMs(
              [&] { Out = M.SoloTraced->tryRun(M.Inputs[I], &Stats, true); });
        }
        if (!Out.ok()) {
          R.fail("traced batch-1 run of " + M.Name + ": " +
                 Out.status().toString());
          continue;
        }
        if (std::string D = compareBitwise(*Out, M.Expected[I]); !D.empty())
          R.fail("traced batch-1 run of " + M.Name + ": " + D);
        Attr.add(M.Solo->model(), M.Classes, Stats, Ms, Round == 1);
      }
  }
  while (SetupsDone < SetupRepeats) // Runs too short to spread them.
    if (!SetUp(SetupsDone++))
      return;
  double LoopSeconds = msBetween(LoopStart, Clock::now()) / 1000.0;

  // Check: the MLP's batch-1 outputs (which every response matched bit
  // for bit) against the benchmark's own float64 evaluation.
  for (const ServedModel &M : Models) {
    if (M.Name != "serving-mlp")
      continue;
    for (size_t I = 0; I < M.Inputs.size(); ++I)
      if (std::string D = compareToFloat64(
              M.Expected[I][0], mlpReference(*Weights, M.Inputs[I][0].data()),
              MlpRelTol, MlpAbsTol);
          !D.empty())
        R.fail("serving-mlp input " + std::to_string(I) +
               " disagrees with float64: " + D);
  }

  // Per (phase, model) raw latency samples.
  auto Item = [&](int P, int Model) {
    std::vector<double> V;
    for (const Sample &S : Samples[P])
      if (S.Model == Model)
        V.push_back(S.LatencyMs);
    return V;
  };
  std::printf("# serve: %d setups, loop %.1f s with the later setups, %d "
              "sender threads\n",
              SetupRepeats, LoopSeconds, Threads);
  std::printf("# %-7s %-12s %9s %9s %9s %9s %6s\n", "phase", "model",
              "p25_ms", "p50_ms", "p90_ms", "p99_ms", "n");
  std::vector<double> PhaseItems[NumPhases];
  for (int P = 0; P < NumPhases; ++P)
    for (int MI = 0; MI < static_cast<int>(Models.size()); ++MI) {
      std::vector<double> V = Item(P, MI);
      double P25 = quantile(V, 0.25);
      std::printf("# %-7s %-12s %9.4f %9.4f %9.4f %9.4f %6zu\n", PhaseName[P],
                  Models[static_cast<size_t>(MI)].Name.c_str(), P25,
                  median(V), quantile(V, 0.9), quantile(V, 0.99), V.size());
      PhaseItems[P].push_back(P25);
    }
  auto MeanBatch = [&](int P) {
    return Deltas[P].Batches ? static_cast<double>(Deltas[P].Served) /
                                   static_cast<double>(Deltas[P].Batches)
                             : 0.0;
  };
  std::printf("# mean batch: closed %.3f, light %.3f, heavy %.3f\n",
              MeanBatch(Closed), MeanBatch(Light), MeanBatch(Heavy));
  std::vector<double> Lags;
  for (int P : {Light, Heavy})
    for (const Sample &S : Samples[P])
      Lags.push_back(S.LagMs);
  std::printf("# loadgen_lag_p99_ms=%.4f\n", quantile(Lags, 0.99));
  int64_t Arena = 0;
  for (const ServedModel &M : Models)
    Arena += M.ArenaBytes;
  Summary S;
  S.SetupSeconds = median(SetupSeconds);
  S.LatencyMs = geomean(PhaseItems[Light]);
  S.ClassAMs = S.LatencyMs;
  S.ClassBMs = geomean(PhaseItems[Heavy]);
  S.ThroughputPerS = median(ClosedRates);
  S.FootprintMb = static_cast<double>(Arena) / 1e6;
  report(Config, R, S);
  if (!Config.Trace)
    return;

  const PhaseStats &H = Deltas[Heavy];
  R.Metrics["serving.queue_p50_ms"] = Deltas[Light].Queue.percentile(50) / 1000;
  R.Metrics["serving.exec_p50_ms"] = H.Exec.percentile(50) / 1000;
  R.Metrics["serving.mean_batch"] = MeanBatch(Heavy);
  R.Metrics["serving.assemble_ms"] =
      (H.Total.meanMicros() - H.Queue.meanMicros() - H.Exec.meanMicros()) /
      1000;
  uint64_t Compiles = 0; // Of the last registry: its set-up and rounds.
  for (const ServingStats &S : snapshot(*Reg, Models)) {
    Compiles += S.VariantCompiles;
    HighWater = std::max(HighWater, S.HighWaterQueueDepth);
  }
  R.Metrics["serving.queue_high_water"] = static_cast<double>(HighWater);
  R.Metrics["serving.variant_compiles"] = static_cast<double>(Compiles);
  R.Metrics["loadgen.lag_p99_ms"] = quantile(Lags, 0.99);
  std::vector<const CompiledModel *> Compiled;
  for (const ServedModel &M : Models)
    Compiled.push_back(&M.Solo->model());
  Attr.report(R, Compiled);
  R.Metrics["trace.overhead_ms"] = mean(TracedOps) - mean(UntracedOps);
  std::printf("# tracing overhead: %.4f ms per request (traced %.4f vs "
              "untraced %.4f)\n",
              R.Metrics["trace.overhead_ms"], mean(TracedOps),
              mean(UntracedOps));
  std::vector<const SpanBuffer *> Buffers;
  for (const std::unique_ptr<SpanBuffer> &B : Spans)
    Buffers.push_back(B.get());
  if (!Config.TraceOut.empty() &&
      !writeTraceEvents(Config.TraceOut, Buffers, R.Labels))
    R.fail("cannot write " + Config.TraceOut);
}

} // namespace perfbench
