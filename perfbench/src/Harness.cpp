//===- perfbench/src/Harness.cpp - Shared benchmark machinery -------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ops/KernelRegistry.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "tensor/TensorUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>
#include <thread>

using namespace dnnfusion;

namespace perfbench {

double quantile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  double Pos = Q * static_cast<double>(Samples.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Samples[Lo] + (Samples[Hi] - Samples[Lo]) * Frac;
}

double mean(const std::vector<double> &Samples) {
  if (Samples.empty())
    return 0.0;
  double Sum = 0;
  for (double S : Samples)
    Sum += S;
  return Sum / static_cast<double>(Samples.size());
}

double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0;
  for (double V : Values) {
    if (!(V > 0))
      return 0.0;
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

int SpanBuffer::begin(const char *Name, int Label, int64_t Op) {
  Span S;
  S.Name = Name;
  S.Label = Label;
  S.Op = Op;
  S.Tid = Tid;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartUs = std::chrono::duration<double, std::micro>(Clock::now() - Origin)
                  .count();
  Spans.push_back(S);
  Open.push_back(static_cast<int>(Spans.size()) - 1);
  return Open.back();
}

double SpanBuffer::end(int Index) {
  Span &S = Spans[static_cast<size_t>(Index)];
  S.EndUs = std::chrono::duration<double, std::micro>(Clock::now() - Origin)
                .count();
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
  return (S.EndUs - S.StartUs) / 1000.0;
}

static void writeJsonString(std::ostream &Out, const std::string &S) {
  Out << '"';
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out << '\\' << C;
    else if (static_cast<unsigned char>(C) < 0x20)
      Out << ' ';
    else
      Out << C;
  }
  Out << '"';
}

bool writeTraceEvents(const std::string &Path,
                      const std::vector<const SpanBuffer *> &Buffers,
                      const std::vector<std::string> &Labels) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"traceEvents\": [\n";
  bool First = true;
  char Num[64];
  for (const SpanBuffer *Buf : Buffers)
    for (size_t I = 0; I < Buf->spans().size(); ++I) {
      const Span &S = Buf->spans()[I];
      Out << (First ? "" : ",\n") << "{\"name\": ";
      First = false;
      writeJsonString(Out, S.Name);
      std::snprintf(Num, sizeof(Num), "%.3f", S.StartUs);
      Out << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << S.Tid
          << ", \"ts\": " << Num;
      std::snprintf(Num, sizeof(Num), "%.3f", S.EndUs - S.StartUs);
      Out << ", \"dur\": " << Num << ", \"args\": {\"id\": " << I
          << ", \"parent\": " << S.Parent << ", \"op\": " << S.Op;
      if (S.Label >= 0) {
        Out << ", \"label\": ";
        writeJsonString(Out, Labels[static_cast<size_t>(S.Label)]);
      }
      Out << "}}";
    }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

void Result::fail(const std::string &Why) {
  Correct = false;
  if (CheckFailures.size() < 20)
    CheckFailures.push_back(Why);
}

void Result::opFailed(OpCount &Kind, const std::string &Why, uint64_t Count) {
  Kind.Failed += Count;
  if (OpFailures.size() < 20)
    OpFailures.push_back(Why);
}

int Result::label(const std::string &Text) {
  for (size_t I = 0; I < Labels.size(); ++I)
    if (Labels[I] == Text)
      return static_cast<int>(I);
  Labels.push_back(Text);
  return static_cast<int>(Labels.size()) - 1;
}

const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s"},
      {"latency_ms", "ms"},
      {"footprint_mb", "MB"},
      {"peak_rss_mb", "MB"},
  };
  return Defs;
}

const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> Defs = {
      // every workload: its class split and throughput (untraced rounds).
      {"class_a_ms", "ms"},
      {"class_b_ms", "ms"},
      {"throughput_per_s", "1/s"},
      // compile workload: cold pipeline stages, then the cache-hit path.
      {"trace.compile_ms", "ms"},
      {"core.rewrite_ms", "ms"},
      {"core.plan_ms", "ms"},
      {"core.carve_ms", "ms"},
      {"runtime.codegen_ms", "ms"},
      {"runtime.compile_other_ms", "ms"},
      {"trace.load_ms", "ms"},
      {"serialize.key_ms", "ms"},
      {"serialize.read_ms", "ms"},
      {"serialize.decode_ms", "ms"},
      {"serialize.load_other_ms", "ms"},
      {"serialize.store_ms", "ms"},
      {"core.rewrites", "count"},
      {"core.blocks", "count"},
      {"runtime.prepack_mb", "MB"},
      // serve workload: batch-1 block time by step kind, and the executor's
      // share.
      {"trace.latency_ms", "ms"},
      {"ops.gemm_ms", "ms"},
      {"ops.attention_ms", "ms"},
      {"ops.layernorm_ms", "ms"},
      {"ops.eltwise_ms", "ms"},
      {"ops.other_ms", "ms"},
      {"runtime.dispatch_ms", "ms"},
      {"ops.gemm_gflops", "GFLOP/s"},
      {"runtime.main_mb", "MB"},
      {"runtime.scratch_mb", "MB"},
      {"ops.packed_calls", "count"},
      {"ops.direct_calls", "count"},
      {"ops.avx2_calls", "count"},
      {"ops.scalar_calls", "count"},
      {"runtime.levels", "count"},
      {"runtime.max_width", "count"},
      // serve workload: ServingStats deltas and the load generator.
      {"serving.queue_p50_ms", "ms"},
      {"serving.exec_p50_ms", "ms"},
      {"serving.mean_batch", "count"},
      {"serving.assemble_ms", "ms"},
      {"serving.queue_high_water", "count"},
      {"serving.variant_compiles", "count"},
      {"loadgen.lag_p99_ms", "ms"},
      // every workload: traced minus untraced time per operation.
      {"trace.overhead_ms", "ms"},
  };
  return Defs;
}

static std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

void printHeader(const RunConfig &Config) {
  KernelConfig Default;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              Config.Workload.c_str(),
              static_cast<unsigned long long>(Config.Seed), Config.Seconds,
              Config.Trace ? 1 : 0);
  std::printf("# host: cpu=\"%s\" nproc=%u pool_threads=%u kernel_tier=%s\n",
              cpuModel().c_str(), std::thread::hardware_concurrency(),
              ThreadPool::global().numThreads(),
              kernelLevelName(effectiveKernelLevel(Default)));
  std::printf("# build: compiler=\"%s\" build_type=%s git=%s\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, Config.GitSha.c_str());
}

void report(const RunConfig &Config, Result &R, const Summary &S) {
  std::printf("# summary: setup_s=%.4f latency_ms=%.4f class_a_ms=%.4f "
              "class_b_ms=%.4f throughput_per_s=%.3f footprint_mb=%.4f\n",
              S.SetupSeconds, S.LatencyMs, S.ClassAMs, S.ClassBMs,
              S.ThroughputPerS, S.FootprintMb);
  if (!Config.Trace) {
    R.Metrics["setup_s"] = S.SetupSeconds;
    R.Metrics["latency_ms"] = S.LatencyMs;
    R.Metrics["footprint_mb"] = S.FootprintMb;
    R.Metrics["peak_rss_mb"] = peakRssMb();
    return;
  }
  for (const MetricDef &D : perLayerMetrics())
    R.Metrics[D.Name] = 0.0;
  R.Metrics["class_a_ms"] = S.ClassAMs;
  R.Metrics["class_b_ms"] = S.ClassBMs;
  R.Metrics["throughput_per_s"] = S.ThroughputPerS;
}

int finish(const RunConfig &Config, Result &R) {
  uint64_t Attempted = 0, Failed = 0;
  for (const auto &[Kind, C] : R.Ops) {
    std::printf("# ops %-16s attempted=%llu failed=%llu\n", Kind.c_str(),
                static_cast<unsigned long long>(C.Attempted),
                static_cast<unsigned long long>(C.Failed));
    if (!C.InTotals)
      continue;
    Attempted += C.Attempted;
    Failed += C.Failed;
  }
  for (const std::string &Why : R.CheckFailures)
    std::fprintf(stderr, "CHECK FAILED: %s\n", Why.c_str());
  for (const std::string &Why : R.OpFailures)
    std::fprintf(stderr, "OPERATION FAILED: %s\n", Why.c_str());

  const std::vector<MetricDef> &Defs =
      Config.Trace ? perLayerMetrics() : endToEndMetrics();
  // An end-to-end metric that reads 0 was not measured: the run is void.
  for (const MetricDef &D : Defs) {
    auto It = R.Metrics.find(D.Name);
    if (It == R.Metrics.end() || !std::isfinite(It->second) ||
        (!Config.Trace && !(It->second > 0))) {
      std::fprintf(stderr, "metric %s was not measured\n", D.Name);
      return 1;
    }
  }
  if (Attempted == 0) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }

  std::string Line = "{\"correct\": ";
  Line += R.Correct ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Attempted);
  Line += ", \"failed\": " + std::to_string(Failed);
  Line += ", \"metrics\": {";
  char Num[64];
  for (size_t I = 0; I < Defs.size(); ++I) {
    std::snprintf(Num, sizeof(Num), "%.17g", R.Metrics[Defs[I].Name]);
    Line += std::string(I ? ", " : "") + "\"" + Defs[I].Name +
            "\": {\"value\": " + Num + ", \"unit\": \"" + Defs[I].Unit +
            "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
  return 0;
}

std::vector<Tensor> seededInputs(const ModelSignature &Sig, uint64_t Seed) {
  Rng R(Seed);
  std::vector<Tensor> Inputs;
  for (const TensorSpec &Spec : Sig.Inputs) {
    Tensor T(Spec.Sh, Spec.Ty);
    fillRandom(T, R, 0.2f, 1.2f);
    Inputs.push_back(std::move(T));
  }
  return Inputs;
}

} // namespace perfbench
