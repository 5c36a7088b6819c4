//===- perfbench/src/Harness.h - Shared benchmark machinery -------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the run configuration,
/// sample statistics (median, quantiles, geomean — always from raw
/// samples), the in-memory span recorder behind the traced run, the
/// per-operation-kind attempt/failure ledger, and the result line the
/// benchmark ends with.
///
/// Every workload reports the same end-to-end metric names and the same
/// per-layer metric names (see endToEndMetrics / perLayerMetrics), so a
/// run of any workload can be compared metric by metric with the same
/// workload on another commit. A per-layer metric a workload does not
/// exercise in its timed loop reads 0.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <dnnfusion/dnnfusion.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Command-line configuration of one benchmark process.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Where the traced run writes its trace-event JSON ("" = nowhere).
  std::string TraceOut;
  /// Scratch directory for cache and artifact files, created on demand
  /// and removed at exit.
  std::string WorkDir;
  /// Source revision, printed in the run header.
  std::string GitSha = "unknown";
  /// Process start, the origin of the first set-up's duration.
  Clock::time_point ProcessStart;
};

//===----------------------------------------------------------------------===//
// Statistics over raw samples
//===----------------------------------------------------------------------===//

/// Linear-interpolated quantile \p Q in [0, 1] of \p Samples (copied and
/// sorted). 0 for an empty sample.
double quantile(std::vector<double> Samples, double Q);
inline double median(const std::vector<double> &Samples) {
  return quantile(Samples, 0.5);
}
double mean(const std::vector<double> &Samples);
/// Geometric mean of positive values (0 when empty or any value <= 0).
double geomean(const std::vector<double> &Values);

/// Peak resident set of this process so far, in MB.
double peakRssMb();

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One recorded span: a call into a layer, with the span that caused it.
struct Span {
  const char *Name = "";
  /// Free-form detail (model name, phase), kept as an index into the
  /// recorder's label table.
  int Label = -1;
  double StartUs = 0;
  double EndUs = 0;
  /// Index of the parent span in the same buffer, -1 for a root.
  int Parent = -1;
  /// Request/operation identifier shared by the spans of one operation.
  int64_t Op = 0;
  /// Recording thread (one buffer per thread).
  int Tid = 0;
};

/// Spans of one thread, kept in memory until the run ends. Not
/// synchronized: each recording thread owns its own buffer.
class SpanBuffer {
public:
  SpanBuffer(Clock::time_point Origin, int Tid) : Origin(Origin), Tid(Tid) {}
  /// Opens a span under the innermost open span; returns its index.
  int begin(const char *Name, int Label, int64_t Op);
  /// Closes span \p Index; returns its duration in milliseconds.
  double end(int Index);
  const std::vector<Span> &spans() const { return Spans; }

private:
  Clock::time_point Origin;
  int Tid;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span over the enclosing scope (no-op when \p Buf is null).
class ScopedSpan {
public:
  ScopedSpan(SpanBuffer *Buf, const char *Name, int Label = -1, int64_t Op = 0)
      : Buf(Buf), Index(Buf ? Buf->begin(Name, Label, Op) : -1) {}
  ~ScopedSpan() {
    if (Buf)
      Buf->end(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanBuffer *Buf;
  int Index;
};

/// Writes every buffer as Chrome trace-event JSON ("X" events; parent
/// and op ids in args). Returns false when the file cannot be written.
bool writeTraceEvents(const std::string &Path,
                      const std::vector<const SpanBuffer *> &Buffers,
                      const std::vector<std::string> &Labels);

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// Attempted/failed counts of one operation kind.
struct OpCount {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// False for a kind that classifies operations already counted under
  /// another kind (sheds are failed requests); printed, not summed.
  bool InTotals = true;
};

/// Everything a workload reports.
struct Result {
  /// False once any output check failed.
  bool Correct = true;
  /// Human-readable reasons for failed checks and failed operations
  /// (printed to stderr).
  std::vector<std::string> CheckFailures, OpFailures;
  /// Per operation kind ("compiles", "cache_hits",
  /// "served_requests", "sheds"), timed loop only.
  std::map<std::string, OpCount> Ops;
  /// Metric name -> value; unit and order come from the metric tables.
  std::map<std::string, double> Metrics;
  /// Labels referenced by recorded spans.
  std::vector<std::string> Labels;

  /// An output check failed: the run is incorrect.
  void fail(const std::string &Why);
  /// \p Count operations of \p Kind failed (\p Why describes the first):
  /// counted, not an incorrect output.
  void opFailed(OpCount &Kind, const std::string &Why, uint64_t Count = 1);
  int label(const std::string &Text);
};

/// Name and unit of one reported metric.
struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics every untraced run reports, in output order.
const std::vector<MetricDef> &endToEndMetrics();
/// The per-layer metrics every traced run reports, in output order.
const std::vector<MetricDef> &perLayerMetrics();

/// Prints the run header: host fingerprint, library configuration,
/// source revision and seed.
void printHeader(const RunConfig &Config);

/// What every workload measures from its untraced samples (all rounds of
/// an untraced run, the even rounds of a traced one).
struct Summary {
  double SetupSeconds = 0;
  /// Geomean over the workload's items of one quantile of each item's raw
  /// samples: the median on compile, the lower quartile on serve.
  double LatencyMs = 0;
  /// The same over the items of class a and of class b only.
  double ClassAMs = 0, ClassBMs = 0;
  /// Operations per second, median over rounds.
  double ThroughputPerS = 0;
  double FootprintMb = 0;
};

/// Logs \p S and files it as metrics: the end-to-end metrics of an
/// untraced run, or the per-layer class split and throughput of a traced
/// one (whose other per-layer metrics start at 0).
void report(const RunConfig &Config, Result &R, const Summary &S);

/// Prints the per-kind operation ledger and the final result line (the
/// last line of standard output). Returns the process exit code.
int finish(const RunConfig &Config, Result &R);

/// Seeded request inputs matching \p Sig, uniform in [0.2, 1.2) (the
/// positive domain the test suite feeds models).
std::vector<dnnfusion::Tensor> seededInputs(const dnnfusion::ModelSignature &Sig,
                                            uint64_t Seed);

/// Placeholder error of a result slot filled inside a timed lambda.
inline dnnfusion::Status notRun() {
  return dnnfusion::Status::error(dnnfusion::ErrorCode::Internal, "not run");
}

/// Runs the function, returning its wall time in milliseconds.
template <typename Fn> double timeMs(Fn &&F) {
  Clock::time_point A = Clock::now();
  F();
  return msBetween(A, Clock::now());
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void runCompileWorkload(const RunConfig &Config, Result &R);
void runServeWorkload(const RunConfig &Config, Result &R);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
