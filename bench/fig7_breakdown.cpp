//===- bench/fig7_breakdown.cpp - Paper Figure 7 ---------------------------------------===//
//
// Optimization breakdown: speedup over OurB when enabling graph rewriting
// (GR), fusion (Fuse), and the other fusion-related optimizations (Other)
// incrementally, plus the no-rewriting ablation (Fuse+Other), on CPU
// (measured) and the modeled mobile GPU.
//
// `--json <path>` switches to the end-to-end latency tracker instead: the
// fully optimized pipeline timed under sequential vs wavefront block
// dispatch per zoo model, emitted as machine-readable JSON (BENCH_e2e.json
// in CI, uploaded as an artifact — the perf trajectory of the runtime).
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include <cstring>

using namespace dnnfusion;
using namespace dnnfusion::bench;

namespace {

CompiledModel compileVariant(const std::function<Graph()> &Build, bool Gr,
                             bool Fuse, bool Other) {
  CompileOptions Opt;
  Opt.EnableGraphRewriting = Gr;
  Opt.EnableFusion = Fuse;
  Opt.EnableOtherOpts = Other;
  return cantFail(compileModel(Build(), Opt));
}

/// Emits per-model sequential-vs-wavefront wall latency as JSON. Models
/// with wide-branching structure (R-CNNs, inception-style 3D CNNs) are the
/// ones where the wavefront dimension can pay off; narrow chains are
/// included as controls and to keep the trajectory honest.
int emitJson(const char *Path) {
  const char *Models[] = {"EfficientNet-B0", "YOLO-V4",      "S3D",
                          "U-Net",           "Faster R-CNN", "Mask R-CNN",
                          "GPT-2"};
  // One worker per hardware thread, capped at the paper's 8-thread mobile
  // CPU: more workers than CPUs would only oversubscribe the host. The
  // JSON records the resulting pool size as "threads".
  ThreadPool Pool(0);

  ExecutionOptions Seq = sequentialExec();
  Seq.Pool = &Pool;
  ExecutionOptions Wave;
  Wave.Pool = &Pool;

  FILE *Out = std::fopen(Path, "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open %s\n", Path);
    return 1;
  }
  std::fprintf(Out,
               "{\n  \"bench\": \"e2e\",\n  \"threads\": %u,\n"
               "  \"host_cpus\": %u,\n  \"models\": [\n",
               Pool.numThreads(), std::thread::hardware_concurrency());
  TablePrinter T({"Model", "Seq ms", "Wave ms", "Speedup", "Levels",
                  "MaxWidth"});
  for (size_t I = 0; I < sizeof(Models) / sizeof(Models[0]); ++I) {
    const char *Name = Models[I];
    CompiledModel M =
        cantFail(compileModel(buildModel(Name), CompileOptions()));
    double SeqMs = medianLatencyMs(M, 5, nullptr, Seq);
    double WaveMs = medianLatencyMs(M, 5, nullptr, Wave);
    double Speedup = WaveMs > 0.0 ? SeqMs / WaveMs : 0.0;
    std::fprintf(Out,
                 "    {\"name\": \"%s\", \"sequential_ms\": %.4f, "
                 "\"wavefront_ms\": %.4f, \"speedup\": %.3f, "
                 "\"levels\": %lld, \"max_width\": %lld, "
                 "\"blocks\": %lld}%s\n",
                 Name, SeqMs, WaveMs, Speedup,
                 static_cast<long long>(M.Schedule.numLevels()),
                 static_cast<long long>(M.Schedule.maxWidth()),
                 static_cast<long long>(M.Plan.fusedLayerCount()),
                 I + 1 < sizeof(Models) / sizeof(Models[0]) ? "," : "");
    T.addRow({Name, fmtMs(SeqMs), fmtMs(WaveMs), fmtRatio(Speedup),
              fmtCount(M.Schedule.numLevels()),
              fmtCount(M.Schedule.maxWidth())});
    std::fflush(Out);
  }
  std::fprintf(Out, "  ]\n}\n");
  std::fclose(Out);
  printHeading("End-to-end latency: sequential vs wavefront dispatch",
               "Written as JSON for the perf trajectory; speedups need "
               "real hardware parallelism (single-core hosts show ~1x).");
  T.print();
  std::printf("\nJSON written to %s\n", Path);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc)
      return emitJson(argv[I + 1]);
  printHeading("Figure 7: optimization breakdown (speedup over OurB)",
               "GR = graph rewriting, Fuse = operator fusion, Other = "
               "intra/inter-block data-movement optimizations.");
  struct Variant {
    const char *Name;
    bool Gr, Fuse, Other;
  };
  const Variant Variants[] = {
      {"GR", true, false, false},
      {"GR+Fuse", true, true, false},
      {"GR+Fuse+Other", true, true, true},
      {"Fuse+Other", false, true, true},
  };
  DeviceProfile Gpu = snapdragon865Gpu();
  DeviceProfile Cpu = snapdragon865Cpu();

  for (const char *Target : {"cpu (measured)", "gpu (modeled)"}) {
    bool IsGpu = std::string(Target).rfind("gpu", 0) == 0;
    std::vector<std::string> Header = {"Model"};
    for (const Variant &V : Variants)
      Header.push_back(V.Name);
    TablePrinter T(Header);
    for (const char *Name :
         {"EfficientNet-B0", "YOLO-V4", "S3D", "GPT-2"}) {
      auto Build = [&] { return buildModel(Name); };
      CompiledModel Base = compileVariant(Build, false, false, false);
      double BaseMs = IsGpu ? modelLatencyMs(Base, Gpu)
                            : medianLatencyMs(Base);
      (void)Cpu;
      std::vector<std::string> Row = {Name};
      for (const Variant &V : Variants) {
        CompiledModel M = compileVariant(Build, V.Gr, V.Fuse, V.Other);
        double Ms = IsGpu ? modelLatencyMs(M, Gpu) : medianLatencyMs(M);
        Row.push_back(fmtRatio(BaseMs / Ms));
      }
      T.addRow(Row);
      std::fflush(stdout);
    }
    std::printf("-- %s --\n", Target);
    T.print();
    std::printf("\n");
  }
  std::printf("Expected shape (paper): each increment helps; Fuse is the "
              "largest single contributor; GR's hidden value shows in the "
              "GR+Fuse+Other vs Fuse+Other gap (rewriting enables extra "
              "fusion).\n");
  return 0;
}
