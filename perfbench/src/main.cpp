//===- perfbench/src/main.cpp - Benchmark program -------------------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//   perfbench --workload compile|serve --seed N --seconds S
//             --trace 0|1 [--trace-out PATH] [--work-dir DIR] [--git-sha SHA]
//
// Runs one workload in this process and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics for --trace 0, the per-layer metrics for --trace 1.
// Everything before that line is a '#'-prefixed run log (host header,
// per-model and per-phase figures, the operation ledger).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <unistd.h>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload compile|serve "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH] "
               "[--work-dir DIR] [--git-sha SHA]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Config;
  Config.ProcessStart = Clock::now();
  Config.WorkDir = "perfbench-work";
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    const char *Value = Argv[++I];
    if (Arg == "--workload")
      Config.Workload = Value;
    else if (Arg == "--seed")
      Config.Seed = std::strtoull(Value, nullptr, 10);
    else if (Arg == "--seconds")
      Config.Seconds = std::atof(Value);
    else if (Arg == "--trace")
      Config.Trace = std::strcmp(Value, "0") != 0;
    else if (Arg == "--trace-out")
      Config.TraceOut = Value;
    else if (Arg == "--work-dir")
      Config.WorkDir = Value;
    else if (Arg == "--git-sha")
      Config.GitSha = Value;
    else
      return usage(("unknown argument " + Arg).c_str());
  }
  if (!(Config.Seconds > 0))
    return usage("--seconds must be positive");

  void (*Workload)(const RunConfig &, Result &) = nullptr;
  if (Config.Workload == "compile")
    Workload = runCompileWorkload;
  else if (Config.Workload == "serve")
    Workload = runServeWorkload;
  else
    return usage(("unknown workload '" + Config.Workload + "'").c_str());

  // A private scratch directory per process, removed on the way out.
  namespace fs = std::filesystem;
  const std::string Parent = Config.WorkDir;
  Config.WorkDir += "/run-" + std::to_string(getpid());
  std::error_code Err;
  fs::create_directories(Config.WorkDir, Err);
  if (Err)
    return usage(("cannot create " + Config.WorkDir).c_str());

  printHeader(Config);
  Result R;
  Workload(Config, R);
  fs::remove_all(Config.WorkDir, Err);
  fs::remove(Parent, Err); // Only when no other run still uses it.
  return finish(Config, R);
}
