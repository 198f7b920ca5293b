// The repo benchmark's driver: parses the command line, runs one workload
// and prints the result as the last line of stdout.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "perfbench/common.h"
#include "perfbench/workloads.h"

int main(int argc, char** argv) {
  using namespace sdg::perfbench;
  std::string workload;
  RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(v);
    } else if (flag == "--trace") {
      opts.trace = std::atoi(v) != 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  Result result;
  const HostCpuTicks cpu0 = ReadHostCpuTicks();
  if (workload == "serve_mixed") {
    RunServe(opts, result);
  } else if (workload == "stream_wc") {
    RunStream(opts, result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  const HostCpuTicks cpu1 = ReadHostCpuTicks();
  double steal = cpu1.total > cpu0.total
                     ? static_cast<double>(cpu1.steal - cpu0.steal) /
                           static_cast<double>(cpu1.total - cpu0.total)
                     : 0.0;
  std::fprintf(stderr, "host steal during the run: %.1f%% of CPU time\n",
               100 * steal);
  if (opts.trace) {
    result.Set("bench.host_steal_frac", steal, "fraction");
  }
  FinishMetrics(result, opts.trace);
  std::filesystem::remove_all(std::filesystem::current_path() / ".bench_build" /
                              ("work-" + std::to_string(::getpid())));
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
