// Entry points of the benchmark's workloads.
#ifndef SDG_PERFBENCH_WORKLOADS_H_
#define SDG_PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "perfbench/common.h"

namespace sdg::perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// serve_mixed.
void RunServe(const RunOptions& opts, Result& out);
// stream_wc.
void RunStream(const RunOptions& opts, Result& out);

}  // namespace sdg::perfbench

#endif  // SDG_PERFBENCH_WORKLOADS_H_
