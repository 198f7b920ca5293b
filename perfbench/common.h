// Shared plumbing of the repo benchmark: clocks, exact percentiles, the
// metric sink that becomes the final JSON line, the in-memory span tracer,
// and a periodic sampler thread.
#ifndef SDG_PERFBENCH_COMMON_H_
#define SDG_PERFBENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace sdg::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Exact quantile of `v` (nearest rank); sorts in place. 0 for an empty set.
inline double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}
inline double Median(std::vector<double> v) { return Quantile(v, 0.5); }

// Everything one invocation reports, printed as the last stdout line.
// `attempted`/`failed` count user-visible operations (requests, words) and
// every failed correctness check.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics) {
      if (m.first == name) {
        m.second = {value, unit};
        return;
      }
    }
    metrics.push_back({name, {value, unit}});
  }
  void Fail(uint64_t n, const std::string& why) {
    if (n == 0) {
      return;
    }
    failed += n;
    correct = false;
    std::fprintf(stderr, "perfbench: FAILED (%llu): %s\n",
                 static_cast<unsigned long long>(n), why.c_str());
  }
  std::string ToJson() const;
};

// One timed call into a layer. `parent` is the id of the enclosing span (0 =
// root); `request` is the client request id for KvClient spans.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// In-memory span and counter-sample recorder for the traced run. Every
// recording thread appends to its own buffer; nothing is written until
// WriteJsonl at the end of the run. Disabled, every call is a branch.
class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(Span span);
  void Sample(const char* counter, double value);

  size_t span_count() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::pair<int64_t, std::pair<const char*, double>>> samples;
  };
  Buffer& Local();

  Clock::time_point epoch_ = Clock::now();
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span around one outside call into a layer; records only when tracing.
// Its parent is the span open on the same thread when it starts, if any.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    Tracer& t = Tracer::Get();
    if (t.enabled()) {
      span_.name = name;
      span_.parent = open_;
      span_.id = t.NextId();
      span_.start_ns = t.NowNs();
      open_ = span_.id;
      active_ = true;
    }
  }
  ~ScopedSpan() {
    if (active_) {
      Tracer& t = Tracer::Get();
      span_.end_ns = t.NowNs();
      open_ = span_.parent;
      t.Record(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static thread_local uint64_t open_;  // innermost open span on this thread
  Span span_;
  bool active_ = false;
};

// Calls `fn` every `period` on its own thread until destroyed.
class Periodic {
 public:
  Periodic(std::chrono::milliseconds period, std::function<void()> fn);
  ~Periodic();
  Periodic(const Periodic&) = delete;
  Periodic& operator=(const Periodic&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// The metric vocabulary, in output order. Every workload reports every
// end-to-end metric with --trace 0 and every per-layer metric with --trace 1;
// a per-layer metric of a layer the workload never calls reads 0.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

// Orders `out.metrics` by the vocabulary of the run's mode, fills per-layer
// metrics the workload did not set with 0, and fails the run if an
// end-to-end metric was not measured or is not positive.
void FinishMetrics(Result& out, bool trace);

// Writes the tracer's spans and samples to .bench_build/traces/.
void WriteTrace(const std::string& workload, uint64_t seed);

// VmHWM of this process in MiB: its peak RSS since it started.
double PeakRssMb();

// CPU time used so far by all threads of this process. The kernel leaves
// time stolen by the hypervisor out of it, so CPU per item holds still on a
// shared host where wall-clock rates do not.
double ProcessCpuSeconds();
// CPU time used so far by the calling thread.
double ThreadCpuSeconds();

// Host CPU time from /proc/stat, all CPUs: total and stolen by the
// hypervisor. The steal share of a run tells a noisy host from a slow build.
struct HostCpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpuTicks ReadHostCpuTicks();

// Bench-private scratch directory inside the working directory.
std::string WorkDir(const std::string& tag);

}  // namespace sdg::perfbench

#endif  // SDG_PERFBENCH_COMMON_H_
