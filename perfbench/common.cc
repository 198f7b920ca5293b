#include "perfbench/common.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace sdg::perfbench {

std::string Result::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    double v = std::isfinite(vu.first) ? vu.first : 0.0;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
        << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

thread_local uint64_t ScopedSpan::open_ = 0;

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::Local() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    auto buffer = std::make_unique<Buffer>();
    local = buffer.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  return *local;
}

void Tracer::Record(Span span) {
  if (enabled()) {
    Local().spans.push_back(span);
  }
}

void Tracer::Sample(const char* counter, double value) {
  if (enabled()) {
    Local().samples.push_back({NowNs(), {counter, value}});
  }
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) {
    n += b->spans.size();
  }
  return n;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (const auto& s : b->spans) {
      out << "{\"span\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"req\":" << s.request
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
    for (const auto& [t, cv] : b->samples) {
      out << "{\"counter\":\"" << cv.first << "\",\"t_ns\":" << t
          << ",\"value\":" << cv.second << "}\n";
    }
  }
  return static_cast<bool>(out);
}

Periodic::Periodic(std::chrono::milliseconds period, std::function<void()> fn)
    : thread_([this, period, fn = std::move(fn)] {
        auto next = Clock::now() + period;
        std::unique_lock<std::mutex> lock(mu_);
        while (!cv_.wait_until(lock, next, [this] { return stop_; })) {
          lock.unlock();
          fn();
          lock.lock();
          next += period;
          auto now = Clock::now();
          if (next < now) {
            next = now + period;  // a call overran: keep the period, skip
          }
        }
      }) {}

Periodic::~Periodic() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"cpu_us_per_item", "us"},
      {"ok_frac", "fraction"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"fail_frac", "fraction"},
      {"req_p50_ms", "ms"},
      {"req_p99_ms", "ms"},
      {"items_per_s", "1/s"},
      {"recovery_s", "s"},
      {"serve.put_p99_ms", "ms"},
      {"serve.strong_get_p99_ms", "ms"},
      {"serve.mean_batch", "count"},
      {"serve.batches_per_s", "1/s"},
      {"serve.shed_frac", "fraction"},
      {"net.unacked_p99", "count"},
      {"net.data_sockets", "count"},
      {"runtime.tasks_per_item", "ratio"},
      {"runtime.steal_frac", "fraction"},
      {"runtime.ready_depth_p99", "count"},
      {"runtime.queue_depth_p99", "count"},
      {"runtime.inject_block_s", "s"},
      {"runtime.drain_s", "s"},
      {"runtime.speedup_vs_1t", "ratio"},
      {"state.bytes", "bytes"},
      {"checkpoint.call_p50_ms", "ms"},
      {"checkpoint.call_max_ms", "ms"},
      {"checkpoint.busy_frac", "fraction"},
      {"checkpoint.req_p99_in_ms", "ms"},
      {"checkpoint.req_p99_out_ms", "ms"},
      {"checkpoint.bytes_per_epoch", "bytes"},
      {"checkpoint.delta_frac", "fraction"},
      {"checkpoint.restore_s", "s"},
      {"checkpoint.replay_s", "s"},
      {"bench.gen_late_p99_ms", "ms"},
      {"bench.ref_items_per_s", "1/s"},
      {"bench.trace_overhead_frac", "fraction"},
      {"bench.host_steal_frac", "fraction"},
  };
  return defs;
}

void FinishMetrics(Result& out, bool trace) {
  const auto& defs = trace ? PerLayerMetrics() : EndToEndMetrics();
  std::vector<std::pair<std::string, std::pair<double, std::string>>> ordered;
  for (const auto& def : defs) {
    auto it = std::find_if(out.metrics.begin(), out.metrics.end(),
                           [&](const auto& m) { return m.first == def.name; });
    if (it != out.metrics.end()) {
      ordered.push_back({def.name, {it->second.first, def.unit}});
    } else if (trace) {
      ordered.push_back({def.name, {0.0, def.unit}});
    } else {
      out.Fail(1, std::string("metric not measured: ") + def.name);
    }
  }
  if (!trace) {
    for (const auto& m : ordered) {
      if (!(m.second.first > 0)) {
        // Every end-to-end metric is positive in a run that worked; a zero
        // must never become a baseline.
        out.Fail(1, "end-to-end metric " + m.first + " is not positive");
      }
    }
  }
  out.metrics = std::move(ordered);
}

void WriteTrace(const std::string& workload, uint64_t seed) {
  auto dir = std::filesystem::current_path() / ".bench_build" / "traces";
  std::filesystem::create_directories(dir);
  auto path = dir / (workload + "-seed" + std::to_string(seed) + ".jsonl");
  Tracer& t = Tracer::Get();
  if (t.WriteJsonl(path.string())) {
    std::fprintf(stderr, "trace: %zu spans -> %s\n", t.span_count(),
                 path.string().c_str());
  } else {
    std::fprintf(stderr, "trace: could not write %s\n", path.string().c_str());
  }
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

HostCpuTicks ReadHostCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  in >> cpu;
  for (auto& x : v) {
    in >> x;
  }
  HostCpuTicks t;
  for (auto x : v) {
    t.total += x;
  }
  t.steal = v[7];
  return t;
}

std::string WorkDir(const std::string& tag) {
  auto dir = std::filesystem::current_path() / ".bench_build" /
             ("work-" + std::to_string(::getpid())) / tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace sdg::perfbench
