// stream_wc: a checkpointed streaming wordcount run to completion on a 4-node
// in-process Deployment, then a node kill, a recovery onto one survivor, and
// an exact comparison of every count with the single-threaded reference.
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/apps/reference_models.h"
#include "src/apps/wordcount.h"
#include "src/apps/workloads.h"
#include "src/common/rng.h"
#include "src/runtime/cluster.h"
#include "src/state/keyed_dict.h"

namespace sdg::perfbench {
namespace {

constexpr uint32_t kNodes = 4;
constexpr uint32_t kCountPartitions = 4;
constexpr uint64_t kVocabulary = 200000;
constexpr uint64_t kWordsPerLine = 8;
constexpr uint64_t kLinesPerPass = 100000;  // 800k words
constexpr double kTailFraction = 0.1;       // un-checkpointed input at the end
constexpr size_t kLinesPerInject = 64;
// CheckpointAllNodes every kLinesPerCheckpoint injected lines (about 0.3 s
// of input on a 4-vCPU host): a period in input rather than wall time, so
// each pass checkpoints the same input and buffers the same un-trimmed
// output however fast the host runs it.
constexpr size_t kLinesPerCheckpoint = 10000;
constexpr int kSamplePeriodMs = 20;
constexpr double kReadQps = 2000;  // count reads during ingest, open loop

struct Corpus {
  std::vector<std::string> lines;
  std::vector<std::string> read_words;  // words the reader looks up, in order
  apps::WordCountReferenceModel reference;
  double ref_seconds = 0;
};

// The corpus depends only on the seed, so every pass of a run (and every run
// with the same seed) sees the same input.
void MakeCorpus(uint64_t seed, Corpus& c) {
  apps::TextGenerator gen(kVocabulary, kWordsPerLine, seed, 0.99);
  c.lines.reserve(kLinesPerPass);
  for (uint64_t i = 0; i < kLinesPerPass; ++i) {
    c.lines.push_back(gen.NextLine());
  }
  ZipfGenerator reads(kVocabulary, 0.99, seed ^ 0x7ead5ULL);
  for (int i = 0; i < 1 << 15; ++i) {
    std::string word(1, 'w');
    word += std::to_string(reads.Next());
    c.read_words.push_back(std::move(word));
  }
  auto t0 = Clock::now();
  for (const auto& line : c.lines) {
    c.reference.AddLine(line);
  }
  c.ref_seconds = SecondsBetween(t0, Clock::now());
}

struct PassResult {
  bool ok = false;
  double setup_s = 0;
  double items_per_s = 0;
  double cpu_us_per_item = 0;
  double recovery_s = 0;
  double restore_s = 0;
  double replay_s = 0;
  double drain_s = 0;
  double inject_block_s = 0;
  double ref_items_per_s = 0;
  uint64_t words = 0;
  uint64_t reads = 0;
  uint64_t failed = 0;  // failed reads/injects/checkpoints + wrong counts
  std::vector<double> read_ms;
  std::vector<double> read_late_ms;
  std::vector<std::pair<int64_t, int64_t>> read_windows;  // [due, done] ns
  std::vector<std::pair<int64_t, int64_t>> ckpt_windows;
  std::vector<double> ckpt_ms;
  double ckpt_busy_s = 0;
  double ingest_s = 0;
  double peak_rss_mb = 0;
  // Layer counters (traced passes only).
  std::vector<double> queue_depth, ready_depth;
  uint64_t tasks = 0, steals = 0, processed = 0;
  uint64_t ckpt_bytes = 0, ckpt_full = 0, ckpt_delta = 0, epochs = 0;
  double state_bytes = 0;
};

// The node to kill: one holding a count partition but not the splitter.
uint32_t VictimNode(runtime::Deployment& d) {
  uint32_t line_node = d.NodeOfTaskInstance("line", 0);
  for (uint32_t i = 0; i < d.NumStateInstances("counts"); ++i) {
    uint32_t node = d.NodeOfStateInstance("counts", i);
    if (node != line_node) {
      return node;
    }
  }
  return d.NodeOfStateInstance("counts", 0);
}

PassResult RunPass(uint64_t seed, const std::string& dir, bool traced,
                   Corpus& corpus) {
  PassResult r;
  std::atomic<uint64_t> failed{0};
  Tracer& tracer = Tracer::Get();
  tracer.Enable(traced);
  ScopedSpan pass_span("bench.pass");
  auto t_setup = Clock::now();
  {
    // Set-up: corpus, reference and deployment, rebuilt every pass so the
    // set-up time has several samples per run.
    corpus = Corpus();
    MakeCorpus(seed, corpus);
  }
  r.words = kLinesPerPass * kWordsPerLine;
  r.ref_items_per_s = static_cast<double>(r.words) / corpus.ref_seconds;
  apps::WordCountOptions wo;
  wo.count_partitions = kCountPartitions;
  auto g = apps::BuildWordCountSdg(wo);
  if (!g.ok()) {
    return r;
  }
  runtime::ClusterOptions co;
  co.num_nodes = kNodes;
  co.serialize_cross_node = true;
  co.fault_tolerance.mode = runtime::FtMode::kAsyncLocal;
  co.fault_tolerance.checkpoint_interval_s = 0;  // the benchmark drives it
  co.fault_tolerance.delta_epoch_interval = 8;
  co.fault_tolerance.store.root = dir;
  runtime::Cluster cluster(co);
  auto dep = cluster.Deploy(std::move(*g));
  if (!dep.ok()) {
    std::fprintf(stderr, "deploy: %s\n", dep.status().ToString().c_str());
    return r;
  }
  runtime::Deployment& d = **dep;
  r.setup_s = SecondsBetween(t_setup, Clock::now());

  // Count reads: "snapshot"(word) -> "read" -> sink, tagged with the read's
  // index; latency runs from the read's due time.
  const size_t max_reads = corpus.read_words.size();
  std::vector<int64_t> read_due_ns(max_reads, 0);
  std::vector<std::atomic<uint8_t>> read_done(max_reads);
  std::mutex read_mu;
  Clock::time_point read_start;
  (void)d.OnOutput("read", [&](const Tuple& t, uint64_t tag) {
    Clock::time_point now = Clock::now();
    if (tag == 0 || tag > max_reads || read_done[tag - 1].exchange(1) != 0) {
      return;
    }
    auto due = read_start + std::chrono::nanoseconds(read_due_ns[tag - 1]);
    bool ok = t.size() == 2 && t[1].AsInt() >= 0 &&
              t[1].AsInt() <= corpus.reference.CountOf(t[0].AsString());
    if (!ok) {
      failed.fetch_add(1);
      return;
    }
    std::lock_guard<std::mutex> lock(read_mu);
    r.read_ms.push_back(MsBetween(due, now));
    r.read_windows.push_back({tracer.ToNs(due), tracer.ToNs(now)});
    if (tracer.enabled()) {
      Span s;
      s.id = tracer.NextId();
      s.request = tag;
      s.name = "wc.count_read";
      s.start_ns = tracer.ToNs(due);
      s.end_ns = tracer.ToNs(now);
      tracer.Record(s);
    }
  });

  auto exec0 = d.ExecutorStatsSnapshot();
  uint64_t processed0 = d.TotalProcessed();
  auto ck0 = d.CheckpointStatsSnapshot();
  const size_t tail_start = static_cast<size_t>(
      static_cast<double>(corpus.lines.size()) * (1.0 - kTailFraction));
  std::atomic<bool> ingesting{true};
  std::atomic<size_t> injected{0};
  std::mutex ck_mu;
  auto inject = [&](size_t from, size_t to) {
    for (size_t i = from; i < to; i += kLinesPerInject) {
      size_t end = std::min(to, i + kLinesPerInject);
      std::vector<Tuple> batch;
      batch.reserve(end - i);
      for (size_t j = i; j < end; ++j) {
        batch.push_back(Tuple{Value(corpus.lines[j])});
      }
      ScopedSpan span("runtime.inject_all");
      auto a = Clock::now();
      Status st = d.InjectAll("line", std::move(batch));
      r.inject_block_s += SecondsBetween(a, Clock::now());
      if (!st.ok()) {
        failed.fetch_add(1);
      }
      injected.store(end, std::memory_order_relaxed);
    }
  };
  Clock::time_point t_first = Clock::now();
  double cpu_first = 0;
  {
    // The one extra benchmark thread: CheckpointAllNodes each time another
    // kLinesPerCheckpoint lines are in, until the tail starts, and counter
    // samples when tracing.
    std::atomic<bool> checkpoints_on{true};
    size_t next_checkpoint = kLinesPerCheckpoint;
    Periodic sampler(std::chrono::milliseconds(kSamplePeriodMs), [&] {
      if (traced) {
        double q = static_cast<double>(d.TotalQueueDepth());
        double rd = static_cast<double>(d.ExecutorStatsSnapshot().ready_queue_depth);
        tracer.Sample("runtime.queue_depth", q);
        tracer.Sample("runtime.ready_depth", rd);
        std::lock_guard<std::mutex> lock(ck_mu);
        r.queue_depth.push_back(q);
        r.ready_depth.push_back(rd);
      }
      if (injected.load(std::memory_order_relaxed) < next_checkpoint ||
          !checkpoints_on.load()) {
        return;
      }
      next_checkpoint += kLinesPerCheckpoint;
      ScopedSpan span("checkpoint.all_nodes");
      auto a = Clock::now();
      Status st = d.CheckpointAllNodes();
      auto b = Clock::now();
      std::lock_guard<std::mutex> lock(ck_mu);
      if (!st.ok()) {
        failed.fetch_add(1);
      }
      r.ckpt_ms.push_back(MsBetween(a, b));
      r.ckpt_windows.push_back({tracer.ToNs(a), tracer.ToNs(b)});
      r.ckpt_busy_s += SecondsBetween(a, b);
      ++r.epochs;
    });

    // Reader: one generator thread issuing count reads on a fixed schedule.
    read_start = Clock::now();
    std::thread reader([&] {
      for (size_t i = 0; i < max_reads && ingesting.load(); ++i) {
        auto due_ns = static_cast<int64_t>(1e9 * static_cast<double>(i) / kReadQps);
        read_due_ns[i] = due_ns;
        auto due = read_start + std::chrono::nanoseconds(due_ns);
        std::this_thread::sleep_until(due);
        if (!ingesting.load()) {
          break;
        }
        Clock::time_point now = Clock::now();
        {
          std::lock_guard<std::mutex> lock(read_mu);
          r.read_late_ms.push_back(MsBetween(due, now));
          ++r.reads;
        }
        if (!d.Inject("snapshot", Tuple{Value(corpus.read_words[i])}, i + 1)
                 .ok()) {
          failed.fetch_add(1);
        }
      }
    });

    // Ingest: the main thread appends lines in fixed batches as fast as the
    // dataflow accepts them (InjectAll blocks on full mailboxes). Mailboxes
    // absorb much of the input, so the first Drain keeps the periodic
    // checkpoints running until the checkpointed part is processed; the
    // tail is then injected and processed with checkpoints off.
    t_first = Clock::now();
    cpu_first = ProcessCpuSeconds();
    inject(0, tail_start);
    {
      ScopedSpan span("runtime.drain");
      d.Drain();
    }
    ingesting.store(false);
    reader.join();
    checkpoints_on.store(false);
  }
  inject(tail_start, corpus.lines.size());
  {
    ScopedSpan span("runtime.drain");
    auto a = Clock::now();
    d.Drain();
    auto b = Clock::now();
    r.drain_s = SecondsBetween(a, b);
    r.ingest_s = SecondsBetween(t_first, b);
  }
  r.items_per_s = static_cast<double>(r.words) / r.ingest_s;
  r.cpu_us_per_item =
      (ProcessCpuSeconds() - cpu_first) * 1e6 / static_cast<double>(r.words);
  auto exec1 = d.ExecutorStatsSnapshot();
  auto ck1 = d.CheckpointStatsSnapshot();
  r.tasks = exec1.tasks_run - exec0.tasks_run;
  r.steals = exec1.steals - exec0.steals;
  r.processed = d.TotalProcessed() - processed0;
  r.ckpt_bytes = ck1.bytes_written - ck0.bytes_written;
  r.ckpt_full = ck1.full_serializations - ck0.full_serializations;
  r.ckpt_delta = ck1.delta_serializations - ck0.delta_serializations;
  // Reads still unanswered after the drain never completed.
  for (size_t i = 0; i < r.reads; ++i) {
    if (read_done[i].load() == 0) {
      failed.fetch_add(1);
    }
  }

  // Kill the node holding a count partition (not the splitter's), recover
  // it onto one survivor, and replay the un-checkpointed tail.
  uint32_t victim = VictimNode(d);
  uint32_t survivor = (victim + 1) % kNodes;
  auto t_kill = Clock::now();
  Status st = d.KillNode(victim);
  if (st.ok()) {
    ScopedSpan span("checkpoint.recover_node");
    auto a = Clock::now();
    st = d.RecoverNode(victim, {survivor});
    r.restore_s = SecondsBetween(a, Clock::now());
  }
  if (!st.ok()) {
    std::fprintf(stderr, "kill/recover: %s\n", st.ToString().c_str());
    r.failed = failed.load() + 1;
    d.Shutdown();
    return r;
  }
  {
    ScopedSpan span("checkpoint.replay_drain");
    auto a = Clock::now();
    d.Drain();
    auto b = Clock::now();
    r.replay_s = SecondsBetween(a, b);
    r.recovery_s = SecondsBetween(t_kill, b);
  }
  r.state_bytes = static_cast<double>(d.StateSizeBytes("counts"));

  // Exact comparison with the reference model.
  std::map<std::string, int64_t> got;
  uint32_t n = d.NumStateInstances("counts");
  for (uint32_t i = 0; i < n; ++i) {
    auto* dict = dynamic_cast<state::KeyedDict<std::string, int64_t>*>(
        d.StateInstance("counts", i));
    if (dict == nullptr) {
      failed.fetch_add(1);
      continue;
    }
    dict->ForEach([&](const std::string& w, int64_t c) { got[w] += c; });
  }
  const auto& want = corpus.reference.counts();
  uint64_t mismatched = 0;
  for (const auto& [w, c] : want) {
    auto it = got.find(w);
    if (it == got.end() || it->second != c) {
      ++mismatched;
    }
  }
  mismatched += got.size() > want.size() ? got.size() - want.size() : 0;
  if (mismatched > 0) {
    std::fprintf(stderr, "stream_wc: %llu words differ from the reference\n",
                 static_cast<unsigned long long>(mismatched));
  }
  r.failed = failed.load() + mismatched;
  d.Shutdown();
  r.peak_rss_mb = PeakRssMb();  // from process start; see RunStream
  r.ok = true;
  return r;
}

double P99(std::vector<double> v) { return Quantile(v, 0.99); }

// p99 of the reads whose [due, done] overlaps a checkpoint call (`in`) or
// not.
void SplitByCheckpoint(const PassResult& p, std::vector<double>& in,
                       std::vector<double>& out) {
  for (size_t i = 0; i < p.read_windows.size(); ++i) {
    bool overlaps = false;
    for (const auto& c : p.ckpt_windows) {
      if (p.read_windows[i].first < c.second &&
          c.first < p.read_windows[i].second) {
        overlaps = true;
        break;
      }
    }
    (overlaps ? in : out).push_back(p.read_ms[i]);
  }
}

}  // namespace

void RunStream(const RunOptions& opts, Result& out) {
  std::string root = WorkDir("stream_wc");
  auto t_run = Clock::now();
  std::vector<PassResult> passes;
  Corpus corpus;
  // At least three passes, so every time is a median of three; traced runs
  // alternate untraced and traced passes to measure the tracing overhead.
  for (int i = 0;; ++i) {
    bool traced = opts.trace && i % 2 == 1;
    std::string dir = root + "/pass" + std::to_string(i);
    passes.push_back(RunPass(opts.seed, dir, traced, corpus));
    const PassResult& p = passes.back();
    std::fprintf(stderr,
                 "stream_wc pass %d%s: setup %.3f s, %.0f words/s (ref %.0f), "
                 "%.3f us CPU per word, "
                 "reads p50 %.3f p99 %.3f ms, recovery %.3f s (restore %.3f, "
                 "replay %.3f), ckpt %zu x p50 %.1f ms, failed %llu\n",
                 i, traced ? " (traced)" : "", p.setup_s, p.items_per_s,
                 p.ref_items_per_s, p.cpu_us_per_item, Median(p.read_ms), P99(p.read_ms),
                 p.recovery_s, p.restore_s, p.replay_s, p.ckpt_ms.size(),
                 Median(p.ckpt_ms), static_cast<unsigned long long>(p.failed));
    out.attempted += p.words + p.reads;
    out.Fail(p.failed, "stream_wc pass " + std::to_string(i));
    if (!p.ok) {
      out.Fail(1, "stream_wc pass did not complete");
      break;
    }
    double elapsed = SecondsBetween(t_run, Clock::now());
    int min_passes = opts.trace ? 4 : 3;
    if (static_cast<int>(passes.size()) >= min_passes &&
        elapsed >= opts.seconds) {
      break;
    }
  }
  Tracer::Get().Enable(false);

  auto median_of = [&](auto field, bool traced_only, bool untraced_only) {
    std::vector<double> v;
    for (size_t i = 0; i < passes.size(); ++i) {
      bool traced = opts.trace && i % 2 == 1;
      if ((traced_only && !traced) || (untraced_only && traced)) {
        continue;
      }
      v.push_back(field(passes[i]));
    }
    return Median(v);
  };
  double fail_frac = out.attempted == 0
                         ? 0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  auto untraced = [&](auto f) { return median_of(f, false, true); };
  if (!opts.trace) {
    out.Set("setup_s", untraced([](const PassResult& p) { return p.setup_s; }),
            "s");
    out.Set("cpu_us_per_item",
            untraced([](const PassResult& p) { return p.cpu_us_per_item; }),
            "us");
    out.Set("ok_frac", 1.0 - fail_frac, "fraction");
    // Later passes reuse heap the earlier ones left in the allocator, so
    // only the first pass's peak is the peak of one pass.
    out.Set("peak_rss_mb", passes.front().peak_rss_mb, "MB");
    return;
  }
  // Per-layer metrics from the traced passes.
  auto tr = [&](auto f) { return median_of(f, true, false); };
  out.Set("fail_frac", fail_frac, "fraction");
  out.Set("req_p50_ms",
          untraced([](const PassResult& p) { return Median(p.read_ms); }), "ms");
  out.Set("req_p99_ms",
          untraced([](const PassResult& p) { return P99(p.read_ms); }), "ms");
  out.Set("items_per_s",
          untraced([](const PassResult& p) { return p.items_per_s; }), "1/s");
  out.Set("recovery_s",
          untraced([](const PassResult& p) { return p.recovery_s; }), "s");
  out.Set("runtime.tasks_per_item", tr([](const PassResult& p) {
            return p.processed == 0 ? 0.0
                                    : static_cast<double>(p.tasks) /
                                          static_cast<double>(p.processed);
          }),
          "ratio");
  out.Set("runtime.steal_frac", tr([](const PassResult& p) {
            return p.tasks == 0 ? 0.0
                                : static_cast<double>(p.steals) /
                                      static_cast<double>(p.tasks);
          }),
          "fraction");
  out.Set("runtime.ready_depth_p99",
          tr([](const PassResult& p) { return P99(p.ready_depth); }), "count");
  out.Set("runtime.queue_depth_p99",
          tr([](const PassResult& p) { return P99(p.queue_depth); }), "count");
  out.Set("runtime.inject_block_s",
          tr([](const PassResult& p) { return p.inject_block_s; }), "s");
  out.Set("runtime.drain_s", tr([](const PassResult& p) { return p.drain_s; }),
          "s");
  out.Set("runtime.speedup_vs_1t", tr([](const PassResult& p) {
            return p.items_per_s / p.ref_items_per_s;
          }),
          "ratio");
  out.Set("state.bytes", tr([](const PassResult& p) { return p.state_bytes; }),
          "bytes");
  out.Set("checkpoint.call_p50_ms",
          tr([](const PassResult& p) { return Median(p.ckpt_ms); }), "ms");
  out.Set("checkpoint.call_max_ms",
          tr([](const PassResult& p) {
            std::vector<double> v = p.ckpt_ms;
            return Quantile(v, 1.0);
          }),
          "ms");
  out.Set("checkpoint.busy_frac", tr([](const PassResult& p) {
            return p.ckpt_busy_s / p.ingest_s;
          }),
          "fraction");
  out.Set("checkpoint.req_p99_in_ms", tr([](const PassResult& p) {
            std::vector<double> in, outside;
            SplitByCheckpoint(p, in, outside);
            return P99(in);
          }),
          "ms");
  out.Set("checkpoint.req_p99_out_ms", tr([](const PassResult& p) {
            std::vector<double> in, outside;
            SplitByCheckpoint(p, in, outside);
            return P99(outside);
          }),
          "ms");
  out.Set("checkpoint.bytes_per_epoch", tr([](const PassResult& p) {
            return p.epochs == 0 ? 0.0
                                 : static_cast<double>(p.ckpt_bytes) /
                                       static_cast<double>(p.epochs);
          }),
          "bytes");
  out.Set("checkpoint.delta_frac", tr([](const PassResult& p) {
            uint64_t n = p.ckpt_full + p.ckpt_delta;
            return n == 0 ? 0.0
                          : static_cast<double>(p.ckpt_delta) /
                                static_cast<double>(n);
          }),
          "fraction");
  out.Set("checkpoint.restore_s",
          tr([](const PassResult& p) { return p.restore_s; }), "s");
  out.Set("checkpoint.replay_s",
          tr([](const PassResult& p) { return p.replay_s; }), "s");
  out.Set("bench.gen_late_p99_ms",
          tr([](const PassResult& p) { return P99(p.read_late_ms); }), "ms");
  out.Set("bench.ref_items_per_s",
          tr([](const PassResult& p) { return p.ref_items_per_s; }), "1/s");
  double cpu_untraced =
      untraced([](const PassResult& p) { return p.cpu_us_per_item; });
  double cpu_traced = tr([](const PassResult& p) { return p.cpu_us_per_item; });
  out.Set("bench.trace_overhead_frac",
          cpu_untraced > 0 ? cpu_traced / cpu_untraced - 1.0 : 0.0,
          "fraction");
  WriteTrace("stream_wc", opts.seed);
}

}  // namespace sdg::perfbench
