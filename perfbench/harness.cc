#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>
#include <utility>

#include "core/columnar.h"
#include "engine/context.h"
#include "obs/json_util.h"
#include "piglet/interpreter.h"
#include "serve/catalog.h"

namespace perfbench {

using stark::Coordinate;
using stark::Envelope;
using stark::Geometry;
using stark::Rng;
using stark::obs::JsonQuoted;

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t tag = ++next;
  return tag;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find(':'));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Layers that spans are recorded for (the "<layer>" of "<layer>:<call>").
const char* const kSpanLayers[] = {"engine",      "partition",  "join",
                                   "serde",       "catalog",    "serve_queue",
                                   "serve_exec",  "stream",     "harness"};

struct WorkloadLayerMetric {
  const char* name;
  const char* unit;
};
/// Per-layer metrics only some workloads measure; the others report 0.
const WorkloadLayerMetric kWorkloadLayerMetrics[] = {
    {"serve.sustained_qps", "1/s"},
    {"serve.epochs_live_max", "count"},
    {"gen.late_over_1ms", "count"},
    {"stream.single_thread_events_per_s", "1/s"},
};

}  // namespace

// ---- Statistics and process probes ------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t CounterDelta(const stark::obs::MetricsRegistry::Snapshot& before,
                      const stark::obs::MetricsRegistry::Snapshot& after,
                      const std::string& name) {
  const auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  const auto b = before.counters.find(name);
  const uint64_t prior = b == before.counters.end() ? 0 : b->second;
  return a->second > prior ? a->second - prior : 0;
}

// ---- Report -----------------------------------------------------------------

void Report::Gate(const std::string& name, bool ok, const std::string& detail) {
  GateResult& g = gates_[name];
  if (!ok || g.ok) g.detail = detail;
  g.ok = g.ok && ok;
}

void Report::Samples(const std::string& name, const std::string& unit,
                     const std::vector<double>& samples) {
  Metric m;
  m.unit = unit;
  m.value = Quantile(samples, 0.5);
  m.q1 = Quantile(samples, 0.25);
  m.q3 = Quantile(samples, 0.75);
  m.n = samples.size();
  metrics_.emplace_back(name, m);
}

void Report::Value(const std::string& name, const std::string& unit,
                   double value) {
  Metric m;
  m.unit = unit;
  m.value = m.q1 = m.q3 = std::isfinite(value) ? value : 0.0;
  metrics_.emplace_back(name, m);
}

void Report::Meta(const std::string& key, const std::string& json) {
  meta_.emplace_back(key, json);
}

bool Report::Has(const std::string& name) const {
  for (const auto& [n, m] : metrics_) {
    if (n == name) return true;
  }
  return false;
}

bool Report::correct() const {
  if (gates_.empty()) return false;
  for (const auto& [name, g] : gates_) {
    if (!g.ok) return false;
  }
  return true;
}

void Report::PrintSummary(const std::string& workload) const {
  for (const auto& [name, g] : gates_) {
    std::fprintf(stderr, "[gate] %s: %s %s\n", name.c_str(),
                 g.ok ? "ok" : "FAILED", g.detail.c_str());
  }
  for (const auto& [name, m] : metrics_) {
    if (m.n > 1) {
      std::fprintf(stderr, "%s.%s = %.6g %s (q1 %.6g, q3 %.6g, n %zu)\n",
                   workload.c_str(), name.c_str(), m.value, m.unit.c_str(),
                   m.q1, m.q3, m.n);
    } else {
      std::fprintf(stderr, "%s.%s = %.6g %s\n", workload.c_str(),
                   name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::fprintf(stderr, "%s: attempted %zu, failed %zu, correct %s\n",
               workload.c_str(), attempted, failed,
               correct() ? "true" : "false");
}

bool Report::WriteJson(const std::string& path, const Options& options) const {
  std::string out = "{\n";
  out += "  \"workload\": " + JsonQuoted(options.workload) + ",\n";
  out += "  \"seed\": " + std::to_string(options.seed) + ",\n";
  out += "  \"seconds\": " + Number(options.seconds) + ",\n";
  out += std::string("  \"traced\": ") + (options.traced() ? "true" : "false") +
         ",\n";
  out += std::string("  \"correct\": ") + (correct() ? "true" : "false") +
         ",\n";
  out += "  \"attempted\": " + std::to_string(attempted) + ",\n";
  out += "  \"failed\": " + std::to_string(failed) + ",\n";
  out += "  \"gates\": {";
  bool first = true;
  for (const auto& [name, g] : gates_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonQuoted(name) + ": {\"ok\": " +
           (g.ok ? "true" : "false") + ", \"detail\": " +
           JsonQuoted(g.detail) + "}";
  }
  out += "\n  },\n  \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonQuoted(name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + JsonQuoted(m.unit) + ", \"q1\": " + Number(m.q1) +
           ", \"q3\": " + Number(m.q3) + ", \"n\": " + std::to_string(m.n) +
           "}";
  }
  out += "\n  },\n  \"meta\": {";
  first = true;
  for (const auto& [key, json] : meta_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonQuoted(key) + ": " + json;
  }
  out += "\n  }\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write result to %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

// ---- Spans ------------------------------------------------------------------

uint64_t SpanRecorder::Open(const char* name, uint64_t parent,
                            uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = parent;
  span.request = request;
  span.tid = ThreadTag();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return spans_.size();
}

void SpanRecorder::Close(uint64_t id) {
  if (id == 0) return;
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

uint64_t SpanRecorder::Add(const char* name, uint64_t start_ns,
                           uint64_t end_ns, uint64_t parent,
                           uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = std::max(start_ns, end_ns);
  span.parent = parent;
  span.request = request;
  span.tid = ThreadTag();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return spans_.size();
}

std::map<std::string, double> SpanRecorder::SelfShareByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t p = spans_[i].parent;
    if (p != 0 && p <= spans_.size()) children[p - 1].push_back(i);
  }
  std::map<std::string, double> self_ns;
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns <= s.start_ns) continue;
    std::vector<std::pair<uint64_t, uint64_t>> cover;
    for (size_t c : children[i]) {
      const uint64_t b = std::max(s.start_ns, spans_[c].start_ns);
      const uint64_t e = std::min(s.end_ns, spans_[c].end_ns);
      if (e > b) cover.emplace_back(b, e);
    }
    std::sort(cover.begin(), cover.end());
    uint64_t covered = 0;
    uint64_t reach = s.start_ns;
    for (const auto& [b, e] : cover) {
      const uint64_t from = std::max(b, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
    const double self = static_cast<double>(s.end_ns - s.start_ns - covered);
    self_ns[LayerOf(s.name)] += self;
    total += self;
  }
  for (auto& [layer, ns] : self_ns) ns = Ratio(ns, total);
  return self_ns;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return false;
  }
  std::fputs("{\"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const uint64_t end = std::max(s.end_ns, s.start_ns);
    std::fprintf(f,
                 "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": {\"id\": "
                 "%zu, \"parent\": %llu, \"request\": %llu}}",
                 i == 0 ? "" : ",\n", JsonQuoted(s.name).c_str(),
                 JsonQuoted(LayerOf(s.name)).c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(end - s.start_ns) / 1e3, s.tid, i + 1,
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// ---- Inputs -----------------------------------------------------------------

namespace {

/// The benchmark universe.
Envelope Universe() { return Envelope(0, 0, 100, 100); }

constexpr size_t kClusters = 12;
constexpr double kClusterSpread = 0.02;
constexpr double kNoiseFraction = 0.05;
constexpr uint64_t kLayoutSeed = 42;

std::vector<Coordinate> DrawCentres(Rng* rng) {
  const Envelope u = Universe();
  std::vector<Coordinate> centres;
  centres.reserve(kClusters);
  for (size_t i = 0; i < kClusters; ++i) {
    const double x = rng->Uniform(u.min_x(), u.max_x());
    const double y = rng->Uniform(u.min_y(), u.max_y());
    centres.push_back({x, y});
  }
  return centres;
}

}  // namespace

std::vector<Coordinate> ClusteredPoints(size_t count, uint64_t seed) {
  Rng layout_rng(kLayoutSeed);
  const std::vector<Coordinate> centres = DrawCentres(&layout_rng);
  // The point stream starts after the centre draws, as in the library
  // generator; that alignment is what makes seed 42 reproduce BenchPoints.
  Rng rng(seed);
  DrawCentres(&rng);
  const Envelope u = Universe();
  const double sd = kClusterSpread * u.Width();
  std::vector<Coordinate> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (rng.Bernoulli(kNoiseFraction)) {
      const double x = rng.Uniform(u.min_x(), u.max_x());
      const double y = rng.Uniform(u.min_y(), u.max_y());
      out.push_back({x, y});
      continue;
    }
    const size_t c = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kClusters) - 1));
    const double x = rng.Normal(centres[c].x, sd);
    const double y = rng.Normal(centres[c].y, sd);
    out.push_back({std::clamp(x, u.min_x(), u.max_x()),
                   std::clamp(y, u.min_y(), u.max_y())});
  }
  return out;
}

Geometry StarPolygon(Rng* rng, const Coordinate& center, double radius,
                     size_t vertices) {
  constexpr double kTwoPi = 6.283185307179586;
  std::vector<double> angles(vertices);
  for (double& a : angles) a = rng->Uniform(0.0, kTwoPi);
  std::sort(angles.begin(), angles.end());
  stark::Ring shell;
  shell.reserve(vertices + 1);
  for (const double a : angles) {
    const double r = radius * rng->Uniform(0.6, 1.0);
    shell.push_back({center.x + r * std::cos(a), center.y + r * std::sin(a)});
  }
  auto poly = Geometry::MakePolygon(std::move(shell));
  if (poly.ok()) return std::move(poly).ValueOrDie();
  // Degenerate draw (repeated angles): fall back to a triangle.
  stark::Ring tri{{center.x - radius, center.y - radius},
                  {center.x + radius, center.y - radius},
                  {center.x, center.y + radius}};
  return Geometry::MakePolygon(std::move(tri)).ValueOrDie();
}

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  return seed * 0x9E3779B97F4A7C15ULL + purpose * 0xBF58476D1CE4E5B9ULL + 1;
}

// ---- Scripts over snapshots -------------------------------------------------

std::string FilterScript(const Coordinate& center, double side) {
  const double h = side / 2;
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "hits = FILTER events BY INTERSECTS('POLYGON((%.6f %.6f, %.6f "
                "%.6f, %.6f %.6f, %.6f %.6f, %.6f %.6f))', 0, 1000000000);\n"
                "DUMP hits;\n",
                center.x - h, center.y - h, center.x + h, center.y - h,
                center.x + h, center.y + h, center.x - h, center.y + h,
                center.x - h, center.y - h);
  return buf;
}

std::string KnnScript(const Coordinate& point, size_t k) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "nearest = KNN events QUERY 'POINT(%.6f %.6f)' K %zu;\n"
                "DUMP nearest;\n",
                point.x, point.y, k);
  return buf;
}

std::vector<std::string> SortedLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

namespace {

/// One-partition rows view of a snapshot, converted only when a statement
/// consumes the relation — like the server's own snapshot relation, so a
/// snapshot FILTER never pays for the conversion and a KNN always does.
class SnapshotRows final : public stark::RDDImpl<stark::piglet::PigRow> {
 public:
  SnapshotRows(stark::Context* ctx,
               std::shared_ptr<const stark::serve::DatasetSnapshot> snapshot)
      : RDDImpl(ctx), snapshot_(std::move(snapshot)) {}

  size_t NumPartitions() const override { return 1; }
  std::vector<stark::piglet::PigRow> Compute(size_t) const override {
    std::vector<stark::piglet::PigRow> rows;
    rows.reserve(snapshot_->events->size());
    for (const stark::stream::StreamEvent& e : *snapshot_->events) {
      rows.push_back(stark::piglet::RowFromStreamEvent(e));
    }
    return rows;
  }

 private:
  std::shared_ptr<const stark::serve::DatasetSnapshot> snapshot_;
};

}  // namespace

struct SnapshotScript::Impl {
  explicit Impl(std::shared_ptr<const stark::serve::DatasetSnapshot> s)
      : snapshot(std::move(s)), interp(&ctx, &out) {}
  std::shared_ptr<const stark::serve::DatasetSnapshot> snapshot;
  stark::Context ctx{1};
  std::ostringstream out;
  stark::piglet::Interpreter interp;
};

SnapshotScript::SnapshotScript(
    std::shared_ptr<const stark::serve::DatasetSnapshot> snapshot)
    : impl_(std::make_unique<Impl>(std::move(snapshot))) {}

SnapshotScript::~SnapshotScript() = default;

bool SnapshotScript::Run(const std::string& script, std::string* output) {
  namespace piglet = stark::piglet;
  piglet::PigRelation rel;
  rel.schema = {"id", "category", "time", "wkt"};
  rel.spatialized = true;
  rel.snapshot = impl_->snapshot;
  rel.rdd = stark::RDD<piglet::PigRow>(
      std::make_shared<SnapshotRows>(&impl_->ctx, impl_->snapshot));
  impl_->interp.BindRelation("events", std::move(rel));
  impl_->out.str("");
  impl_->out.clear();
  const stark::Status status = impl_->interp.RunScript(script);
  *output = impl_->out.str();
  if (!status.ok()) {
    std::fprintf(stderr, "serial script failed: %s\n",
                 status.ToString().c_str());
  }
  return status.ok();
}

// ---- Runner -----------------------------------------------------------------

namespace {

void CounterMetrics(const stark::obs::MetricsRegistry::Snapshot& before,
                    const stark::obs::MetricsRegistry::Snapshot& after,
                    size_t ops, Report* report) {
  auto d = [&](const char* name) {
    return static_cast<double>(CounterDelta(before, after, name));
  };
  const double per = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  report->Value("engine.shuffle.records", "count/op",
                d("engine.shuffle.records") * per);
  report->Value("engine.tasks_per_job", "ratio",
                Ratio(d("engine.tasks"), d("engine.jobs")));
  report->Value("index.probes", "count/op",
                d("engine.index.packed_probes") * per);
  report->Value("index.candidates_per_result", "ratio",
                Ratio(d("spatial.filter.candidates") +
                          d("serve.snapshot.candidates"),
                      d("spatial.filter.results") +
                          d("serve.snapshot.results")));
  report->Value("join.pairs_enumerated", "count/op",
                d("engine.join.pairs_enumerated") * per);
  report->Value("join.pairs_pruned", "count/op",
                d("engine.join.pairs_pruned") * per);
  report->Value("join.subtasks", "count/op", d("engine.join.subtasks") * per);
  const double kernel = d("engine.columnar.rows");
  const double fallback = d("engine.columnar.fallbacks");
  report->Value("refine.kernel_rows", "count/op", kernel * per);
  report->Value("refine.fallback_rows", "count/op", fallback * per);
  report->Value("refine.kernel_share", "frac",
                Ratio(kernel, kernel + fallback));
  const double hits = d("spatial.prepared.hits");
  report->Value("prepared.hit_ratio", "frac",
                Ratio(hits, hits + d("spatial.prepared.misses")));
  report->Value("columnar.slab_builds", "count/op",
                d("engine.columnar.batches") * per);
  report->Value("columnar.slab_reuse", "count/op",
                d("engine.columnar.slab_reuse") * per);
  report->Value("stream.cep_tree_probes", "count/op",
                d("stream.cep.tree_probes") * per);
}

constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 9;
constexpr double kSetupBudgetS = 2.0;

}  // namespace

int RunWorkload(Workload* workload, const Options& options) {
  Report report;
  report.Meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Meta("build_type", JsonQuoted(PERFBENCH_BUILD_TYPE));
  report.Meta("git_sha", JsonQuoted(options.git_sha));
  report.Meta("columnar", stark::columnar::Enabled() ? "true" : "false");
  workload->Describe(&report);

  // Set-up is timed several times and reported as the median, so work
  // moved into set-up shows without one slow build dominating: at least
  // kMinSetups times, more (up to kMaxSetups) while under kSetupBudgetS.
  std::vector<double> setup_s;
  double spent_s = 0;
  while (setup_s.size() < (options.smoke ? 1 : kMinSetups) ||
         (!options.smoke && setup_s.size() < kMaxSetups &&
          spent_s < kSetupBudgetS)) {
    const uint64_t start = NowNs();
    workload->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    spent_s += setup_s.back();
  }
  workload->WarmUp();

  SpanRecorder off(false);
  const double phase_s =
      options.traced() ? options.seconds / 2 : options.seconds;
  const Phase plain = workload->Measure(phase_s, &off);
  // Peak memory of the workload itself, before the gates' reference runs.
  const double peak_rss_mb = PeakRssMiB();
  workload->Check(&report);
  report.attempted += plain.attempted;
  report.failed += plain.failed;

  if (!options.traced()) {
    report.Samples("setup_s", "s", setup_s);
    report.Samples("op_p50_ms", "ms", plain.op_ms);
    report.Value("cpu_ms_per_op", "ms",
                 Ratio(plain.cpu_s * 1e3,
                       static_cast<double>(plain.attempted)));
    report.Value("peak_rss_mb", "MiB", peak_rss_mb);
    // Tails for reading, not for judging: between runs on a shared host
    // they move by more than any useful bound.
    report.Value("op_p90_ms", "ms", Quantile(plain.op_ms, 0.90));
    report.Value("op_p99_ms", "ms", Quantile(plain.op_ms, 0.99));
  } else {
    // The traced phase repeats the identical call sequence on a fresh
    // state, with spans on; end-to-end numbers never come from it.
    workload->Setup();
    workload->WarmUp();
    SpanRecorder spans(true);
    const auto before = stark::obs::DefaultMetrics().Snap();
    const Phase traced = workload->Measure(phase_s, &spans);
    const auto after = stark::obs::DefaultMetrics().Snap();
    workload->Check(&report);
    report.attempted += traced.attempted;
    report.failed += traced.failed;

    CounterMetrics(before, after, traced.attempted, &report);
    const std::map<std::string, double> shares = spans.SelfShareByLayer();
    for (const char* layer : kSpanLayers) {
      const auto it = shares.find(layer);
      report.Value(std::string("self.") + layer, "frac",
                   it == shares.end() ? 0.0 : it->second);
    }
    const double untraced_p50 = Quantile(plain.op_ms, 0.5);
    report.Value("trace_overhead_frac", "frac",
                 Ratio(Quantile(traced.op_ms, 0.5) - untraced_p50,
                       untraced_p50));
    report.Value("tail.p90_over_p50", "ratio",
                 Ratio(Quantile(plain.op_ms, 0.90), untraced_p50));
    workload->LayerMetrics(&report);
    for (const WorkloadLayerMetric& m : kWorkloadLayerMetrics) {
      if (!report.Has(m.name)) report.Value(m.name, m.unit, 0.0);
    }
    RunLayerProbes(workload->ProbeGeometries(), options.tmp_dir,
                   options.smoke, &report);
    if (!spans.WriteChromeTrace(options.trace_path)) {
      report.Gate("trace.written", false, options.trace_path);
    }
  }

  report.PrintSummary(options.workload);
  if (!options.json_path.empty() &&
      !report.WriteJson(options.json_path, options)) {
    return 1;
  }
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench
