/// \file harness.h
/// Shared machinery of the repository benchmark (bench_suite): options,
/// sample statistics, the result report, the in-memory span recorder of
/// traced runs, the seeded input generators, and the runner every workload
/// runs through. Everything here sits *outside* the STARK library: layers
/// are timed around calls into their public functions and through the
/// existing obs::DefaultMetrics() counters.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/stobject.h"
#include "geometry/coordinate.h"
#include "obs/metrics.h"

namespace stark {
namespace serve {
struct DatasetSnapshot;
}  // namespace serve
}  // namespace stark

namespace perfbench {

/// Command-line options of one bench_suite process (one workload).
struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  std::string json_path;   ///< full result file (empty: none)
  std::string trace_path;  ///< Chrome-trace span file; non-empty = traced run
  std::string tmp_dir = ".";  ///< scratch space for persisted indexes
  std::string git_sha = "unknown";
  bool smoke = false;  ///< tiny sizes, gates only (BenchmarkSmoke)

  bool traced() const { return !trace_path.empty(); }
};

/// Linear interpolation between closest ranks (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Monotonic clock in nanoseconds (steady_clock).
uint64_t NowNs();

/// Process CPU time (user + system, all threads) in seconds.
double ProcessCpuSeconds();

/// Peak resident set size of this process in MiB (ru_maxrss).
double PeakRssMiB();

/// Counter delta between two registry snapshots (0 when absent).
uint64_t CounterDelta(const stark::obs::MetricsRegistry::Snapshot& before,
                      const stark::obs::MetricsRegistry::Snapshot& after,
                      const std::string& name);

/// \brief Everything one run reports: gates, metrics, run metadata.
///
/// Metrics carry their median and quartiles when they summarise samples;
/// run.py turns the report into the one-line result it prints.
class Report {
 public:
  /// Records a correctness gate; a gate recorded twice passes only if every
  /// recording passed.
  void Gate(const std::string& name, bool ok, const std::string& detail);
  /// A metric summarising \p samples (value = median, plus q1/q3/n).
  void Samples(const std::string& name, const std::string& unit,
               const std::vector<double>& samples);
  /// A single measured value.
  void Value(const std::string& name, const std::string& unit, double value);
  /// A metadata entry; \p json is already valid JSON.
  void Meta(const std::string& key, const std::string& json);

  bool Has(const std::string& name) const;
  bool correct() const;
  size_t attempted = 0;
  size_t failed = 0;

  void PrintSummary(const std::string& workload) const;
  bool WriteJson(const std::string& path, const Options& options) const;

 private:
  struct Metric {
    std::string unit;
    double value = 0;
    double q1 = 0;
    double q3 = 0;
    size_t n = 1;
  };
  struct GateResult {
    bool ok = true;
    std::string detail;
  };
  std::map<std::string, GateResult> gates_;
  std::vector<std::pair<std::string, Metric>> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

/// \brief In-memory span recorder of traced runs.
///
/// A span is (name, start, end, parent, request id). Names are
/// "<layer>:<call>"; the layer is what per-layer self time is grouped by.
/// Spans stay in memory and are written once, as Chrome-trace JSON, when
/// the run ends. A disabled recorder does nothing, so traced and untraced
/// runs execute the identical call sequence.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id (0 when disabled). \p name must be a
  /// string literal (it is stored, not copied).
  uint64_t Open(const char* name, uint64_t parent = 0, uint64_t request = 0);
  void Close(uint64_t id);
  /// Records an already finished span (e.g. from a server's own queue and
  /// execution timings); returns its id (0 when disabled).
  uint64_t Add(const char* name, uint64_t start_ns, uint64_t end_ns,
               uint64_t parent = 0, uint64_t request = 0);

  /// Self time (duration minus the part covered by child spans) summed per
  /// layer, as a share of all recorded self time.
  std::map<std::string, double> SelfShareByLayer() const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";  ///< a string literal
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    uint32_t tid = 0;
  };
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // id = index + 1
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t parent = 0,
             uint64_t request = 0)
      : recorder_(recorder), id_(recorder->Open(name, parent, request)) {}
  ~ScopedSpan() { recorder_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint64_t id_;
};

// ---- Seeded inputs ---------------------------------------------------------
//
// The benchmark owns its input generation, so inputs never change when the
// code under test changes. Every workload draws from the same skewed
// ("land-mass") distribution the paper motivates.

/// Skewed points: 12 Gaussian clusters (sd 2% of the universe width) plus
/// 5% uniform noise — the parameters of the paper's Figure-4 data. The
/// seed draws every point; the 12 cluster centres are always the layout
/// seed 42 draws, so the amount of join work barely moves between seeds.
/// At seed 42 the result is exactly the points of bench/BenchPoints.
std::vector<stark::Coordinate> ClusteredPoints(size_t count, uint64_t seed);

/// A simple star-shaped polygon around \p center with \p vertices
/// vertices at radii in [0.6, 1.0] x radius.
stark::Geometry StarPolygon(stark::Rng* rng, const stark::Coordinate& center,
                            double radius, size_t vertices);

/// Independent sub-stream seed for one purpose within a workload.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

// ---- Piglet scripts over a dataset snapshot ---------------------------------

/// Interactive query: rows of `events` inside the square of side \p side
/// centred on \p center (any event time).
std::string FilterScript(const stark::Coordinate& center, double side);

/// Batch query: the \p k rows of `events` nearest to \p point.
std::string KnnScript(const stark::Coordinate& point, size_t k);

/// DUMP output as sorted lines, so answers compare independent of row order.
std::vector<std::string> SortedLines(const std::string& text);

/// \brief Runs scripts on a single-threaded interpreter whose relation
/// `events` is bound to one dataset snapshot — the serial ground truth of
/// served answers. The relation is bound as the server binds it: spatial
/// FILTERs probe the snapshot's tree, other statements convert its rows.
class SnapshotScript {
 public:
  explicit SnapshotScript(
      std::shared_ptr<const stark::serve::DatasetSnapshot> snapshot);
  ~SnapshotScript();
  SnapshotScript(const SnapshotScript&) = delete;
  SnapshotScript& operator=(const SnapshotScript&) = delete;

  /// Runs \p script; false on error. The DUMP output lands in \p output.
  bool Run(const std::string& script, std::string* output);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---- Runner ----------------------------------------------------------------

/// Outcome of one measured phase.
struct Phase {
  std::vector<double> op_ms;  ///< latency of every completed op
  size_t attempted = 0;
  size_t failed = 0;     ///< ops that returned an error or were refused
  double cpu_s = 0.0;    ///< process CPU time over the phase
};

/// Closed loop: runs \p op back to back until \p seconds have passed and at
/// least \p min_ops ran. An op that throws (a failed engine job) counts as
/// failed and contributes no latency.
template <typename Op>
Phase ClosedLoop(double seconds, size_t min_ops, Op op) {
  Phase phase;
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t start = NowNs();
  const auto budget = static_cast<uint64_t>(seconds * 1e9);
  while (phase.attempted < min_ops || NowNs() - start < budget) {
    const uint64_t t0 = NowNs();
    ++phase.attempted;
    try {
      op();
      phase.op_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    } catch (const std::exception& e) {
      ++phase.failed;
      std::fprintf(stderr, "op failed: %s\n", e.what());
    }
  }
  phase.cpu_s = ProcessCpuSeconds() - cpu0;
  return phase;
}

/// \brief One benchmark workload. The runner calls, in order: Setup (timed,
/// several times), WarmUp, Measure, Check; a traced run repeats
/// Setup/WarmUp/Measure/Check with spans on, then runs the layer probes.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds fresh inputs and system state (replacing the previous state).
  virtual void Setup() = 0;
  /// Untimed ops that let caches fill and lazy set-up finish.
  virtual void WarmUp() = 0;
  /// Runs ops for \p seconds on the current state.
  virtual Phase Measure(double seconds, SpanRecorder* spans) = 0;
  /// Correctness gates over the phase just measured.
  virtual void Check(Report* report) = 0;
  /// The workload's own geometries (spatial part only) for the probes.
  virtual std::vector<stark::STObject> ProbeGeometries() const = 0;
  /// Workload-specific per-layer metrics of a traced run (see
  /// kWorkloadLayerMetrics in harness.cc; the ones a workload does not
  /// report read 0 because that layer is off its path).
  virtual void LayerMetrics(Report* report) { (void)report; }
  /// Run metadata: input sizes, rates, limits.
  virtual void Describe(Report* report) const = 0;
};

/// Runs \p workload per \p options and writes the report. Returns the
/// process exit code: 0 when every gate passed.
int RunWorkload(Workload* workload, const Options& options);

/// Layer probes: each layer's public entry point timed on the first
/// geometries of the workload's own data (see probes.cc).
void RunLayerProbes(const std::vector<stark::STObject>& geometries,
                    const std::string& tmp_dir, bool smoke, Report* report);

std::unique_ptr<Workload> MakeE1SelfJoin(const Options& options);
std::unique_ptr<Workload> MakeE3RegionJoin(const Options& options);
std::unique_ptr<Workload> MakeServeMixed(const Options& options);
std::unique_ptr<Workload> MakeStreamCep(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
