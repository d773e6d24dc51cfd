/// \file serve_mixed.cc
/// Workload serve_mixed: the users' interactive path, reads beside writes.
/// A serve::Server (2 query + 2 engine threads) serves a 200k-event
/// catalog. An open-loop dispatcher sends interactive FILTERs — squares of
/// side 0.25 centred on data points, tens of rows each — at Poisson
/// arrivals of a fixed nominal rate, so a stall delays later requests
/// instead of slowing the load. Beside it one ingester appends 1k events
/// every second; each append rebuilds and publishes a snapshot epoch, and
/// the first FILTER of an epoch rebuilds its columnar slab. One op is one
/// interactive query, timed from when it was due to its completion.
///
/// Its time goes to the catalog rebuild, Piglet, the snapshot filter, the
/// per-epoch slab rebuild and the admission queue; shuffle and partitioning
/// are unused. A batch-class KNN is served and checked after the run; it is
/// kept out of the timed mix because on this catalog it runs for seconds
/// (it converts every row) and swings the interactive tail by tens of
/// percent from run to run.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "serve/catalog.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using stark::Coordinate;
using stark::STObject;
using stark::stream::StreamEvent;
namespace serve = stark::serve;

constexpr size_t kQueryThreads = 2;
constexpr size_t kEngineThreads = 2;
/// Interactive arrivals per second at the nominal rate (Poisson).
constexpr double kNominalQps = 200;
/// Latency limit a ladder rung's p90 must meet. (A 2-s rung's p99 rests
/// on a handful of queries that met an epoch rebuild, so it jumps between
/// runs by more than the rung spacing.)
constexpr double kSloP90Ms = 10;
/// Capacity ladder of traced runs; each rung carries the ingest load too.
constexpr double kLadderQps[] = {200, 300, 450, 675, 1000, 1500};
constexpr double kRungSeconds = 2.0;
/// Side of the query square. Larger squares return hundreds to thousands
/// of rows; their DUMP cost then dominates and amplifies host noise.
constexpr double kSide = 0.25;
constexpr size_t kKnnK = 10;
constexpr size_t kSessions = 64;
constexpr size_t kVerifiedEpochs = 6;
/// What the server appends to DUMP output it truncated under load.
constexpr char kTruncatedMarker[] = "(output truncated under load)";

struct Sizes {
  size_t base_events;
  size_t ingest_batch;
  /// One append per second: at four per second the ingester kept a server
  /// CPU half busy and moved peak memory and the tail by 10-25% between
  /// runs.
  double ingest_period_s;
};
constexpr Sizes kFull{200'000, 1'000, 1.0};
constexpr Sizes kSmoke{5'000, 100, 0.1};

const char* const kCategories[] = {"politics", "sports", "culture", "disaster",
                                   "science"};

std::vector<StreamEvent> MakeEvents(int64_t first_id,
                                    const std::vector<Coordinate>& points) {
  std::vector<StreamEvent> events;
  events.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const int64_t id = first_id + static_cast<int64_t>(i);
    events.emplace_back(id, kCategories[id % 5],
                        STObject(stark::Geometry::MakePoint(points[i]), id));
  }
  return events;
}

void Expect(const stark::Status& status) {
  if (!status.ok()) throw stark::StatusError(status);
}

/// Confines the calling thread (and every thread it creates afterwards) to
/// a CPU set. The dispatcher runs on a CPU of its own, so it is never
/// queued behind the server's threads and sends on time; the server's
/// threads inherit the rest. A no-op with fewer than two CPUs.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0 ||
        CPU_COUNT(&all_) < 2) {
      return;
    }
    enabled_ = true;
    server_ = all_;
    CPU_ZERO(&dispatcher_);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) {
        CPU_SET(cpu, &dispatcher_);
        CPU_CLR(cpu, &server_);
        break;
      }
    }
  }
  ~CpuSplit() { Apply(all_); }
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

  void ForServer() { Apply(server_); }
  void ForDispatcher() { Apply(dispatcher_); }

 private:
  void Apply(const cpu_set_t& set) {
    if (enabled_) sched_setaffinity(0, sizeof(set), &set);
  }
  bool enabled_ = false;
  cpu_set_t all_;
  cpu_set_t server_;
  cpu_set_t dispatcher_;
};

struct Arrival {
  uint64_t offset_ns = 0;  ///< due time relative to the start of the run
  std::string script;
};

/// An answer kept for the serial re-execution check.
struct Witness {
  uint64_t epoch = 0;
  std::string script;
  std::string output;
};

/// Outcome of one open-loop run.
struct LoadResult {
  std::vector<double> latency_ms;  ///< due -> done, per completed query
  std::vector<double> queue_ms;    ///< admission-queue wait
  std::vector<double> exec_ms;     ///< execution
  std::vector<double> late_ms;     ///< how late the dispatcher sent each one
  size_t attempted = 0;
  size_t failed = 0;
  double cpu_s = 0;  ///< process CPU time while the load ran
  int degradation_max = 0;
  size_t epochs_live_max = 0;
  std::vector<Witness> witnesses;  ///< first answer of some epochs
};

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(const Options& options)
      : options_(options), sizes_(options.smoke ? kSmoke : kFull) {}

  void Describe(Report* report) const override {
    std::string ladder;
    for (const double q : kLadderQps) {
      ladder += (ladder.empty() ? "" : ", ") + std::to_string(q);
    }
    report->Meta("base_events", std::to_string(sizes_.base_events));
    report->Meta("nominal_qps", std::to_string(kNominalQps));
    report->Meta("slo_p90_ms", std::to_string(kSloP90Ms));
    report->Meta("ladder_qps", "[" + ladder + "]");
    report->Meta("rung_seconds", std::to_string(kRungSeconds));
    report->Meta("ingest_events_per_batch",
                 std::to_string(sizes_.ingest_batch));
    report->Meta("ingest_period_s", std::to_string(sizes_.ingest_period_s));
    report->Meta("query_threads", std::to_string(kQueryThreads));
    report->Meta("engine_threads", std::to_string(kEngineThreads));
  }

  void Setup() override {
    catalog_.reset();
    log_.clear();
    points_ = ClusteredPoints(sizes_.base_events, options_.seed);
    next_batch_ = 0;
    catalog_ = std::make_unique<serve::Catalog>();
    Expect(catalog_->CreateDataset("events", 16));
    std::vector<StreamEvent> base = MakeEvents(0, points_);
    log_.push_back(base);
    Expect(catalog_->Ingest("events", std::move(base)).status());
  }

  void WarmUp() override {
    SpanRecorder off(false);
    RunOpenLoop(kNominalQps, 0.5, &off, SubSeed(options_.seed, 5), false);
  }

  Phase Measure(double seconds, SpanRecorder* spans) override {
    LoadResult load = RunOpenLoop(kNominalQps, seconds, spans,
                                  SubSeed(options_.seed, 6), true);
    Phase phase;
    phase.cpu_s = load.cpu_s;
    phase.op_ms = load.latency_ms;
    phase.attempted = load.attempted;
    phase.failed = load.failed;
    std::fprintf(stderr,
                 "serve_mixed: %zu queries: queue p50 %.3f p99 %.3f ms, exec "
                 "p50 %.3f p99 %.3f ms; dispatcher late p99 %.3f ms; "
                 "degradation max %d; epochs live max %zu\n",
                 load.latency_ms.size(), Quantile(load.queue_ms, 0.5),
                 Quantile(load.queue_ms, 0.99), Quantile(load.exec_ms, 0.5),
                 Quantile(load.exec_ms, 0.99), Quantile(load.late_ms, 0.99),
                 load.degradation_max, load.epochs_live_max);
    last_ = std::move(load);
    return phase;
  }

  void Check(Report* report) override {
    // One batch-class KNN over the catalog as the load left it.
    std::optional<Witness> knn = ServeKnn();
    if (knn.has_value()) last_.witnesses.push_back(std::move(*knn));
    size_t wrong = 0;
    for (const Witness& w : last_.witnesses) {
      std::string serial;
      const bool ran = SnapshotScript(Snapshot(w.epoch)).Run(w.script, &serial);
      if (!ran || SortedLines(serial) != SortedLines(w.output)) {
        ++wrong;
        std::fprintf(stderr, "serve_mixed: wrong answer at epoch %llu:\n%s",
                     static_cast<unsigned long long>(w.epoch),
                     w.script.c_str());
      }
    }
    report->Gate("serve.answers_match_serial",
                 wrong == 0 && knn.has_value() && last_.witnesses.size() >= 2,
                 std::to_string(last_.witnesses.size()) +
                     " answers (FILTERs of distinct epochs and one KNN) "
                     "re-executed serially");
    report->Gate("serve.epochs_drain_to_one", epochs_after_drain_ == 1,
                 std::to_string(epochs_after_drain_) +
                     " live epochs after shutdown");
  }

  std::vector<STObject> ProbeGeometries() const override {
    std::vector<STObject> out;
    out.reserve(points_.size());
    for (const Coordinate& c : points_) {
      out.emplace_back(stark::Geometry::MakePoint(c));
    }
    return out;
  }

  void LayerMetrics(Report* report) override {
    size_t late = 0;
    for (const double ms : last_.late_ms) late += ms > 1.0 ? 1 : 0;
    report->Value("gen.late_over_1ms", "count", static_cast<double>(late));
    report->Value("serve.epochs_live_max", "count",
                  static_cast<double>(last_.epochs_live_max));
    // Capacity probe: the highest ladder rung whose p90 meets the limit
    // with at most 1% of requests failed.
    double sustained = 0;
    SpanRecorder off(false);
    uint64_t rung_seed = SubSeed(options_.seed, 7);
    for (const double qps : kLadderQps) {
      const LoadResult rung =
          RunOpenLoop(qps, options_.smoke ? 0.3 : kRungSeconds, &off,
                      ++rung_seed, false);
      const double p90 = Quantile(rung.latency_ms, 0.90);
      const bool pass = !rung.latency_ms.empty() && p90 <= kSloP90Ms &&
                        rung.failed * 100 <= rung.attempted;
      std::fprintf(stderr,
                   "serve_mixed: rung %.0f qps: p50 %.2f p90 %.2f p99 %.2f "
                   "ms, %zu/%zu failed -> %s\n",
                   qps, Quantile(rung.latency_ms, 0.5), p90,
                   Quantile(rung.latency_ms, 0.99), rung.failed,
                   rung.attempted, pass ? "sustained" : "not sustained");
      if (!pass) break;
      sustained = qps;
    }
    report->Value("serve.sustained_qps", "1/s", sustained);
  }

 private:
  struct Slot {
    std::unique_ptr<serve::Session> session;
    std::future<serve::QueryResult> future;
    uint64_t due_ns = 0;
    uint64_t submit_ns = 0;
    uint64_t request = 0;
    std::string script;
  };

  /// The snapshot a query pinned at \p epoch, rebuilt from the ingest log
  /// (epoch 1 is the empty pre-ingest publication, so version = epoch - 1).
  std::shared_ptr<const serve::DatasetSnapshot> Snapshot(uint64_t epoch) {
    std::vector<StreamEvent> events;
    {
      std::lock_guard<std::mutex> lock(log_mu_);
      for (uint64_t b = 0; b + 1 < epoch && b < log_.size(); ++b) {
        events.insert(events.end(), log_[b].begin(), log_[b].end());
      }
    }
    return std::make_shared<const serve::DatasetSnapshot>(
        serve::BuildSnapshot(epoch - 1, std::move(events), 16));
  }

  const Coordinate& RandomPoint(stark::Rng* rng) const {
    return points_[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(points_.size()) - 1))];
  }

  std::vector<Arrival> Schedule(double qps, double seconds, uint64_t seed) {
    stark::Rng rng(seed);
    std::vector<Arrival> arrivals;
    for (double t = 0;;) {
      t += -std::log(1.0 - rng.Uniform(0.0, 1.0)) / qps;
      if (t >= seconds) break;
      arrivals.push_back(
          {static_cast<uint64_t>(t * 1e9),
           FilterScript(RandomPoint(&rng), kSide)});
    }
    return arrivals;
  }

  /// Appends one seeded batch to the ingest log and the catalog.
  void IngestNext(SpanRecorder* spans, size_t* epochs_live_max) {
    const int64_t first_id = static_cast<int64_t>(
        sizes_.base_events + next_batch_ * sizes_.ingest_batch);
    std::vector<StreamEvent> batch = MakeEvents(
        first_id, ClusteredPoints(sizes_.ingest_batch,
                                  SubSeed(options_.seed, 100 + next_batch_)));
    ++next_batch_;
    {
      std::lock_guard<std::mutex> lock(log_mu_);
      log_.push_back(batch);
    }
    const uint64_t start = NowNs();
    Expect(catalog_->Ingest("events", std::move(batch)).status());
    spans->Add("catalog:ingest", start, NowNs());
    *epochs_live_max =
        std::max(*epochs_live_max,
                 catalog_->Registry("events").ValueOrDie()->LiveEpochs());
  }

  /// Collects a finished query: latency from its due time, spans, and
  /// (when \p keep) the first answer of up to kVerifiedEpochs epochs.
  void Harvest(Slot* slot, SpanRecorder* spans, bool keep,
               std::set<uint64_t>* kept_epochs, LoadResult* load) {
    serve::QueryResult r = slot->future.get();
    const uint64_t started = slot->submit_ns + r.queue_ns;
    const uint64_t done = started + r.exec_ns;
    if (spans->enabled()) {
      const uint64_t root =
          spans->Add("harness:request", slot->due_ns, done, 0, slot->request);
      spans->Add("serve_queue:interactive", slot->submit_ns, started, root,
                 slot->request);
      spans->Add("serve_exec:filter", started, done, root, slot->request);
    }
    // A truncated DUMP (the server's overload degradation) is not the
    // client's full answer either.
    if (!r.status.ok() ||
        r.output.find(kTruncatedMarker) != std::string::npos) {
      ++load->failed;
      return;
    }
    load->latency_ms.push_back(static_cast<double>(done - slot->due_ns) / 1e6);
    load->queue_ms.push_back(static_cast<double>(r.queue_ns) / 1e6);
    load->exec_ms.push_back(static_cast<double>(r.exec_ns) / 1e6);
    if (keep && kept_epochs->size() < kVerifiedEpochs &&
        kept_epochs->insert(r.epoch).second) {
      load->witnesses.push_back({r.epoch, slot->script, std::move(r.output)});
    }
  }

  /// A batch-class KNN served on a fresh server; nullopt when it failed.
  std::optional<Witness> ServeKnn() {
    serve::Server server(catalog_.get(), serve::ServerOptions{});
    Expect(server.Start());
    stark::Rng rng(SubSeed(options_.seed, 8));
    const std::string script = KnnScript(RandomPoint(&rng), kKnnK);
    serve::QueryResult r = [&] {
      std::unique_ptr<serve::Session> batch = server.OpenSession();
      batch->set_query_class(serve::QueryClass::kBatch);
      return batch->Run(script);
    }();
    server.Shutdown();
    if (!r.status.ok()) {
      std::fprintf(stderr, "serve_mixed: KNN failed: %s\n",
                   r.status.ToString().c_str());
      return std::nullopt;
    }
    return Witness{r.epoch, script, std::move(r.output)};
  }

  /// One open-loop run at \p qps for \p seconds on a fresh server over the
  /// current catalog, with the ingester appending beside it. With \p keep,
  /// answers are kept for the serial check.
  LoadResult RunOpenLoop(double qps, double seconds, SpanRecorder* spans,
                         uint64_t schedule_seed, bool keep) {
    const std::vector<Arrival> arrivals = Schedule(qps, seconds, schedule_seed);
    CpuSplit cpus;
    cpus.ForServer();  // inherited by the server's and the ingester's threads
    serve::ServerOptions server_options;
    server_options.query_threads = kQueryThreads;
    server_options.engine_threads = kEngineThreads;
    serve::Server server(catalog_.get(), server_options);
    Expect(server.Start());
    std::vector<Slot> slots(kSessions);
    for (Slot& s : slots) s.session = server.OpenSession();

    LoadResult load;
    std::set<uint64_t> kept_epochs;
    const double cpu0 = ProcessCpuSeconds();
    const uint64_t start = NowNs() + 1'000'000;
    auto wait_until = [](uint64_t ns) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(ns)));
    };
    size_t ingest_failures = 0;
    std::thread ingester([&] {
      for (uint64_t k = 1; k * sizes_.ingest_period_s < seconds; ++k) {
        wait_until(start +
                   static_cast<uint64_t>(k * sizes_.ingest_period_s * 1e9));
        try {
          IngestNext(spans, &load.epochs_live_max);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "serve_mixed: ingest failed: %s\n", e.what());
          ++ingest_failures;
          return;
        }
      }
    });
    cpus.ForDispatcher();

    uint64_t request = 0;
    for (const Arrival& a : arrivals) {
      const uint64_t due = start + a.offset_ns;
      wait_until(due);
      const uint64_t now = NowNs();
      load.late_ms.push_back(static_cast<double>(now - std::min(now, due)) /
                             1e6);
      load.degradation_max = std::max(
          load.degradation_max, static_cast<int>(server.queue().Level()));
      ++load.attempted;
      Slot* free_slot = nullptr;
      for (Slot& s : slots) {
        if (!s.future.valid()) {
          free_slot = &s;
          break;
        }
        if (s.future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          Harvest(&s, spans, keep, &kept_epochs, &load);
          free_slot = &s;
          break;
        }
      }
      if (free_slot == nullptr) {  // every session busy: the backlog grew
        ++load.failed;
        continue;
      }
      free_slot->due_ns = due;
      free_slot->request = ++request;
      free_slot->script = a.script;
      free_slot->submit_ns = NowNs();
      free_slot->future = free_slot->session->Submit(a.script);
    }
    for (Slot& s : slots) {
      if (s.future.valid()) Harvest(&s, spans, keep, &kept_epochs, &load);
    }
    ingester.join();  // reads of `load` by the ingester end here
    load.failed += ingest_failures;
    load.cpu_s = ProcessCpuSeconds() - cpu0;

    server.Shutdown();
    slots.clear();
    epochs_after_drain_ =
        catalog_->Registry("events").ValueOrDie()->LiveEpochs();
    return load;
  }

  const Options options_;
  const Sizes sizes_;
  std::vector<Coordinate> points_;
  std::unique_ptr<serve::Catalog> catalog_;
  std::mutex log_mu_;
  std::vector<std::vector<StreamEvent>> log_;  ///< batch b = version b + 1
  size_t next_batch_ = 0;
  size_t epochs_after_drain_ = 0;
  LoadResult last_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMixed(const Options& options) {
  return std::make_unique<ServeMixed>(options);
}

}  // namespace perfbench
