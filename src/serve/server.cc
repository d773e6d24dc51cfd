#include "serve/server.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/profile.h"

namespace stark {
namespace serve {
namespace {

/// Lazy rows view of a dataset snapshot: events convert to PigRows only
/// when a statement actually consumes the relation (JOIN, DUMP, ...), so a
/// pure snapshot FILTER never pays the conversion.
class SnapshotRowsRDD final : public RDDImpl<piglet::PigRow> {
 public:
  SnapshotRowsRDD(Context* ctx, std::shared_ptr<const DatasetSnapshot> snap)
      : RDDImpl<piglet::PigRow>(ctx),
        snap_(std::move(snap)),
        parts_(std::max<size_t>(
            1, std::min(ctx->default_parallelism(),
                        std::max<size_t>(1, snap_->events->size() / 1024)))) {}

  size_t NumPartitions() const override { return parts_; }

  std::vector<piglet::PigRow> Compute(size_t p) const override {
    const std::vector<stream::StreamEvent>& events = *snap_->events;
    const size_t n = events.size();
    const size_t chunk = (n + parts_ - 1) / parts_;
    const size_t begin = std::min(p * chunk, n);
    const size_t end = std::min(begin + chunk, n);
    std::vector<piglet::PigRow> rows;
    rows.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      rows.push_back(piglet::RowFromStreamEvent(events[i]));
    }
    return rows;
  }

 private:
  std::shared_ptr<const DatasetSnapshot> snap_;
  size_t parts_;
};

piglet::PigRelation MakeSnapshotRelation(
    Context* ctx, std::shared_ptr<const DatasetSnapshot> snap) {
  piglet::PigRelation rel;
  rel.schema = {"id", "category", "time", "wkt"};
  rel.spatialized = true;
  rel.snapshot = snap;
  rel.rdd = RDD<piglet::PigRow>(
      std::make_shared<SnapshotRowsRDD>(ctx, std::move(snap)));
  return rel;
}

/// Truncates DUMP payloads under degradation level >= kShedOverhead.
void TruncateOutput(std::string* output, size_t max_rows) {
  size_t rows = 0;
  for (size_t i = 0; i < output->size(); ++i) {
    if ((*output)[i] != '\n') continue;
    if (++rows >= max_rows) {
      output->resize(i + 1);
      output->append("... (output truncated under load)\n");
      return;
    }
  }
}

struct ServeMetrics {
  obs::Counter* submitted;
  obs::Counter* completed;
  obs::Counter* failed;
  obs::Counter* cancelled;
  obs::Counter* deadline_exceeded;
  obs::Counter* expired_in_queue;
  obs::Counter* drain_cancelled;
  obs::Gauge* active;
  obs::Gauge* sessions;
  std::array<obs::Histogram*, kNumQueryClasses> latency;
};

const ServeMetrics& Metrics() {
  static const ServeMetrics m = [] {
    obs::MetricsRegistry& reg = obs::DefaultMetrics();
    ServeMetrics mm;
    mm.submitted = reg.GetCounter("serve.queries.submitted");
    mm.completed = reg.GetCounter("serve.queries.completed");
    mm.failed = reg.GetCounter("serve.queries.failed");
    mm.cancelled = reg.GetCounter("serve.queries.cancelled");
    mm.deadline_exceeded = reg.GetCounter("serve.queries.deadline_exceeded");
    mm.expired_in_queue = reg.GetCounter("serve.queries.expired_in_queue");
    mm.drain_cancelled = reg.GetCounter("serve.queries.drain_cancelled");
    mm.active = reg.GetGauge("serve.active");
    mm.sessions = reg.GetGauge("serve.sessions");
    for (size_t c = 0; c < kNumQueryClasses; ++c) {
      mm.latency[c] = reg.GetHistogram(
          std::string("serve.latency.") +
          QueryClassName(static_cast<QueryClass>(c)) + ".ns");
    }
    return mm;
  }();
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// Session

Session::Session(Server* server, uint64_t id)
    : server_(server),
      id_(id),
      ctx_(std::make_unique<Context>(server->engine_pool_)),
      interp_(std::make_unique<piglet::Interpreter>(ctx_.get(), &out_)) {
  deadline_ms_.store(server_->options().default_deadline_ms,
                     std::memory_order_relaxed);
  // Engine-level backpressure: every job this session launches passes the
  // server's admission check. Jobs started after the drain grace are
  // refused outright; under heavy overload (kShedOverhead+) best-effort
  // jobs are refused even mid-script, so an admitted-but-low-value query
  // cannot keep grabbing pool slots that interactive queries need.
  ctx_->set_admission_hook([this](const Context::JobAdmission& job) -> Status {
    if (server_->hard_drain_.load(std::memory_order_acquire)) {
      return Status::Cancelled("serve: server shutting down");
    }
    if (job.priority >= static_cast<int>(QueryClass::kBestEffort) &&
        server_->queue_.Level() >= DegradationLevel::kShedOverhead) {
      return Status::ResourceExhausted(
          "serve: best-effort job refused under overload retry_after_ms=" +
          std::to_string(server_->queue_.RetryAfterMsHint()));
    }
    return Status::OK();
  });
  interp_->set_session_mode(true);
  interp_->set_set_hook(
      [this](const std::string& key, double value) -> Result<bool> {
        if (key == "serve.class") {
          // Checked as a double first: casting one outside int's range (or
          // NaN) to int is undefined behaviour.
          if (!(value >= 0 && value < static_cast<double>(kNumQueryClasses)) ||
              std::trunc(value) != value) {
            return Status::InvalidArgument(
                "serve: serve.class must be 0 (interactive), 1 (batch) or 2 "
                "(best-effort)");
          }
          cls_.store(static_cast<int>(value));
          return true;
        }
        if (key == "job.deadline_ms") {
          // Session-scoped: record the new deadline for subsequent Submits
          // (read lock-free from the client thread) and apply it to the
          // Context so the rest of the current script honors it. The hook
          // runs on the query worker under run_mu_, the only place ctx_ is
          // mutated.
          STARK_RETURN_NOT_OK(
              piglet::CheckSetValue(key, value, 0, piglet::kMaxSetMs));
          const uint64_t ms = static_cast<uint64_t>(value);
          deadline_ms_.store(ms, std::memory_order_relaxed);
          ctx_->set_job_deadline_ms(ms);
          return true;
        }
        return false;
      });
  Metrics().sessions->Set(
      static_cast<int64_t>(++server_->open_sessions_));
}

Session::~Session() {
  Metrics().sessions->Set(
      static_cast<int64_t>(--server_->open_sessions_));
}

QueryResult Session::Run(const std::string& script) {
  return Submit(script).get();
}

std::future<QueryResult> Session::Submit(std::string script) {
  return server_->Submit(this, std::move(script));
}

// ---------------------------------------------------------------------------
// Server

Server::Server(Catalog* catalog, ServerOptions options)
    : catalog_(catalog),
      options_([&options] {
        options.scheduler.workers = options.query_threads;
        return options;
      }()),
      engine_pool_(std::make_shared<ThreadPool>(
          std::max<size_t>(1, options_.engine_threads))),
      queue_(options_.scheduler) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("serve: server already started");
  }
  exporter_ = obs::MetricsExporter::FromEnv();
  workers_.reserve(options_.query_threads);
  for (size_t i = 0; i < std::max<size_t>(1, options_.query_threads); ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

std::unique_ptr<Session> Server::OpenSession() {
  return std::unique_ptr<Session>(
      new Session(this, next_session_id_.fetch_add(1) + 1));
}

std::future<QueryResult> Server::Submit(Session* session, std::string script) {
  Metrics().submitted->Increment();
  auto req = std::make_shared<Request>();
  req->session = session;
  req->script = std::move(script);
  req->cls = session->query_class();
  req->deadline_ms = session->deadline_ms_.load(std::memory_order_relaxed);
  req->submit_ns = NowNs();
  req->token = std::make_shared<CancelToken>();
  req->promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> future = req->promise->get_future();

  Ticket ticket;
  ticket.id = next_query_id_.fetch_add(1) + 1;
  ticket.cls = req->cls;
  ticket.enqueue_ns = req->submit_ns;
  ticket.run = [this, req] { Execute(req); };

  uint64_t retry_after_ms = 0;
  Status admitted = queue_.Offer(std::move(ticket), &retry_after_ms);
  if (!admitted.ok()) {
    QueryResult shed;
    shed.status = std::move(admitted);
    shed.retry_after_ms = retry_after_ms;
    Finish(req, std::move(shed));
  }
  return future;
}

void Server::WorkerLoop() {
  Ticket ticket;
  while (queue_.Take(&ticket)) ticket.run();
}

void Server::Execute(const std::shared_ptr<Request>& req) {
  const ServeMetrics& m = Metrics();
  QueryResult result;
  result.queue_ns = NowNs() - req->submit_ns;

  if (hard_drain_.load(std::memory_order_acquire)) {
    result.status = Status::Cancelled("serve: server shutting down");
    Finish(req, std::move(result), Ending::kDrained);
    return;
  }
  if (req->deadline_ms > 0 &&
      result.queue_ns / 1'000'000 >= req->deadline_ms) {
    result.status = Status::DeadlineExceeded(
        "serve: deadline of " + std::to_string(req->deadline_ms) +
        "ms expired after " + std::to_string(result.queue_ns / 1'000'000) +
        "ms in the admission queue");
    Finish(req, std::move(result), Ending::kExpiredInQueue);
    return;
  }

  m.active->Set(static_cast<int64_t>(++active_));
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.push_back(req->token);
  }
  const DegradationLevel level = queue_.Level();
  QueryResult run = RunScript(req, level);
  run.queue_ns = result.queue_ns;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(std::remove(inflight_.begin(), inflight_.end(),
                                req->token),
                    inflight_.end());
  }
  m.active->Set(static_cast<int64_t>(--active_));
  queue_.OnCompleted(run.exec_ns);
  Finish(req, std::move(run));
}

QueryResult Server::RunScript(const std::shared_ptr<Request>& req,
                              DegradationLevel level) {
  Session* const s = req->session;
  std::lock_guard<std::mutex> run_lock(s->run_mu_);
  Context* const ctx = s->ctx_.get();
  s->out_.str("");
  s->out_.clear();

  QueryResult result;

  // Per-query engine setup on the session's private Context; everything is
  // restored before the next query on this session runs. The Context's
  // job_deadline_ms is per-query scratch derived from the session-scoped
  // deadline the request captured at submit (the session-scoped value
  // itself lives in Session::deadline_ms_, updated only by the SET hook).
  const SpeculationPolicy saved_spec = ctx->speculation_policy();
  if (level >= DegradationLevel::kNoSpeculation && saved_spec.enabled) {
    SpeculationPolicy off = saved_spec;
    off.enabled = false;
    ctx->set_speculation_policy(off);
  }
  uint64_t exec_deadline = 0;
  if (req->deadline_ms > 0) {
    // The deadline covers queue wait + execution: engine jobs get only
    // what is left of the budget.
    const uint64_t waited_ms = (NowNs() - req->submit_ns) / 1'000'000;
    exec_deadline = std::max<uint64_t>(
        1, req->deadline_ms > waited_ms ? req->deadline_ms - waited_ms : 1);
  }
  ctx->set_job_deadline_ms(exec_deadline);
  ctx->set_job_priority(static_cast<int>(req->cls));
  s->interp_->set_cancel_token(req->token);

  // Pin the newest snapshot of every dataset for the duration of the
  // script and expose each as a relation. Pins release when `pins` leaves
  // scope; rows/trees stay alive through the relation's shared_ptrs.
  std::vector<PinnedDataset> pins;
  for (const std::string& name : catalog_->ListDatasets()) {
    Result<PinnedDataset> pinned = catalog_->Pin(name);
    if (!pinned.ok()) continue;  // not yet published; skip
    PinnedDataset pin = std::move(pinned).ValueOrDie();
    result.epoch = std::max(result.epoch, pin.epoch());
    s->interp_->BindRelation(name, MakeSnapshotRelation(ctx, pin.state()));
    pins.push_back(std::move(pin));
  }

  const uint64_t exec_start = NowNs();
  result.status = s->interp_->RunScript(req->script);
  result.exec_ns = NowNs() - exec_start;
  result.output = s->out_.str();
  if (level >= DegradationLevel::kShedOverhead &&
      options_.degraded_dump_rows > 0) {
    TruncateOutput(&result.output, options_.degraded_dump_rows);
  }

  s->interp_->set_cancel_token(nullptr);
  ctx->set_job_priority(0);
  // No deadline restore needed: the next query on this session overwrites
  // the Context deadline from Session::deadline_ms_, which the SET hook
  // already updated if the script changed it.
  ctx->set_speculation_policy(saved_spec);
  return result;
}

void Server::Finish(const std::shared_ptr<Request>& req, QueryResult result,
                    Ending ending) {
  const ServeMetrics& m = Metrics();
  const char* cancel_detail = nullptr;
  if (result.status.ok()) {
    m.completed->Increment();
  } else if (result.status.IsCancelled()) {
    m.cancelled->Increment();
    cancel_detail =
        ending == Ending::kDrained ? "serve.drain" : "serve.cancel";
  } else if (result.status.IsDeadlineExceeded()) {
    m.deadline_exceeded->Increment();
    if (ending == Ending::kExpiredInQueue) m.expired_in_queue->Increment();
    cancel_detail = "serve.deadline";
  } else if (!result.status.IsResourceExhausted()) {
    m.failed->Increment();
  }
  // Shed queries are counted by the admission queue itself.
  if (cancel_detail != nullptr) {
    obs::DefaultFlightRecorder().RecordTask(obs::FlightEventKind::kCancel,
                                            req->session->id(), 0, 0, 0, -1,
                                            0, cancel_detail);
  }
  m.latency[static_cast<size_t>(req->cls)]->Record(NowNs() - req->submit_ns);
  req->promise->set_value(std::move(result));
}

void Server::Shutdown() {
  if (!started_.load() || shutdown_done_.exchange(true)) return;
  draining_.store(true, std::memory_order_release);
  queue_.CloseIntake();

  // Give in-flight and already-admitted queries the grace period.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_grace_ms);
  while ((active_.load() > 0 || queue_.Depth() > 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Cancel the stragglers: executing queries stop at their next task
  // checkpoint; queued-but-unstarted ones resolve as Cancelled without
  // running (hard_drain_).
  hard_drain_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (const std::shared_ptr<CancelToken>& token : inflight_) {
      token->RequestCancel();
      Metrics().drain_cancelled->Increment();
    }
  }

  queue_.Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  // Forensics + observability teardown, in order: flight-recorder dump
  // (post-mortem of the drain), final metrics export, slow-log quiesce.
  obs::DefaultFlightRecorder().AutoDump("serve.drain");
  if (exporter_ != nullptr) {
    exporter_->StopAndJoin();
    exporter_.reset();
  }
  obs::GlobalSlowLog().Quiesce();
}

uint64_t Server::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace serve
}  // namespace stark
