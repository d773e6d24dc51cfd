/// \file server.h
/// The concurrent query-serving front end: many client sessions submit
/// Piglet scripts, a bounded admission queue (serve/scheduler.h) decides
/// who gets in, a small pool of query workers executes admitted queries
/// against pinned dataset snapshots (serve/catalog.h), and a drain-style
/// Shutdown() gets everything back out cleanly.
///
/// Isolation model: every Session owns its *own* engine Context (sharing
/// the server's single ThreadPool), so `SET job.deadline_ms`, speculation
/// knobs and `SET obs.profile` are naturally session-scoped — one client
/// tuning its deadlines cannot change another client's. Process-global SET
/// keys are rejected in served sessions (Interpreter session mode).
///
/// Every submitted query terminates with exactly one of:
///   - OK (result payload),
///   - ResourceExhausted (shed at admission; Retry-After hint attached),
///   - DeadlineExceeded (expired in queue or mid-execution),
///   - Cancelled (client token or server drain),
///   - another error Status from the script itself (parse error, ...).
#ifndef STARK_SERVE_SERVER_H_
#define STARK_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "engine/context.h"
#include "obs/openmetrics.h"
#include "piglet/interpreter.h"
#include "serve/catalog.h"
#include "serve/scheduler.h"

namespace stark {
namespace serve {

struct ServerOptions {
  /// Query workers: how many admitted queries execute concurrently.
  size_t query_threads = 4;
  /// Threads in the shared engine pool all sessions' jobs run on.
  size_t engine_threads = 4;
  /// Admission queue bounds / weights (workers is overwritten from
  /// query_threads).
  SchedulerOptions scheduler;
  /// Applied to a session at creation; 0 = no deadline until the client
  /// SETs one. Covers queue wait + execution.
  uint64_t default_deadline_ms = 0;
  /// Shutdown(): how long to wait for in-flight queries before cancelling
  /// the stragglers.
  uint64_t drain_grace_ms = 500;
  /// Rows of DUMP output before truncation at degradation level >= 2
  /// (kShedOverhead); 0 = never truncate.
  size_t degraded_dump_rows = 128;
};

/// Outcome of one submitted script.
struct QueryResult {
  Status status;
  std::string output;          ///< DUMP/DESCRIBE text of the script
  uint64_t epoch = 0;          ///< newest dataset epoch pinned for the query
  uint64_t queue_ns = 0;       ///< time spent waiting for a worker
  uint64_t exec_ns = 0;        ///< execution wall time
  uint64_t retry_after_ms = 0; ///< backoff hint, set when shed
};

class Server;

/// \brief One client's connection-scoped state: its Context (private
/// engine knobs over the shared pool), its Interpreter (private relations)
/// and its scheduling class. Obtain via Server::OpenSession(); one query
/// runs at a time per session (concurrent Submits on one session
/// serialize). Sessions must not outlive the Server.
class Session {
 public:
  ~Session();
  STARK_DISALLOW_COPY_AND_ASSIGN(Session);

  /// Submits \p script and blocks for its result.
  QueryResult Run(const std::string& script);

  /// Admission + async execution. The future always becomes ready — shed
  /// and drained queries resolve with their typed status. The session must
  /// stay alive until the future is ready.
  std::future<QueryResult> Submit(std::string script);

  /// Scheduling class for subsequent submissions (also settable from the
  /// script side via `SET serve.class <0|1|2>`).
  void set_query_class(QueryClass cls) { cls_.store(static_cast<int>(cls)); }
  QueryClass query_class() const {
    return static_cast<QueryClass>(cls_.load());
  }

  uint64_t id() const { return id_; }

 private:
  friend class Server;
  Session(Server* server, uint64_t id);

  Server* const server_;
  const uint64_t id_;
  std::atomic<int> cls_{static_cast<int>(QueryClass::kInteractive)};
  /// Session-scoped total deadline (queue wait + execution) captured by
  /// Submit for each query. Lives outside the Context because Submit reads
  /// it from the client thread while a worker executes on ctx_: the
  /// Context's job_deadline_ms is per-query scratch (remaining budget),
  /// touched only by the worker under run_mu_. Updated by the `SET
  /// job.deadline_ms` interpreter hook, so it survives across queries.
  std::atomic<uint64_t> deadline_ms_{0};

  /// Serializes query execution within the session (relations_ etc. are
  /// single-threaded state).
  std::mutex run_mu_;
  std::ostringstream out_;
  std::unique_ptr<Context> ctx_;
  std::unique_ptr<piglet::Interpreter> interp_;
};

/// \brief The serving process: shared catalog + engine pool + admission
/// queue + query workers. Start() spins up the workers; Shutdown() drains
/// (see class comment in scheduler.h and docs/SERVING.md).
class Server {
 public:
  /// \p catalog must outlive the server. Does not take ownership.
  Server(Catalog* catalog, ServerOptions options);
  ~Server();
  STARK_DISALLOW_COPY_AND_ASSIGN(Server);

  Status Start();

  /// Drain shutdown: close admission (new queries shed with "draining"),
  /// give in-flight queries drain_grace_ms, cancel stragglers, join the
  /// workers, then dump the flight recorder and stop the metrics exporter
  /// (obs teardown satellite). Idempotent.
  void Shutdown();

  std::unique_ptr<Session> OpenSession();

  Catalog* catalog() const { return catalog_; }
  const ServerOptions& options() const { return options_; }
  AdmissionQueue& queue() { return queue_; }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

 private:
  friend class Session;

  std::atomic<int64_t> open_sessions_{0};
  std::atomic<bool> shutdown_done_{false};

  struct Request {
    Session* session = nullptr;
    std::string script;
    QueryClass cls = QueryClass::kInteractive;
    uint64_t deadline_ms = 0;  ///< captured at submit; 0 = none
    uint64_t submit_ns = 0;
    std::shared_ptr<CancelToken> token;
    std::shared_ptr<std::promise<QueryResult>> promise;
  };

  std::future<QueryResult> Submit(Session* session, std::string script);
  void WorkerLoop();
  void Execute(const std::shared_ptr<Request>& req);
  /// Runs \p req's script on the caller thread against pinned snapshots.
  QueryResult RunScript(const std::shared_ptr<Request>& req,
                        DegradationLevel level);
  /// How a query ended, where its status alone cannot tell.
  enum class Ending { kRan, kDrained, kExpiredInQueue };
  /// The one site that records a query's outcome (counters, flight kCancel
  /// of a cancelled or timed-out query, latency) and fulfils its promise.
  void Finish(const std::shared_ptr<Request>& req, QueryResult result,
              Ending ending = Ending::kRan);

  static uint64_t NowNs();

  Catalog* const catalog_;
  const ServerOptions options_;
  std::shared_ptr<ThreadPool> engine_pool_;
  AdmissionQueue queue_;

  std::vector<std::thread> workers_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  /// Set after the drain grace expires: in-queue work resolves as
  /// Cancelled without executing.
  std::atomic<bool> hard_drain_{false};
  std::atomic<size_t> active_{0};
  std::atomic<uint64_t> next_session_id_{0};
  std::atomic<uint64_t> next_query_id_{0};

  /// Tokens of in-flight queries, for drain cancellation.
  std::mutex inflight_mu_;
  std::vector<std::shared_ptr<CancelToken>> inflight_;

  /// Optional background OpenMetrics exporter (env-configured); stopped
  /// last in Shutdown() so the final export sees the drained state.
  std::unique_ptr<obs::MetricsExporter> exporter_;
};

}  // namespace serve
}  // namespace stark

#endif  // STARK_SERVE_SERVER_H_
