// The serving front end: correctness of snapshot-backed queries
// (differential vs a direct interpreter), session isolation of SET state,
// typed load shedding with Retry-After hints, the deadline/cancel storm
// (every query terminates with exactly one terminal status and the flight
// recorder holds the cancel evidence), draining shutdown, and the TCP wire
// protocol.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "engine/context.h"
#include "obs/flight_recorder.h"
#include "piglet/interpreter.h"
#include "serve/catalog.h"
#include "serve/server.h"
#include "serve/tcp.h"
#include "stream/event.h"

namespace stark {
namespace serve {
namespace {

stream::StreamEvent PointEvent(int64_t id, double x, double y, int64_t t) {
  return stream::StreamEvent(
      id, id % 2 == 0 ? "even" : "odd",
      STObject(Geometry::MakePoint({x, y}), t));
}

std::vector<stream::StreamEvent> GridEvents(size_t n) {
  std::vector<stream::StreamEvent> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    events.push_back(PointEvent(static_cast<int64_t>(i),
                                static_cast<double>(i % 10),
                                static_cast<double>(i / 10),
                                static_cast<int64_t>(i)));
  }
  return events;
}

/// Order-independent comparison key for DUMP output.
std::vector<std::string> SortedLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

constexpr char kFilterScript[] =
    "hits = FILTER events BY INTERSECTS('POLYGON((1.5 1.5, 6.5 1.5, "
    "6.5 6.5, 1.5 6.5, 1.5 1.5))', 0, 100);\n"
    "DUMP hits;\n";

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.CreateDataset("events", 8).ok());
    ASSERT_TRUE(catalog_.Ingest("events", GridEvents(100)).ok());
  }

  /// Ground truth: the same script through a plain interpreter over the
  /// same snapshot (shared BuildSnapshot => identical trees).
  std::string Serial(const std::string& script) {
    Context ctx(1);
    std::ostringstream out;
    piglet::Interpreter interp(&ctx, &out);
    Result<PinnedDataset> pin = catalog_.Pin("events");
    EXPECT_TRUE(pin.ok());
    piglet::PigRelation rel;
    rel.schema = {"id", "category", "time", "wkt"};
    rel.spatialized = true;
    rel.snapshot = pin.ValueOrDie().state();
    std::vector<piglet::PigRow> rows;
    for (const stream::StreamEvent& e : *rel.snapshot->events) {
      rows.push_back(piglet::RowFromStreamEvent(e));
    }
    rel.rdd = MakeRDD(&ctx, std::move(rows));
    interp.BindRelation("events", std::move(rel));
    EXPECT_TRUE(interp.RunScript(script).ok());
    return out.str();
  }

  Catalog catalog_;
};

// Regression: a class that sat idle under sustained load must not bank a
// stale low stride pass — when it re-enters a previously-empty queue it
// joins at the scheduler's current virtual time, so a best-effort burst
// cannot win a run of consecutive dequeues ahead of interactive work.
TEST(AdmissionQueueTest, IdleClassJoinsAtCurrentVirtualTime) {
  SchedulerOptions options;
  AdmissionQueue queue(options);
  auto offer = [&](QueryClass cls) {
    Ticket t;
    t.cls = cls;
    t.run = [] {};
    ASSERT_TRUE(queue.Offer(std::move(t)).ok());
  };

  // Sustained interactive load: 40 dequeues with the queue never draining,
  // so passes are never reset while best-effort sits idle at pass 0.
  Ticket taken;
  offer(QueryClass::kInteractive);
  for (int i = 0; i < 40; ++i) {
    offer(QueryClass::kInteractive);
    ASSERT_TRUE(queue.Take(&taken));
    ASSERT_EQ(taken.cls, QueryClass::kInteractive);
  }

  // Best-effort bursts in behind the interactive backlog.
  for (int i = 0; i < 8; ++i) offer(QueryClass::kBestEffort);
  for (int i = 0; i < 8; ++i) offer(QueryClass::kInteractive);

  // Weighted fairness must hold from the first dequeue: with weights 8:1,
  // interactive dominates immediately; a stale best-effort pass would
  // instead win the first several dequeues outright.
  size_t best_effort = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.Take(&taken));
    if (taken.cls == QueryClass::kBestEffort) ++best_effort;
  }
  EXPECT_LE(best_effort, 1u);
  queue.Close();
}

TEST_F(ServeTest, SnapshotQueryMatchesSerialExecution) {
  ServerOptions options;
  options.query_threads = 2;
  options.engine_threads = 2;
  Server server(&catalog_, options);
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<Session> session = server.OpenSession();
  QueryResult result = session->Run(kFilterScript);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.epoch, 0u);
  EXPECT_FALSE(result.output.empty());
  EXPECT_EQ(SortedLines(result.output), SortedLines(Serial(kFilterScript)));

  server.Shutdown();
}

// Regression: a relation derived from a snapshot relation by an operator
// that changes its row set (general-expression FILTER, LIMIT) must not keep
// the snapshot binding — a subsequent spatial FILTER would otherwise take
// the snapshot fast path, probe the full R-tree, and resurrect rows the
// intermediate operator removed.
TEST_F(ServeTest, DerivedRelationDropsSnapshotFastPath) {
  ServerOptions options;
  options.query_threads = 1;
  Server server(&catalog_, options);
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<Session> session = server.OpenSession();

  // FILTER by category, then spatially: no "even" row may survive.
  QueryResult result = session->Run(
      "odds = FILTER events BY category == 'odd';\n"
      "hits = FILTER odds BY INTERSECTS('POLYGON((1.5 1.5, 6.5 1.5, "
      "6.5 6.5, 1.5 6.5, 1.5 1.5))', 0, 100);\n"
      "DUMP hits;\n");
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_FALSE(result.output.empty());
  for (const std::string& line : SortedLines(result.output)) {
    EXPECT_EQ(line.find("even"), std::string::npos) << line;
  }

  // LIMIT, then an all-covering spatial filter: at most 1 row out.
  QueryResult limited = session->Run(
      "one = LIMIT events 1;\n"
      "hits = FILTER one BY INTERSECTS('POLYGON((-1 -1, 11 -1, 11 11, "
      "-1 11, -1 -1))', 0, 100);\n"
      "DUMP hits;\n");
  ASSERT_TRUE(limited.status.ok()) << limited.status.ToString();
  EXPECT_LE(SortedLines(limited.output).size(), 1u);

  server.Shutdown();
}

TEST_F(ServeTest, ConcurrentSessionsSeeConsistentSnapshots) {
  ServerOptions options;
  options.query_threads = 4;
  options.engine_threads = 4;
  Server server(&catalog_, options);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> expected =
      SortedLines(Serial(kFilterScript));
  constexpr size_t kClients = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      std::unique_ptr<Session> session = server.OpenSession();
      for (int i = 0; i < 5; ++i) {
        QueryResult r = session->Run(kFilterScript);
        if (!r.status.ok() || SortedLines(r.output) != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  server.Shutdown();
}

TEST_F(ServeTest, SetStateIsSessionScoped) {
  ServerOptions options;
  options.query_threads = 2;
  Server server(&catalog_, options);
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<Session> a = server.OpenSession();
  std::unique_ptr<Session> b = server.OpenSession();

  // a sets a batch class and a 1ms deadline; b must be unaffected. The
  // deadline goes last: it covers queue wait, so a later statement of a
  // could miss it on a loaded machine.
  ASSERT_TRUE(a->Run("SET serve.class 1;").status.ok());
  ASSERT_TRUE(a->Run("SET job.deadline_ms 1;").status.ok());
  EXPECT_EQ(a->query_class(), QueryClass::kBatch);
  EXPECT_EQ(b->query_class(), QueryClass::kInteractive);

  QueryResult rb = b->Run(kFilterScript);
  EXPECT_TRUE(rb.status.ok()) << rb.status.ToString();

  // Process-global SET keys are rejected in served sessions.
  EXPECT_FALSE(a->Run("SET obs.slow_task_ms 5;").status.ok());
  EXPECT_FALSE(b->Run("SET obs.slow_query_ms 5;").status.ok());
  // Invalid class values are rejected.
  EXPECT_FALSE(a->Run("SET serve.class 7;").status.ok());

  server.Shutdown();
}

TEST_F(ServeTest, SetRejectsOutOfRangeClassAndDeadline) {
  ServerOptions options;
  options.query_threads = 1;
  Server server(&catalog_, options);
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<Session> session = server.OpenSession();
  ASSERT_TRUE(session->Run("SET serve.class 1;").status.ok());
  ASSERT_TRUE(session->Run("SET job.deadline_ms 5000;").status.ok());
  // 1e300 overflows an int or uint64 cast; a class must be an integer.
  for (const char* script :
       {"SET serve.class 1e300;", "SET serve.class -1;",
        "SET serve.class 1.5;", "SET serve.class 3;",
        "SET job.deadline_ms 1e300;", "SET job.deadline_ms -1;"}) {
    EXPECT_EQ(session->Run(script).status.code(),
              StatusCode::kInvalidArgument)
        << script;
  }
  // The rejected values changed nothing.
  EXPECT_EQ(session->query_class(), QueryClass::kBatch);
  QueryResult result = session->Run(kFilterScript);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  server.Shutdown();
}

TEST_F(ServeTest, OverloadShedsWithTypedStatusAndRetryHint) {
  ServerOptions options;
  options.query_threads = 1;
  options.engine_threads = 1;
  options.scheduler.queue_limit = 2;
  Server server(&catalog_, options);
  ASSERT_TRUE(server.Start().ok());

  // Wedge the single worker, then overfill the queue.
  std::unique_ptr<Session> session = server.OpenSession();
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  // A long-running query: a generator stream replay with enough events to
  // hold the worker for a while is overkill here — instead submit many
  // queries at once; with queue_limit=2, the surplus must shed.
  constexpr size_t kSubmitted = 16;
  std::vector<std::future<QueryResult>> futures;
  for (size_t i = 0; i < kSubmitted; ++i) {
    futures.push_back(session->Submit(kFilterScript));
  }
  (void)released;
  release.set_value();

  size_t ok = 0, shed = 0;
  for (std::future<QueryResult>& f : futures) {
    QueryResult r = f.get();
    if (r.status.ok()) {
      ++ok;
    } else if (r.status.IsResourceExhausted()) {
      ++shed;
      EXPECT_GT(r.retry_after_ms, 0u);
      EXPECT_NE(r.status.message().find("retry_after_ms="),
                std::string::npos);
    } else {
      ADD_FAILURE() << "unexpected status " << r.status.ToString();
    }
  }
  EXPECT_EQ(ok + shed, kSubmitted);
  EXPECT_GT(shed, 0u);
  server.Shutdown();
}

// Regression (TSan): concurrent Submits on one session while queries from
// the same session execute on workers — Submit captures the session-scoped
// deadline lock-free while RunScript rewrites the Context's per-query
// remaining-budget deadline, so the two must not share a plain field.
TEST_F(ServeTest, ConcurrentSubmitsOnOneSessionWithDeadline) {
  ServerOptions options;
  options.query_threads = 2;
  options.engine_threads = 2;
  Server server(&catalog_, options);
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<Session> session = server.OpenSession();
  ASSERT_TRUE(session->Run("SET job.deadline_ms 200;").status.ok());
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(session->Submit(kFilterScript));
  }
  for (std::future<QueryResult>& f : futures) {
    const QueryResult r = f.get();
    EXPECT_TRUE(r.status.ok() || r.status.IsDeadlineExceeded() ||
                r.status.IsResourceExhausted() || r.status.IsCancelled())
        << r.status.ToString();
  }
  server.Shutdown();
}

// Satellite: the deadline/cancel storm. 100 concurrent queries, half with
// a 1ms deadline. Every single one must terminate with exactly one of
// {OK, DeadlineExceeded, Cancelled, ResourceExhausted}, and the flight
// recorder must contain cancel events for the post-mortem.
TEST_F(ServeTest, DeadlineCancelStorm) {
  obs::DefaultFlightRecorder().Enable();
  // Enough matching rows that each query does real work: on 100 events a
  // fast machine can finish even the 1ms-deadline half in time.
  std::vector<stream::StreamEvent> dense;
  for (size_t i = 0; i < 3000; ++i) {
    dense.push_back(PointEvent(static_cast<int64_t>(1000 + i),
                               2.0 + static_cast<double>(i % 50) * 0.08,
                               2.0 + static_cast<double>(i / 50) * 0.07,
                               static_cast<int64_t>(i % 100)));
  }
  ASSERT_TRUE(catalog_.Ingest("events", std::move(dense)).ok());

  ServerOptions options;
  options.query_threads = 2;
  options.engine_threads = 2;
  options.scheduler.queue_limit = 32;
  Server server(&catalog_, options);
  ASSERT_TRUE(server.Start().ok());

  // Set up every session first (the SET is itself a served query), then
  // fire all 100 scripts at once so the admission queue actually builds
  // depth — that is the storm.
  constexpr size_t kQueries = 100;
  std::vector<std::unique_ptr<Session>> sessions;
  sessions.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    sessions.push_back(server.OpenSession());
    if (i % 2 == 0) {
      QueryResult set = sessions.back()->Run("SET job.deadline_ms 1;");
      ASSERT_TRUE(set.status.ok()) << set.status.ToString();
    }
  }
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(kQueries);
  for (std::unique_ptr<Session>& s : sessions) {
    futures.push_back(s->Submit(kFilterScript));
  }

  size_t ok = 0, deadline = 0, cancelled = 0, shed = 0, other = 0;
  for (std::future<QueryResult>& f : futures) {
    const QueryResult r = f.get();
    if (r.status.ok()) {
      ++ok;
    } else if (r.status.IsDeadlineExceeded()) {
      ++deadline;
    } else if (r.status.IsCancelled()) {
      ++cancelled;
    } else if (r.status.IsResourceExhausted()) {
      ++shed;
    } else {
      ++other;
      ADD_FAILURE() << "unexpected status " << r.status.ToString();
    }
  }
  EXPECT_EQ(ok + deadline + cancelled + shed, kQueries);
  EXPECT_EQ(other, 0u);
  // The 1ms half cannot all have finished in time on 2 workers.
  EXPECT_GT(deadline, 0u);

  server.Shutdown();

  // Cancel evidence in the flight ring (serve.deadline / serve.cancel /
  // engine task cancels all record kCancel).
  size_t cancel_events = 0;
  for (const obs::FlightEvent& e : obs::DefaultFlightRecorder().Snapshot()) {
    if (e.kind == obs::FlightEventKind::kCancel) ++cancel_events;
  }
  EXPECT_GT(cancel_events, 0u);
}

TEST_F(ServeTest, DrainShutdownRefusesNewWorkAndDrainsEpochs) {
  ServerOptions options;
  options.query_threads = 2;
  options.drain_grace_ms = 200;
  Server server(&catalog_, options);
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<Session> session = server.OpenSession();
  ASSERT_TRUE(session->Run(kFilterScript).status.ok());

  server.Shutdown();

  // Post-drain: submission is refused with the typed shedding status...
  QueryResult refused = session->Run(kFilterScript);
  EXPECT_TRUE(refused.status.IsResourceExhausted())
      << refused.status.ToString();
  EXPECT_NE(refused.status.message().find("draining"), std::string::npos);

  // ...and all pins have drained: exactly one live epoch remains.
  Result<DatasetRegistry*> registry = catalog_.Registry("events");
  ASSERT_TRUE(registry.ok());
  EXPECT_EQ(registry.ValueOrDie()->LiveEpochs(), 1u);

  // Shutdown is idempotent.
  server.Shutdown();
}

TEST_F(ServeTest, IngestDuringQueriesKeepsReadersConsistent) {
  ServerOptions options;
  options.query_threads = 2;
  options.engine_threads = 2;
  Server server(&catalog_, options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::thread ingester([&] {
    int64_t next_id = 1000;
    while (!stop.load()) {
      std::vector<stream::StreamEvent> batch;
      for (int i = 0; i < 10; ++i) {
        const int64_t id = next_id++;
        batch.push_back(PointEvent(id, 3.0, 3.0, id));
      }
      ASSERT_TRUE(catalog_.Ingest("events", std::move(batch)).ok());
    }
  });

  std::unique_ptr<Session> session = server.OpenSession();
  for (int i = 0; i < 20; ++i) {
    QueryResult r = session->Run(
        "hits = FILTER events BY INTERSECTS('POLYGON((2.5 2.5, 3.5 2.5, "
        "3.5 3.5, 2.5 3.5, 2.5 2.5))', 0, 1000000);\nDUMP hits;\n");
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    // Every (3,3) hit is one of the ingested events: the count grows
    // monotonically across queries (snapshots are append-only).
    EXPECT_FALSE(r.output.empty());
  }
  stop.store(true);
  ingester.join();
  server.Shutdown();

  Result<DatasetRegistry*> registry = catalog_.Registry("events");
  ASSERT_TRUE(registry.ok());
  EXPECT_EQ(registry.ValueOrDie()->LiveEpochs(), 1u);
}

// ---------------------------------------------------------------------------
// TCP wire protocol

// Sends `request` and reads `num_replies` ".\n"-terminated replies (the
// frontend runs every ';'-terminated line as one statement, so a two-line
// script yields two replies). Returns the replies in order.
std::vector<std::string> TcpRoundTrip(uint16_t port,
                                      const std::string& request,
                                      size_t num_replies) {
  std::vector<std::string> replies;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string pending;
  char buf[4096];
  while (replies.size() < num_replies) {
    // A terminator is a lone "." line: at the start of the stream or after
    // a newline.
    size_t term = pending.rfind(".\n", 0) == 0 ? 0 : pending.find("\n.\n");
    if (term != std::string::npos) {
      const size_t end = term == 0 ? 2 : term + 3;
      replies.push_back(pending.substr(0, end));
      pending.erase(0, end);
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    pending.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return replies;
}

TEST_F(ServeTest, TcpProtocolServesQueriesAndTypedErrors) {
  ServerOptions options;
  options.query_threads = 2;
  Server server(&catalog_, options);
  ASSERT_TRUE(server.Start().ok());
  TcpFrontend frontend(&server, 0);
  ASSERT_TRUE(frontend.Start().ok());
  ASSERT_GT(frontend.port(), 0);

  // A successful query. The two-line script yields one reply per
  // statement; the DUMP reply's payload must match serial execution.
  const std::vector<std::string> good =
      TcpRoundTrip(frontend.port(), kFilterScript, 2);
  ASSERT_EQ(good.size(), 2u);
  for (const std::string& reply : good) {
    EXPECT_EQ(reply.rfind("+OK ", 0), 0u) << reply;
  }
  const std::string& dump = good[1];
  const size_t header_end = dump.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  std::string payload = dump.substr(header_end + 1);
  const size_t term = payload.rfind(".\n");
  ASSERT_NE(term, std::string::npos);
  payload.resize(term);
  EXPECT_EQ(SortedLines(payload), SortedLines(Serial(kFilterScript)));

  // A parse error: typed -ERR line.
  const std::vector<std::string> bad =
      TcpRoundTrip(frontend.port(), "THIS IS NOT PIG;\n", 1);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].rfind("-ERR ", 0), 0u) << bad[0];

  frontend.Stop();
  server.Shutdown();
}

// Regression: connection churn and teardown ownership. Handler threads of
// closed connections are reaped as later connections arrive (a long-lived
// frontend must not accumulate dead thread handles), and clients
// connecting/closing concurrently with Stop() must never wedge the
// frontend or let it act on a recycled descriptor — CloseClient() closes
// fds under the same lock Stop() uses for its shutdown() sweep.
TEST_F(ServeTest, TcpConnectionChurnAndConcurrentStop) {
  ServerOptions options;
  options.query_threads = 2;
  Server server(&catalog_, options);
  ASSERT_TRUE(server.Start().ok());
  TcpFrontend frontend(&server, 0);
  ASSERT_TRUE(frontend.Start().ok());
  const uint16_t port = frontend.port();

  // Sequential churn: each round trip is a fresh connection.
  for (int i = 0; i < 12; ++i) {
    const std::vector<std::string> replies =
        TcpRoundTrip(port, "DESCRIBE events;\n", 1);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].rfind("+OK ", 0), 0u) << replies[0];
  }

  // Concurrent churn racing Stop().
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) return;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
          const char q[] = "DESCRIBE events;\n";
          (void)::send(fd, q, sizeof(q) - 1, MSG_NOSIGNAL);
          char buf[256];
          (void)::recv(fd, buf, sizeof(buf), 0);
        }
        ::close(fd);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  frontend.Stop();
  stop.store(true);
  for (std::thread& t : clients) t.join();
  server.Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace stark
