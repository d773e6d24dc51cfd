/// \file interpreter.h
/// Executes Piglet programs over the sparklet engine and the STARK spatial
/// operators — the C++ counterpart of the Piglet engine demoed in §4.
#ifndef STARK_PIGLET_INTERPRETER_H_
#define STARK_PIGLET_INTERPRETER_H_

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/job_control.h"
#include "engine/rdd.h"
#include "partition/partitioner.h"
#include "piglet/ast.h"
#include "piglet/explain.h"
#include "piglet/optimizer.h"
#include "spatial_rdd/query_stats.h"
#include "stream/stream_context.h"

namespace stark {

namespace serve {
struct DatasetSnapshot;
}  // namespace serve

namespace piglet {

/// One tuple flowing through a Piglet pipeline: dynamic fields plus the
/// optional spatio-temporal key created by SPATIALIZE.
struct PigRow {
  std::vector<PigValue> fields;
  std::optional<STObject> st;
};

/// A named relation: schema, data, and spatial execution metadata.
struct PigRelation {
  std::vector<std::string> schema;
  RDD<PigRow> rdd;
  std::shared_ptr<SpatialPartitioner> partitioner;
  /// Live-index order for spatial filters; 0 = no indexing (§2.2).
  size_t index_order = 0;
  bool spatialized = false;
  /// Non-null for serving-layer relations bound to a pinned dataset
  /// snapshot: spatial FILTERs then probe the snapshot's prebuilt packed
  /// R-tree directly instead of building a live index per query.
  std::shared_ptr<const serve::DatasetSnapshot> snapshot;
};

/// The canonical event -> row conversion shared by the serving layer's
/// snapshot relations and its snapshot filter path (schema: id, category,
/// time, wkt — same as LOAD).
PigRow RowFromStreamEvent(const stream::StreamEvent& event);

/// Renders one field value ("42", "3.5", "text").
std::string FormatPigValue(const PigValue& value);

/// A STREAM statement's source definition, pending an EMIT.
struct StreamDef {
  StreamSourceKind source = StreamSourceKind::kGenerator;
  int64_t gen_count = 1000;
  int64_t gen_seed = 42;
  int64_t gen_step = 1;
  std::string path;  // TAIL
};

/// A WINDOW statement: event-time windowing over a named stream.
struct WindowDef {
  std::string stream;
  stream::WindowSpec spec;
  int64_t lateness = 0;
};

/// A PATTERN statement: a CEP operator over a named window.
struct PatternDef {
  std::string window;
  stream::PatternSpec spec;
};

/// The largest millisecond value a `SET` may give a deadline or a slow-log
/// threshold: 10^12 ms, about 31 years. Larger values would overflow the
/// engine's nanosecond and microsecond clock arithmetic.
inline constexpr double kMaxSetMs = 1e12;

/// OK when a `SET key value` lies in [min, max], else InvalidArgument
/// naming the range. NaN is never in range. Every SET value is a double
/// until it passes this check, so the casts after it are defined.
Status CheckSetValue(const std::string& key, double value, double min,
                     double max);

/// \brief Interprets Piglet statements against a Context.
///
/// DUMP/DESCRIBE output goes to the stream passed at construction, so tests
/// and the web-frontend substitute (the CLI example) can capture it.
class Interpreter {
 public:
  Interpreter(Context* ctx, std::ostream* out);

  /// Parses and runs a full script.
  Status RunScript(const std::string& source);

  /// Parses, optimizes (see piglet/optimizer.h) and runs a script. Note
  /// that dead-code elimination removes assignments without a DUMP/STORE/
  /// DESCRIBE consumer, so scripts run this way should end in a sink.
  Status RunScriptOptimized(const std::string& source,
                            OptimizerReport* report = nullptr);

  /// EXPLAIN ANALYZE: runs the script, materializing each produced
  /// relation immediately so per-operator wall time, row counts and
  /// filter-pruning stats can be attributed to the statement that caused
  /// them. \p report receives one OperatorProfile per executed statement
  /// (render with FormatAnalyzeReport). On error, profiles for the
  /// statements that did run are still filled in.
  Status RunScriptAnalyze(const std::string& source, AnalyzeReport* report);

  /// Runs an already-parsed program.
  Status Run(const Program& program);

  /// Installs a Ctrl-C-style cancellation token: checked between
  /// statements (a cancelled script returns Status::Cancelled) and passed
  /// to the Context so the job running *within* a statement stops at its
  /// next task checkpoint. Pass nullptr to detach.
  void set_cancel_token(std::shared_ptr<CancelToken> token);

  /// Looks up a relation produced by a previous statement (for embedding).
  Result<const PigRelation*> relation(const std::string& name) const;

  /// Binds \p rel under \p name as if a statement had produced it. The
  /// serving layer uses this to expose pinned dataset snapshots to each
  /// query; a later script assignment to the same name shadows it.
  void BindRelation(const std::string& name, PigRelation rel);

  /// Session mode (serving layer): SET keys that mutate *process-global*
  /// state (obs.slow_task_ms, obs.slow_query_ms) are rejected so one
  /// client cannot change another client's observability. Per-context keys
  /// (job.*, obs.profile) stay available — each session owns its Context.
  void set_session_mode(bool on) { session_mode_ = on; }

  /// First-chance handler for SET statements. Returns true when the key
  /// was consumed (e.g. the server's `serve.class`), false to fall through
  /// to the built-in keys, or an error to fail the statement.
  using SetHook = std::function<Result<bool>(const std::string& key,
                                             double value)>;
  void set_set_hook(SetHook hook) { set_hook_ = std::move(hook); }

 private:
  Status Execute(const Statement& stmt);
  Status ExecuteImpl(const Statement& stmt);
  Result<PigRelation> ExecLoad(const Statement& stmt);
  Result<PigRelation> ExecSpatialize(const Statement& stmt);
  Result<PigRelation> ExecFilter(const Statement& stmt);
  /// A spatial FILTER or a KNN over \p in: the one site that picks where
  /// their candidates come from — the bound snapshot's prebuilt tree, a
  /// live index (INDEX ... ORDER n) or a scan of the rows.
  Result<PigRelation> ExecSpatialQuery(const Statement& stmt,
                                       const PigRelation& in);
  Result<PigRelation> ExecPartition(const Statement& stmt);
  Result<PigRelation> ExecJoin(const Statement& stmt);
  Result<PigRelation> ExecKnn(const Statement& stmt);
  Result<PigRelation> ExecCluster(const Statement& stmt);
  Result<PigRelation> ExecAggregate(const Statement& stmt);
  Status ExecDump(const Statement& stmt);
  Status ExecStore(const Statement& stmt);
  Status ExecDescribe(const Statement& stmt);
  Status ExecSet(const Statement& stmt);
  Status ExecStream(const Statement& stmt);
  Status ExecWindow(const Statement& stmt);
  Status ExecPattern(const Statement& stmt);
  Status ExecEmit(const Statement& stmt);

  /// Status::Cancelled when the installed token has been signalled.
  Status CheckCancelled() const;

  Result<const PigRelation*> Input(const Statement& stmt) const;

  Context* ctx_;
  std::ostream* out_;
  std::shared_ptr<CancelToken> cancel_token_;
  std::map<std::string, PigRelation> relations_;
  std::map<std::string, StreamDef> streams_;
  std::map<std::string, WindowDef> windows_;
  std::map<std::string, PatternDef> patterns_;
  /// Non-null only while RunScriptAnalyze executes: spatial filters then
  /// report pruning counters here. A member (not a local) because filter
  /// lambdas capture the pointer into lazy lineage nodes.
  QueryStats analyze_stats_;
  bool analyze_mode_ = false;
  /// SET obs.profile 1: plain Run() also collects a QueryProfile and
  /// prints the tree to the output stream after the script finishes.
  bool profile_enabled_ = false;
  /// Serving layer: reject process-global SET keys (see set_session_mode).
  bool session_mode_ = false;
  SetHook set_hook_;
};

}  // namespace piglet
}  // namespace stark

#endif  // STARK_PIGLET_INTERPRETER_H_
