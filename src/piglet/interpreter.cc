#include "piglet/interpreter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <ostream>
#include <set>

#include "clustering/distributed_dbscan.h"
#include "common/stopwatch.h"
#include "engine/pair_rdd.h"
#include "io/csv.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "partition/bsp_partitioner.h"
#include "partition/grid_partitioner.h"
#include "partition/st_grid_partitioner.h"
#include "piglet/parser.h"
#include "serve/catalog.h"
#include "spatial_rdd/join.h"
#include "spatial_rdd/knn.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {
namespace piglet {

namespace {

/// Evaluates a comparison between a field value and a literal. Numeric
/// types compare numerically; strings compare lexically; a string/number
/// mismatch never matches.
bool CompareValues(const PigValue& field, const std::string& op,
                   const PigValue& literal) {
  const bool field_str = std::holds_alternative<std::string>(field);
  const bool lit_str = std::holds_alternative<std::string>(literal);
  if (field_str != lit_str) return false;
  int cmp;
  if (field_str) {
    cmp = std::get<std::string>(field).compare(std::get<std::string>(literal));
  } else {
    auto as_double = [](const PigValue& v) {
      return std::holds_alternative<int64_t>(v)
                 ? static_cast<double>(std::get<int64_t>(v))
                 : std::get<double>(v);
    };
    const double a = as_double(field);
    const double b = as_double(literal);
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  }
  if (op == "==") return cmp == 0;
  if (op == "!=") return cmp != 0;
  if (op == "<") return cmp < 0;
  if (op == "<=") return cmp <= 0;
  if (op == ">") return cmp > 0;
  return cmp >= 0;  // ">="
}

/// Finds a column index in a schema.
Result<size_t> ColumnIndex(const std::vector<std::string>& schema,
                           const std::string& name) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i] == name) return i;
  }
  return Status::KeyError("piglet: unknown column '" + name + "'");
}

/// Validates that every column referenced by \p expr exists in \p schema
/// and that spatial predicates are only used on spatialized relations.
Status ValidateExpr(const Expr& expr, const std::vector<std::string>& schema,
                    bool spatialized) {
  switch (expr.kind) {
    case Expr::Kind::kCompare:
      return ColumnIndex(schema, expr.column).status();
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      STARK_RETURN_NOT_OK(ValidateExpr(*expr.lhs, schema, spatialized));
      return ValidateExpr(*expr.rhs, schema, spatialized);
    case Expr::Kind::kNot:
      return ValidateExpr(*expr.lhs, schema, spatialized);
    case Expr::Kind::kSpatialPred:
      if (!spatialized) {
        return Status::InvalidArgument(
            "piglet: spatial predicate on a relation without STObject key; "
            "apply SPATIALIZE first");
      }
      return Status::OK();
  }
  return Status::OK();
}

/// Row-level expression evaluation (all names resolved beforehand).
bool EvalExpr(const Expr& expr, const PigRow& row,
              const std::vector<std::string>& schema) {
  switch (expr.kind) {
    case Expr::Kind::kCompare: {
      auto idx = ColumnIndex(schema, expr.column);
      if (!idx.ok()) return false;
      return CompareValues(row.fields[idx.ValueOrDie()], expr.op,
                           expr.literal);
    }
    case Expr::Kind::kAnd:
      return EvalExpr(*expr.lhs, row, schema) &&
             EvalExpr(*expr.rhs, row, schema);
    case Expr::Kind::kOr:
      return EvalExpr(*expr.lhs, row, schema) ||
             EvalExpr(*expr.rhs, row, schema);
    case Expr::Kind::kNot:
      return !EvalExpr(*expr.lhs, row, schema);
    case Expr::Kind::kSpatialPred: {
      if (!row.st.has_value()) return false;
      JoinPredicate pred;
      pred.type = expr.pred;
      pred.max_distance = expr.max_distance;
      return pred.Eval(*row.st, *expr.query);
    }
  }
  return false;
}

/// Universe envelope of a spatialized relation.
Envelope UniverseOf(const RDD<PigRow>& rdd) {
  // Envelope is a monoid under ExpandToInclude, so map + fold suffices.
  return rdd
      .Map([](PigRow& row) {
        return row.st.has_value() ? row.st->envelope() : Envelope();
      })
      .Fold(Envelope(), [](Envelope acc, const Envelope& env) {
        acc.ExpandToInclude(env);
        return acc;
      });
}

std::string FormatRow(const PigRow& row) {
  std::string line;
  for (size_t i = 0; i < row.fields.size(); ++i) {
    if (i > 0) line += ", ";
    line += FormatPigValue(row.fields[i]);
  }
  if (row.st.has_value()) {
    line += " | " + row.st->ToString();
  }
  return line;
}

/// The rows of a spatialized relation keyed by their STObject, with the
/// relation's partitioner.
SpatialRDD<PigRow> Keyed(const PigRelation& rel) {
  return SpatialRDD<PigRow>(rel.rdd.Map([](PigRow& row) {
    STObject key = *row.st;
    return std::make_pair(std::move(key), std::move(row));
  }),
                            rel.partitioner);
}

/// The STObject of a served event.
struct EventKey {
  const STObject& operator()(const stream::StreamEvent& event) const {
    return event.obj;
  }
};

}  // namespace

std::string FormatPigValue(const PigValue& value) {
  if (std::holds_alternative<int64_t>(value)) {
    return std::to_string(std::get<int64_t>(value));
  }
  if (std::holds_alternative<double>(value)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", std::get<double>(value));
    return buf;
  }
  return std::get<std::string>(value);
}

Interpreter::Interpreter(Context* ctx, std::ostream* out)
    : ctx_(ctx), out_(out) {}

Status Interpreter::RunScript(const std::string& source) {
  STARK_ASSIGN_OR_RETURN(Program program, Parse(source));
  return Run(program);
}

Status Interpreter::RunScriptOptimized(const std::string& source,
                                       OptimizerReport* report) {
  STARK_ASSIGN_OR_RETURN(Program program, Parse(source));
  return Run(Optimize(program, report));
}

namespace {

bool ProducesRelation(Statement::Kind kind) {
  switch (kind) {
    case Statement::Kind::kDump:
    case Statement::Kind::kStore:
    case Statement::Kind::kDescribe:
    case Statement::Kind::kSet:
    case Statement::Kind::kStream:
    case Statement::Kind::kWindow:
    case Statement::Kind::kPattern:
    case Statement::Kind::kEmit:
      return false;
    default:
      return true;
  }
}

}  // namespace

Status Interpreter::RunScriptAnalyze(const std::string& source,
                                     AnalyzeReport* report) {
  STARK_ASSIGN_OR_RETURN(Program program, Parse(source));
  analyze_stats_.Reset();
  analyze_mode_ = true;
  // Install a QueryProfile collector for the duration of the script: every
  // engine job that runs under a statement's ProfileNodeScope nests inside
  // that statement's node.
  obs::ProfileCollector collector("EXPLAIN ANALYZE");
  obs::ProfileCollectorScope collector_scope(&collector);
  Stopwatch total;
  Status status = Status::OK();
  for (const Statement& stmt : program.statements) {
    status = CheckCancelled();
    if (!status.ok()) break;
    OperatorProfile prof;
    prof.statement = FormatStatement(stmt);
    const QueryStats::Snapshot before = analyze_stats_.Snap();
    Stopwatch sw;
    {
      obs::ProfileNodeScope stmt_scope(&collector, prof.statement,
                                       obs::ProfileNodeKind::kStatement);
      status = Execute(stmt);
      if (status.ok() && ProducesRelation(stmt.kind)) {
        auto it = relations_.find(stmt.target);
        if (it != relations_.end()) {
          // Materialize now (cached) so this statement's evaluation cost
          // and pruning counters are attributed to it, not to a later
          // consumer.
          try {
            it->second.rdd = it->second.rdd.Cache();
            prof.rows_out = it->second.rdd.Count();
          } catch (const StatusError& e) {
            status = e.status();
          }
          if (status.ok()) {
            prof.produced_relation = true;
            prof.num_partitions = it->second.rdd.NumPartitions();
          }
        }
      }
      prof.wall_ms = sw.ElapsedMillis();
      if (stmt_scope.node() != nullptr) {
        stmt_scope.node()->wall_ms = prof.wall_ms;
        stmt_scope.node()->rows_out = prof.rows_out;
        stmt_scope.node()->partitions = prof.num_partitions;
        if (!status.ok()) {
          stmt_scope.node()->failed = true;
          stmt_scope.node()->error = status.ToString();
        }
      }
    }
    // Copy the statement's profile node (the last child of the root) into
    // the operator profile before the next Push can grow root.children.
    if (!collector.root().children.empty()) {
      prof.profile = collector.root().children.back();
    }
    if (!status.ok()) break;  // the failed statement stays in the tree only
    prof.filter = analyze_stats_.Snap().Delta(before);
    if (report != nullptr) report->operators.push_back(std::move(prof));
  }
  if (report != nullptr) {
    report->total_ms = total.ElapsedMillis();
    collector.mutable_root().wall_ms = report->total_ms;
    report->profile = collector.root();
  }
  analyze_mode_ = false;
  return status;
}

Status Interpreter::Run(const Program& program) {
  if (!profile_enabled_) {
    for (const Statement& stmt : program.statements) {
      STARK_RETURN_NOT_OK(CheckCancelled());
      STARK_RETURN_NOT_OK(Execute(stmt));
    }
    return Status::OK();
  }
  // SET obs.profile 1: collect a QueryProfile for the script and print the
  // tree when it finishes (successfully or not).
  obs::ProfileCollector collector("script");
  obs::ProfileCollectorScope collector_scope(&collector);
  Status status = Status::OK();
  for (const Statement& stmt : program.statements) {
    status = CheckCancelled();
    if (!status.ok()) break;
    Stopwatch sw;
    obs::ProfileNodeScope stmt_scope(&collector, FormatStatement(stmt),
                                     obs::ProfileNodeKind::kStatement);
    status = Execute(stmt);
    if (stmt_scope.node() != nullptr) {
      stmt_scope.node()->wall_ms = sw.ElapsedMillis();
      if (!status.ok()) {
        stmt_scope.node()->failed = true;
        stmt_scope.node()->error = status.ToString();
      }
    }
    if (!status.ok()) break;
  }
  (*out_) << obs::FormatProfileTree(collector.root());
  return status;
}

void Interpreter::set_cancel_token(std::shared_ptr<CancelToken> token) {
  cancel_token_ = token;
  ctx_->set_cancel_token(std::move(token));
}

Status Interpreter::CheckCancelled() const {
  if (cancel_token_ != nullptr && cancel_token_->requested()) {
    return Status::Cancelled("piglet: script cancelled");
  }
  return Status::OK();
}

PigRow RowFromStreamEvent(const stream::StreamEvent& event) {
  PigRow row;
  row.fields = {event.id, event.category,
                static_cast<int64_t>(event.event_time()),
                event.obj.geo().ToWkt()};
  row.st = event.obj;
  return row;
}

void Interpreter::BindRelation(const std::string& name, PigRelation rel) {
  relations_[name] = std::move(rel);
}

Result<const PigRelation*> Interpreter::relation(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::KeyError("piglet: unknown relation '" + name + "'");
  }
  return &it->second;
}

Result<const PigRelation*> Interpreter::Input(const Statement& stmt) const {
  return relation(stmt.input);
}

Status Interpreter::Execute(const Statement& stmt) {
  static obs::Counter* const slow_queries =
      obs::DefaultMetrics().GetCounter("engine.query.slow");
  Stopwatch sw;
  // Actions materialize through the infallible RDD wrappers, which rethrow
  // a terminal job Status (deadline, cancellation, exhausted retries) as
  // StatusError; surface it as this statement's Status instead of letting
  // it unwind past the shell's REPL loop.
  Status status;
  try {
    status = ExecuteImpl(stmt);
  } catch (const StatusError& e) {
    status = e.status();
  }
  // Slow-query log: a statement is the query unit of the Piglet layer.
  const double slow_ms = obs::GlobalSlowLog().slow_query_ms();
  if (slow_ms > 0 && sw.ElapsedMillis() > slow_ms) {
    slow_queries->Increment();
    std::fprintf(stderr, "[stark] slow query: %.1f ms (threshold %.1f ms): %s\n",
                 sw.ElapsedMillis(), slow_ms,
                 FormatStatement(stmt).c_str());
  }
  return status;
}

Status Interpreter::ExecuteImpl(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kLoad: {
      STARK_ASSIGN_OR_RETURN(PigRelation rel, ExecLoad(stmt));
      relations_[stmt.target] = std::move(rel);
      return Status::OK();
    }
    case Statement::Kind::kSpatialize: {
      STARK_ASSIGN_OR_RETURN(PigRelation rel, ExecSpatialize(stmt));
      relations_[stmt.target] = std::move(rel);
      return Status::OK();
    }
    case Statement::Kind::kFilter: {
      STARK_ASSIGN_OR_RETURN(PigRelation rel, ExecFilter(stmt));
      relations_[stmt.target] = std::move(rel);
      return Status::OK();
    }
    case Statement::Kind::kPartition: {
      STARK_ASSIGN_OR_RETURN(PigRelation rel, ExecPartition(stmt));
      relations_[stmt.target] = std::move(rel);
      return Status::OK();
    }
    case Statement::Kind::kIndex: {
      STARK_ASSIGN_OR_RETURN(const PigRelation* in, Input(stmt));
      if (!in->spatialized) {
        return Status::InvalidArgument(
            "piglet: INDEX requires a spatialized relation");
      }
      PigRelation rel = *in;
      rel.index_order = stmt.index_order;
      relations_[stmt.target] = std::move(rel);
      return Status::OK();
    }
    case Statement::Kind::kJoin: {
      STARK_ASSIGN_OR_RETURN(PigRelation rel, ExecJoin(stmt));
      relations_[stmt.target] = std::move(rel);
      return Status::OK();
    }
    case Statement::Kind::kKnn: {
      STARK_ASSIGN_OR_RETURN(PigRelation rel, ExecKnn(stmt));
      relations_[stmt.target] = std::move(rel);
      return Status::OK();
    }
    case Statement::Kind::kCluster: {
      STARK_ASSIGN_OR_RETURN(PigRelation rel, ExecCluster(stmt));
      relations_[stmt.target] = std::move(rel);
      return Status::OK();
    }
    case Statement::Kind::kAggregate: {
      STARK_ASSIGN_OR_RETURN(PigRelation rel, ExecAggregate(stmt));
      relations_[stmt.target] = std::move(rel);
      return Status::OK();
    }
    case Statement::Kind::kLimit: {
      STARK_ASSIGN_OR_RETURN(const PigRelation* in, Input(stmt));
      PigRelation rel = *in;
      std::vector<PigRow> rows = in->rdd.Take(stmt.limit);
      rel.rdd = MakeRDD(ctx_, std::move(rows), 1);
      rel.partitioner = nullptr;
      // The rows no longer match the bound snapshot: a later spatial FILTER
      // must evaluate these rows, not probe the full snapshot R-tree.
      rel.snapshot = nullptr;
      relations_[stmt.target] = std::move(rel);
      return Status::OK();
    }
    case Statement::Kind::kDump:
      return ExecDump(stmt);
    case Statement::Kind::kStore:
      return ExecStore(stmt);
    case Statement::Kind::kDescribe:
      return ExecDescribe(stmt);
    case Statement::Kind::kSet:
      return ExecSet(stmt);
    case Statement::Kind::kStream:
      return ExecStream(stmt);
    case Statement::Kind::kWindow:
      return ExecWindow(stmt);
    case Statement::Kind::kPattern:
      return ExecPattern(stmt);
    case Statement::Kind::kEmit:
      return ExecEmit(stmt);
  }
  return Status::UnknownError("piglet: unhandled statement");
}

Status CheckSetValue(const std::string& key, double value, double min,
                     double max) {
  if (value >= min && value <= max) return Status::OK();
  char range[64];
  std::snprintf(range, sizeof(range), "[%.15g, %.15g]", min, max);
  return Status::InvalidArgument("piglet: " + key + " must be in " + range);
}

Status Interpreter::ExecSet(const Statement& stmt) {
  const std::string& key = stmt.set_key;
  const double value = stmt.set_value;
  if (set_hook_) {
    STARK_ASSIGN_OR_RETURN(const bool handled, set_hook_(key, value));
    if (handled) return Status::OK();
  }
  if (key == "job.deadline_ms") {
    STARK_RETURN_NOT_OK(CheckSetValue(key, value, 0, kMaxSetMs));
    ctx_->set_job_deadline_ms(static_cast<uint64_t>(value));
    return Status::OK();
  }
  if (key == "job.speculation") {
    SpeculationPolicy policy = ctx_->speculation_policy();
    policy.enabled = value != 0;
    ctx_->set_speculation_policy(policy);
    return Status::OK();
  }
  if (key == "job.speculation_multiplier") {
    // The multiplier scales a median task time in nanoseconds into a
    // uint64 threshold; 1000x keeps that product in range.
    STARK_RETURN_NOT_OK(CheckSetValue(key, value, 1, 1000));
    SpeculationPolicy policy = ctx_->speculation_policy();
    policy.multiplier = value;
    ctx_->set_speculation_policy(policy);
    return Status::OK();
  }
  if (key == "job.speculation_quantile") {
    STARK_RETURN_NOT_OK(CheckSetValue(key, value, 0, 1));
    SpeculationPolicy policy = ctx_->speculation_policy();
    policy.quantile = value;
    ctx_->set_speculation_policy(policy);
    return Status::OK();
  }
  if (key == "obs.profile") {
    profile_enabled_ = value != 0;
    return Status::OK();
  }
  if (key == "obs.slow_task_ms" || key == "obs.slow_query_ms") {
    // These mutate the process-wide slow log; in a served session that
    // would leak one client's setting into every other client's queries.
    if (session_mode_) {
      return Status::InvalidArgument(
          "piglet: '" + key +
          "' is process-global and cannot be set from a served session");
    }
    STARK_RETURN_NOT_OK(CheckSetValue(key, value, 0, kMaxSetMs));
    if (key == "obs.slow_task_ms") {
      obs::GlobalSlowLog().set_slow_task_ms(value);
    } else {
      obs::GlobalSlowLog().set_slow_query_ms(value);
    }
    return Status::OK();
  }
  return Status::InvalidArgument("piglet:" + std::to_string(stmt.line) +
                                 ": unknown SET key '" + key +
                                 "' (want job.deadline_ms, job.speculation, "
                                 "job.speculation_multiplier, "
                                 "job.speculation_quantile, obs.profile, "
                                 "obs.slow_task_ms, or obs.slow_query_ms)");
}

Status Interpreter::ExecStream(const Statement& stmt) {
  StreamDef def;
  def.source = stmt.stream_source;
  def.gen_count = stmt.gen_count;
  def.gen_seed = stmt.gen_seed;
  def.gen_step = stmt.gen_step;
  def.path = stmt.path;
  streams_[stmt.target] = std::move(def);
  return Status::OK();
}

Status Interpreter::ExecWindow(const Statement& stmt) {
  if (streams_.find(stmt.input) == streams_.end()) {
    return Status::KeyError("piglet: unknown stream '" + stmt.input + "'");
  }
  WindowDef def;
  def.stream = stmt.input;
  def.spec.size = stmt.window_size;
  def.spec.slide = stmt.window_slide;
  def.lateness = stmt.window_lateness;
  windows_[stmt.target] = std::move(def);
  return Status::OK();
}

Status Interpreter::ExecPattern(const Statement& stmt) {
  if (windows_.find(stmt.input) == windows_.end()) {
    return Status::KeyError("piglet: unknown window '" + stmt.input + "'");
  }
  PatternDef def;
  def.window = stmt.input;
  stream::PatternSpec& spec = def.spec;
  switch (stmt.pattern_kind) {
    case StreamPatternKind::kSequence:
      spec.kind = stream::PatternKind::kSequence;
      break;
    case StreamPatternKind::kAbsence:
      spec.kind = stream::PatternKind::kAbsence;
      break;
    case StreamPatternKind::kCount:
      spec.kind = stream::PatternKind::kCount;
      break;
  }
  spec.within = stmt.pattern_within;
  spec.threshold = stmt.pattern_threshold;
  if (stmt.pattern_cmp == ">=") spec.cmp = stream::CountCmp::kGe;
  else if (stmt.pattern_cmp == ">") spec.cmp = stream::CountCmp::kGt;
  else if (stmt.pattern_cmp == "<=") spec.cmp = stream::CountCmp::kLe;
  else if (stmt.pattern_cmp == "<") spec.cmp = stream::CountCmp::kLt;
  else if (stmt.pattern_cmp == "==") spec.cmp = stream::CountCmp::kEq;
  else {
    return Status::InvalidArgument("piglet: bad COUNT comparison '" +
                                   stmt.pattern_cmp + "'");
  }
  for (const std::string& category : stmt.pattern_categories) {
    stream::StepPredicate step;
    step.category = category;
    if (stmt.pattern_region.has_value()) {
      step.region = stmt.pattern_region;
      step.pred.type = stmt.pattern_region_pred;
      step.pred.max_distance = stmt.pattern_region_distance;
    }
    spec.steps.push_back(std::move(step));
  }
  patterns_[stmt.target] = std::move(def);
  return Status::OK();
}

Status Interpreter::ExecEmit(const Statement& stmt) {
  // EMIT accepts either a pattern or a bare window; resolve the chain
  // pattern -> window -> stream.
  const PatternDef* pattern = nullptr;
  const WindowDef* window = nullptr;
  const auto pit = patterns_.find(stmt.input);
  if (pit != patterns_.end()) {
    pattern = &pit->second;
    const auto wit = windows_.find(pattern->window);
    if (wit == windows_.end()) {
      return Status::KeyError("piglet: unknown window '" + pattern->window +
                              "'");
    }
    window = &wit->second;
  } else {
    const auto wit = windows_.find(stmt.input);
    if (wit == windows_.end()) {
      return Status::KeyError("piglet: unknown window or pattern '" +
                              stmt.input + "'");
    }
    window = &wit->second;
  }
  const auto sit = streams_.find(window->stream);
  if (sit == streams_.end()) {
    return Status::KeyError("piglet: unknown stream '" + window->stream +
                            "'");
  }
  const StreamDef& source = sit->second;

  stream::StreamContext::Options options;
  options.window = window->spec;
  if (pattern != nullptr) options.pattern = pattern->spec;
  stream::StreamContext sc(ctx_, options);
  std::unique_ptr<stream::StreamSource> src;
  if (source.source == StreamSourceKind::kGenerator) {
    stream::GeneratorOptions gen;
    gen.count = static_cast<size_t>(source.gen_count);
    gen.seed = static_cast<uint64_t>(source.gen_seed);
    gen.time_step = source.gen_step;
    // The generator shuffles arrivals up to the window's declared lateness
    // bound: disorder == bound, so the replay exercises out-of-order
    // delivery without ever actually losing an event.
    gen.disorder = window->lateness;
    src = std::make_unique<stream::GeneratorSource>(gen);
  } else {
    src = std::make_unique<stream::CsvTailSource>(source.path);
  }
  sc.AddSource(std::move(src), window->lateness);
  const bool has_pattern = pattern != nullptr;
  sc.SetSink([this, has_pattern](const stream::WindowResult& result) {
    (*out_) << "[" << result.window.start << "," << result.window.end
            << ") events=" << result.window.events.size();
    if (has_pattern) (*out_) << " matches=" << result.matches.size();
    (*out_) << "\n";
    for (const stream::PatternMatch& m : result.matches) {
      (*out_) << "  match count=" << m.count;
      for (const stream::StreamEvent& e : m.events) {
        (*out_) << " " << e.id << "@" << e.event_time();
      }
      (*out_) << "\n";
    }
  });
  STARK_RETURN_NOT_OK(sc.RunToCompletion());
  const stream::StreamStats stats = sc.stats();
  (*out_) << "stream " << window->stream << ": ingested=" << stats.ingested
          << " accepted=" << stats.accepted << " late=" << stats.late
          << " duplicates=" << stats.duplicates
          << " windows=" << stats.windows_fired
          << " matches=" << stats.matches << "\n";
  return Status::OK();
}

Result<PigRelation> Interpreter::ExecLoad(const Statement& stmt) {
  STARK_ASSIGN_OR_RETURN(std::vector<EventRecord> records,
                         ReadEventsCsv(stmt.path));
  std::vector<PigRow> rows;
  rows.reserve(records.size());
  for (EventRecord& rec : records) {
    PigRow row;
    row.fields = {rec.id, std::move(rec.category), rec.time,
                  std::move(rec.wkt)};
    rows.push_back(std::move(row));
  }
  PigRelation rel;
  rel.schema = {"id", "category", "time", "wkt"};
  rel.rdd = MakeRDD(ctx_, std::move(rows));
  return rel;
}

Result<PigRelation> Interpreter::ExecSpatialize(const Statement& stmt) {
  STARK_ASSIGN_OR_RETURN(const PigRelation* in, Input(stmt));
  STARK_ASSIGN_OR_RETURN(size_t wkt_idx, ColumnIndex(in->schema, "wkt"));
  STARK_ASSIGN_OR_RETURN(size_t time_idx, ColumnIndex(in->schema, "time"));

  // Eagerly spatialize so WKT errors surface here, not inside a later
  // lazy evaluation.
  std::vector<PigRow> rows = in->rdd.Collect();
  for (PigRow& row : rows) {
    if (!std::holds_alternative<std::string>(row.fields[wkt_idx])) {
      return Status::InvalidArgument("piglet: wkt column is not a string");
    }
    if (!std::holds_alternative<int64_t>(row.fields[time_idx])) {
      return Status::InvalidArgument("piglet: time column is not an integer");
    }
    STARK_ASSIGN_OR_RETURN(
        STObject obj,
        STObject::FromWkt(std::get<std::string>(row.fields[wkt_idx]),
                          std::get<int64_t>(row.fields[time_idx])));
    row.st = std::move(obj);
  }
  PigRelation rel;
  rel.schema = in->schema;
  rel.rdd = MakeRDD(ctx_, std::move(rows));
  rel.spatialized = true;
  return rel;
}

Result<PigRelation> Interpreter::ExecFilter(const Statement& stmt) {
  STARK_ASSIGN_OR_RETURN(const PigRelation* in, Input(stmt));
  STARK_RETURN_NOT_OK(
      ValidateExpr(*stmt.filter, in->schema, in->spatialized));
  if (stmt.filter->kind == Expr::Kind::kSpatialPred) {
    return ExecSpatialQuery(stmt, *in);
  }

  // General expression: per-row evaluation (schema captured by value). The
  // output rows diverge from the bound snapshot, so drop the snapshot
  // binding — otherwise a later spatial FILTER would take the snapshot
  // fast path and probe the full R-tree, resurrecting rows removed here.
  PigRelation rel = *in;
  rel.snapshot = nullptr;
  const Expr* expr = stmt.filter.get();
  const std::vector<std::string> schema = in->schema;
  // The Expr lives in the Program owned by the caller; relations built from
  // it are materialized before Run() returns, so evaluate eagerly to avoid
  // dangling references in the lazy lineage.
  std::vector<PigRow> rows = in->rdd.Collect();
  std::vector<PigRow> kept;
  for (PigRow& row : rows) {
    if (EvalExpr(*expr, row, schema)) kept.push_back(std::move(row));
  }
  rel.rdd = MakeRDD(ctx_, std::move(kept));
  rel.partitioner = nullptr;
  return rel;
}

Result<PigRelation> Interpreter::ExecSpatialQuery(const Statement& stmt,
                                                  const PigRelation& in) {
  static obs::Counter* const snapshot_probes =
      obs::DefaultMetrics().GetCounter("serve.snapshot.probes");
  static const FilterMetricSet snapshot_counters{
      nullptr, nullptr,
      obs::DefaultMetrics().GetCounter("serve.snapshot.candidates"),
      obs::DefaultMetrics().GetCounter("serve.snapshot.results")};
  const bool knn = stmt.kind == Statement::Kind::kKnn;
  const STObject& query = knn ? *stmt.knn_query : *stmt.filter->query;
  const size_t k = stmt.knn_k;
  JoinPredicate pred;
  if (!knn) {
    pred.type = stmt.filter->pred;
    pred.max_distance = stmt.filter->max_distance;
  }
  QueryStats* const stats = analyze_mode_ ? &analyze_stats_ : nullptr;

  // A KNN answer is a new relation of its k rows, each with its distance.
  PigRelation rel;
  rel.schema = in.schema;
  if (knn) rel.schema.push_back("knn_distance");
  rel.spatialized = true;
  std::vector<PigRow> rows;

  // A snapshot-bound relation reads the epoch's prebuilt tree in one
  // single-task job (it runs inline on the calling worker), so lookups stay
  // cheap even when the shared pool is saturated, and converts only the
  // answer's events to rows. The epoch is immutable, so its point slabs
  // are built once (on the first spatial FILTER) and shared by every later
  // query against it. The snapshot is held here, independently of the
  // relation, whose pin may be released while this output is consumed.
  if (in.snapshot != nullptr) {
    const std::shared_ptr<const serve::DatasetSnapshot> snap = in.snapshot;
    const std::vector<stream::StreamEvent>& events = *snap->events;
    STARK_RETURN_NOT_OK(ctx_->TryRunTasks(
        knn ? "serve.snapshot.knn" : "serve.snapshot.filter", 1, [&](size_t) {
          columnar_refine::TaskState task;
          rows.clear();
          if (knn) {
            knn::Query q(query, nullptr, &task);
            const columnar_refine::RowSource<
                const std::vector<stream::StreamEvent>, PackedRTree<uint32_t>,
                EventKey>
                source{.rows = &events, .tree = snap->tree.get()};
            for (const auto& [dist, event] : knn::TopK(source, &q, k)) {
              rows.push_back(RowFromStreamEvent(*event));
              rows.back().fields.push_back(dist);
            }
          } else {
            columnar_refine::RefineFixed(
                pred,
                columnar_refine::SelectSource(pred, &events,
                                              snap->columnar.get(),
                                              snap->tree.get(), EventKey{}),
                query, /*cand_left=*/true, nullptr, &task,
                [&](const stream::StreamEvent& event) {
                  rows.push_back(RowFromStreamEvent(event));
                });
          }
          columnar_refine::FinishFilterTask(
              snapshot_counters, stats, /*scanned=*/!knn, task.candidates,
              rows.size(), task, /*annotate=*/true);
        }));
    snapshot_probes->Increment();
    rel.rdd = MakeRDD(ctx_, std::move(rows), 1);
    return rel;
  }

  // Otherwise the SpatialRDD operators run, over a live index of each
  // partition for an INDEXed relation, so partition pruning and live
  // indexing apply (§2.2, §2.3).
  const SpatialRDD<PigRow> spatial = Keyed(in);
  const bool indexed = in.index_order > 0;
  if (knn) {
    auto hits = indexed ? spatial.LiveIndex(in.index_order)
                              .Knn(query, k, nullptr, stats)
                        : spatial.Knn(query, k, nullptr, stats);
    for (auto& [dist, elem] : hits) {
      rows.push_back(std::move(elem.second));
      rows.back().st = std::move(elem.first);
      rows.back().fields.push_back(dist);
    }
    rel.rdd = MakeRDD(ctx_, std::move(rows), 1);
    return rel;
  }
  // A filtered relation keeps the input's partitioning and index order.
  rel = in;
  rel.rdd = (indexed ? spatial.LiveIndex(in.index_order)
                           .Filter(query, pred, stats)
                     : spatial.Filter(query, pred, stats))
                .Map([](std::pair<STObject, PigRow>& p) {
                  PigRow row = std::move(p.second);
                  row.st = std::move(p.first);
                  return row;
                });
  return rel;
}

Result<PigRelation> Interpreter::ExecPartition(const Statement& stmt) {
  STARK_ASSIGN_OR_RETURN(const PigRelation* in, Input(stmt));
  if (!in->spatialized) {
    return Status::InvalidArgument(
        "piglet: PARTITION requires a spatialized relation");
  }
  const SpatialRDD<PigRow> spatial = Keyed(*in).Cache();

  const Envelope universe = UniverseOf(in->rdd);
  if (universe.IsEmpty()) {
    return Status::InvalidArgument("piglet: cannot partition empty relation");
  }
  std::shared_ptr<SpatialPartitioner> partitioner;
  if (stmt.partitioner == PartitionerKind::kGrid) {
    const size_t cells =
        std::max<size_t>(1, stmt.partitioner_param);
    const Envelope grown = universe.Expanded(universe.Width() * 1e-9 + 1e-9);
    if (stmt.time_buckets > 0) {
      // Spatio-temporal grid over the data's observed time range.
      Instant t_min = std::numeric_limits<Instant>::max();
      Instant t_max = std::numeric_limits<Instant>::min();
      for (const auto& [st, row] : spatial.rdd().Collect()) {
        if (st.HasTime()) {
          t_min = std::min(t_min, st.time()->start());
          t_max = std::max(t_max, st.time()->end());
        }
      }
      if (t_min > t_max) {
        return Status::InvalidArgument(
            "piglet: TIME partitioning needs temporal data");
      }
      partitioner = std::make_shared<SpatioTemporalGridPartitioner>(
          grown, cells, t_min, t_max, stmt.time_buckets);
    } else {
      partitioner = std::make_shared<GridPartitioner>(grown, cells);
    }
  } else {
    std::vector<Coordinate> centroids;
    for (const auto& [st, row] : spatial.rdd().Collect()) {
      centroids.push_back(st.Centroid());
    }
    BSPartitioner::Options options;
    options.max_cost =
        std::max<size_t>(1, stmt.partitioner_param);
    partitioner = std::make_shared<BSPartitioner>(
        universe.Expanded(universe.Width() * 1e-9 + 1e-9), centroids,
        options);
  }
  SpatialRDD<PigRow> parted = spatial.PartitionBy(partitioner);

  PigRelation rel;
  rel.schema = in->schema;
  rel.spatialized = true;
  rel.index_order = in->index_order;
  rel.partitioner = partitioner;
  rel.rdd = parted.rdd().Map([](std::pair<STObject, PigRow>& p) {
    PigRow row = std::move(p.second);
    row.st = std::move(p.first);
    return row;
  }).Cache();
  // Force materialization now so the shuffle happens once.
  rel.rdd.Count();
  return rel;
}

Result<PigRelation> Interpreter::ExecJoin(const Statement& stmt) {
  STARK_ASSIGN_OR_RETURN(const PigRelation* left, relation(stmt.input));
  STARK_ASSIGN_OR_RETURN(const PigRelation* right, relation(stmt.input2));
  if (!left->spatialized || !right->spatialized) {
    return Status::InvalidArgument(
        "piglet: JOIN requires spatialized relations on both sides");
  }
  JoinPredicate pred;
  pred.type = stmt.join_pred;
  pred.max_distance = stmt.join_distance;

  // A self-join lifts its relation once, so both sides are one node and a
  // symmetric predicate refines each pair of rows once. An INDEXed left
  // relation routes through the cached-index join path: its partitions are
  // indexed once (honoring the INDEX statement's order) and the join probes
  // those trees rather than building its own.
  const SpatialRDD<PigRow> lifted = Keyed(*left);
  const SpatialRDD<PigRow> lifted_right =
      right == left ? lifted : Keyed(*right);
  JoinOptions options;
  auto joined = left->index_order > 0
                    ? SpatialJoin(lifted.Index(left->index_order),
                                  lifted_right, pred, options)
                    : SpatialJoin(lifted, lifted_right, pred, options);

  PigRelation rel;
  rel.spatialized = true;
  rel.schema = left->schema;
  for (const std::string& name : right->schema) {
    rel.schema.push_back("right_" + name);
  }
  // The join's probes are lazy; run them once, in parallel, here. Later
  // statements read the relation again, and LIMIT reads it through Take,
  // which would probe serially on the driver.
  STARK_ASSIGN_OR_RETURN(
      std::vector<std::vector<PigRow>> rows,
      joined
          .Map([](std::pair<std::pair<STObject, PigRow>,
                            std::pair<STObject, PigRow>>& p) {
            PigRow row = std::move(p.first.second);
            row.st = std::move(p.first.first);
            for (PigValue& v : p.second.second.fields) {
              row.fields.push_back(std::move(v));
            }
            return row;
          })
          .TryCollectPartitions());
  rel.rdd = MakeRDDFromPartitions(ctx_, std::move(rows));
  return rel;
}

Result<PigRelation> Interpreter::ExecKnn(const Statement& stmt) {
  STARK_ASSIGN_OR_RETURN(const PigRelation* in, Input(stmt));
  if (!in->spatialized) {
    return Status::InvalidArgument(
        "piglet: KNN requires a spatialized relation");
  }
  return ExecSpatialQuery(stmt, *in);
}

Result<PigRelation> Interpreter::ExecCluster(const Statement& stmt) {
  STARK_ASSIGN_OR_RETURN(const PigRelation* in, Input(stmt));
  if (!in->spatialized) {
    return Status::InvalidArgument(
        "piglet: CLUSTER requires a spatialized relation");
  }
  const Envelope universe = UniverseOf(in->rdd);
  if (universe.IsEmpty()) {
    return Status::InvalidArgument("piglet: cannot cluster empty relation");
  }
  auto grid = std::make_shared<GridPartitioner>(
      universe.Expanded(universe.Width() * 1e-9 + 1e-9), stmt.cluster_grid);
  SpatialRDD<PigRow> spatial(in->rdd.Map([](PigRow& row) {
    STObject key = *row.st;
    return std::make_pair(std::move(key), std::move(row));
  }));
  DbscanParams params{stmt.dbscan_eps, stmt.dbscan_min_pts};
  auto clustered = DistributedDbscan(spatial, params, grid);

  PigRelation rel;
  rel.spatialized = true;
  rel.schema = in->schema;
  rel.schema.push_back("cluster");
  rel.partitioner = grid;
  rel.rdd = clustered.Map(
      [](std::pair<std::pair<STObject, PigRow>, int64_t>& p) {
        PigRow row = std::move(p.first.second);
        row.st = std::move(p.first.first);
        row.fields.push_back(p.second);
        return row;
      });
  return rel;
}

Result<PigRelation> Interpreter::ExecAggregate(const Statement& stmt) {
  STARK_ASSIGN_OR_RETURN(const PigRelation* in, Input(stmt));
  STARK_ASSIGN_OR_RETURN(size_t col,
                         ColumnIndex(in->schema, stmt.aggregate_column));
  // GROUP BY column + COUNT as a distributed reduceByKey (with map-side
  // combining), then sorted by key for deterministic output.
  RDD<std::pair<std::string, int64_t>> keyed =
      in->rdd.Map([col](PigRow& row) {
        return std::pair<std::string, int64_t>(
            FormatPigValue(row.fields[col]), 1);
      });
  auto counts = ReduceByKey(keyed, [](int64_t a, int64_t b) { return a + b; })
                    .Collect();
  std::sort(counts.begin(), counts.end());
  std::vector<PigRow> rows;
  rows.reserve(counts.size());
  for (auto& [key, count] : counts) {
    PigRow row;
    row.fields = {key, count};
    rows.push_back(std::move(row));
  }
  PigRelation rel;
  rel.schema = {stmt.aggregate_column, "count"};
  rel.rdd = MakeRDD(ctx_, std::move(rows), 1);
  return rel;
}

Status Interpreter::ExecDump(const Statement& stmt) {
  STARK_ASSIGN_OR_RETURN(const PigRelation* in, Input(stmt));
  for (const PigRow& row : in->rdd.Collect()) {
    (*out_) << "(" << FormatRow(row) << ")\n";
  }
  return Status::OK();
}

Status Interpreter::ExecStore(const Statement& stmt) {
  STARK_ASSIGN_OR_RETURN(const PigRelation* in, Input(stmt));
  std::string text;
  for (const PigRow& row : in->rdd.Collect()) {
    for (size_t i = 0; i < row.fields.size(); ++i) {
      if (i > 0) text += ',';
      std::string field = FormatPigValue(row.fields[i]);
      if (field.find_first_of(",\"\n") != std::string::npos) {
        std::string quoted = "\"";
        for (char c : field) {
          if (c == '"') quoted += '"';
          quoted += c;
        }
        quoted += '"';
        field = std::move(quoted);
      }
      text += field;
    }
    text += '\n';
  }
  return WriteFileBytes(stmt.path,
                        std::vector<char>(text.begin(), text.end()));
}

Status Interpreter::ExecDescribe(const Statement& stmt) {
  STARK_ASSIGN_OR_RETURN(const PigRelation* in, Input(stmt));
  (*out_) << stmt.input << ": (";
  for (size_t i = 0; i < in->schema.size(); ++i) {
    if (i > 0) (*out_) << ", ";
    (*out_) << in->schema[i];
  }
  (*out_) << ")";
  if (in->spatialized) (*out_) << " spatialized";
  if (in->partitioner) {
    (*out_) << " partitioned=" << in->partitioner->Name() << "("
            << in->partitioner->NumPartitions() << ")";
  }
  if (in->index_order > 0) (*out_) << " index_order=" << in->index_order;
  (*out_) << "\n";
  return Status::OK();
}

}  // namespace piglet
}  // namespace stark
