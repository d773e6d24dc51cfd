#include "piglet/explain.h"

#include <cstdio>

namespace stark {
namespace piglet {

namespace {

std::string FormatNumber(double v) {
  char buf[32];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%g", v);
  }
  return buf;
}

std::string FormatLiteral(const PigValue& v) {
  if (std::holds_alternative<int64_t>(v)) {
    return std::to_string(std::get<int64_t>(v));
  }
  if (std::holds_alternative<double>(v)) {
    return FormatNumber(std::get<double>(v));
  }
  return "'" + std::get<std::string>(v) + "'";
}

std::string PredicateKeyword(PredicateType pred) {
  switch (pred) {
    case PredicateType::kIntersects: return "INTERSECTS";
    case PredicateType::kContains: return "CONTAINS";
    case PredicateType::kContainedBy: return "CONTAINEDBY";
    case PredicateType::kWithinDistance: return "WITHINDISTANCE";
  }
  return "?";
}

std::string FormatSpatialPred(const Expr& e) {
  std::string out = PredicateKeyword(e.pred);
  out += "('" + e.query->geo().ToWkt() + "'";
  if (e.pred == PredicateType::kWithinDistance) {
    out += ", " + FormatNumber(e.max_distance);
  }
  if (e.query->HasTime()) {
    out += ", " + std::to_string(e.query->time()->start()) + ", " +
           std::to_string(e.query->time()->end());
  }
  out += ")";
  return out;
}

}  // namespace

std::string FormatExpr(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kCompare:
      return expr.column + " " + expr.op + " " + FormatLiteral(expr.literal);
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      std::string out = "(";
      out += FormatExpr(*expr.lhs);
      out += expr.kind == Expr::Kind::kAnd ? " AND " : " OR ";
      out += FormatExpr(*expr.rhs);
      out += ')';
      return out;
    }
    case Expr::Kind::kNot:
      return "NOT " + FormatExpr(*expr.lhs);
    case Expr::Kind::kSpatialPred:
      return FormatSpatialPred(expr);
  }
  return "?";
}

std::string FormatStatement(const Statement& s) {
  switch (s.kind) {
    case Statement::Kind::kLoad:
      return s.target + " = LOAD '" + s.path + "';";
    case Statement::Kind::kSpatialize:
      return s.target + " = SPATIALIZE " + s.input + ";";
    case Statement::Kind::kFilter:
      return s.target + " = FILTER " + s.input + " BY " +
             FormatExpr(*s.filter) + ";";
    case Statement::Kind::kPartition: {
      std::string out = s.target + " = PARTITION " + s.input + " BY " +
                        (s.partitioner == PartitionerKind::kGrid ? "GRID"
                                                                 : "BSP") +
                        "(" + std::to_string(s.partitioner_param) + ")";
      if (s.time_buckets > 0) {
        out += " TIME(" + std::to_string(s.time_buckets) + ")";
      }
      return out + ";";
    }
    case Statement::Kind::kIndex:
      return s.target + " = INDEX " + s.input + " ORDER " +
             std::to_string(s.index_order) + ";";
    case Statement::Kind::kJoin: {
      std::string out = s.target + " = JOIN " + s.input + ", " + s.input2 +
                        " ON " + PredicateKeyword(s.join_pred);
      if (s.join_pred == PredicateType::kWithinDistance) {
        out += '(';
        out += FormatNumber(s.join_distance);
        out += ')';
      }
      return out + ";";
    }
    case Statement::Kind::kKnn:
      return s.target + " = KNN " + s.input + " QUERY '" +
             s.knn_query->geo().ToWkt() + "' K " + std::to_string(s.knn_k) +
             ";";
    case Statement::Kind::kCluster:
      return s.target + " = CLUSTER " + s.input + " USING DBSCAN(" +
             FormatNumber(s.dbscan_eps) + ", " +
             std::to_string(s.dbscan_min_pts) + ") GRID " +
             std::to_string(s.cluster_grid) + ";";
    case Statement::Kind::kAggregate:
      return s.target + " = AGGREGATE " + s.input + " BY " +
             s.aggregate_column + " COUNT;";
    case Statement::Kind::kLimit:
      return s.target + " = LIMIT " + s.input + " " +
             std::to_string(s.limit) + ";";
    case Statement::Kind::kDump:
      return "DUMP " + s.input + ";";
    case Statement::Kind::kStore:
      return "STORE " + s.input + " INTO '" + s.path + "';";
    case Statement::Kind::kDescribe:
      return "DESCRIBE " + s.input + ";";
    case Statement::Kind::kSet:
      return "SET " + s.set_key + " " + FormatNumber(s.set_value) + ";";
    case Statement::Kind::kStream: {
      std::string out = "STREAM " + s.target + " FROM ";
      if (s.stream_source == StreamSourceKind::kGenerator) {
        out += "GENERATOR(" + std::to_string(s.gen_count) + ", " +
               std::to_string(s.gen_seed) + ", " +
               std::to_string(s.gen_step) + ")";
      } else {
        out += "TAIL('" + s.path + "')";
      }
      return out + ";";
    }
    case Statement::Kind::kWindow: {
      std::string out = s.target + " = WINDOW " + s.input + " SIZE " +
                        std::to_string(s.window_size);
      if (s.window_slide > 0) {
        out += " SLIDE " + std::to_string(s.window_slide);
      }
      if (s.window_lateness > 0) {
        out += " LATENESS " + std::to_string(s.window_lateness);
      }
      return out + ";";
    }
    case Statement::Kind::kPattern: {
      std::string out = s.target + " = PATTERN " + s.input + " ";
      auto quote_list = [&s]() {
        std::string list;
        for (size_t i = 0; i < s.pattern_categories.size(); ++i) {
          if (i > 0) list += ", ";
          list += "'" + s.pattern_categories[i] + "'";
        }
        return list;
      };
      switch (s.pattern_kind) {
        case StreamPatternKind::kSequence:
          out += "SEQ " + quote_list();
          if (s.pattern_within > 0) {
            out += " WITHIN " + std::to_string(s.pattern_within);
          }
          break;
        case StreamPatternKind::kAbsence:
          out += "ABSENT " + quote_list();
          break;
        case StreamPatternKind::kCount:
          out += "COUNT " + quote_list() + " " + s.pattern_cmp + " " +
                 std::to_string(s.pattern_threshold);
          break;
      }
      if (s.pattern_region.has_value()) {
        out += " WHERE " + PredicateKeyword(s.pattern_region_pred) + "('" +
               s.pattern_region->geo().ToWkt() + "'";
        if (s.pattern_region_pred == PredicateType::kWithinDistance) {
          out += ", " + FormatNumber(s.pattern_region_distance);
        }
        if (s.pattern_region->HasTime()) {
          out += ", " + std::to_string(s.pattern_region->time()->start()) +
                 ", " + std::to_string(s.pattern_region->time()->end());
        }
        out += ")";
      }
      return out + ";";
    }
    case Statement::Kind::kEmit:
      return "EMIT " + s.input + ";";
  }
  return "?;";
}

std::string FormatProgram(const Program& program) {
  std::string out;
  for (const Statement& s : program.statements) {
    out += FormatStatement(s);
    out += '\n';
  }
  return out;
}

std::string FormatAnalyzeReport(const AnalyzeReport& report) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "EXPLAIN ANALYZE (total %.3f ms)\n",
                report.total_ms);
  std::string out = buf;
  out += "  op    wall_ms       rows  parts  statement\n";
  for (size_t i = 0; i < report.operators.size(); ++i) {
    const OperatorProfile& op = report.operators[i];
    std::string rows = op.produced_relation ? std::to_string(op.rows_out) : "-";
    std::string parts =
        op.produced_relation ? std::to_string(op.num_partitions) : "-";
    std::snprintf(buf, sizeof(buf), "  %2zu %10.3f %10s %6s  ", i + 1,
                  op.wall_ms, rows.c_str(), parts.c_str());
    out += buf;
    out += op.statement;
    const QueryStats::Snapshot& f = op.filter;
    if (f.partitions_pruned + f.partitions_scanned + f.candidates +
            f.results >
        0) {
      std::snprintf(buf, sizeof(buf),
                    "  [pruned=%zu scanned=%zu candidates=%zu results=%zu]",
                    f.partitions_pruned, f.partitions_scanned, f.candidates,
                    f.results);
      out += buf;
    }
    out += '\n';
    // QueryProfile job tree for this operator: one indented line per
    // engine job the statement ran (rows/bytes/time/retries per stage).
    for (const obs::ProfileNode& job : op.profile.children) {
      std::string tree = obs::FormatProfileTree(job);
      size_t start = 0;
      while (start < tree.size()) {
        size_t end = tree.find('\n', start);
        if (end == std::string::npos) end = tree.size();
        out += "        ";
        out.append(tree, start, end - start);
        out += '\n';
        start = end + 1;
      }
    }
  }
  return out;
}

}  // namespace piglet
}  // namespace stark
