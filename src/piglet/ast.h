/// \file ast.h
/// Abstract syntax tree of the Piglet language.
#ifndef STARK_PIGLET_AST_H_
#define STARK_PIGLET_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/stobject.h"
#include "spatial_rdd/predicate.h"

namespace stark {
namespace piglet {

/// Runtime value of a tuple field.
using PigValue = std::variant<int64_t, double, std::string>;

/// Boolean expression over a tuple, used by FILTER ... BY.
struct Expr {
  enum class Kind {
    kCompare,      // column op literal (or literal op column)
    kAnd,
    kOr,
    kNot,
    kSpatialPred,  // INTERSECTS/CONTAINS/CONTAINEDBY/WITHINDISTANCE(...)
  };
  Kind kind;

  // kCompare:
  std::string column;
  std::string op;  // == != < <= > >=
  PigValue literal;

  // kAnd / kOr / kNot:
  std::unique_ptr<Expr> lhs;
  std::unique_ptr<Expr> rhs;

  // kSpatialPred: the query object is built at parse time from the WKT
  // string and optional time-window arguments.
  PredicateType pred = PredicateType::kIntersects;
  std::optional<STObject> query;
  double max_distance = 0.0;
};

/// Which spatial partitioner a PARTITION statement selects.
enum class PartitionerKind { kGrid, kBsp };

/// Where a STREAM statement pulls events from.
enum class StreamSourceKind { kGenerator, kTail };

/// Which CEP operator a PATTERN statement applies.
enum class StreamPatternKind { kSequence, kAbsence, kCount };

/// One Piglet statement.
struct Statement {
  enum class Kind {
    kLoad,        // r = LOAD 'file.csv';
    kSpatialize,  // s = SPATIALIZE r;
    kFilter,      // f = FILTER r BY <expr>;
    kPartition,   // p = PARTITION r BY GRID(4) [TIME(6)] | BSP(1000);
    kIndex,       // i = INDEX r ORDER 5;
    kJoin,        // j = JOIN a, b ON INTERSECTS | WITHINDISTANCE(2.0);
    kKnn,         // k = KNN r QUERY 'POINT(..)' K 5;
    kCluster,     // c = CLUSTER r USING DBSCAN(0.5, 5) [GRID 4];
    kAggregate,   // a = AGGREGATE r BY category COUNT;
    kLimit,       // l = LIMIT r 10;
    kDump,        // DUMP r;
    kStore,       // STORE r INTO 'out.csv';
    kDescribe,    // DESCRIBE r;
    kSet,         // SET job.deadline_ms 2000;
    kStream,      // STREAM s FROM GENERATOR(1000, 42, 1) | TAIL('f.csv');
    kWindow,      // w = WINDOW s SIZE 10 [SLIDE 5] [LATENESS 2];
    kPattern,     // p = PATTERN w SEQ 'a','b' [WITHIN 5] [WHERE ...] | ...
    kEmit,        // EMIT p;
  };
  Kind kind;
  size_t line = 1;

  std::string target;  // assigned relation (empty for DUMP/STORE/DESCRIBE)
  std::string input;   // primary input relation
  std::string input2;  // JOIN right side

  std::string path;    // LOAD / STORE file path

  std::unique_ptr<Expr> filter;          // kFilter

  PartitionerKind partitioner = PartitionerKind::kGrid;  // kPartition
  size_t partitioner_param = 4;          // grid cells per dim / bsp max cost
  size_t time_buckets = 0;               // 0 = spatial-only partitioning

  std::string aggregate_column;          // kAggregate

  size_t index_order = 10;               // kIndex

  PredicateType join_pred = PredicateType::kIntersects;  // kJoin
  double join_distance = 0.0;

  std::optional<STObject> knn_query;     // kKnn
  size_t knn_k = 1;

  double dbscan_eps = 1.0;               // kCluster
  size_t dbscan_min_pts = 5;
  size_t cluster_grid = 4;

  size_t limit = 0;                      // kLimit

  std::string set_key;                   // kSet dotted key, e.g.
                                         // "job.deadline_ms"
  double set_value = 0;                  // kSet value

  // kStream: source definition. GENERATOR takes (count, seed, time_step);
  // TAIL reuses `path`.
  StreamSourceKind stream_source = StreamSourceKind::kGenerator;
  int64_t gen_count = 1000;
  int64_t gen_seed = 42;
  int64_t gen_step = 1;

  // kWindow: event-time window over a stream (`input`).
  int64_t window_size = 1;
  int64_t window_slide = 0;              // 0 = tumbling
  int64_t window_lateness = 0;           // watermark out-of-orderness bound

  // kPattern: CEP operator over a window (`input`). Each category is one
  // step; the optional WHERE region constrains every step spatially (and
  // temporally, when the literal carries a time window).
  StreamPatternKind pattern_kind = StreamPatternKind::kCount;
  std::vector<std::string> pattern_categories;
  int64_t pattern_within = 0;            // SEQ span bound, 0 = unbounded
  std::string pattern_cmp = ">=";        // COUNT comparison operator
  int64_t pattern_threshold = 1;         // COUNT threshold
  std::optional<STObject> pattern_region;
  PredicateType pattern_region_pred = PredicateType::kIntersects;
  double pattern_region_distance = 0.0;
};

/// A parsed Piglet program: a statement sequence.
struct Program {
  std::vector<Statement> statements;
};

}  // namespace piglet
}  // namespace stark

#endif  // STARK_PIGLET_AST_H_
