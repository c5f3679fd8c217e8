#ifndef INSIGHTNOTES_SQL_PARSER_H_
#define INSIGHTNOTES_SQL_PARSER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/operators.h"
#include "sql/lexer.h"
#include "types/schema.h"

namespace insight {

/// One SELECT-list entry: `*`, an aggregate, or a scalar expression
/// (data column or summary function).
struct SelectItem {
  bool star = false;
  bool is_aggregate = false;
  AggregateSpec aggregate;  // When is_aggregate.
  ExprPtr expr;             // Otherwise.
  std::string name;         // Output column name (AS alias or derived).
};

/// Parsed SELECT statement (before binding).
struct SelectStatement {
  bool distinct = false;
  std::vector<SelectItem> items;
  struct FromTable {
    std::string table;
    std::string alias;  // Empty when none.
  };
  std::vector<FromTable> from;
  ExprPtr where;  // Null when absent.
  std::vector<std::string> group_by;
  std::vector<SortKey> order_by;
  std::optional<uint64_t> limit;
};

/// Any statement of the InsightNotes SQL dialect.
struct Statement {
  enum class Kind {
    kSelect,
    kExplain,      // EXPLAIN SELECT ...
    kCreateTable,  // CREATE TABLE t (col TYPE, ...)
    kInsert,       // INSERT INTO t VALUES (...), (...)
    kAlterAdd,     // ALTER TABLE t ADD [INDEXABLE] instance
    kAlterDrop,    // ALTER TABLE t DROP instance
    kAnnotate,     // ANNOTATE t TUPLE n [COLUMN c [, c...]] WITH 'text'
    kZoomIn,       // ZOOM IN ON t TUPLE n [INSTANCE 'name']
    kAnalyze,      // ANALYZE t
    kCreateIndex,  // CREATE INDEX ON t (column)
    kBegin,        // BEGIN [TRANSACTION]
    kCommit,       // COMMIT
    kRollback,     // ROLLBACK
  };

  Kind kind = Kind::kSelect;
  std::unique_ptr<SelectStatement> select;  // kSelect / kExplain.

  /// SELECT, EXPLAIN and ZOOM IN: the statements that never write.
  bool is_read() const {
    return kind == Kind::kSelect || kind == Kind::kExplain ||
           kind == Kind::kZoomIn;
  }

  // DDL / utility payloads.
  std::string table;
  Schema schema;                      // kCreateTable.
  std::vector<std::vector<Value>> rows;  // kInsert.
  std::string instance;               // kAlter* / kZoomIn.
  bool indexable = false;             // kAlterAdd.
  uint64_t tuple_oid = 0;             // kAnnotate / kZoomIn.
  std::string zoom_label;             // kZoomIn: LABEL 'x'.
  int zoom_rep_index = -1;            // kZoomIn: REP n.
  std::vector<std::string> columns;   // kAnnotate targets / kCreateIndex.
  std::string text;                   // kAnnotate.
};

/// Parses one statement (trailing ';' optional). ParseError on bad input.
Result<Statement> ParseStatement(const std::string& sql);

/// Parses a scalar/boolean expression (exposed for tests and the
/// programmatic API). Supports the paper's summary-function syntax:
///   [alias.]$.getSize()
///   [alias.]$.getSummaryObject('I').getLabelValue('L')
///   [alias.]$.getSummaryObject('I').getSize()
///   [alias.]$.getSummaryObject('I').containsSingle('kw' [, ...])
///   [alias.]$.getSummaryObject('I').containsUnion('kw' [, ...])
Result<ExprPtr> ParseExpression(const std::string& text);

}  // namespace insight

#endif  // INSIGHTNOTES_SQL_PARSER_H_
