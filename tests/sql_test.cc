#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/database.h"
#include "sql/parser.h"

namespace insight {
namespace {

// ---------- Parser unit tests ----------

TEST(LexerTest, TokenizesMixedInput) {
  auto tokens = Tokenize("SELECT a, b FROM t WHERE x >= 3.5 AND y = 'it''s'");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 13u);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_TRUE((*tokens)[0].Is("select"));
  // The escaped quote string.
  bool found = false;
  for (const Token& token : *tokens) {
    if (token.type == TokenType::kString) {
      EXPECT_EQ(token.text, "it's");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LexerTest, RejectsUnterminatedString) {
  EXPECT_TRUE(Tokenize("SELECT 'oops").status().IsParseError());
}

TEST(ParserTest, SimpleSelect) {
  auto stmt = ParseStatement("SELECT name, family FROM Birds");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, Statement::Kind::kSelect);
  ASSERT_EQ(stmt->select->items.size(), 2u);
  EXPECT_EQ(stmt->select->items[0].name, "name");
  ASSERT_EQ(stmt->select->from.size(), 1u);
  EXPECT_EQ(stmt->select->from[0].table, "Birds");
}

TEST(ParserTest, SelectWithEverything) {
  auto stmt = ParseStatement(
      "SELECT family, COUNT(*) AS cnt FROM Birds b "
      "WHERE b.weight > 2.5 AND name LIKE 'Swan%' "
      "GROUP BY family ORDER BY family DESC LIMIT 10;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStatement& select = *stmt->select;
  EXPECT_EQ(select.from[0].alias, "b");
  ASSERT_NE(select.where, nullptr);
  ASSERT_EQ(select.group_by.size(), 1u);
  ASSERT_EQ(select.order_by.size(), 1u);
  EXPECT_TRUE(select.order_by[0].descending);
  EXPECT_EQ(select.limit, 10u);
  EXPECT_TRUE(select.items[1].is_aggregate);
  EXPECT_EQ(select.items[1].name, "cnt");
}

TEST(ParserTest, SummaryFunctionSyntax) {
  auto expr = ParseExpression(
      "$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 5");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  auto indexable = MatchIndexablePredicate(expr->get());
  ASSERT_TRUE(indexable.has_value());
  EXPECT_EQ(indexable->instance, "ClassBird1");
  EXPECT_EQ(indexable->label, "Disease");
  EXPECT_EQ(indexable->constant, 5);
}

TEST(ParserTest, QualifiedSummaryFunction) {
  auto expr = ParseExpression(
      "v1.$.getSummaryObject('C').getLabelValue('P') <> "
      "v2.$.getSummaryObject('C').getLabelValue('P')");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  const auto* cmp = dynamic_cast<const CompareExpr*>(expr->get());
  ASSERT_NE(cmp, nullptr);
  const auto* lf = dynamic_cast<const SummaryFuncExpr*>(cmp->left());
  ASSERT_NE(lf, nullptr);
  EXPECT_EQ(lf->qualifier(), "v1");
}

TEST(ParserTest, ContainsFunctions) {
  auto expr = ParseExpression(
      "$.getSummaryObject('TextSummary1').containsUnion('Wikipedia', "
      "'hormone')");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  const auto* func = dynamic_cast<const SummaryFuncExpr*>(expr->get());
  ASSERT_NE(func, nullptr);
  EXPECT_EQ(func->kind(), SummaryFuncKind::kContainsUnion);
  EXPECT_EQ(func->keywords().size(), 2u);
}

TEST(ParserTest, DdlStatements) {
  auto create = ParseStatement(
      "CREATE TABLE Birds (name TEXT, family VARCHAR(40), weight DOUBLE)");
  ASSERT_TRUE(create.ok()) << create.status().ToString();
  EXPECT_EQ(create->schema.num_columns(), 3u);
  EXPECT_EQ(create->schema.column(2).type, ValueType::kDouble);

  auto alter = ParseStatement("ALTER TABLE Birds ADD INDEXABLE ClassBird1");
  ASSERT_TRUE(alter.ok());
  EXPECT_EQ(alter->kind, Statement::Kind::kAlterAdd);
  EXPECT_TRUE(alter->indexable);
  EXPECT_EQ(alter->instance, "ClassBird1");

  auto drop = ParseStatement("ALTER TABLE Birds DROP ClassBird1");
  ASSERT_TRUE(drop.ok());
  EXPECT_EQ(drop->kind, Statement::Kind::kAlterDrop);

  auto annotate = ParseStatement(
      "ANNOTATE Birds TUPLE 7 COLUMN name, family WITH 'observed sick'");
  ASSERT_TRUE(annotate.ok()) << annotate.status().ToString();
  EXPECT_EQ(annotate->tuple_oid, 7u);
  EXPECT_EQ(annotate->columns.size(), 2u);
  EXPECT_EQ(annotate->text, "observed sick");

  auto zoom = ParseStatement("ZOOM IN ON Birds TUPLE 3 INSTANCE 'ClassBird1'");
  ASSERT_TRUE(zoom.ok());
  EXPECT_EQ(zoom->kind, Statement::Kind::kZoomIn);
  EXPECT_EQ(zoom->instance, "ClassBird1");
}

TEST(ParserTest, Errors) {
  EXPECT_TRUE(ParseStatement("FROB x").status().IsParseError());
  EXPECT_TRUE(ParseStatement("SELECT FROM t").status().IsParseError());
  EXPECT_TRUE(ParseStatement("SELECT a FROM t WHERE").status().IsParseError());
  EXPECT_TRUE(
      ParseStatement("SELECT a FROM t extra tokens here ,")
          .status()
          .IsParseError());
  EXPECT_TRUE(ParseExpression("$.getWrongFunc()").status().IsParseError());
}

// ---------- End-to-end Database tests ----------

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() {
    db.Execute("CREATE TABLE Birds (name TEXT, family TEXT, weight DOUBLE)")
        .ValueOrDie();
    db.DefineClassifier(
          "ClassBird1", {"Disease", "Behavior", "Other"},
          {{"diseaseword infection sick", "Disease"},
           {"behaviorword eating foraging", "Behavior"},
           {"otherword comment note", "Other"}})
        .ok();
    SnippetSummarizer::Options snip;
    snip.min_chars = 80;
    snip.max_snippet_chars = 60;
    db.DefineSnippet("TextSummary1", snip).ok();
    db.Execute("ALTER TABLE Birds ADD INDEXABLE ClassBird1").ValueOrDie();
    db.Execute("ALTER TABLE Birds ADD TextSummary1").ValueOrDie();
    for (int i = 0; i < 12; ++i) {
      db.Execute("INSERT INTO Birds VALUES ('bird" + std::to_string(i) +
                 "', 'family" + std::to_string(i % 3) + "', " +
                 std::to_string(1.0 + i * 0.5) + ")")
          .ValueOrDie();
    }
  }

  void Annotate(int oid, const std::string& kind, int n) {
    for (int i = 0; i < n; ++i) {
      db.Execute("ANNOTATE Birds TUPLE " + std::to_string(oid) + " WITH '" +
                 kind + "word note " + std::to_string(i) + "'")
          .ValueOrDie();
    }
  }

  Database db;
};

TEST_F(DatabaseTest, BasicSelect) {
  auto result = db.Execute("SELECT name FROM Birds WHERE family = 'family1'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 4u);
  EXPECT_EQ(result->schema.column(0).name, "name");
}

// The server stamps a commit LSN on every reply not marked read_only, so
// the mark must follow the parsed statement kind, not its spelling.
TEST_F(DatabaseTest, ResultMarksReadStatements) {
  for (const char* sql :
       {"SELECT name FROM Birds", "  select name FROM Birds",
        "EXPLAIN SELECT name FROM Birds", "ZOOM IN ON Birds TUPLE 1"}) {
    auto result = db.Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    EXPECT_TRUE(result->read_only) << sql;
  }
  for (const char* sql :
       {"INSERT INTO Birds VALUES ('late', 'family0', 1.0)",
        "ANNOTATE Birds TUPLE 1 WITH 'diseaseword note'", "ANALYZE Birds",
        "BEGIN", "COMMIT"}) {
    auto result = db.Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    EXPECT_FALSE(result->read_only) << sql;
  }
}

TEST_F(DatabaseTest, SelectStar) {
  auto result = db.Execute("SELECT * FROM Birds LIMIT 3");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->schema.num_columns(), 3u);
}

TEST_F(DatabaseTest, SummarySelectionUsesIndex) {
  Annotate(1, "disease", 4);
  Annotate(2, "disease", 2);
  db.Execute("ANALYZE Birds").ValueOrDie();
  const std::string sql =
      "SELECT name FROM Birds WHERE "
      "$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 3";
  auto plan = db.Explain(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("SummaryIndexScan"), std::string::npos) << *plan;
  auto result = db.Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].at(0).AsString(), "bird0");
}

TEST_F(DatabaseTest, SummaryFunctionInSelectList) {
  Annotate(3, "disease", 5);
  auto result = db.Execute(
      "SELECT name, $.getSummaryObject('ClassBird1')"
      ".getLabelValue('Disease') AS diseases FROM Birds "
      "WHERE $.getSummaryObject('ClassBird1').getLabelValue('Disease') > 0");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].at(1).AsInt(), 5);
  EXPECT_EQ(result->schema.column(1).name, "diseases");
}

TEST_F(DatabaseTest, SummarySortQuery) {
  Annotate(1, "disease", 2);
  Annotate(2, "disease", 7);
  Annotate(3, "disease", 4);
  auto result = db.Execute(
      "SELECT name FROM Birds WHERE "
      "$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 0 "
      "ORDER BY $.getSummaryObject('ClassBird1').getLabelValue('Disease') "
      "DESC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0].at(0).AsString(), "bird1");
  EXPECT_EQ(result->rows[1].at(0).AsString(), "bird2");
  EXPECT_EQ(result->rows[2].at(0).AsString(), "bird0");
}

TEST_F(DatabaseTest, AggregationWithSummaries) {
  Annotate(1, "behavior", 3);  // bird0, family0
  Annotate(4, "behavior", 2);  // bird3, family0
  auto result = db.Execute(
      "SELECT family, COUNT(*) AS birds FROM Birds GROUP BY family");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 3u);
  for (const Tuple& row : result->rows) {
    EXPECT_EQ(row.at(1).AsInt(), 4);
  }
}

TEST_F(DatabaseTest, JoinTwoTables) {
  db.Execute("CREATE TABLE Regions (fam TEXT, region TEXT)").ValueOrDie();
  db.Execute("INSERT INTO Regions VALUES ('family0', 'north'), "
             "('family1', 'south'), ('family2', 'east')")
      .ValueOrDie();
  auto result = db.Execute(
      "SELECT name, region FROM Birds, Regions "
      "WHERE family = fam AND region = 'south'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 4u);
  for (const Tuple& row : result->rows) {
    EXPECT_EQ(row.at(1).AsString(), "south");
  }
}

TEST_F(DatabaseTest, SummaryJoinBetweenVersions) {
  // Fig. 16 Q2 shape: two versions joined on id with differing counts.
  db.Execute("CREATE TABLE BirdsV2 (name TEXT, family TEXT, weight DOUBLE)")
      .ValueOrDie();
  db.Execute("ALTER TABLE BirdsV2 ADD ClassBird1").ValueOrDie();
  for (int i = 0; i < 12; ++i) {
    db.Execute("INSERT INTO BirdsV2 VALUES ('bird" + std::to_string(i) +
               "', 'familyX', 1.0)")
        .ValueOrDie();
  }
  Annotate(1, "disease", 2);  // Birds bird0 -> 2.
  db.Execute("ANNOTATE BirdsV2 TUPLE 1 WITH 'diseaseword note'")
      .ValueOrDie();  // V2 bird0 -> 1 (differs).
  Annotate(2, "disease", 1);  // Birds bird1 -> 1.
  db.Execute("ANNOTATE BirdsV2 TUPLE 2 WITH 'diseaseword note'")
      .ValueOrDie();  // V2 bird1 -> 1 (same).

  auto result = db.Execute(
      "SELECT v1.name FROM Birds v1, BirdsV2 v2 "
      "WHERE v1.name = v2.name AND "
      "v1.$.getSummaryObject('ClassBird1').getLabelValue('Disease') <> "
      "v2.$.getSummaryObject('ClassBird1').getLabelValue('Disease')");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].at(0).AsString(), "bird0");
}

// EXPLAIN ANALYZE over the Q2 shape: every operator under a join must
// report the rows it really produced. Join inputs are pulled through the
// same counted NextBatch() as every other operator, so a scan or Rename
// under a join never reads rows=0 and never feeds a bogus q-error into
// insight_plan_qerror (or the cardinality-feedback loop).
class JoinAnalyzeTest : public DatabaseTest {
 protected:
  static constexpr int kRows = 12;  // Birds and BirdsV2 both.

  JoinAnalyzeTest() {
    db.Execute("CREATE TABLE BirdsV2 (name TEXT, family TEXT, weight DOUBLE)")
        .ValueOrDie();
    db.Execute("ALTER TABLE BirdsV2 ADD ClassBird1").ValueOrDie();
    for (int i = 0; i < kRows; ++i) {
      db.Execute("INSERT INTO BirdsV2 VALUES ('bird" + std::to_string(i) +
                 "', 'familyX', 1.0)")
          .ValueOrDie();
    }
    Annotate(1, "disease", 2);
    db.Execute("ANNOTATE BirdsV2 TUPLE 1 WITH 'diseaseword note'")
        .ValueOrDie();
    EXPECT_TRUE(db.Analyze("Birds").ok());
    EXPECT_TRUE(db.Analyze("BirdsV2").ok());
    db.slow_query_log()->set_threshold_ms(0);  // Capture every trace.
  }

  // Runs EXPLAIN ANALYZE on `sql`, expects `join` in the plan, and checks
  // every scan/Rename line and span against the true table size.
  void ExpectChildrenCounted(const std::string& sql, const std::string& join) {
    MetricsRegistry::Global().ResetAll();
    auto plan = db.ExplainAnalyze(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->find(join), std::string::npos) << *plan;
    const std::string counted = "(rows=" + std::to_string(kRows) + " ";
    std::istringstream lines(*plan);
    int children = 0;
    for (std::string line; std::getline(lines, line);) {
      if (line.find("SeqScan(") == std::string::npos &&
          line.find("Rename(") == std::string::npos) {
        continue;
      }
      ++children;
      EXPECT_NE(line.find(counted), std::string::npos) << line;
    }
    EXPECT_EQ(children, 4) << *plan;  // Two scans, two Renames.

    // Every q-error sample comes from one of this statement's spans, and
    // none of those spans is a scan or Rename with a zero actual.
    const std::vector<QueryTrace> traces = db.slow_query_log()->Snapshot();
    ASSERT_FALSE(traces.empty());
    const QueryTrace& trace = traces.back();
    uint64_t samples = 0;
    double qerror_sum = 0;
    for (const TraceSpan& span : trace.spans) {
      if (span.op.rfind("SeqScan(", 0) == 0 ||
          span.op.rfind("Rename(", 0) == 0) {
        EXPECT_EQ(span.actual_rows, static_cast<uint64_t>(kRows)) << span.op;
      }
      if (!span.has_estimate()) continue;
      ++samples;
      qerror_sum += span.qerror();
    }
    const Histogram* qerror = EngineMetrics::Get().plan_qerror;
    EXPECT_EQ(qerror->count(), samples);
    EXPECT_NEAR(qerror->sum(), qerror_sum, 1e-9);
  }
};

TEST_F(JoinAnalyzeTest, NestedLoopJoinChildrenReportTrueRowCounts) {
  db.optimizer_options().enable_hash_join = false;
  ExpectChildrenCounted(
      "SELECT v1.name FROM Birds v1, BirdsV2 v2 WHERE v1.name = v2.name",
      "NestedLoopJoin(");
}

// No data equi-key: J pairs every row (its nested-loop form).
TEST_F(JoinAnalyzeTest, SummaryJoinChildrenReportTrueRowCounts) {
  ExpectChildrenCounted(
      "SELECT v1.name FROM Birds v1, BirdsV2 v2 "
      "WHERE v1.name <> v2.name AND "
      "v1.$.getSummaryObject('ClassBird1').getLabelValue('Disease') <> "
      "v2.$.getSummaryObject('ClassBird1').getLabelValue('Disease')",
      ", nested-loop)");
}

// The Q2 shape: J joins on its data equi-key (its hash form).
TEST_F(JoinAnalyzeTest, SummaryJoinHashChildrenReportTrueRowCounts) {
  ExpectChildrenCounted(
      "SELECT v1.name FROM Birds v1, BirdsV2 v2 "
      "WHERE v1.name = v2.name AND "
      "v1.$.getSummaryObject('ClassBird1').getLabelValue('Disease') <> "
      "v2.$.getSummaryObject('ClassBird1').getLabelValue('Disease')",
      ", hash v1.name = v2.name)");
}

// Fig. 16 Q2-shaped summary joins against a client-side oracle over seq
// scans with summaries (the basic-InsightNotes rule: NULL on either side
// never differs). The corpus has duplicate join keys, NULL keys, and
// tuples with no ClassBird1 object (never annotated) next to tuples whose
// object has no Disease annotations (count 0).
class SummaryJoinOracleTest : public DatabaseTest {
 protected:
  static constexpr int kV1Rows = 30;
  static constexpr int kV2Rows = 25;
  static constexpr int kCRows = 11;

  SummaryJoinOracleTest() {
    for (const char* table : {"V1", "V2"}) {
      db.Execute(std::string("CREATE TABLE ") + table +
                 " (id INT, name TEXT)")
          .ValueOrDie();
    }
    db.Execute("ALTER TABLE V1 ADD ClassBird1").ValueOrDie();
    // V2's Summary-BTree enables J's index strategy for label equality.
    db.Execute("ALTER TABLE V2 ADD INDEXABLE ClassBird1").ValueOrDie();
    db.Execute("CREATE TABLE C (cid INT, note TEXT)").ValueOrDie();
    for (int i = 0; i < kV1Rows; ++i) {
      Insert("V1", i % 13 == 12 ? "NULL" : std::to_string(i % 11), i);
      const int oid = i + 1;
      if (oid % 5 != 0) AnnotateIn("V1", oid, "disease", oid % 4);
      if (oid % 7 == 3) AnnotateIn("V1", oid, "behavior", 1);
    }
    for (int i = 0; i < kV2Rows; ++i) {
      Insert("V2", i % 9 == 8 ? "NULL" : std::to_string((i * 7) % 13), i);
      const int oid = i + 1;
      if (oid % 6 != 0) AnnotateIn("V2", oid, "disease", oid % 3);
      if (oid % 4 == 1) AnnotateIn("V2", oid, "behavior", 1);
    }
    for (int i = 0; i < kCRows; ++i) {
      Insert("C", i == kCRows - 1 ? "NULL" : std::to_string(i % 7), i);
    }
  }

  void Insert(const std::string& table, const std::string& id, int i) {
    db.Execute("INSERT INTO " + table + " VALUES (" + id + ", 'n" +
               std::to_string(i) + "')")
        .ValueOrDie();
  }

  void AnnotateIn(const std::string& table, int oid, const std::string& kind,
                  int n) {
    for (int i = 0; i < n; ++i) {
      db.Execute("ANNOTATE " + table + " TUPLE " + std::to_string(oid) +
                 " WITH '" + kind + "word note " + std::to_string(i) + "'")
          .ValueOrDie();
    }
  }

  // (id, Disease count) of every row; nullopt for NULL.
  struct Side {
    std::optional<int64_t> id;
    std::optional<int64_t> disease;
  };
  std::vector<Side> ScanSide(const std::string& table) {
    SeqScanOp scan(*db.GetTable(table), *db.GetManager(table), true);
    std::vector<Side> out;
    for (const Row& row : CollectRows(&scan).ValueOrDie()) {
      Side side;
      if (!row.data.at(0).is_null()) side.id = row.data.at(0).AsInt();
      const SummaryObject* obj = row.summaries.GetSummaryObject("ClassBird1");
      if (obj != nullptr) {
        auto value = obj->GetLabelValue("Disease");
        if (value.ok()) side.disease = *value;
      }
      out.push_back(side);
    }
    return out;
  }

  // v1.id of every (v1, v2[, c]) triple passing the Q2 predicate (and
  // v1.id = c.cid when `with_c`), sorted; `equal` tests = instead of <>.
  std::vector<int64_t> Oracle(bool with_c, bool equal = false) {
    std::vector<int64_t> c_ids;
    SeqScanOp c_scan(*db.GetTable("C"), nullptr, false);
    for (const Row& row : CollectRows(&c_scan).ValueOrDie()) {
      if (!row.data.at(0).is_null()) c_ids.push_back(row.data.at(0).AsInt());
    }
    const std::vector<Side> v2 = ScanSide("V2");
    std::vector<int64_t> out;
    for (const Side& l : ScanSide("V1")) {
      for (const Side& r : v2) {
        if (!l.id || !r.id || *l.id != *r.id) continue;
        if (!l.disease || !r.disease) continue;
        if ((*l.disease == *r.disease) != equal) continue;
        const size_t copies =
            with_c ? std::count(c_ids.begin(), c_ids.end(), *l.id) : 1;
        out.insert(out.end(), copies, *l.id);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<int64_t> Run(const std::string& sql) {
    auto result = db.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<int64_t> out;
    if (!result.ok()) return out;
    for (const Tuple& row : result->rows) out.push_back(row.at(0).AsInt());
    std::sort(out.begin(), out.end());
    return out;
  }

  static constexpr const char* kDiffers =
      "v1.$.getSummaryObject('ClassBird1').getLabelValue('Disease') <> "
      "v2.$.getSummaryObject('ClassBird1').getLabelValue('Disease')";
  const std::string q2_ = std::string(
      "SELECT v1.id FROM V1 v1, V2 v2 WHERE v1.id = v2.id AND ") + kDiffers;
  const std::string q2_with_c_ =
      std::string("SELECT v1.id FROM V1 v1, V2 v2, C c WHERE "
                  "v1.id = v2.id AND ") +
      kDiffers + " AND v1.id = c.cid";
};

TEST_F(SummaryJoinOracleTest, TwoTableJoinMatchesOracle) {
  const std::vector<int64_t> expected = Oracle(false);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(Run(q2_), expected);
  db.context()->exec_context()->set_batch_size(1);
  EXPECT_EQ(Run(q2_), expected);
}

TEST_F(SummaryJoinOracleTest, ThreeTableRule11JoinMatchesOracle) {
  const std::vector<int64_t> expected = Oracle(true);
  ASSERT_FALSE(expected.empty());
  // Rule 11 moves the data join with C below J; J's own data conjunct
  // must move up with it.
  auto plan = db.Explain(q2_with_c_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Physical plan:\nSummaryJoin[J]("), std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("  HashJoin(v1.id = c.cid)"), std::string::npos)
      << *plan;
  for (bool rewrite : {true, false}) {
    db.optimizer_options().enable_rewrite_rules = rewrite;
    db.context()->exec_context()->set_batch_size(RowBatch::kDefaultCapacity);
    EXPECT_EQ(Run(q2_with_c_), expected) << "rewrite=" << rewrite;
    db.context()->exec_context()->set_batch_size(1);
    EXPECT_EQ(Run(q2_with_c_), expected) << "rewrite=" << rewrite;
  }
}

// Without hash joins J loops over every right row, still filtering on the
// data conjunct before the summary predicate.
TEST_F(SummaryJoinOracleTest, NestedLoopFormMatchesOracle) {
  db.optimizer_options().enable_hash_join = false;
  auto plan = db.Explain(q2_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find(", nested-loop)"), std::string::npos) << *plan;
  EXPECT_EQ(Run(q2_), Oracle(false));
}

// EXPLAIN of Q2: J in its hash form directly above the two Renames, with
// no selection above it.
TEST_F(SummaryJoinOracleTest, ExplainShowsHashFormWithoutSelect) {
  auto plan = db.Explain(q2_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find(", hash v1.id = v2.id)"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("Select[\xcf\x83]"), std::string::npos) << *plan;
  std::istringstream lines(plan->substr(plan->find("Physical plan:\n")));
  std::vector<std::string> physical;
  for (std::string line; std::getline(lines, line);) physical.push_back(line);
  ASSERT_GE(physical.size(), 6u) << *plan;
  EXPECT_EQ(physical[1].rfind("SummaryJoin[J](", 0), 0u) << *plan;
  EXPECT_EQ(physical[2], "  Rename(v1)") << *plan;
  EXPECT_EQ(physical[4], "  Rename(v2)") << *plan;
}

// J's index strategy (label equality, Summary-BTree on a bare right
// scan) keys on the summary only; its data conjunct filters the output.
TEST_F(SummaryJoinOracleTest, IndexFormFiltersOnDataConjunct) {
  const std::string sql =
      "SELECT v1.id FROM V1 v1, V2 WHERE v1.id = V2.id AND "
      "v1.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = "
      "V2.$.getSummaryObject('ClassBird1').getLabelValue('Disease')";
  auto plan = db.Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Select[\xcf\x83](v1.id = V2.id)\n"
                       "  SummaryJoin[J](ClassBird1.Disease equality, "
                       "index)"),
            std::string::npos)
      << *plan;
  const std::vector<int64_t> expected = Oracle(false, /*equal=*/true);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(Run(sql), expected);
}

TEST_F(DatabaseTest, QualifiedColumnOfAnotherTableIsAnError) {
  db.Execute("CREATE TABLE A (id INT, name TEXT)").ValueOrDie();
  db.Execute("CREATE TABLE B (id INT)").ValueOrDie();
  for (int i = 0; i < 5; ++i) {
    db.Execute("INSERT INTO A VALUES (" + std::to_string(i) + ", 'n" +
               std::to_string(i) + "')")
        .ValueOrDie();
    db.Execute("INSERT INTO B VALUES (" + std::to_string(i) + ")")
        .ValueOrDie();
  }
  // B has no name column; a.name must not answer for b.name.
  EXPECT_FALSE(
      db.Execute("SELECT a.id FROM A a, B b WHERE b.name = 'n1'").ok());
  auto ok = db.Execute("SELECT a.id FROM A a, B b WHERE a.name = 'n1'");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->rows.size(), 5u);
}

TEST_F(DatabaseTest, AliasedSelfJoinLowersToHashJoin) {
  db.Execute("CREATE TABLE A (id INT)").ValueOrDie();
  for (int i = 0; i < 20; ++i) {
    db.Execute("INSERT INTO A VALUES (" + std::to_string(i) + ")")
        .ValueOrDie();
  }
  const std::string sql = "SELECT x.id FROM A x, A y WHERE x.id = y.id";
  auto plan = db.Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("HashJoin(x.id = y.id)"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("NestedLoopJoin("), std::string::npos) << *plan;
  auto result = db.Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 20u);
}

TEST_F(DatabaseTest, ZoomInCommand) {
  Annotate(5, "disease", 2);
  Annotate(5, "behavior", 1);
  auto result = db.Execute("ZOOM IN ON Birds TUPLE 5");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->annotations.size(), 3u);

  // Instance-scoped zoom-in still returns every contributing annotation
  // (classifier objects reference all of them).
  result = db.Execute("ZOOM IN ON Birds TUPLE 5 INSTANCE 'ClassBird1'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->annotations.size(), 3u);
}

TEST_F(DatabaseTest, ZoomInAfterSummaryQueryWorkflow) {
  // The paper's Q1 workflow: summary query, then zoom into a hit.
  Annotate(7, "disease", 3);
  auto hits = db.Execute(
      "SELECT name FROM Birds WHERE "
      "$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 3");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->rows.size(), 1u);
  auto zoom = db.ZoomIn("Birds", 7);
  ASSERT_TRUE(zoom.ok());
  EXPECT_EQ(zoom->size(), 3u);
  for (const Annotation& ann : *zoom) {
    EXPECT_NE(ann.text.find("diseaseword"), std::string::npos);
  }
}

TEST_F(DatabaseTest, SnippetKeywordSearch) {
  db.Execute(
        "ANNOTATE Birds TUPLE 9 WITH 'Wikipedia hormone study part one. "
        "Wikipedia hormone study part two. Wikipedia hormone part three.'")
      .ValueOrDie();
  auto result = db.Execute(
      "SELECT name FROM Birds WHERE "
      "$.getSummaryObject('TextSummary1').containsUnion('wikipedia', "
      "'hormone')");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].at(0).AsString(), "bird8");
}

TEST_F(DatabaseTest, DistinctAndOrderByData) {
  auto result = db.Execute(
      "SELECT DISTINCT family FROM Birds ORDER BY family");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0].at(0).AsString(), "family0");
  EXPECT_EQ(result->rows[2].at(0).AsString(), "family2");
}

TEST_F(DatabaseTest, DropInstanceStripsObjects) {
  Annotate(1, "disease", 1);
  db.Execute("ALTER TABLE Birds DROP TextSummary1").ValueOrDie();
  auto result = db.Execute(
      "SELECT name FROM Birds WHERE "
      "$.getSummaryObject('TextSummary1').containsUnion('x')");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

TEST_F(DatabaseTest, DeleteTupleCleansUp) {
  Annotate(2, "disease", 2);
  ASSERT_TRUE(db.DeleteTuple("Birds", 2).ok());
  auto result = db.Execute(
      "SELECT name FROM Birds WHERE "
      "$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
  auto all = db.Execute("SELECT * FROM Birds");
  EXPECT_EQ(all->rows.size(), 11u);
}

TEST_F(DatabaseTest, CreateDataIndexAndUseIt) {
  db.Execute("CREATE INDEX ON Birds (weight)").ValueOrDie();
  db.Execute("ANALYZE Birds").ValueOrDie();
  auto plan = db.Explain("SELECT name FROM Birds WHERE weight = 3.0");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
  auto result = db.Execute("SELECT name FROM Birds WHERE weight = 3.0");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);
}

TEST_F(DatabaseTest, ResultToStringRendersTable) {
  auto result = db.Execute("SELECT name, weight FROM Birds LIMIT 2");
  ASSERT_TRUE(result.ok());
  const std::string rendered = result->ToString();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("bird0"), std::string::npos);
  EXPECT_NE(rendered.find("(2 rows)"), std::string::npos);
}

TEST_F(DatabaseTest, ErrorsSurfaceCleanly) {
  EXPECT_TRUE(db.Execute("SELECT x FROM NoSuchTable").status().IsNotFound());
  EXPECT_FALSE(db.Execute("SELECT nocolumn FROM Birds").ok());
  EXPECT_TRUE(db.Execute("gibberish").status().IsParseError());
}

}  // namespace
}  // namespace insight
