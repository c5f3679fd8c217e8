#ifndef INSIGHTNOTES_ENGINE_OPERATORS_H_
#define INSIGHTNOTES_ENGINE_OPERATORS_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/column_batch.h"
#include "engine/execution_context.h"
#include "engine/expression.h"
#include "engine/row.h"
#include "engine/row_batch.h"
#include "index/table.h"
#include "sindex/baseline_index.h"
#include "sindex/keyword_index.h"
#include "sindex/summary_btree.h"
#include "summary/summary_algebra.h"
#include "summary/summary_manager.h"

namespace insight {

/// Per-operator runtime counters, maintained by the Open()/NextBatch()
/// wrappers and rendered by EXPLAIN ANALYZE. Both times are inclusive:
/// time spent in this operator's call including its children's.
struct OperatorStats {
  uint64_t rows = 0;     // Rows emitted through NextBatch().
  uint64_t batches = 0;  // Non-empty batches emitted.
  uint64_t next_ns = 0;  // Wall-time inside NextBatch().
  uint64_t open_ns = 0;  // Wall-time inside Open() — pipeline breakers
                         // (sort, joins, aggregate, gather) drain their
                         // input here, so it must be reported too.

  /// Inclusive operator wall time. Monotonic down the tree: every child
  /// Open()/NextBatch() call happens inside the parent's timed calls.
  uint64_t total_ns() const { return open_ns + next_ns; }
};

/// Which statistics tier produced an operator's cardinality estimate.
/// Stamped by the optimizer alongside estimated_rows and rendered by
/// EXPLAIN ANALYZE as `src=histogram|sketch|feedback`.
enum class EstimateSource {
  kNone,       // No estimate / source unknown.
  kHistogram,  // ANALYZE-built histograms (possibly live-folded).
  kSketch,     // Online sketches overrode stale (or missing) histograms.
  kFeedback,   // Histograms rebuilt by the cardinality-feedback loop.
};

/// Lower-case tier name for plan rendering ("histogram", "sketch",
/// "feedback"; empty for kNone).
const char* EstimateSourceName(EstimateSource source);

/// Volcano-style physical operator. Standard SQL operators and the
/// paper's summary-based operators (S, F, J, O) share this interface and
/// mix freely in one plan (Section 3.2).
///
/// One pull protocol: rows leave an operator only through NextBatch(),
/// which times the call, maintains the runtime counters, and delegates to
/// the pure-virtual NextBatchImpl(). Operators that walk a child's rows
/// one at a time read them through ChildInput; build sides that
/// materialize a child drain it with CollectRows(). The columnar spine
/// (NextColumnBatch) is the only other path, chosen per pipeline from
/// ColumnarCapable().
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  /// Prepares the subtree for execution. Non-virtual: times the call into
  /// stats_.open_ns and delegates to the virtual OpenImpl(), so work a
  /// pipeline breaker does up front (draining and materializing its
  /// input) is visible to EXPLAIN ANALYZE instead of vanishing.
  Status Open();
  virtual void Close() {}

  /// Clears `batch` and refills it with up to batch->capacity() rows;
  /// false once the stream is exhausted (the batch comes back empty).
  /// Tags the batch with this operator's output schema.
  Result<bool> NextBatch(RowBatch* batch);

  /// Column-major sibling of NextBatch(): rebinds `batch` to this
  /// operator's schema and refills it. Works on every operator (the
  /// default pivots the row batch), but only pays off where
  /// ColumnarCapable() holds. Do not interleave NextBatch() and
  /// NextColumnBatch() calls on one operator within one execution.
  Result<bool> NextColumnBatch(ColumnBatch* batch);

  /// True when this operator produces column batches natively (without
  /// pivoting through rows) — the scan→filter→project spine. Consumers
  /// use it to pick the execution mode per pipeline.
  virtual bool ColumnarCapable() const { return false; }

  virtual const Schema& schema() const = 0;
  /// One-line description for EXPLAIN-style plan dumps.
  virtual std::string Describe() const = 0;
  /// Extra EXPLAIN ANALYZE annotation appended after the counters (e.g.
  /// GatherOp's per-worker wall times). Empty for most operators.
  virtual std::string AnalyzeAnnotation() const { return ""; }
  virtual std::vector<PhysicalOperator*> children() const { return {}; }

  /// Multi-line plan rendering rooted at this operator.
  std::string ExplainTree(int indent = 0) const;
  /// ExplainTree plus per-operator runtime counters (rows, batches,
  /// wall-time); render after the plan has run — EXPLAIN ANALYZE.
  std::string ExplainAnalyzeTree(int indent = 0) const;

  /// Threads the shared ExecutionContext through the whole subtree
  /// (batch-size knob; storage handles for lazily-resolving operators).
  void AttachContext(ExecutionContext* ctx);
  ExecutionContext* exec_context() const { return exec_ctx_; }

  /// Batch capacity this plan runs at (the context's knob, or the
  /// RowBatch default when no context is attached).
  size_t batch_capacity() const {
    return exec_ctx_ != nullptr ? exec_ctx_->batch_size()
                                : RowBatch::kDefaultCapacity;
  }

  /// MVCC snapshot this plan reads at (the context's stamp, or the
  /// latest-committed view when no context is attached).
  Snapshot snapshot() const {
    return exec_ctx_ != nullptr ? exec_ctx_->snapshot() : Snapshot::Latest();
  }

  const OperatorStats& stats() const { return stats_; }

  /// Plan-time cardinality estimate, stamped onto the operator by the
  /// optimizer during lowering and diffed against the runtime row count
  /// by EXPLAIN ANALYZE (< 0: no estimate available).
  void set_estimated_rows(double rows) { est_rows_ = rows; }
  double estimated_rows() const { return est_rows_; }
  bool has_estimate() const { return est_rows_ >= 0; }

  /// Which statistics tier produced the estimate; EXPLAIN ANALYZE renders
  /// it as `src=` next to the q-error so misestimates can be attributed.
  void set_estimate_source(EstimateSource source) { est_source_ = source; }
  EstimateSource estimate_source() const { return est_source_; }

  /// Table whose statistics produced the estimate (access paths only);
  /// the cardinality-feedback loop reports misestimates back to it.
  void set_feedback_table(std::string table) {
    feedback_table_ = std::move(table);
  }
  const std::string& feedback_table() const { return feedback_table_; }

 protected:
  /// Per-operator preparation (what Open() used to be). Implementations
  /// call ResetExec() first, then open their children via the public
  /// Open().
  virtual Status OpenImpl() = 0;
  /// Batch production; `batch` arrives cleared. Implementations append
  /// rows until full() or end-of-stream and return !batch->empty().
  virtual Result<bool> NextBatchImpl(RowBatch* batch) = 0;
  /// Columnar production; `batch` arrives reset to this operator's
  /// schema. The default adapter pivots one row batch in.
  virtual Result<bool> NextColumnBatchImpl(ColumnBatch* batch);

  /// Resets the per-execution counters; every Open() calls this first.
  void ResetExec() { stats_ = OperatorStats{}; }

  OperatorStats stats_;
  ExecutionContext* exec_ctx_ = nullptr;
  double est_rows_ = -1;
  EstimateSource est_source_ = EstimateSource::kNone;
  std::string feedback_table_;
};

using OpPtr = std::unique_ptr<PhysicalOperator>;

/// Runs a plan to completion, collecting all rows.
Result<std::vector<Row>> CollectRows(PhysicalOperator* root);

/// Row-by-row reader over a child's batch stream, for operators that walk
/// their input one row at a time (the outer side of every join). Pulls
/// through the child's NextBatch(), so the child's counters stay exact.
class ChildInput {
 public:
  explicit ChildInput(PhysicalOperator* child) : child_(child) {}

  /// Drops buffered rows; OpenImpl calls this before each execution.
  void Reset() {
    batch_.Clear();
    pos_ = 0;
  }

  /// Moves the child's next row into `row`; false at end of stream.
  Result<bool> NextRow(Row* row);

 private:
  PhysicalOperator* child_;
  RowBatch batch_;
  size_t pos_ = 0;
};

// ---------- Scans ----------

/// Full heap scan of a user relation; propagates summary objects when a
/// SummaryManager is supplied.
class SeqScanOp : public PhysicalOperator {
 public:
  SeqScanOp(Table* table, SummaryManager* mgr, bool propagate);

  Status OpenImpl() override;
  const Schema& schema() const override { return table_->schema(); }
  std::string Describe() const override;
  bool ColumnarCapable() const override { return true; }
  /// Pages whose zone maps refute this predicate are skipped before the
  /// buffer-pool fetch (optimizer-attached; empty disables pruning).
  void SetZonePredicate(ZonePredicate pred) { zone_pred_ = std::move(pred); }
  /// EXPLAIN ANALYZE: `pages_skipped=` per scan operator.
  std::string AnalyzeAnnotation() const override;
  uint64_t pages_skipped() const { return pages_skipped_; }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;
  Result<bool> NextColumnBatchImpl(ColumnBatch* batch) override;

 private:
  Table* table_;
  SummaryManager* mgr_;
  bool propagate_;
  std::optional<Table::Iterator> it_;
  ZonePredicate zone_pred_;
  uint64_t pages_skipped_ = 0;
};

// ---------- Index access ----------

/// One index access path: a search yielding candidate hits in index
/// order, plus the one fetch step that turns a hit into a row. The column
/// B-Tree, Summary-BTree, baseline and keyword indexes implement it; one
/// IndexScanOp (and the inner side of IndexNLJoinOp / SummaryJoinOp)
/// drives any of them. Hits over tuple OIDs fill only `oid`. A probe
/// carries its table and SummaryManager (null for a plain table).
class IndexProbe {
 public:
  IndexProbe(Table* table, SummaryManager* mgr) : table_(table), mgr_(mgr) {}
  virtual ~IndexProbe() = default;
  IndexProbe(const IndexProbe&) = delete;
  IndexProbe& operator=(const IndexProbe&) = delete;

  Table* table() const { return table_; }
  SummaryManager* mgr() const { return mgr_; }

  /// Resolves per-execution handles; the scanning operator's OpenImpl
  /// calls it.
  virtual Status Bind() { return Status::OK(); }

  /// Candidate hits in index order — the order Rules 3-6 rely on.
  virtual Result<std::vector<SummaryIndexHit>> Search(
      const Snapshot& snap) const = 0;

  /// The fetch step: the row `hit` names as visible at `snap`, with its
  /// summaries when `propagate`. False when no version is visible or the
  /// visible version fails Recheck.
  Result<bool> Fetch(const SummaryIndexHit& hit, const Snapshot& snap,
                     bool propagate, Row* row) const;

  /// EXPLAIN rendering of a scan over this probe.
  virtual std::string Describe(bool propagate) const = 0;

 protected:
  /// Sets row->oid/data to the version of `hit` visible at `snap`
  /// (NotFound: none); true when its pointer path filled row->summaries.
  virtual Result<bool> Resolve(const SummaryIndexHit& hit,
                               const Snapshot& snap, bool propagate,
                               Row* row) const;
  /// Re-verifies the visible row, for entries that can disagree with the
  /// snapshot. Exact probes keep the default.
  virtual bool Recheck(const Row& /*row*/) const { return true; }
  /// The summary set propagated with a fetched row.
  virtual Result<SummarySet> Summaries(Oid oid, const Snapshot& snap) const;

  Table* table_;
  SummaryManager* mgr_;
  bool recheck_reads_summaries_ = false;  // Load summaries before Recheck.
};

/// Data-column B-Tree probe over an optional [lower, upper] value range.
/// Entries exist for every stored version, so Recheck re-verifies the
/// visible version's value.
class ColumnRangeProbe : public IndexProbe {
 public:
  ColumnRangeProbe(Table* table, SummaryManager* mgr, std::string column,
                   std::optional<Value> lower, bool lower_inclusive,
                   std::optional<Value> upper, bool upper_inclusive);

  /// Re-aims the probe at one key (index nested-loop join).
  void SetPoint(const Value& key);
  const std::string& column() const { return column_; }

  Status Bind() override;
  Result<std::vector<SummaryIndexHit>> Search(
      const Snapshot& snap) const override;
  std::string Describe(bool propagate) const override;

 protected:
  bool Recheck(const Row& row) const override;

 private:
  std::string column_;
  std::optional<Value> lower_;
  bool lower_inclusive_;
  std::optional<Value> upper_;
  bool upper_inclusive_;
  std::string lower_key_;
  std::string upper_key_;
  const BTree* index_ = nullptr;
  size_t col_pos_ = 0;
};

/// Summary-BTree probe: label-range hits in ascending count order; exact
/// (the version sidecar filters by snapshot), resolved through the
/// index's backward or conventional pointers (Fig. 13).
class SummaryBTreeProbe : public IndexProbe {
 public:
  SummaryBTreeProbe(const SummaryBTree* index, ClassifierProbe probe);

  /// Re-aims the probe (summary join, once per left row).
  void set_probe(ClassifierProbe probe) { probe_ = std::move(probe); }

  Result<std::vector<SummaryIndexHit>> Search(
      const Snapshot& snap) const override;
  std::string Describe(bool propagate) const override;

 protected:
  Result<bool> Resolve(const SummaryIndexHit& hit, const Snapshot& snap,
                       bool propagate, Row* row) const override;

 private:
  const SummaryBTree* index_;
  ClassifierProbe probe_;
};

/// Baseline-scheme probe (Fig. 4(c)); its Search re-checks the replica's
/// derived value at the snapshot. `reconstruct_summaries` re-forms the
/// propagated object from the normalized rows (Fig. 12's slow path).
class BaselineProbe : public IndexProbe {
 public:
  BaselineProbe(const BaselineClassifierIndex* index, ClassifierProbe probe,
                bool reconstruct_summaries);

  Result<std::vector<SummaryIndexHit>> Search(
      const Snapshot& snap) const override;
  std::string Describe(bool propagate) const override;

 protected:
  Result<SummarySet> Summaries(Oid oid, const Snapshot& snap) const override;

 private:
  const BaselineClassifierIndex* index_;
  ClassifierProbe probe_;
  bool reconstruct_summaries_;
};

/// Keyword probe: posting-list intersection over a Snippet instance. The
/// postings carry no versions, so Recheck evaluates containsUnion over the
/// visible summaries (containsSingle keeps its residual on top).
class KeywordProbe : public IndexProbe {
 public:
  KeywordProbe(const SnippetKeywordIndex* index,
               std::vector<std::string> keywords);

  Result<std::vector<SummaryIndexHit>> Search(
      const Snapshot& snap) const override;
  std::string Describe(bool propagate) const override;

 protected:
  bool Recheck(const Row& row) const override;

 private:
  const SnippetKeywordIndex* index_;
  std::vector<std::string> keywords_;
};

/// Index scan over any IndexProbe: the probe's hits in index order, each
/// through its fetch step at the plan's snapshot.
class IndexScanOp : public PhysicalOperator {
 public:
  IndexScanOp(std::unique_ptr<IndexProbe> probe, bool propagate);

  Status OpenImpl() override;
  const Schema& schema() const override { return probe_->table()->schema(); }
  std::string Describe() const override {
    return probe_->Describe(propagate_);
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  std::unique_ptr<IndexProbe> probe_;
  bool propagate_;
  std::vector<SummaryIndexHit> hits_;
  size_t pos_ = 0;
};

/// In-memory row source (tests, intermediate materialization).
class VectorSourceOp : public PhysicalOperator {
 public:
  VectorSourceOp(Schema schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  Status OpenImpl() override {
    ResetExec();
    pos_ = 0;
    return Status::OK();
  }
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override {
    while (!batch->full() && pos_ < rows_.size()) batch->Push(rows_[pos_++]);
    return !batch->empty();
  }

 private:
  Schema schema_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

// ---------- Selection family ----------

/// Standard selection sigma: passes rows whose data predicate holds;
/// summaries propagate unchanged.
class SelectOp : public PhysicalOperator {
 public:
  SelectOp(OpPtr child, ExprPtr predicate);

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }
  bool ColumnarCapable() const override { return child_->ColumnarCapable(); }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;
  Result<bool> NextColumnBatchImpl(ColumnBatch* batch) override;

 private:
  OpPtr child_;
  ExprPtr predicate_;
  // Batch-path state: buffered child batch, its predicate flags, and the
  // next input row to consume.
  RowBatch input_;
  std::vector<uint8_t> flags_;
  size_t input_pos_ = 0;
  // Columnar-path state.
  ColumnBatch col_scratch_;
  TriVector tri_;
};

/// Summary-based selection S (Section 3.2): passes rows whose
/// summary-based predicate over r.$ holds; all summary objects propagate
/// unchanged. A distinct physical operator (not a UDF) so the optimizer
/// can reason about it.
class SummarySelectOp : public PhysicalOperator {
 public:
  SummarySelectOp(OpPtr child, ExprPtr predicate);

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }
  const Expression* predicate() const { return predicate_.get(); }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr child_;
  ExprPtr predicate_;
  RowBatch input_;
  std::vector<uint8_t> flags_;
  size_t input_pos_ = 0;
};

/// Object-level predicate for the summary-based filter F. Structural
/// predicates (instance name / summary type) are the pushable kind of
/// Rule 8; `custom` marks non-structural content predicates.
struct ObjectPredicate {
  std::optional<std::string> instance_name;
  std::optional<SummaryType> type;
  std::function<bool(const SummaryObject&)> custom;

  bool structural() const { return custom == nullptr; }
  bool Matches(const SummaryObject& obj) const;
  std::string ToString() const;
};

/// Summary-based filter F: every row passes, carrying only the summary
/// objects that satisfy the object predicate.
class SummaryFilterOp : public PhysicalOperator {
 public:
  SummaryFilterOp(OpPtr child, ObjectPredicate predicate);

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr child_;
  ObjectPredicate predicate_;
};

// ---------- Projection ----------

/// Projection pi: keeps the named columns and eliminates the projected-out
/// annotations' effects from every summary object (Theorems 1-2 of the
/// base system; Example 1).
class ProjectOp : public PhysicalOperator {
 public:
  ProjectOp(OpPtr child, std::vector<std::string> columns,
            AnnotationResolver resolver);

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }
  bool ColumnarCapable() const override { return child_->ColumnarCapable(); }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;
  Result<bool> NextColumnBatchImpl(ColumnBatch* batch) override;

 private:
  OpPtr child_;
  std::vector<std::string> columns_;
  AnnotationResolver resolver_;
  std::vector<size_t> indices_;
  Schema schema_;
  ColumnBatch col_input_;
};

// ---------- Joins ----------

/// Block nested-loop join on a data predicate over the concatenated
/// schema; summary sets of joining rows merge with common-annotation
/// dedup (Section 2.2). The right input is materialized.
class NestedLoopJoinOp : public PhysicalOperator {
 public:
  NestedLoopJoinOp(OpPtr left, OpPtr right, ExprPtr predicate);

  Status OpenImpl() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr left_;
  OpPtr right_;
  ExprPtr predicate_;
  Schema schema_;
  ChildInput left_input_;
  std::vector<Row> right_rows_;
  Row current_left_;
  bool left_valid_ = false;
  size_t right_pos_ = 0;
};

/// Index nested-loop join: probes the inner table's column index with the
/// outer key expression (equi-join), resolving inner hits through the
/// ColumnRangeProbe fetch step. Preserves the outer order — the property
/// Rules 5-6 need.
class IndexNLJoinOp : public PhysicalOperator {
 public:
  IndexNLJoinOp(OpPtr outer, Table* inner, std::string inner_column,
                ExprPtr outer_key, SummaryManager* inner_mgr,
                bool propagate_inner);

  Status OpenImpl() override;
  void Close() override { outer_->Close(); }
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {outer_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr outer_;
  ColumnRangeProbe inner_;  // Re-aimed at each outer row's key.
  ExprPtr outer_key_;
  bool propagate_inner_;
  Schema schema_;
  ChildInput outer_input_;
  Row current_outer_;
  bool outer_valid_ = false;
  std::vector<SummaryIndexHit> matches_;
  size_t match_pos_ = 0;
};

/// Hash join on one equi-key pair; non-equi residual conjuncts are
/// evaluated per candidate pair. The right (build) side is materialized
/// into a hash table; the left (probe) side streams, so the output
/// preserves the left order (Rule 5 applies, like the other join
/// algorithms here). Summary sets merge as in NestedLoopJoinOp.
class HashJoinOp : public PhysicalOperator {
 public:
  HashJoinOp(OpPtr left, OpPtr right, std::string left_key,
             std::string right_key, ExprPtr residual);

  Status OpenImpl() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr left_;
  OpPtr right_;
  std::string left_key_;
  std::string right_key_;
  ExprPtr residual_;  // May be null.
  Schema schema_;
  size_t left_key_idx_ = 0;
  std::unordered_map<size_t, std::vector<Row>> table_;  // Hash -> rows.
  size_t right_key_idx_ = 0;
  ChildInput left_input_;
  Row current_left_;
  bool left_valid_ = false;
  const std::vector<Row>* bucket_ = nullptr;
  size_t bucket_pos_ = 0;
};

/// Join predicate of the summary-based join J: either a comparison of a
/// summary expression evaluated on each side, or a predicate over the
/// would-be merged summary set.
struct SummaryJoinPredicate {
  // Comparison form: left_expr(r.$) <op> right_expr(s.$).
  ExprPtr left_expr;
  CompareOp op = CompareOp::kEq;
  ExprPtr right_expr;
  // Merged form: predicate over the merged row (set after summary merge).
  ExprPtr merged_expr;

  bool merged_form() const { return merged_expr != nullptr; }
  std::string ToString() const;
  SummaryJoinPredicate Clone() const;
  /// Instances referenced by the predicate (Rule 11 legality).
  void CollectInstances(std::vector<std::string>* out) const;
};

/// Summary-based join J (Section 3.2): joins tuples on predicates over
/// their summary sets. Two strategies: a candidate loop over the
/// materialized right input, or an index join probing the inner side's
/// Summary-BTree when the predicate is an equality of classifier label
/// values (the paper's two implementation choices).
///
/// The candidate loop tests the pairs of each left row with its candidate
/// right rows: every right row (nested loop), or, given a data equi-key,
/// the right rows whose key equals the left row's (NULL keys never
/// match). A candidate passes the data predicate on the concatenated data
/// first; only then is the summary predicate tested. Each side's summary
/// expression is evaluated at most once per row (the right side's on its
/// first use), and summaries merge only for output rows.
class SummaryJoinOp : public PhysicalOperator {
 public:
  /// Candidate-loop strategy. `data_predicate` (may be null) holds J's
  /// data conjuncts beyond the equi-key; empty keys mean a nested loop.
  SummaryJoinOp(OpPtr left, OpPtr right, SummaryJoinPredicate predicate,
                ExprPtr data_predicate = nullptr, std::string left_key = "",
                std::string right_key = "");

  /// Index strategy: `label_instance`/`label` describe the equality
  /// "left.inst.label = right.inst.label" probe against the right table's
  /// Summary-BTree; right hits resolve through the probe's fetch step.
  SummaryJoinOp(OpPtr left, const SummaryBTree* right_index,
                std::string label_instance, std::string label,
                bool propagate_right);

  Status OpenImpl() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  /// Fills `batch` from the current left row's remaining candidates;
  /// false once that row is exhausted (the caller then advances the left
  /// side).
  Result<bool> FillCandidates(RowBatch* batch);
  /// Tests the current left row against right row `r`; on a match fills
  /// `*out` with the joined row.
  Result<bool> JoinPair(size_t r, Row* out);
  Result<bool> FillIndex(RowBatch* batch);
  /// Index strategy: probes the right Summary-BTree for current_left_.
  Status ProbeIndex();

  OpPtr left_;
  OpPtr right_;  // Candidate-loop strategy only.
  SummaryJoinPredicate predicate_;
  Schema schema_;
  ChildInput left_input_;
  Row current_left_;
  bool left_valid_ = false;
  size_t left_arity_ = 0;
  // Candidate-loop state.
  ExprPtr data_predicate_;  // May be null.
  std::string left_key_;    // Empty: nested loop.
  std::string right_key_;
  size_t left_key_idx_ = 0;
  size_t right_key_idx_ = 0;
  std::vector<Row> right_rows_;
  std::vector<size_t> all_rows_;  // Nested loop: 0 .. right_rows_.size().
  std::unordered_map<size_t, std::vector<size_t>> buckets_;  // Key hash.
  const std::vector<size_t>* candidates_ = nullptr;
  size_t candidate_pos_ = 0;
  std::optional<Value> left_value_;  // Summary value of current_left_.
  std::vector<std::optional<Value>> right_values_;  // Memo per right row.
  // Index strategy state.
  std::unique_ptr<SummaryBTreeProbe> right_probe_;
  std::string label_instance_;
  std::string label_;
  bool propagate_right_ = true;
  std::vector<SummaryIndexHit> hits_;
  size_t hit_pos_ = 0;
};

// ---------- Sort ----------

struct SortKey {
  ExprPtr expr;
  bool descending = false;
};

/// Sort operator serving both the standard ORDER BY and the paper's
/// summary-based sort O (keys may be summary functions). kMemory sorts
/// in RAM; kExternal spills sorted runs to temporary heap files and
/// k-way-merges them (the Disk arm of Fig. 14).
class SortOp : public PhysicalOperator {
 public:
  enum class Mode { kMemory, kExternal };

  /// `storage`/`pool` are required for kExternal (spill files).
  SortOp(OpPtr child, std::vector<SortKey> keys, Mode mode,
         StorageManager* storage = nullptr, BufferPool* pool = nullptr,
         size_t memory_budget_bytes = 4 << 20);
  /// Context form: storage and pool come from `ctx` (kExternal spills).
  SortOp(ExecutionContext* ctx, OpPtr child, std::vector<SortKey> keys,
         Mode mode, size_t memory_budget_bytes = 4 << 20);

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }

  bool summary_based() const;
  uint64_t runs_spilled() const { return runs_spilled_; }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  Result<int> CompareRows(const Row& a, const Row& b) const;
  Status SpillRun(std::vector<Row>* run);
  /// K-way merge step (kExternal with spilled runs).
  Result<bool> MergeNext(Row* row);

  OpPtr child_;
  std::vector<SortKey> keys_;
  Mode mode_;
  StorageManager* storage_;
  BufferPool* pool_;
  size_t memory_budget_;
  std::vector<Row> sorted_;  // kMemory result buffer.
  size_t pos_ = 0;
  // kExternal state.
  struct Run {
    std::unique_ptr<HeapFile> file;
    std::optional<HeapFile::Iterator> it;
    std::optional<Row> head;
  };
  std::vector<Run> runs_;
  uint64_t runs_spilled_ = 0;
};

// ---------- Aggregation / distinct / limit ----------

struct AggregateSpec {
  enum class Kind { kCount, kSum, kMin, kMax, kAvg };
  Kind kind = Kind::kCount;
  ExprPtr arg;  // Null for COUNT(*).
  std::string output_name;
};

/// Hash aggregation with summary propagation: each group's summary set is
/// the merge of its members' sets, each first projected onto the grouping
/// columns (project-before-merge, Theorems 1-2).
class HashAggregateOp : public PhysicalOperator {
 public:
  HashAggregateOp(OpPtr child, std::vector<std::string> group_columns,
                  std::vector<AggregateSpec> aggregates,
                  AnnotationResolver resolver);

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr child_;
  std::vector<std::string> group_columns_;
  std::vector<AggregateSpec> aggregates_;
  AnnotationResolver resolver_;
  Schema schema_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

/// Duplicate elimination over the data values; summary sets of collapsed
/// duplicates merge.
class DistinctOp : public PhysicalOperator {
 public:
  explicit DistinctOp(OpPtr child);

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr child_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

/// Pass-through that renames the child's columns (table aliases:
/// `FROM Birds v1` exposes `v1.name`, ...). Rows are untouched.
class RenameOp : public PhysicalOperator {
 public:
  /// Prefixes every child column with `alias.`.
  RenameOp(OpPtr child, const std::string& alias);

  Status OpenImpl() override {
    ResetExec();
    return child_->Open();
  }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override { return "Rename(" + alias_ + ")"; }
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override {
    return child_->NextBatch(batch);
  }

 private:
  OpPtr child_;
  std::string alias_;
  Schema schema_;
};

/// LIMIT n.
class LimitOp : public PhysicalOperator {
 public:
  LimitOp(OpPtr child, uint64_t limit) : child_(std::move(child)),
                                         limit_(limit) {}

  Status OpenImpl() override {
    ResetExec();
    emitted_ = 0;
    return child_->Open();
  }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }
  bool ColumnarCapable() const override { return child_->ColumnarCapable(); }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;
  Result<bool> NextColumnBatchImpl(ColumnBatch* batch) override;

 private:
  OpPtr child_;
  uint64_t limit_;
  uint64_t emitted_ = 0;
};

}  // namespace insight

#endif  // INSIGHTNOTES_ENGINE_OPERATORS_H_
