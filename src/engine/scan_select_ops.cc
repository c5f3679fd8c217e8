#include <chrono>
#include <cstdio>

#include "common/string_util.h"
#include "engine/operators.h"
#include "index/key_codec.h"
#include "obs/trace.h"

namespace insight {

Status PhysicalOperator::Open() {
  const auto start = std::chrono::steady_clock::now();
  Status st = OpenImpl();  // Calls ResetExec(), zeroing stats_ first.
  stats_.open_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return st;
}

Result<bool> PhysicalOperator::NextBatch(RowBatch* batch) {
  const auto start = std::chrono::steady_clock::now();
  batch->Clear();
  Result<bool> result = NextBatchImpl(batch);
  stats_.next_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (result.ok() && *result) {
    ++stats_.batches;
    stats_.rows += batch->size();
  }
  batch->set_schema(&schema());
  return result;
}

Result<bool> PhysicalOperator::NextColumnBatch(ColumnBatch* batch) {
  const auto start = std::chrono::steady_clock::now();
  batch->Reset(&schema(), batch_capacity());
  Result<bool> result = NextColumnBatchImpl(batch);
  stats_.next_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (result.ok() && *result) {
    ++stats_.batches;
    stats_.rows += batch->size();
  }
  return result;
}

Result<bool> PhysicalOperator::NextColumnBatchImpl(ColumnBatch* batch) {
  // Default adapter: pull one row batch and pivot it in. Row-only
  // operators stay usable from columnar consumers this way.
  RowBatch rows;
  rows.set_capacity(batch->capacity());
  INSIGHT_ASSIGN_OR_RETURN(bool has, NextBatchImpl(&rows));
  if (!has) return false;
  for (const Row& row : rows) batch->AppendRow(row);
  return true;
}

void PhysicalOperator::AttachContext(ExecutionContext* ctx) {
  exec_ctx_ = ctx;
  for (PhysicalOperator* child : children()) child->AttachContext(ctx);
}

std::string PhysicalOperator::ExplainTree(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Describe();
  out += "\n";
  for (const PhysicalOperator* child : children()) {
    out += child->ExplainTree(indent + 1);
  }
  return out;
}

const char* EstimateSourceName(EstimateSource source) {
  switch (source) {
    case EstimateSource::kHistogram:
      return "histogram";
    case EstimateSource::kSketch:
      return "sketch";
    case EstimateSource::kFeedback:
      return "feedback";
    case EstimateSource::kNone:
      break;
  }
  return "";
}

std::string PhysicalOperator::ExplainAnalyzeTree(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Describe();
  char counters[96];
  std::snprintf(counters, sizeof(counters),
                "  (rows=%llu batches=%llu time=%.3fms)",
                static_cast<unsigned long long>(stats_.rows),
                static_cast<unsigned long long>(stats_.batches),
                static_cast<double>(stats_.total_ns()) / 1e6);
  out += counters;
  if (has_estimate()) {
    char est[96];
    if (est_source_ != EstimateSource::kNone) {
      std::snprintf(est, sizeof(est),
                    "  (est=%.0f actual=%llu q-err=%.2f src=%s)", est_rows_,
                    static_cast<unsigned long long>(stats_.rows),
                    QError(est_rows_, static_cast<double>(stats_.rows)),
                    EstimateSourceName(est_source_));
    } else {
      std::snprintf(est, sizeof(est), "  (est=%.0f actual=%llu q-err=%.2f)",
                    est_rows_, static_cast<unsigned long long>(stats_.rows),
                    QError(est_rows_, static_cast<double>(stats_.rows)));
    }
    out += est;
  }
  out += AnalyzeAnnotation();
  out += "\n";
  for (const PhysicalOperator* child : children()) {
    out += child->ExplainAnalyzeTree(indent + 1);
  }
  return out;
}

Result<std::vector<Row>> CollectRows(PhysicalOperator* root) {
  INSIGHT_RETURN_NOT_OK(root->Open());
  std::vector<Row> rows;
  RowBatch batch;
  batch.set_capacity(root->batch_capacity());
  while (true) {
    INSIGHT_ASSIGN_OR_RETURN(bool has, root->NextBatch(&batch));
    if (!has) break;
    rows.reserve(rows.size() + batch.size());
    for (Row& row : batch) rows.push_back(std::move(row));
  }
  root->Close();
  return rows;
}

Result<bool> ChildInput::NextRow(Row* row) {
  if (pos_ >= batch_.size()) {
    const size_t capacity = child_->batch_capacity();
    if (batch_.capacity() != capacity) batch_.set_capacity(capacity);
    INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&batch_));
    pos_ = 0;
    if (!has) return false;
  }
  *row = std::move(batch_[pos_++]);
  return true;
}

// ---------- SeqScanOp ----------

SeqScanOp::SeqScanOp(Table* table, SummaryManager* mgr, bool propagate)
    : table_(table), mgr_(mgr), propagate_(propagate && mgr != nullptr) {}

Status SeqScanOp::OpenImpl() {
  ResetExec();
  pages_skipped_ = 0;
  it_.emplace(table_->Scan(snapshot()));
  if (!zone_pred_.empty() && table_->zone_maps() != nullptr) {
    it_->EnableZonePruning(table_->zone_maps(), zone_pred_, &pages_skipped_);
  }
  return Status::OK();
}

Result<bool> SeqScanOp::NextBatchImpl(RowBatch* batch) {
  while (!batch->full()) {
    Oid oid;
    Tuple tuple;
    if (!it_->Next(&oid, &tuple)) break;
    Row row;
    row.oid = oid;
    row.data = std::move(tuple);
    if (propagate_) {
      INSIGHT_ASSIGN_OR_RETURN(row.summaries,
                               mgr_->GetSummaries(oid, snapshot()));
    }
    batch->Push(std::move(row));
  }
  return !batch->empty();
}

Result<bool> SeqScanOp::NextColumnBatchImpl(ColumnBatch* batch) {
  // Native columnar fill: tuples pivot into the column vectors here, at
  // the storage boundary, and stay columnar through filter/project.
  while (!batch->full()) {
    Oid oid;
    Tuple tuple;
    if (!it_->Next(&oid, &tuple)) break;
    SummarySet summaries;
    if (propagate_) {
      INSIGHT_ASSIGN_OR_RETURN(summaries,
                               mgr_->GetSummaries(oid, snapshot()));
    }
    batch->AppendTuple(oid, tuple, std::move(summaries));
  }
  return !batch->empty();
}

std::string SeqScanOp::AnalyzeAnnotation() const {
  return "  pages_skipped=" + std::to_string(pages_skipped_);
}

std::string SeqScanOp::Describe() const {
  return "SeqScan(" + table_->name() +
         (propagate_ ? ", propagate" : "") + ")";
}

// ---------- Index access ----------

Result<bool> IndexProbe::Fetch(const SummaryIndexHit& hit,
                               const Snapshot& snap, bool propagate,
                               Row* row) const {
  Result<bool> resolved = Resolve(hit, snap, propagate, row);
  if (!resolved.ok()) {
    if (resolved.status().IsNotFound()) return false;  // No visible version.
    return resolved.status();
  }
  bool has_summaries = *resolved;
  if (recheck_reads_summaries_ && !has_summaries) {
    INSIGHT_ASSIGN_OR_RETURN(row->summaries, Summaries(row->oid, snap));
    has_summaries = true;
  }
  if (!Recheck(*row)) return false;
  if (!propagate) {
    row->summaries = SummarySet();
  } else if (!has_summaries) {
    INSIGHT_ASSIGN_OR_RETURN(row->summaries, Summaries(row->oid, snap));
  }
  return true;
}

Result<bool> IndexProbe::Resolve(const SummaryIndexHit& hit,
                                 const Snapshot& snap, bool /*propagate*/,
                                 Row* row) const {
  row->oid = hit.oid;
  INSIGHT_ASSIGN_OR_RETURN(row->data, table_->Get(hit.oid, snap));
  return false;
}

Result<SummarySet> IndexProbe::Summaries(Oid oid, const Snapshot& snap) const {
  return mgr_->GetSummaries(oid, snap);
}

ColumnRangeProbe::ColumnRangeProbe(Table* table, SummaryManager* mgr,
                                   std::string column,
                                   std::optional<Value> lower,
                                   bool lower_inclusive,
                                   std::optional<Value> upper,
                                   bool upper_inclusive)
    : IndexProbe(table, mgr),
      column_(std::move(column)),
      lower_(std::move(lower)),
      lower_inclusive_(lower_inclusive),
      upper_(std::move(upper)),
      upper_inclusive_(upper_inclusive) {
  // Type-class sentinels when a bound is missing.
  const std::optional<Value>& probe = lower_.has_value() ? lower_ : upper_;
  const bool string_typed =
      probe.has_value() && probe->type() == ValueType::kString;
  lower_key_ = lower_.has_value()
                   ? EncodeIndexKey(*lower_)
                   : (string_typed ? MinStringKey() : MinNumericKey());
  upper_key_ = upper_.has_value()
                   ? EncodeIndexKey(*upper_)
                   : (string_typed ? MaxStringKey() : MaxNumericKey());
}

void ColumnRangeProbe::SetPoint(const Value& key) {
  lower_ = upper_ = key;
  lower_inclusive_ = upper_inclusive_ = true;
  lower_key_ = upper_key_ = EncodeIndexKey(key);
}

Status ColumnRangeProbe::Bind() {
  index_ = table_->GetColumnIndex(column_);
  if (index_ == nullptr) {
    return Status::InvalidArgument("no index on " + table_->name() + "." +
                                   column_);
  }
  INSIGHT_ASSIGN_OR_RETURN(col_pos_, table_->schema().IndexOf(column_));
  return Status::OK();
}

Result<std::vector<SummaryIndexHit>> ColumnRangeProbe::Search(
    const Snapshot& /*snap*/) const {
  INSIGHT_ASSIGN_OR_RETURN(
      BTree::Iterator it,
      index_->RangeScan(lower_key_, lower_inclusive_, upper_key_,
                        upper_inclusive_));
  std::vector<SummaryIndexHit> hits;
  for (; it.Valid(); it.Next()) {
    hits.push_back(SummaryIndexHit{0, 0, static_cast<Oid>(it.value())});
  }
  INSIGHT_RETURN_NOT_OK(it.status());
  return hits;
}

bool ColumnRangeProbe::Recheck(const Row& row) const {
  // The visible version may carry a different column value than the
  // version this entry was written for.
  return KeyInRange(EncodeIndexKey(row.data.at(col_pos_)), lower_key_,
                    lower_inclusive_, upper_key_, upper_inclusive_);
}

std::string ColumnRangeProbe::Describe(bool propagate) const {
  std::string out = "IndexScan(" + table_->name() + "." + column_;
  if (lower_.has_value()) {
    out += lower_inclusive_ ? ", >= " : ", > ";
    out += lower_->ToString();
  }
  if (upper_.has_value()) {
    out += upper_inclusive_ ? ", <= " : ", < ";
    out += upper_->ToString();
  }
  if (propagate) out += ", propagate";
  return out + ")";
}

SummaryBTreeProbe::SummaryBTreeProbe(const SummaryBTree* index,
                                     ClassifierProbe probe)
    : IndexProbe(index->mgr()->base(), index->mgr()),
      index_(index),
      probe_(std::move(probe)) {}

Result<std::vector<SummaryIndexHit>> SummaryBTreeProbe::Search(
    const Snapshot& snap) const {
  return index_->Search(probe_, snap);
}

Result<bool> SummaryBTreeProbe::Resolve(const SummaryIndexHit& hit,
                                        const Snapshot& snap, bool propagate,
                                        Row* row) const {
  if (propagate) {
    INSIGHT_ASSIGN_OR_RETURN(row->data,
                             index_->FetchDataTupleWithSummaries(
                                 hit, &row->summaries, &row->oid, snap));
    return true;
  }
  INSIGHT_ASSIGN_OR_RETURN(row->data,
                           index_->FetchDataTuple(hit, &row->oid, snap));
  return false;
}

std::string SummaryBTreeProbe::Describe(bool propagate) const {
  std::string out = "SummaryIndexScan(" + probe_.label;
  if (probe_.lower.has_value()) {
    out += probe_.lower_inclusive ? " >= " : " > ";
    out += std::to_string(*probe_.lower);
  }
  if (probe_.upper.has_value()) {
    out += probe_.upper_inclusive ? " <= " : " < ";
    out += std::to_string(*probe_.upper);
  }
  if (propagate) out += ", propagate";
  out += index_->pointer_mode() == SummaryBTree::PointerMode::kBackward
             ? ", backward-ptrs"
             : ", conventional-ptrs";
  return out + ")";
}

BaselineProbe::BaselineProbe(const BaselineClassifierIndex* index,
                             ClassifierProbe probe,
                             bool reconstruct_summaries)
    : IndexProbe(index->mgr()->base(), index->mgr()),
      index_(index),
      probe_(std::move(probe)),
      reconstruct_summaries_(reconstruct_summaries) {}

Result<std::vector<SummaryIndexHit>> BaselineProbe::Search(
    const Snapshot& snap) const {
  return index_->Search(probe_, snap);
}

Result<SummarySet> BaselineProbe::Summaries(Oid oid,
                                            const Snapshot& snap) const {
  if (!reconstruct_summaries_) return IndexProbe::Summaries(oid, snap);
  // Fig. 12 arm: re-form the object from its normalized primitives.
  INSIGHT_ASSIGN_OR_RETURN(SummaryObject obj,
                           index_->ReconstructObject(oid, snap));
  return SummarySet({std::move(obj)});
}

std::string BaselineProbe::Describe(bool propagate) const {
  std::string out = "BaselineIndexScan(" + probe_.label;
  if (propagate) {
    out += reconstruct_summaries_ ? ", propagate:reconstruct"
                                  : ", propagate:denormalized";
  }
  return out + ")";
}

KeywordProbe::KeywordProbe(const SnippetKeywordIndex* index,
                           std::vector<std::string> keywords)
    : IndexProbe(index->mgr()->base(), index->mgr()),
      index_(index),
      keywords_(std::move(keywords)) {
  recheck_reads_summaries_ = true;
}

Result<std::vector<SummaryIndexHit>> KeywordProbe::Search(
    const Snapshot& /*snap*/) const {
  INSIGHT_ASSIGN_OR_RETURN(std::vector<Oid> oids,
                           index_->SearchAll(keywords_));
  std::vector<SummaryIndexHit> hits;
  hits.reserve(oids.size());
  for (Oid oid : oids) hits.push_back(SummaryIndexHit{0, 0, oid});
  return hits;
}

bool KeywordProbe::Recheck(const Row& row) const {
  const SummaryObject* obj =
      row.summaries.GetSummaryObject(index_->instance_name());
  return obj != nullptr && obj->ContainsUnion(keywords_);
}

std::string KeywordProbe::Describe(bool propagate) const {
  return "KeywordIndexScan(" + Join(keywords_, ", ") +
         (propagate ? ", propagate)" : ")");
}

IndexScanOp::IndexScanOp(std::unique_ptr<IndexProbe> probe, bool propagate)
    : probe_(std::move(probe)),
      propagate_(propagate && probe_->mgr() != nullptr) {}

Status IndexScanOp::OpenImpl() {
  ResetExec();
  pos_ = 0;
  INSIGHT_RETURN_NOT_OK(probe_->Bind());
  INSIGHT_ASSIGN_OR_RETURN(hits_, probe_->Search(snapshot()));
  return Status::OK();
}

Result<bool> IndexScanOp::NextBatchImpl(RowBatch* batch) {
  while (!batch->full() && pos_ < hits_.size()) {
    Row row;
    INSIGHT_ASSIGN_OR_RETURN(
        bool visible, probe_->Fetch(hits_[pos_++], snapshot(), propagate_,
                                    &row));
    if (visible) batch->Push(std::move(row));
  }
  return !batch->empty();
}

std::string VectorSourceOp::Describe() const {
  return "VectorSource(" + std::to_string(rows_.size()) + " rows)";
}

// ---------- Selection family ----------

namespace {

/// Shared batch filter loop for SelectOp / SummarySelectOp: pull child
/// batches, evaluate the predicate batch-wise (amortized column
/// resolution), and move the passing rows into `batch` until it fills.
Result<bool> FilterNextBatch(PhysicalOperator* child,
                             const Expression* predicate, size_t capacity,
                             RowBatch* input, std::vector<uint8_t>* flags,
                             size_t* input_pos, RowBatch* batch) {
  if (input->capacity() != capacity) input->set_capacity(capacity);
  while (!batch->full()) {
    if (*input_pos >= input->size()) {
      INSIGHT_ASSIGN_OR_RETURN(bool has, child->NextBatch(input));
      if (!has) break;
      flags->clear();
      INSIGHT_RETURN_NOT_OK(
          predicate->EvalBoolBatch(*input, child->schema(), flags));
      *input_pos = 0;
    }
    for (; *input_pos < input->size() && !batch->full(); ++*input_pos) {
      if ((*flags)[*input_pos] != 0) {
        batch->Push(std::move(input->rows()[*input_pos]));
      }
    }
  }
  return !batch->empty();
}

}  // namespace

SelectOp::SelectOp(OpPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status SelectOp::OpenImpl() {
  ResetExec();
  input_.Clear();
  input_pos_ = 0;
  return child_->Open();
}

Result<bool> SelectOp::NextColumnBatchImpl(ColumnBatch* batch) {
  // One (possibly short) filtered batch per child batch; loop past
  // batches the predicate empties entirely, since returning false means
  // end-of-stream to the caller.
  while (true) {
    INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextColumnBatch(batch));
    if (!has) return false;
    tri_.clear();
    INSIGHT_RETURN_NOT_OK(
        predicate_->EvalPredColumnar(*batch, child_->schema(), &tri_));
    // The filter decision is where NULL finally collapses to false (SQL
    // WHERE semantics); Kleene NULLs survive up to this point.
    for (uint8_t& t : tri_) t = t == kTriTrue ? 1 : 0;
    batch->Filter(tri_);
    if (!batch->empty()) return true;
  }
}

Result<bool> SelectOp::NextBatchImpl(RowBatch* batch) {
  if (child_->ColumnarCapable()) {
    // Columnar filter, then pivot only the survivors out to rows — this
    // is the row/column boundary for plans with a row-based consumer
    // above the filter.
    INSIGHT_ASSIGN_OR_RETURN(bool has, NextColumnBatchImpl(&col_scratch_));
    if (!has) return false;
    col_scratch_.ToRowBatch(batch);
    return true;
  }
  return FilterNextBatch(child_.get(), predicate_.get(), batch_capacity(),
                         &input_, &flags_, &input_pos_, batch);
}

std::string SelectOp::Describe() const {
  return "Select[\xcf\x83](" + predicate_->ToString() + ")";
}

SummarySelectOp::SummarySelectOp(OpPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status SummarySelectOp::OpenImpl() {
  ResetExec();
  input_.Clear();
  input_pos_ = 0;
  return child_->Open();
}

Result<bool> SummarySelectOp::NextBatchImpl(RowBatch* batch) {
  return FilterNextBatch(child_.get(), predicate_.get(), batch_capacity(),
                         &input_, &flags_, &input_pos_, batch);
}

std::string SummarySelectOp::Describe() const {
  return "SummarySelect[S](" + predicate_->ToString() + ")";
}

bool ObjectPredicate::Matches(const SummaryObject& obj) const {
  if (instance_name.has_value() &&
      !EqualsIgnoreCase(obj.instance_name, *instance_name)) {
    return false;
  }
  if (type.has_value() && obj.type != *type) return false;
  if (custom != nullptr && !custom(obj)) return false;
  return true;
}

std::string ObjectPredicate::ToString() const {
  std::vector<std::string> parts;
  if (instance_name.has_value()) {
    parts.push_back("getSummaryName() = '" + *instance_name + "'");
  }
  if (type.has_value()) {
    parts.push_back(std::string("getSummaryType() = '") +
                    SummaryTypeToString(*type) + "'");
  }
  if (custom != nullptr) parts.push_back("<custom>");
  return parts.empty() ? "true" : Join(parts, " AND ");
}

SummaryFilterOp::SummaryFilterOp(OpPtr child, ObjectPredicate predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status SummaryFilterOp::OpenImpl() {
  ResetExec();
  return child_->Open();
}

Result<bool> SummaryFilterOp::NextBatchImpl(RowBatch* batch) {
  // 1:1 transform: filter each row's summary set in place.
  INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
  if (!has) return false;
  for (Row& row : *batch) {
    std::vector<SummaryObject> kept;
    for (SummaryObject& obj : row.summaries.objects()) {
      if (predicate_.Matches(obj)) kept.push_back(std::move(obj));
    }
    row.summaries = SummarySet(std::move(kept));
  }
  return true;
}

std::string SummaryFilterOp::Describe() const {
  return "SummaryFilter[F](" + predicate_.ToString() + ")";
}

// ---------- Projection ----------

ProjectOp::ProjectOp(OpPtr child, std::vector<std::string> columns,
                     AnnotationResolver resolver)
    : child_(std::move(child)),
      columns_(std::move(columns)),
      resolver_(std::move(resolver)) {
  for (const std::string& name : columns_) {
    auto idx = child_->schema().IndexOf(name);
    INSIGHT_CHECK(idx.ok()) << "projection of unknown column " << name;
    indices_.push_back(*idx);
  }
  schema_ = child_->schema().Project(indices_);
}

Status ProjectOp::OpenImpl() {
  ResetExec();
  return child_->Open();
}

Result<bool> ProjectOp::NextBatchImpl(RowBatch* batch) {
  INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
  if (!has) return false;
  for (Row& row : *batch) {
    row.data = row.data.Project(indices_);
    if (!row.summaries.empty()) {
      INSIGHT_ASSIGN_OR_RETURN(
          row.summaries,
          ProjectSummaries(row.summaries, indices_, resolver_));
    }
  }
  return true;
}

Result<bool> ProjectOp::NextColumnBatchImpl(ColumnBatch* batch) {
  if (!child_->ColumnarCapable()) {
    return PhysicalOperator::NextColumnBatchImpl(batch);
  }
  INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextColumnBatch(&col_input_));
  if (!has) return false;
  // Column-subset projection: the kept columns move, nothing pivots.
  batch->AssumeProjected(std::move(col_input_), indices_);
  for (SummarySet& s : batch->summaries()) {
    if (s.empty()) continue;
    auto projected = ProjectSummaries(s, indices_, resolver_);
    if (!projected.ok()) return projected.status();
    s = std::move(projected.ValueOrDie());
  }
  return true;
}

std::string ProjectOp::Describe() const {
  return "Project[\xcf\x80](" + Join(columns_, ", ") + ")";
}

RenameOp::RenameOp(OpPtr child, const std::string& alias)
    : child_(std::move(child)), alias_(alias) {
  for (const Column& col : child_->schema().columns()) {
    // Re-qualify: strip any existing prefix, then apply the alias.
    const size_t dot = col.name.rfind('.');
    const std::string base =
        dot == std::string::npos ? col.name : col.name.substr(dot + 1);
    schema_.AddColumn({alias_ + "." + base, col.type}).ok();
  }
}

Result<bool> LimitOp::NextBatchImpl(RowBatch* batch) {
  if (emitted_ >= limit_) return false;
  INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
  if (!has) return false;
  batch->Truncate(static_cast<size_t>(limit_ - emitted_));
  emitted_ += batch->size();
  return !batch->empty();
}

Result<bool> LimitOp::NextColumnBatchImpl(ColumnBatch* batch) {
  if (emitted_ >= limit_) return false;
  INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextColumnBatch(batch));
  if (!has) return false;
  batch->Truncate(static_cast<size_t>(limit_ - emitted_));
  emitted_ += batch->size();
  return !batch->empty();
}

std::string LimitOp::Describe() const {
  return "Limit(" + std::to_string(limit_) + ")";
}

}  // namespace insight
