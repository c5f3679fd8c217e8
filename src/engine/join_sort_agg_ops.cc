#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "common/string_util.h"
#include "engine/operators.h"
#include "index/key_codec.h"

namespace insight {

// ---------- NestedLoopJoinOp ----------

NestedLoopJoinOp::NestedLoopJoinOp(OpPtr left, OpPtr right, ExprPtr predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)),
      left_input_(left_.get()) {
  schema_ = Schema::Concat(left_->schema(), right_->schema());
}

Status NestedLoopJoinOp::OpenImpl() {
  ResetExec();
  INSIGHT_RETURN_NOT_OK(left_->Open());
  left_input_.Reset();
  INSIGHT_ASSIGN_OR_RETURN(right_rows_, CollectRows(right_.get()));
  left_valid_ = false;
  right_pos_ = 0;
  return Status::OK();
}

Result<bool> NestedLoopJoinOp::NextBatchImpl(RowBatch* batch) {
  const size_t left_arity = left_->schema().num_columns();
  while (!batch->full()) {
    if (!left_valid_) {
      INSIGHT_ASSIGN_OR_RETURN(bool has, left_input_.NextRow(&current_left_));
      if (!has) break;
      left_valid_ = true;
      right_pos_ = 0;
    }
    while (right_pos_ < right_rows_.size() && !batch->full()) {
      const Row& right = right_rows_[right_pos_++];
      Row candidate;
      candidate.data = Tuple::Concat(current_left_.data, right.data);
      // Evaluate the data predicate before paying for the summary merge.
      INSIGHT_ASSIGN_OR_RETURN(bool pass,
                               predicate_->EvalBool(candidate, schema_));
      if (!pass) continue;
      INSIGHT_ASSIGN_OR_RETURN(
          candidate.summaries,
          MergeSummaries(current_left_.summaries, right.summaries,
                         left_arity));
      batch->Push(std::move(candidate));
    }
    if (right_pos_ >= right_rows_.size()) left_valid_ = false;
  }
  return !batch->empty();
}

void NestedLoopJoinOp::Close() {
  left_->Close();
  right_rows_.clear();
}

std::string NestedLoopJoinOp::Describe() const {
  return "NestedLoopJoin(" + predicate_->ToString() + ")";
}

// ---------- IndexNLJoinOp ----------

IndexNLJoinOp::IndexNLJoinOp(OpPtr outer, Table* inner,
                             std::string inner_column, ExprPtr outer_key,
                             SummaryManager* inner_mgr, bool propagate_inner)
    : outer_(std::move(outer)),
      inner_(inner, inner_mgr, std::move(inner_column), std::nullopt, true,
             std::nullopt, true),
      outer_key_(std::move(outer_key)),
      propagate_inner_(propagate_inner && inner_mgr != nullptr),
      outer_input_(outer_.get()) {
  schema_ = Schema::Concat(outer_->schema(), inner->schema());
}

Status IndexNLJoinOp::OpenImpl() {
  ResetExec();
  INSIGHT_RETURN_NOT_OK(inner_.Bind());
  outer_valid_ = false;
  match_pos_ = 0;
  matches_.clear();
  outer_input_.Reset();
  return outer_->Open();
}

Result<bool> IndexNLJoinOp::NextBatchImpl(RowBatch* batch) {
  const size_t outer_arity = outer_->schema().num_columns();
  while (!batch->full()) {
    if (!outer_valid_) {
      INSIGHT_ASSIGN_OR_RETURN(bool has,
                               outer_input_.NextRow(&current_outer_));
      if (!has) break;
      outer_valid_ = true;
      INSIGHT_ASSIGN_OR_RETURN(
          Value key, outer_key_->Eval(current_outer_, outer_->schema()));
      inner_.SetPoint(key);
      INSIGHT_ASSIGN_OR_RETURN(matches_, inner_.Search(snapshot()));
      match_pos_ = 0;
    }
    while (match_pos_ < matches_.size() && !batch->full()) {
      Row inner;
      INSIGHT_ASSIGN_OR_RETURN(
          bool visible, inner_.Fetch(matches_[match_pos_++], snapshot(),
                                     propagate_inner_, &inner));
      if (!visible) continue;
      Row row;
      row.data = Tuple::Concat(current_outer_.data, inner.data);
      INSIGHT_ASSIGN_OR_RETURN(
          row.summaries,
          MergeSummaries(current_outer_.summaries, inner.summaries,
                         outer_arity));
      batch->Push(std::move(row));
    }
    if (match_pos_ >= matches_.size()) outer_valid_ = false;
  }
  return !batch->empty();
}

std::string IndexNLJoinOp::Describe() const {
  return "IndexNLJoin(" + inner_.table()->name() + "." + inner_.column() +
         " = " + outer_key_->ToString() + ")";
}

// ---------- HashJoinOp ----------

HashJoinOp::HashJoinOp(OpPtr left, OpPtr right, std::string left_key,
                       std::string right_key, ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      residual_(std::move(residual)),
      left_input_(left_.get()) {
  schema_ = Schema::Concat(left_->schema(), right_->schema());
}

Status HashJoinOp::OpenImpl() {
  ResetExec();
  INSIGHT_ASSIGN_OR_RETURN(left_key_idx_,
                           left_->schema().IndexOf(left_key_));
  INSIGHT_ASSIGN_OR_RETURN(right_key_idx_,
                           right_->schema().IndexOf(right_key_));
  INSIGHT_RETURN_NOT_OK(left_->Open());
  INSIGHT_RETURN_NOT_OK(right_->Open());
  table_.clear();
  // Drain the build side batch-at-a-time.
  RowBatch build;
  build.set_capacity(batch_capacity());
  while (true) {
    INSIGHT_ASSIGN_OR_RETURN(bool has, right_->NextBatch(&build));
    if (!has) break;
    for (Row& row : build) {
      const Value& key = row.data.at(right_key_idx_);
      if (!key.is_null()) {
        table_[key.Hash()].push_back(std::move(row));
      }
    }
  }
  right_->Close();
  left_valid_ = false;
  bucket_ = nullptr;
  left_input_.Reset();
  return Status::OK();
}

Result<bool> HashJoinOp::NextBatchImpl(RowBatch* batch) {
  const size_t left_arity = left_->schema().num_columns();
  while (!batch->full()) {
    if (!left_valid_) {
      INSIGHT_ASSIGN_OR_RETURN(bool has, left_input_.NextRow(&current_left_));
      if (!has) break;
      left_valid_ = true;
      bucket_ = nullptr;
      bucket_pos_ = 0;
      const Value& key = current_left_.data.at(left_key_idx_);
      if (!key.is_null()) {
        auto it = table_.find(key.Hash());
        if (it != table_.end()) bucket_ = &it->second;
      }
    }
    while (bucket_ != nullptr && bucket_pos_ < bucket_->size() &&
           !batch->full()) {
      const Row& right = (*bucket_)[bucket_pos_++];
      // Re-check equality (hash buckets may mix values).
      if (current_left_.data.at(left_key_idx_)
              .Compare(right.data.at(right_key_idx_)) != 0) {
        continue;
      }
      Row candidate;
      candidate.data = Tuple::Concat(current_left_.data, right.data);
      if (residual_ != nullptr) {
        INSIGHT_ASSIGN_OR_RETURN(bool pass,
                                 residual_->EvalBool(candidate, schema_));
        if (!pass) continue;
      }
      INSIGHT_ASSIGN_OR_RETURN(
          candidate.summaries,
          MergeSummaries(current_left_.summaries, right.summaries,
                         left_arity));
      batch->Push(std::move(candidate));
    }
    if (bucket_ == nullptr || bucket_pos_ >= bucket_->size()) {
      left_valid_ = false;
    }
  }
  return !batch->empty();
}

void HashJoinOp::Close() {
  left_->Close();
  table_.clear();
}

std::string HashJoinOp::Describe() const {
  std::string out = "HashJoin(" + left_key_ + " = " + right_key_;
  if (residual_ != nullptr) out += " AND " + residual_->ToString();
  return out + ")";
}

// ---------- SummaryJoinOp ----------

std::string SummaryJoinPredicate::ToString() const {
  if (merged_form()) return "merged: " + merged_expr->ToString();
  return left_expr->ToString() + " " + CompareOpToString(op) + " " +
         right_expr->ToString();
}

SummaryJoinPredicate SummaryJoinPredicate::Clone() const {
  SummaryJoinPredicate out;
  if (left_expr != nullptr) out.left_expr = left_expr->Clone();
  out.op = op;
  if (right_expr != nullptr) out.right_expr = right_expr->Clone();
  if (merged_expr != nullptr) out.merged_expr = merged_expr->Clone();
  return out;
}

void SummaryJoinPredicate::CollectInstances(
    std::vector<std::string>* out) const {
  if (left_expr != nullptr) left_expr->CollectInstances(out);
  if (right_expr != nullptr) right_expr->CollectInstances(out);
  if (merged_expr != nullptr) merged_expr->CollectInstances(out);
}

SummaryJoinOp::SummaryJoinOp(OpPtr left, OpPtr right,
                             SummaryJoinPredicate predicate,
                             ExprPtr data_predicate, std::string left_key,
                             std::string right_key)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)),
      left_input_(left_.get()),
      data_predicate_(std::move(data_predicate)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)) {
  schema_ = Schema::Concat(left_->schema(), right_->schema());
}

SummaryJoinOp::SummaryJoinOp(OpPtr left, const SummaryBTree* right_index,
                             std::string label_instance, std::string label,
                             bool propagate_right)
    : left_(std::move(left)),
      left_input_(left_.get()),
      right_probe_(std::make_unique<SummaryBTreeProbe>(
          right_index, ClassifierProbe())),  // Re-aimed per left row.
      label_instance_(std::move(label_instance)),
      label_(std::move(label)),
      propagate_right_(propagate_right) {
  schema_ = Schema::Concat(left_->schema(), right_probe_->table()->schema());
}

std::vector<PhysicalOperator*> SummaryJoinOp::children() const {
  if (right_ != nullptr) return {left_.get(), right_.get()};
  return {left_.get()};
}

Status SummaryJoinOp::OpenImpl() {
  ResetExec();
  left_valid_ = false;
  left_arity_ = left_->schema().num_columns();
  INSIGHT_RETURN_NOT_OK(left_->Open());
  left_input_.Reset();
  if (right_ == nullptr) return Status::OK();
  INSIGHT_ASSIGN_OR_RETURN(right_rows_, CollectRows(right_.get()));
  right_values_.assign(right_rows_.size(), std::nullopt);
  buckets_.clear();
  all_rows_.clear();
  if (left_key_.empty()) {
    for (size_t r = 0; r < right_rows_.size(); ++r) all_rows_.push_back(r);
    return Status::OK();
  }
  INSIGHT_ASSIGN_OR_RETURN(left_key_idx_, left_->schema().IndexOf(left_key_));
  INSIGHT_ASSIGN_OR_RETURN(right_key_idx_,
                           right_->schema().IndexOf(right_key_));
  for (size_t r = 0; r < right_rows_.size(); ++r) {
    const Value& key = right_rows_[r].data.at(right_key_idx_);
    if (!key.is_null()) buckets_[key.Hash()].push_back(r);
  }
  return Status::OK();
}

Result<bool> SummaryJoinOp::NextBatchImpl(RowBatch* batch) {
  while (!batch->full()) {
    if (!left_valid_) {
      INSIGHT_ASSIGN_OR_RETURN(bool has, left_input_.NextRow(&current_left_));
      if (!has) break;
      if (right_ == nullptr) {
        INSIGHT_RETURN_NOT_OK(ProbeIndex());
      } else {
        left_value_.reset();
        candidate_pos_ = 0;
        candidates_ = &all_rows_;
        if (!left_key_.empty()) {
          candidates_ = nullptr;
          const Value& key = current_left_.data.at(left_key_idx_);
          if (!key.is_null()) {
            auto it = buckets_.find(key.Hash());
            if (it != buckets_.end()) candidates_ = &it->second;
          }
        }
      }
    }
    if (right_ != nullptr) {
      INSIGHT_ASSIGN_OR_RETURN(left_valid_, FillCandidates(batch));
    } else {
      INSIGHT_ASSIGN_OR_RETURN(left_valid_, FillIndex(batch));
    }
  }
  return !batch->empty();
}

Result<bool> SummaryJoinOp::FillCandidates(RowBatch* batch) {
  if (candidates_ == nullptr) return false;
  while (candidate_pos_ < candidates_->size() && !batch->full()) {
    Row out;
    INSIGHT_ASSIGN_OR_RETURN(bool match,
                             JoinPair((*candidates_)[candidate_pos_++], &out));
    if (match) batch->Push(std::move(out));
  }
  return candidate_pos_ < candidates_->size();
}

Result<bool> SummaryJoinOp::JoinPair(size_t r, Row* out) {
  const Row& right = right_rows_[r];
  // Re-check the key (hash buckets may mix values).
  if (!left_key_.empty() &&
      current_left_.data.at(left_key_idx_)
              .Compare(right.data.at(right_key_idx_)) != 0) {
    return false;
  }
  // Data conjuncts before any summary work.
  if (data_predicate_ != nullptr) {
    out->data = Tuple::Concat(current_left_.data, right.data);
    INSIGHT_ASSIGN_OR_RETURN(bool pass,
                             data_predicate_->EvalBool(*out, schema_));
    if (!pass) return false;
  }
  if (!predicate_.merged_form()) {
    if (!left_value_.has_value()) {
      INSIGHT_ASSIGN_OR_RETURN(
          left_value_,
          predicate_.left_expr->Eval(current_left_, left_->schema()));
    }
    std::optional<Value>& right_value = right_values_[r];
    if (!right_value.has_value()) {
      INSIGHT_ASSIGN_OR_RETURN(
          right_value, predicate_.right_expr->Eval(right, right_->schema()));
    }
    if (left_value_->is_null() || right_value->is_null() ||
        !EvalCompare(predicate_.op, left_value_->Compare(*right_value))) {
      return false;
    }
  }
  if (data_predicate_ == nullptr) {
    out->data = Tuple::Concat(current_left_.data, right.data);
  }
  INSIGHT_ASSIGN_OR_RETURN(
      out->summaries,
      MergeSummaries(current_left_.summaries, right.summaries, left_arity_));
  if (predicate_.merged_form()) {
    return predicate_.merged_expr->EvalBool(*out, schema_);
  }
  return true;
}

Status SummaryJoinOp::ProbeIndex() {
  hits_.clear();
  hit_pos_ = 0;
  // Probe: right tuples whose label count equals the left tuple's.
  const SummaryObject* obj =
      current_left_.summaries.GetSummaryObject(label_instance_);
  if (obj == nullptr) return Status::OK();
  auto count = obj->GetLabelValue(label_);
  if (!count.ok()) return Status::OK();
  right_probe_->set_probe(ClassifierProbe::Equal(label_, *count));
  INSIGHT_ASSIGN_OR_RETURN(hits_, right_probe_->Search(snapshot()));
  return Status::OK();
}

Result<bool> SummaryJoinOp::FillIndex(RowBatch* batch) {
  while (hit_pos_ < hits_.size() && !batch->full()) {
    Row right;
    INSIGHT_ASSIGN_OR_RETURN(
        bool visible, right_probe_->Fetch(hits_[hit_pos_++], snapshot(),
                                          propagate_right_, &right));
    if (!visible) continue;
    Row row;
    row.data = Tuple::Concat(current_left_.data, right.data);
    INSIGHT_ASSIGN_OR_RETURN(
        row.summaries,
        MergeSummaries(current_left_.summaries, right.summaries,
                       left_arity_));
    batch->Push(std::move(row));
  }
  return hit_pos_ < hits_.size();
}

void SummaryJoinOp::Close() {
  left_->Close();
  right_rows_.clear();
  right_values_.clear();
  buckets_.clear();
  all_rows_.clear();
  candidates_ = nullptr;
}

std::string SummaryJoinOp::Describe() const {
  if (right_ == nullptr) {
    return "SummaryJoin[J](" + label_instance_ + "." + label_ +
           " equality, index)";
  }
  std::string out = "SummaryJoin[J](" + predicate_.ToString();
  if (data_predicate_ != nullptr) out += " AND " + data_predicate_->ToString();
  if (left_key_.empty()) return out + ", nested-loop)";
  return out + ", hash " + left_key_ + " = " + right_key_ + ")";
}

// ---------- SortOp ----------

SortOp::SortOp(OpPtr child, std::vector<SortKey> keys, Mode mode,
               StorageManager* storage, BufferPool* pool,
               size_t memory_budget_bytes)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      mode_(mode),
      storage_(storage),
      pool_(pool),
      memory_budget_(memory_budget_bytes) {}

SortOp::SortOp(ExecutionContext* ctx, OpPtr child, std::vector<SortKey> keys,
               Mode mode, size_t memory_budget_bytes)
    : SortOp(std::move(child), std::move(keys), mode, ctx->storage(),
             ctx->pool(), memory_budget_bytes) {
  exec_ctx_ = ctx;
}

bool SortOp::summary_based() const {
  for (const SortKey& key : keys_) {
    if (key.expr->IsSummaryBased()) return true;
  }
  return false;
}

Result<int> SortOp::CompareRows(const Row& a, const Row& b) const {
  for (const SortKey& key : keys_) {
    INSIGHT_ASSIGN_OR_RETURN(Value va, key.expr->Eval(a, child_->schema()));
    INSIGHT_ASSIGN_OR_RETURN(Value vb, key.expr->Eval(b, child_->schema()));
    int c = va.Compare(vb);
    if (key.descending) c = -c;
    if (c != 0) return c;
  }
  return 0;
}

namespace {
std::atomic<uint64_t> g_spill_counter{1};
}  // namespace

Status SortOp::SpillRun(std::vector<Row>* run) {
  // Sort the run, then write it to a fresh temporary heap file.
  Status sort_status;
  std::stable_sort(run->begin(), run->end(),
                   [&](const Row& a, const Row& b) {
                     auto c = CompareRows(a, b);
                     if (!c.ok()) {
                       sort_status = c.status();
                       return false;
                     }
                     return *c < 0;
                   });
  INSIGHT_RETURN_NOT_OK(sort_status);
  INSIGHT_ASSIGN_OR_RETURN(
      FileId file,
      storage_->CreateFile("tmp.sort." +
                           std::to_string(g_spill_counter.fetch_add(1))));
  Run r;
  r.file = std::make_unique<HeapFile>(pool_, file);
  for (const Row& row : *run) {
    std::string buf;
    row.Serialize(&buf);
    INSIGHT_RETURN_NOT_OK(r.file->Insert(buf).status());
  }
  runs_.push_back(std::move(r));
  ++runs_spilled_;
  run->clear();
  return Status::OK();
}

Status SortOp::OpenImpl() {
  ResetExec();
  pos_ = 0;
  sorted_.clear();
  runs_.clear();
  INSIGHT_RETURN_NOT_OK(child_->Open());
  if (mode_ == Mode::kExternal &&
      (storage_ == nullptr || pool_ == nullptr)) {
    return Status::InvalidArgument("external sort needs storage + pool");
  }
  size_t bytes = 0;
  std::vector<Row> buffer;
  RowBatch input;
  input.set_capacity(batch_capacity());
  while (true) {
    INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&input));
    if (!has) break;
    for (Row& row : input) {
      if (mode_ == Mode::kExternal) {
        std::string tmp;
        row.Serialize(&tmp);
        bytes += tmp.size();
      }
      buffer.push_back(std::move(row));
      if (mode_ == Mode::kExternal && bytes > memory_budget_) {
        INSIGHT_RETURN_NOT_OK(SpillRun(&buffer));
        bytes = 0;
      }
    }
  }
  child_->Close();

  if (mode_ == Mode::kMemory || runs_.empty()) {
    Status sort_status;
    std::stable_sort(buffer.begin(), buffer.end(),
                     [&](const Row& a, const Row& b) {
                       auto c = CompareRows(a, b);
                       if (!c.ok()) {
                         sort_status = c.status();
                         return false;
                       }
                       return *c < 0;
                     });
    INSIGHT_RETURN_NOT_OK(sort_status);
    sorted_ = std::move(buffer);
    return Status::OK();
  }
  // Final partial run, then prime the k-way merge heads.
  if (!buffer.empty()) INSIGHT_RETURN_NOT_OK(SpillRun(&buffer));
  for (Run& run : runs_) {
    run.it.emplace(run.file->Scan());
    RowLocation loc;
    std::string rec;
    if (run.it->Next(&loc, &rec)) {
      INSIGHT_ASSIGN_OR_RETURN(Row head, Row::Deserialize(rec));
      run.head = std::move(head);
    }
  }
  return Status::OK();
}

Result<bool> SortOp::MergeNext(Row* row) {
  // K-way merge: pick the smallest live head.
  size_t best = runs_.size();
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (!runs_[i].head.has_value()) continue;
    if (best == runs_.size()) {
      best = i;
      continue;
    }
    INSIGHT_ASSIGN_OR_RETURN(int c,
                             CompareRows(*runs_[i].head, *runs_[best].head));
    if (c < 0) best = i;
  }
  if (best == runs_.size()) return false;
  *row = std::move(*runs_[best].head);
  runs_[best].head.reset();
  RowLocation loc;
  std::string rec;
  if (runs_[best].it->Next(&loc, &rec)) {
    INSIGHT_ASSIGN_OR_RETURN(Row head, Row::Deserialize(rec));
    runs_[best].head = std::move(head);
  }
  return true;
}

Result<bool> SortOp::NextBatchImpl(RowBatch* batch) {
  if (runs_.empty()) {
    while (!batch->full() && pos_ < sorted_.size()) {
      batch->Push(sorted_[pos_++]);
    }
    return !batch->empty();
  }
  Row row;
  while (!batch->full()) {
    INSIGHT_ASSIGN_OR_RETURN(bool has, MergeNext(&row));
    if (!has) break;
    batch->Push(std::move(row));
    row = Row();
  }
  return !batch->empty();
}

std::string SortOp::Describe() const {
  std::string out = summary_based() ? "SummarySort[O](" : "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys_[i].expr->ToString();
    if (keys_[i].descending) out += " DESC";
  }
  out += mode_ == Mode::kMemory ? ", memory)" : ", external)";
  return out;
}

// ---------- HashAggregateOp ----------

HashAggregateOp::HashAggregateOp(OpPtr child,
                                 std::vector<std::string> group_columns,
                                 std::vector<AggregateSpec> aggregates,
                                 AnnotationResolver resolver)
    : child_(std::move(child)),
      group_columns_(std::move(group_columns)),
      aggregates_(std::move(aggregates)),
      resolver_(std::move(resolver)) {
  for (const std::string& name : group_columns_) {
    auto idx = child_->schema().IndexOf(name);
    INSIGHT_CHECK(idx.ok()) << "group by unknown column " << name;
    schema_.AddColumn(child_->schema().column(*idx)).ok();
  }
  for (const AggregateSpec& agg : aggregates_) {
    const ValueType type = agg.kind == AggregateSpec::Kind::kAvg
                               ? ValueType::kDouble
                               : ValueType::kInt64;
    schema_.AddColumn({agg.output_name, type}).ok();
  }
}

Status HashAggregateOp::OpenImpl() {
  ResetExec();
  pos_ = 0;
  results_.clear();
  INSIGHT_RETURN_NOT_OK(child_->Open());

  std::vector<size_t> group_indices;
  for (const std::string& name : group_columns_) {
    INSIGHT_ASSIGN_OR_RETURN(size_t idx, child_->schema().IndexOf(name));
    group_indices.push_back(idx);
  }

  struct GroupState {
    Tuple key;
    SummarySet summaries;
    std::vector<double> sums;
    std::vector<Value> mins;
    std::vector<Value> maxs;
    std::vector<int64_t> counts;  // Per-aggregate non-null counts.
    int64_t rows = 0;
    size_t order;  // First-seen order for deterministic output.
  };
  std::unordered_map<std::string, GroupState> groups;
  std::vector<std::string> group_order;

  auto accumulate = [&](const Row& row) -> Status {
    Tuple key = row.data.Project(group_indices);
    std::string key_bytes;
    key.Serialize(&key_bytes);
    auto [it, inserted] = groups.try_emplace(key_bytes);
    GroupState& state = it->second;
    if (inserted) {
      state.key = key;
      state.sums.assign(aggregates_.size(), 0.0);
      state.mins.assign(aggregates_.size(), Value::Null());
      state.maxs.assign(aggregates_.size(), Value::Null());
      state.counts.assign(aggregates_.size(), 0);
      state.order = group_order.size();
      group_order.push_back(key_bytes);
    }
    ++state.rows;
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const AggregateSpec& spec = aggregates_[a];
      if (spec.arg == nullptr) continue;  // COUNT(*) uses state.rows.
      INSIGHT_ASSIGN_OR_RETURN(Value v,
                               spec.arg->Eval(row, child_->schema()));
      if (v.is_null()) continue;
      ++state.counts[a];
      switch (spec.kind) {
        case AggregateSpec::Kind::kSum:
        case AggregateSpec::Kind::kAvg:
          state.sums[a] += v.AsDouble();
          break;
        case AggregateSpec::Kind::kMin:
          if (state.mins[a].is_null() || v.Compare(state.mins[a]) < 0) {
            state.mins[a] = v;
          }
          break;
        case AggregateSpec::Kind::kMax:
          if (state.maxs[a].is_null() || v.Compare(state.maxs[a]) > 0) {
            state.maxs[a] = v;
          }
          break;
        case AggregateSpec::Kind::kCount:
          break;
      }
    }
    // Summary propagation: project the member's set onto the grouping
    // columns, then merge into the group's set (project-before-merge).
    if (!row.summaries.empty()) {
      INSIGHT_ASSIGN_OR_RETURN(
          SummarySet projected,
          ProjectSummaries(row.summaries, group_indices, resolver_));
      INSIGHT_ASSIGN_OR_RETURN(
          state.summaries, MergeSummaries(state.summaries, projected, 0));
    }
    return Status::OK();
  };

  RowBatch input;
  input.set_capacity(batch_capacity());
  while (true) {
    INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&input));
    if (!has) break;
    for (const Row& row : input) INSIGHT_RETURN_NOT_OK(accumulate(row));
  }
  child_->Close();

  for (const std::string& key_bytes : group_order) {
    GroupState& state = groups[key_bytes];
    Row out;
    out.data = state.key;
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const AggregateSpec& spec = aggregates_[a];
      switch (spec.kind) {
        case AggregateSpec::Kind::kCount:
          out.data.Append(Value::Int(spec.arg == nullptr ? state.rows
                                                         : state.counts[a]));
          break;
        case AggregateSpec::Kind::kSum:
          out.data.Append(Value::Int(static_cast<int64_t>(state.sums[a])));
          break;
        case AggregateSpec::Kind::kAvg:
          out.data.Append(state.counts[a] == 0
                              ? Value::Null()
                              : Value::Double(state.sums[a] /
                                              state.counts[a]));
          break;
        case AggregateSpec::Kind::kMin:
          out.data.Append(state.mins[a]);
          break;
        case AggregateSpec::Kind::kMax:
          out.data.Append(state.maxs[a]);
          break;
      }
    }
    out.summaries = std::move(state.summaries);
    results_.push_back(std::move(out));
  }
  return Status::OK();
}

Result<bool> HashAggregateOp::NextBatchImpl(RowBatch* batch) {
  while (!batch->full() && pos_ < results_.size()) {
    batch->Push(results_[pos_++]);
  }
  return !batch->empty();
}

std::string HashAggregateOp::Describe() const {
  std::string out = "HashAggregate(group by " + Join(group_columns_, ", ");
  out += "; " + std::to_string(aggregates_.size()) + " aggregates)";
  return out;
}

// ---------- DistinctOp ----------

DistinctOp::DistinctOp(OpPtr child) : child_(std::move(child)) {}

Status DistinctOp::OpenImpl() {
  ResetExec();
  pos_ = 0;
  INSIGHT_ASSIGN_OR_RETURN(results_, CollectRows(child_.get()));
  // Compact in place: first occurrences move forward, duplicates merge
  // their summaries into the kept row.
  std::unordered_map<std::string, size_t> seen;
  size_t kept_count = 0;
  for (size_t i = 0; i < results_.size(); ++i) {
    std::string key;
    results_[i].data.Serialize(&key);
    auto it = seen.find(key);
    if (it == seen.end()) {
      seen.emplace(std::move(key), kept_count);
      if (i != kept_count) results_[kept_count] = std::move(results_[i]);
      ++kept_count;
    } else {
      Row& kept = results_[it->second];
      INSIGHT_ASSIGN_OR_RETURN(
          kept.summaries,
          MergeSummaries(kept.summaries, results_[i].summaries, 0));
    }
  }
  results_.resize(kept_count);
  return Status::OK();
}

Result<bool> DistinctOp::NextBatchImpl(RowBatch* batch) {
  while (!batch->full() && pos_ < results_.size()) {
    batch->Push(results_[pos_++]);
  }
  return !batch->empty();
}

std::string DistinctOp::Describe() const { return "Distinct"; }

}  // namespace insight
