#include "sindex/keyword_index.h"

#include <algorithm>
#include <atomic>

#include "common/string_util.h"

namespace insight {

namespace {
// Distinguishes multiple indexes built over the same instance (e.g. a
// bulk rebuild next to the live one in tests/benches).
std::atomic<uint64_t> g_kw_index_counter{1};
}  // namespace

Result<std::unique_ptr<SnippetKeywordIndex>> SnippetKeywordIndex::Create(
    StorageManager* storage, BufferPool* pool, SummaryManager* mgr,
    const std::string& instance_name, Options options) {
  INSIGHT_ASSIGN_OR_RETURN(const SummaryInstance* inst,
                           mgr->FindInstance(instance_name));
  if (inst->type() != SummaryType::kSnippet) {
    return Status::InvalidArgument(
        "keyword index applies to Snippet-type instances; " + instance_name +
        " is a " + SummaryTypeToString(inst->type()) + " instance");
  }
  auto index = std::unique_ptr<SnippetKeywordIndex>(
      new SnippetKeywordIndex(storage, mgr));
  index->instance_id_ = inst->id();
  index->instance_name_ = inst->name();
  INSIGHT_ASSIGN_OR_RETURN(
      index->file_,
      storage->CreateFile(mgr->base()->name() + ".kw." +
                          ToLower(instance_name) + "." +
                          std::to_string(g_kw_index_counter.fetch_add(1)) +
                          ".idx"));
  INSIGHT_ASSIGN_OR_RETURN(BTree tree, BTree::Create(pool, index->file_));
  index->tree_ = std::make_unique<BTree>(std::move(tree));

  if (options.bulk_build) {
    SnippetKeywordIndex* raw = index.get();
    INSIGHT_RETURN_NOT_OK(mgr->ForEachSummaryRow(
        [raw](Oid oid, const SummarySet& set) -> Status {
          for (const SummaryObject& obj : set.objects()) {
            if (obj.instance_id != raw->instance_id_) continue;
            INSIGHT_RETURN_NOT_OK(raw->OnObjectChanged(oid, nullptr, &obj));
          }
          return Status::OK();
        }));
  }
  if (options.subscribe) {
    SnippetKeywordIndex* raw = index.get();
    index->listener_id_ =
        mgr->AddListener(inst->id(),
                         [raw](Oid oid, const SummaryObject* before,
                               const SummaryObject* after) {
                           return raw->OnObjectChanged(oid, before, after);
                         });
  }
  return index;
}

SnippetKeywordIndex::~SnippetKeywordIndex() {
  if (listener_id_.has_value()) mgr_->RemoveListener(*listener_id_);
}

std::set<std::string> SnippetKeywordIndex::WordsOf(const SummaryObject& obj) {
  std::set<std::string> words;
  for (const Representative& rep : obj.reps) {
    for (std::string& word : TokenizeWords(rep.text)) {
      words.insert(std::move(word));
    }
  }
  return words;
}

Status SnippetKeywordIndex::OnObjectChanged(Oid oid,
                                            const SummaryObject* before,
                                            const SummaryObject* after) {
  const std::set<std::string> old_words =
      before != nullptr ? WordsOf(*before) : std::set<std::string>{};
  const std::set<std::string> new_words =
      after != nullptr ? WordsOf(*after) : std::set<std::string>{};
  for (const std::string& word : old_words) {
    if (new_words.count(word) == 0) {
      INSIGHT_RETURN_NOT_OK(tree_->Delete(word, oid));
    }
  }
  for (const std::string& word : new_words) {
    if (old_words.count(word) == 0) {
      INSIGHT_RETURN_NOT_OK(tree_->Insert(word, oid));
    }
  }
  return Status::OK();
}

Result<std::vector<Oid>> SnippetKeywordIndex::Search(
    const std::string& keyword) const {
  INSIGHT_ASSIGN_OR_RETURN(std::vector<uint64_t> hits,
                           tree_->Lookup(ToLower(keyword)));
  return std::vector<Oid>(hits.begin(), hits.end());
}

Result<std::vector<Oid>> SnippetKeywordIndex::SearchAll(
    const std::vector<std::string>& keywords) const {
  if (keywords.empty()) return std::vector<Oid>{};
  INSIGHT_ASSIGN_OR_RETURN(std::vector<Oid> result, Search(keywords[0]));
  for (size_t i = 1; i < keywords.size() && !result.empty(); ++i) {
    INSIGHT_ASSIGN_OR_RETURN(std::vector<Oid> next, Search(keywords[i]));
    std::vector<Oid> intersection;
    std::set_intersection(result.begin(), result.end(), next.begin(),
                          next.end(), std::back_inserter(intersection));
    result = std::move(intersection);
  }
  return result;
}

uint64_t SnippetKeywordIndex::size_bytes() const {
  PageStore* store = storage_->GetStore(file_);
  return store != nullptr ? store->size_bytes() : 0;
}

}  // namespace insight
