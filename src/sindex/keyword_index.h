#ifndef INSIGHTNOTES_SINDEX_KEYWORD_INDEX_H_
#define INSIGHTNOTES_SINDEX_KEYWORD_INDEX_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/btree.h"
#include "summary/summary_manager.h"

namespace insight {

/// Inverted keyword index over one Snippet-type summary instance: each
/// distinct word of a tuple's snippets becomes a (word -> tuple OID)
/// B-Tree entry. Accelerates the containsSingle/containsUnion predicates
/// of Section 3.1 — the "searching the snippets" side of the
/// accuracy/performance tradeoff the paper studies in its companion
/// technical report [16]. An extension beyond the paper's Classifier-only
/// indexing scheme (its "more implementation choices" future work).
///
/// Exactness: containsUnion(kw1..kwn) is TRUE iff every keyword appears
/// in some snippet of the tuple, which is precisely the intersection of
/// the per-keyword posting lists in the latest state. The postings carry
/// no versions, so a reader re-checks each hit against the summaries its
/// snapshot sees. containsSingle additionally requires one snippet to
/// hold all keywords, so the intersection is a candidate superset and the
/// predicate is re-checked.
class SnippetKeywordIndex {
 public:
  struct Options {
    bool bulk_build = true;
    bool subscribe = true;
  };

  static Result<std::unique_ptr<SnippetKeywordIndex>> Create(
      StorageManager* storage, BufferPool* pool, SummaryManager* mgr,
      const std::string& instance_name, Options options);

  /// Deregisters the maintenance subscription.
  ~SnippetKeywordIndex();

  /// OIDs of tuples whose snippets contain `keyword` (whole word,
  /// case-insensitive), ascending.
  Result<std::vector<Oid>> Search(const std::string& keyword) const;

  /// OIDs containing every keyword (posting-list intersection).
  Result<std::vector<Oid>> SearchAll(
      const std::vector<std::string>& keywords) const;

  Status OnObjectChanged(Oid oid, const SummaryObject* before,
                         const SummaryObject* after);

  SummaryManager* mgr() const { return mgr_; }
  const std::string& instance_name() const { return instance_name_; }
  uint64_t num_entries() const { return tree_->num_entries(); }
  uint64_t size_bytes() const;

 private:
  SnippetKeywordIndex(StorageManager* storage, SummaryManager* mgr)
      : storage_(storage), mgr_(mgr) {}

  static std::set<std::string> WordsOf(const SummaryObject& obj);

  StorageManager* storage_;
  SummaryManager* mgr_;
  uint32_t instance_id_ = 0;
  std::string instance_name_;
  FileId file_ = 0;
  std::unique_ptr<BTree> tree_;
  std::optional<SummaryManager::ListenerId> listener_id_;
};

}  // namespace insight

#endif  // INSIGHTNOTES_SINDEX_KEYWORD_INDEX_H_
