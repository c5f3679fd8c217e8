// The case-study corpus (Birds + BirdsV2, as in the Fig. 16 bench) and
// its reference answers, computed once per run through the "basic
// InsightNotes" path: a sequential scan with summary propagation followed
// by client-side sort, filter and join.
#ifndef INSIGHTNOTES_PERFBENCH_CORPUS_H_
#define INSIGHTNOTES_PERFBENCH_CORPUS_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "sql/database.h"

namespace perfbench {

/// The four case-study statements (Fig. 16). Q3 takes its threshold.
extern const char* const kQ1Sort;
extern const char* const kQ2Join;
std::string Q3Select(int64_t threshold);
std::string ZoomStatement(int64_t id);

/// Loads Birds (kBirds x kCaseStudyAnnotationsPerBird, seeded) and the
/// BirdsV2 table into a fresh in-memory database with kPoolFrames frames.
insight::Result<std::unique_ptr<Database>> BuildCaseStudyCorpus(
    uint64_t seed);

/// Expected answers, indexed by bird id (1-based; slot 0 unused).
struct Reference {
  std::vector<std::string> name;
  /// ClassBird1 'Disease' count; nullopt when the tuple has no ClassBird1
  /// object (the engine's NULL).
  std::vector<std::optional<int64_t>> disease;
  std::vector<std::optional<int64_t>> disease_v2;  // BirdsV2.
  /// Annotation ids attached to each tuple, from the annotation store's
  /// heap (not its tuple index, which ZOOM IN uses).
  std::vector<std::set<insight::AnnId>> annotations;

  int64_t q3_threshold = 0;
  std::set<int64_t> q2_ids;           // v1.id of Q2's answer.
  std::vector<int64_t> q3_ids;        // Ascending.
  std::set<std::string> q3_names;

  /// Bird id of a generated common_name ("bird<k>" -> k + 1), 0 if none.
  int64_t IdOfName(const std::string& name) const;
};

/// Computes the reference. Q3's threshold is the one whose result size is
/// closest to 2% of the birds (at least one row).
insight::Result<Reference> ComputeReference(Database* db);

/// Column `col` of a result row as a string / integer; "" / -1 when the
/// row is shorter or the value has another type (so a malformed reply
/// fails its check instead of aborting the run).
std::string StringAt(const insight::Tuple& row, size_t col);
int64_t IntAt(const insight::Tuple& row, size_t col);

/// Answer checks; each returns "" when the reply is right, else a reason.
std::string CheckQ1(const Reference& ref,
                    const std::vector<std::string>& names);
std::string CheckQ2(const Reference& ref, const std::vector<int64_t>& ids);
std::string CheckQ3(const Reference& ref,
                    const std::vector<std::string>& names);
std::string CheckZoom(const Reference& ref, int64_t id,
                      const std::vector<insight::AnnId>& anns);

}  // namespace perfbench

#endif  // INSIGHTNOTES_PERFBENCH_CORPUS_H_
