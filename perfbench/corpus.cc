#include "corpus.h"

#include <algorithm>
#include <cstdlib>

#include "engine/operators.h"
#include "workload/birds_workload.h"

namespace perfbench {

using insight::Result;
using insight::Status;

const char* const kQ1Sort =
    "SELECT common_name FROM Birds ORDER BY "
    "$.getSummaryObject('ClassBird1').getLabelValue('Disease')";
const char* const kQ2Join =
    "SELECT v1.id FROM Birds v1, BirdsV2 v2 WHERE v1.id = v2.id "
    "AND v1.$.getSummaryObject('ClassBird1').getLabelValue('Disease') <> "
    "v2.$.getSummaryObject('ClassBird1').getLabelValue('Disease')";

std::string Q3Select(int64_t threshold) {
  return "SELECT common_name FROM Birds WHERE "
         "$.getSummaryObject('ClassBird1').getLabelValue('Disease') > " +
         std::to_string(threshold);
}

std::string ZoomStatement(int64_t id) {
  return "ZOOM IN ON Birds TUPLE " + std::to_string(id) +
         " INSTANCE 'ClassBird1'";
}

Result<std::unique_ptr<Database>> BuildCaseStudyCorpus(uint64_t seed) {
  Database::Options options;
  options.buffer_pool_frames = kPoolFrames;
  auto db = std::make_unique<Database>(options);
  insight::BirdsWorkloadOptions opts;
  opts.seed = seed;
  opts.num_birds = kBirds;
  opts.annotations_per_bird = kCaseStudyAnnotationsPerBird;
  opts.synonyms_per_bird = 0;
  INSIGHT_RETURN_NOT_OK(
      insight::GenerateBirdsWorkload(db.get(), opts).status());
  // The second version of the table for Q2, built as the Fig. 16 bench
  // builds it: 0..4 short Disease notes per tuple on common_name.
  INSIGHT_RETURN_NOT_OK(
      db->Execute("CREATE TABLE BirdsV2 (id INT, common_name TEXT)").status());
  INSIGHT_RETURN_NOT_OK(
      db->Execute("ALTER TABLE BirdsV2 ADD INDEXABLE ClassBird1").status());
  insight::Rng rng(seed + 3);
  for (size_t i = 0; i < kBirds; ++i) {
    INSIGHT_RETURN_NOT_OK(db->Execute("INSERT INTO BirdsV2 VALUES (" +
                                      std::to_string(i + 1) + ", 'bird" +
                                      std::to_string(i) + "')")
                              .status());
    const int notes = static_cast<int>(rng.Uniform(0, 4));
    for (int a = 0; a < notes; ++a) {
      INSIGHT_RETURN_NOT_OK(
          db->Annotate("BirdsV2",
                       insight::GenerateAnnotationText(
                           insight::AnnotationTopic::kDisease, 200, &rng),
                       {{static_cast<insight::Oid>(i + 1),
                         insight::RowMask(2)}})
              .status());
    }
  }
  INSIGHT_RETURN_NOT_OK(db->Analyze("Birds"));
  INSIGHT_RETURN_NOT_OK(db->Analyze("BirdsV2"));
  return db;
}

namespace {

std::optional<int64_t> DiseaseOf(const insight::Row& row) {
  const insight::SummaryObject* obj =
      row.summaries.GetSummaryObject("ClassBird1");
  if (obj == nullptr) return std::nullopt;
  auto value = obj->GetLabelValue("Disease");
  if (!value.ok()) return std::nullopt;
  return *value;
}

/// Basic InsightNotes: every row of `table` with its propagated summaries.
Result<std::vector<insight::Row>> ScanWithSummaries(Database* db,
                                                    const std::string& table) {
  INSIGHT_ASSIGN_OR_RETURN(insight::Table * t, db->GetTable(table));
  INSIGHT_ASSIGN_OR_RETURN(insight::SummaryManager * mgr,
                           db->GetManager(table));
  insight::SeqScanOp scan(t, mgr, /*propagate=*/true);
  return insight::CollectRows(&scan);
}

}  // namespace

int64_t Reference::IdOfName(const std::string& n) const {
  if (n.rfind("bird", 0) != 0 || n.size() <= 4) return 0;
  const int64_t id = std::strtoll(n.c_str() + 4, nullptr, 10) + 1;
  return id >= 1 && static_cast<size_t>(id) < name.size() && name[id] == n
             ? id
             : 0;
}

Result<Reference> ComputeReference(Database* db) {
  Reference ref;
  ref.name.resize(kBirds + 1);
  ref.disease.resize(kBirds + 1);
  ref.disease_v2.resize(kBirds + 1);
  ref.annotations.resize(kBirds + 1);

  INSIGHT_ASSIGN_OR_RETURN(std::vector<insight::Row> birds,
                           ScanWithSummaries(db, "Birds"));
  for (const insight::Row& row : birds) {
    const int64_t id = row.data.at(0).AsInt();
    if (id < 1 || static_cast<size_t>(id) > kBirds) {
      return Status::Corruption("unexpected bird id " + std::to_string(id));
    }
    ref.name[id] = row.data.at(2).AsString();
    ref.disease[id] = DiseaseOf(row);
  }
  INSIGHT_ASSIGN_OR_RETURN(std::vector<insight::Row> v2,
                           ScanWithSummaries(db, "BirdsV2"));
  for (const insight::Row& row : v2) {
    const int64_t id = row.data.at(0).AsInt();
    if (id >= 1 && static_cast<size_t>(id) <= kBirds) {
      ref.disease_v2[id] = DiseaseOf(row);
    }
  }
  INSIGHT_ASSIGN_OR_RETURN(insight::SummaryManager * mgr,
                           db->GetManager("Birds"));
  INSIGHT_RETURN_NOT_OK(mgr->annotations()->ForEachAnnotation(
      [&](const insight::Annotation& ann) {
        for (const insight::AnnotationTarget& target : ann.targets) {
          if (target.oid >= 1 && target.oid <= kBirds) {
            ref.annotations[target.oid].insert(ann.id);
          }
        }
        return Status::OK();
      }));

  // Client-side join for Q2: NULL on either side never differs (3VL).
  for (size_t id = 1; id <= kBirds; ++id) {
    if (ref.disease[id] && ref.disease_v2[id] &&
        *ref.disease[id] != *ref.disease_v2[id]) {
      ref.q2_ids.insert(static_cast<int64_t>(id));
    }
  }
  // Client-side filter for Q3 at ~2% selectivity.
  const double target = 0.02 * kBirds;
  double best_gap = 1e18;
  for (int64_t t = 0; t < 1000; ++t) {
    size_t hits = 0;
    for (size_t id = 1; id <= kBirds; ++id) {
      if (ref.disease[id] && *ref.disease[id] > t) ++hits;
    }
    if (hits == 0) break;
    const double gap = std::abs(static_cast<double>(hits) - target);
    if (gap < best_gap) {
      best_gap = gap;
      ref.q3_threshold = t;
    }
  }
  for (size_t id = 1; id <= kBirds; ++id) {
    if (ref.disease[id] && *ref.disease[id] > ref.q3_threshold) {
      ref.q3_ids.push_back(static_cast<int64_t>(id));
      ref.q3_names.insert(ref.name[id]);
    }
  }
  if (ref.q3_ids.empty()) return Status::Corruption("Q3 reference is empty");
  return ref;
}

std::string StringAt(const insight::Tuple& row, size_t col) {
  if (col >= row.size() || row.at(col).type() != insight::ValueType::kString) {
    return "";
  }
  return row.at(col).AsString();
}

int64_t IntAt(const insight::Tuple& row, size_t col) {
  if (col >= row.size() || row.at(col).type() != insight::ValueType::kInt64) {
    return -1;
  }
  return row.at(col).AsInt();
}

std::string CheckQ1(const Reference& ref,
                    const std::vector<std::string>& names) {
  if (names.size() != kBirds) {
    return "Q1 returned " + std::to_string(names.size()) + " rows";
  }
  std::vector<bool> seen(kBirds + 1, false);
  std::optional<int64_t> last;
  for (const std::string& n : names) {
    const int64_t id = ref.IdOfName(n);
    if (id == 0 || seen[id]) return "Q1 returned unknown or repeated " + n;
    seen[id] = true;
    const auto& d = ref.disease[id];
    if (d && last && *d < *last) return "Q1 is out of order at " + n;
    if (d) last = d;
  }
  return "";
}

std::string CheckQ2(const Reference& ref, const std::vector<int64_t>& ids) {
  const std::set<int64_t> got(ids.begin(), ids.end());
  if (got.size() != ids.size() || got != ref.q2_ids) {
    return "Q2 returned " + std::to_string(ids.size()) + " ids, expected " +
           std::to_string(ref.q2_ids.size());
  }
  return "";
}

std::string CheckQ3(const Reference& ref,
                    const std::vector<std::string>& names) {
  const std::set<std::string> got(names.begin(), names.end());
  if (got.size() != names.size() || got != ref.q3_names) {
    return "Q3 returned " + std::to_string(names.size()) + " rows, expected " +
           std::to_string(ref.q3_names.size());
  }
  return "";
}

std::string CheckZoom(const Reference& ref, int64_t id,
                      const std::vector<insight::AnnId>& anns) {
  const std::set<insight::AnnId> got(anns.begin(), anns.end());
  if (got.size() != anns.size() || got != ref.annotations[id]) {
    return "ZOOM IN on " + std::to_string(id) + " returned " +
           std::to_string(anns.size()) + " annotations, expected " +
           std::to_string(ref.annotations[id].size());
  }
  return "";
}

}  // namespace perfbench
