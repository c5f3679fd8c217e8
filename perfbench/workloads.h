// The three workloads. Each builds its inputs from the run's seed, sets
// up kSetups times (setup_s is the median), runs a closed loop for the
// requested seconds, checks every reply, and fills in a Report.
#ifndef INSIGHTNOTES_PERFBENCH_WORKLOADS_H_
#define INSIGHTNOTES_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "mining/naive_bayes.h"
#include "mining/snippet.h"

namespace perfbench {

/// Embedded Database, one caller rotating the Fig. 16 case-study
/// statements: Q1, Q2, Q3, then ZOOM IN on Q3's answers.
insight::Result<Report> RunCaseStudy(const Args& args);

/// Durable database (group commit), one writer running BEGIN, 64 x SQL
/// ANNOTATE, COMMIT; reopened afterwards to check every acknowledged
/// annotation survived.
insight::Result<Report> RunIngest(const Args& args);

/// In-process InsightServer on the case-study corpus, 4 blocking
/// InsightClient connections running the point/summary/range/top-N/
/// ANNOTATE mix.
insight::Result<Report> RunServe(const Args& args);

/// Times the mining layer on annotation texts: the ClassBird1 classifier
/// and a snippet summarizer configured like TextSummary1 (the snippet only
/// for texts long enough to be summarized). Reports
/// mining.classify_us_p50 and mining.snippet_us_p99.
class MiningProbe {
 public:
  explicit MiningProbe(Database* db);

  /// Runs both steps on `text` under spans of `parent`; returns their ms.
  double Time(const std::string& text, Tracer* tracer, int64_t parent,
              uint64_t stmt);
  void AddMetrics(Report* report) const;

 private:
  const insight::NaiveBayesClassifier* classifier_ = nullptr;
  insight::SnippetSummarizer summarizer_;
  Samples classify_us_;
  Samples snippet_us_;
};

/// One annotation text as the Birds workload draws them: a random topic,
/// 15% long texts (1001-2000 chars, summarized by the snippet instance),
/// the rest 150-999 chars.
std::string DrawAnnotationText(insight::Rng* rng);

/// Texts of the first `limit` annotations stored on `table`.
std::vector<std::string> StoredTexts(Database* db, const std::string& table,
                                     size_t limit);

}  // namespace perfbench

#endif  // INSIGHTNOTES_PERFBENCH_WORKLOADS_H_
