#include "workload/birds_workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

insight::SnippetSummarizer::Options TextSummaryOptions() {
  // The thresholds the Birds corpus gives its TextSummary1 instance.
  insight::SnippetSummarizer::Options options;
  options.min_chars = 1000;
  options.max_snippet_chars = 400;
  return options;
}

}  // namespace

MiningProbe::MiningProbe(Database* db) : summarizer_(TextSummaryOptions()) {
  auto mgr = db->GetManager("Birds");
  if (!mgr.ok()) return;
  auto instance = (*mgr)->FindInstance("ClassBird1");
  if (instance.ok()) classifier_ = (*instance)->classifier();
}

double MiningProbe::Time(const std::string& text, Tracer* tracer,
                         int64_t parent, uint64_t stmt) {
  double ms = 0;
  if (classifier_ != nullptr) {
    ScopedSpan span(tracer, "mining.classify", parent, stmt);
    (void)classifier_->Classify(text);
    const double step = span.Stop();
    classify_us_.Add(step * 1000);
    ms += step;
  }
  if (summarizer_.ShouldSummarize(text)) {
    ScopedSpan span(tracer, "mining.snippet", parent, stmt);
    (void)summarizer_.Summarize(text);
    const double step = span.Stop();
    snippet_us_.Add(step * 1000);
    ms += step;
  }
  return ms;
}

void MiningProbe::AddMetrics(Report* report) const {
  report->Layer("mining.classify_us_p50", classify_us_.Median(), "us",
                classify_us_.size());
  report->Layer("mining.snippet_us_p99", snippet_us_.Quantile(0.99), "us",
                snippet_us_.size());
}

std::string DrawAnnotationText(insight::Rng* rng) {
  const insight::AnnotationTopic topic = insight::DrawTopic(rng);
  const size_t length = rng->NextBool(0.15)
                            ? static_cast<size_t>(rng->Uniform(1001, 2000))
                            : static_cast<size_t>(rng->Uniform(150, 999));
  return insight::GenerateAnnotationText(topic, length, rng);
}

std::vector<std::string> StoredTexts(Database* db, const std::string& table,
                                     size_t limit) {
  std::vector<std::string> texts;
  auto mgr = db->GetManager(table);
  if (!mgr.ok()) return texts;
  (void)(*mgr)->annotations()->ForEachAnnotation(
      [&](const insight::Annotation& ann) {
        if (texts.size() < limit) texts.push_back(ann.text);
        return insight::Status::OK();
      });
  return texts;
}

}  // namespace perfbench
