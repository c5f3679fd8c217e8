// Figure 12 — Propagation cost when the Baseline scheme must re-form the
// summary objects from its normalized replica instead of reading the
// de-normalized SummaryStorage rows.
//
// Same two-predicate query as Figure 11, but the Baseline arm both
// evaluates the predicate AND reconstructs the Classifier objects from
// their primitive (tuple, label, cnt) rows for propagation.
//
// Paper result: the Baseline arm becomes ~7x slower than the
// Summary-BTree arm.

#include "bench_util.h"
#include "engine/operators.h"

using namespace insight;
using namespace insight::bench;

int main(int argc, char** argv) {
  BenchConfig config = ParseArgs(argc, argv);
  PrintHeader("Figure 12: propagation from normalized vs de-normalized "
              "storage",
              "Baseline (reconstructing objects) ~7x slower than "
              "Summary-BTree (de-normalized reads)",
              config);
  std::printf("%-10s %6s %18s %18s %8s\n", "x-axis", "hits",
              "base-reconstr(ms)", "sbt-denorm(ms)", "ratio");
  for (size_t per_bird : BenchConfig::AnnotationSweep()) {
    Database db;
    BirdsWorkloadOptions opts = CorpusOptions(config, per_bird);
    opts.synonyms_per_bird = 0;
    opts.build_baseline_index = true;
    GenerateBirdsWorkload(&db, opts).ValueOrDie();

    const SummaryBTree* sbt = *db.GetSummaryIndex("Birds", "ClassBird1");
    const BaselineClassifierIndex* baseline =
        (*db.context()->Get("Birds"))->BaselineIndexFor("ClassBird1");

    // A wider range than Figs. 10/11 so propagation dominates: ~10% of
    // the tuples flow to the client with their summaries.
    const int64_t mid =
        PickEqualityConstant(&db, "Birds", "ClassBird1", "Anatomy", 0.05);
    const ClassifierProbe probe =
        ClassifierProbe::Range("Anatomy", mid, mid + 2);

    size_t base_hits = 0;
    size_t sbt_hits = 0;
    const double base_ms = MedianMillis(config.query_repeats, [&] {
      IndexScanOp scan(std::make_unique<BaselineProbe>(
                           baseline, probe, /*reconstruct_summaries=*/true),
                       /*propagate=*/true);
      base_hits = CollectRows(&scan).ValueOrDie().size();
    });
    const double sbt_ms = MedianMillis(config.query_repeats, [&] {
      IndexScanOp scan(std::make_unique<SummaryBTreeProbe>(sbt, probe),
                       /*propagate=*/true);
      sbt_hits = CollectRows(&scan).ValueOrDie().size();
    });
    std::printf("%-10s %6zu %18.2f %18.2f %8.1f\n",
                BenchConfig::PaperAxisLabel(per_bird).c_str(), sbt_hits,
                base_ms, sbt_ms, base_ms / sbt_ms);
    if (base_hits != sbt_hits) {
      std::fprintf(stderr, "arms disagree: baseline %zu rows, "
                   "Summary-BTree %zu rows\n", base_hits, sbt_hits);
      return 1;
    }
  }
  std::printf("\n(both arms return the same tuples; the baseline arm "
              "re-forms each Classifier object from its normalized rows, "
              "and cannot reconstruct Elements[][] at all — see "
              "EXPERIMENTS.md)\n");
  return 0;
}
