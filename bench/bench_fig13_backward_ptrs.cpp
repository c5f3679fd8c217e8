// Figure 13 — Effectiveness of backward pointers: Summary-BTree leaves
// point straight into the user relation's heap rather than at the indexed
// summary objects.
//
// Four arms, as in the paper: {backward, conventional} pointers x
// {propagation, no propagation}.
//
// Paper result: with propagation both pointer kinds cost about the same
// (the 1-1 join with SummaryStorage happens either way); without
// propagation the backward pointers skip that join entirely, ~4x faster.

#include "bench_util.h"
#include "engine/operators.h"

using namespace insight;
using namespace insight::bench;

int main(int argc, char** argv) {
  BenchConfig config = ParseArgs(argc, argv);
  PrintHeader("Figure 13: backward vs conventional index pointers",
              "equal cost when propagating; backward ~4x faster when not",
              config);
  std::printf("%-10s %6s | %11s %11s | %11s %11s | %6s\n", "x-axis", "hits",
              "bwd+prop", "conv+prop", "bwd-noprop", "conv-noprop",
              "gain");
  for (size_t per_bird : BenchConfig::AnnotationSweep()) {
    Database db;
    BirdsWorkloadOptions opts = CorpusOptions(config, per_bird);
    opts.synonyms_per_bird = 0;
    opts.classifier_indexable = false;  // Built manually, twice.
    GenerateBirdsWorkload(&db, opts).ValueOrDie();
    SummaryManager* mgr = *db.GetManager("Birds");

    SummaryBTree::Options backward_opts;
    backward_opts.pointer_mode = SummaryBTree::PointerMode::kBackward;
    auto backward = SummaryBTree::Create(db.storage(), db.pool(), mgr,
                                         "ClassBird1", backward_opts)
                        .ValueOrDie();
    SummaryBTree::Options conventional_opts;
    conventional_opts.pointer_mode =
        SummaryBTree::PointerMode::kConventional;
    auto conventional = SummaryBTree::Create(db.storage(), db.pool(), mgr,
                                             "ClassBird1",
                                             conventional_opts)
                            .ValueOrDie();

    const int64_t mid =
        PickEqualityConstant(&db, "Birds", "ClassBird1", "Disease", 0.05);
    const ClassifierProbe probe =
        ClassifierProbe::Range("Disease", mid, mid + 2);

    std::vector<size_t> hits;  // Per arm, in run order.
    auto run = [&](const SummaryBTree* index, bool propagate) {
      hits.push_back(0);
      return MedianMillis(config.query_repeats, [&] {
        IndexScanOp scan(std::make_unique<SummaryBTreeProbe>(index, probe),
                         propagate);
        hits.back() = CollectRows(&scan).ValueOrDie().size();
      });
    };
    const double bwd_prop = run(backward.get(), true);
    const double conv_prop = run(conventional.get(), true);
    const double bwd_noprop = run(backward.get(), false);
    const double conv_noprop = run(conventional.get(), false);
    std::printf("%-10s %6zu | %11.2f %11.2f | %11.2f %11.2f | %5.1fx\n",
                BenchConfig::PaperAxisLabel(per_bird).c_str(), hits[0],
                bwd_prop, conv_prop, bwd_noprop, conv_noprop,
                conv_noprop / bwd_noprop);
    for (size_t arm = 1; arm < hits.size(); ++arm) {
      if (hits[arm] != hits[0]) {
        std::fprintf(stderr, "arms disagree: arm %zu returned %zu rows, "
                     "arm 0 returned %zu\n", arm, hits[arm], hits[0]);
        return 1;
      }
    }
  }
  return 0;
}
