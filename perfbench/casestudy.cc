// casestudy: the Fig. 16 queries on an embedded database. One caller runs
// whole cycles of Q1 (summary sort), Q2 (summary version join), Q3
// (summary selection) and kZoomsPerCycle ZOOM INs on Q3's answers.
#include <array>
#include <cstdio>

#include "corpus.h"
#include "sql/parser.h"
#include "workloads.h"

namespace perfbench {

namespace {

using insight::QueryResult;
using insight::Result;
using insight::Status;

constexpr size_t kZoomsPerCycle = 8;

enum Kind { kQ1 = 0, kQ2, kQ3, kZoom, kNumKinds };
constexpr std::array<const char*, kNumKinds> kKindNames = {"q1_sort",
                                                           "q2_join",
                                                           "q3_select", "zoom"};

struct Statement {
  Kind kind;
  std::string sql;
  int64_t zoom_id = 0;
};

std::vector<Statement> Cycle(const Reference& ref, const std::string& q3,
                             size_t cycle) {
  std::vector<Statement> stmts = {
      {kQ1, kQ1Sort}, {kQ2, kQ2Join}, {kQ3, q3}};
  for (size_t j = 0; j < kZoomsPerCycle; ++j) {
    const int64_t id =
        ref.q3_ids[(cycle * kZoomsPerCycle + j) % ref.q3_ids.size()];
    stmts.push_back({kZoom, ZoomStatement(id), id});
  }
  return stmts;
}

std::vector<std::string> FirstColumnStrings(const QueryResult& r) {
  std::vector<std::string> out;
  for (const auto& row : r.rows) out.push_back(StringAt(row, 0));
  return out;
}

std::string Check(const Reference& ref, const Statement& s,
                  const Result<QueryResult>& r) {
  if (!r.ok()) return s.sql.substr(0, 40) + ": " + r.status().ToString();
  switch (s.kind) {
    case kQ1:
      return CheckQ1(ref, FirstColumnStrings(*r));
    case kQ2: {
      std::vector<int64_t> ids;
      for (const auto& row : r->rows) ids.push_back(IntAt(row, 0));
      return CheckQ2(ref, ids);
    }
    case kQ3:
      return CheckQ3(ref, FirstColumnStrings(*r));
    default: {
      std::vector<insight::AnnId> anns;
      for (const auto& a : r->annotations) anns.push_back(a.id);
      return CheckZoom(ref, s.zoom_id, anns);
    }
  }
}

/// Layer steps of one traced statement, in ms.
struct Steps {
  Samples e2e, parse, plan, exec, ops_self, focus_self, residual, summaries_us;
};

/// Re-runs a statement piecewise through the public API after its timed
/// execution (see ProfileStatement); ZOOM IN instead times ParseStatement
/// and the Database::ZoomIn call itself.
void Decompose(Database* db, const Reference& ref, const Statement& s,
               const QueryResult& result, double e2e_ms, Tracer* tracer,
               int64_t root, uint64_t stmt, Steps* steps) {
  double parse_ms = 0;
  double attributed = 0;
  if (s.kind == kZoom) {
    {
      ScopedSpan span(tracer, "sql.parse", root, stmt);
      (void)insight::ParseStatement(s.sql);
      parse_ms = span.Stop();
    }
    ScopedSpan span(tracer, "annotation.zoom_in", root, stmt);
    (void)db->ZoomIn("Birds", static_cast<insight::Oid>(s.zoom_id),
                     "ClassBird1");
    const double zoom_ms = span.Stop();
    steps->exec.Add(e2e_ms - parse_ms);
    steps->focus_self.Add(zoom_ms);
    attributed = parse_ms + zoom_ms;
  } else {
    std::vector<insight::Oid> oids;
    for (const auto& row : result.rows) {
      oids.push_back(static_cast<insight::Oid>(
          s.kind == kQ2 ? IntAt(row, 0) : ref.IdOfName(StringAt(row, 0))));
    }
    const StatementSteps st =
        ProfileStatement(db, s.sql, false, oids, tracer, root, stmt);
    const char* focus = s.kind == kQ1   ? "Sort"
                        : s.kind == kQ2 ? "Join"
                                        : "Scan";
    double focus_ms = SelfMsOf(st.ops, focus);
    if (s.kind == kQ1) focus_ms += SelfMsOf(st.ops, "IndexScan");
    parse_ms = st.parse_ms;
    steps->plan.Add((st.explain_ms - st.parse_ms) * 1000);  // us
    steps->exec.Add(e2e_ms - st.explain_ms);
    steps->ops_self.Add(TotalSelfMs(st.ops));
    steps->focus_self.Add(focus_ms);
    steps->summaries_us.Add(st.summaries_ms * 1000);
    attributed = st.explain_ms + TotalSelfMs(st.ops);
  }
  steps->e2e.Add(e2e_ms);
  steps->parse.Add(parse_ms * 1000);  // us
  steps->residual.Add(e2e_ms - attributed);
}

}  // namespace

Result<Report> RunCaseStudy(const Args& args) {
  Report report;
  Samples setup;
  std::unique_ptr<Database> db;
  for (int k = 0; k < kSetups; ++k) {
    db.reset();
    const double t0 = NowMs();
    INSIGHT_ASSIGN_OR_RETURN(db, BuildCaseStudyCorpus(args.seed));
    setup.Add((NowMs() - t0) / 1000);
  }
  INSIGHT_ASSIGN_OR_RETURN(Reference ref, ComputeReference(db.get()));
  const std::string q3 = Q3Select(ref.q3_threshold);

  Tracer tracer(args.trace);
  std::array<Samples, kNumKinds> latency;
  std::array<Steps, kNumKinds> steps;
  Samples all;
  Counters count_delta;
  std::array<double, kNumKinds> fetches_by_kind{};
  Samples cycle_s;
  uint64_t stmt_id = 0;
  size_t cycles = 0;

  const double start = NowMs();
  const double deadline = start + args.seconds * 1000;
  // Whole cycles only, so every run measures the same statement mix.
  while (cycles == 0 || NowMs() < deadline) {
    // Cycle 0 of a traced run is the count block: counters are read
    // around each statement and nothing else touches the engine.
    const bool count_block = args.trace && cycles == 0;
    const bool decompose = args.trace && cycles > 0;
    const double cycle_start = NowMs();
    for (const Statement& s : Cycle(ref, q3, cycles)) {
      const uint64_t id = ++stmt_id;
      ScopedSpan root(&tracer, "stmt", -1, id);
      const Counters before = count_block ? ReadCounters(*db) : Counters{};
      ScopedSpan exec(&tracer, "engine.execute", root.id(), id);
      Result<QueryResult> r = db->Execute(s.sql);
      const double ms = exec.Stop();
      if (count_block) {
        const Counters d = Delta(ReadCounters(*db), before);
        for (const auto& [name, v] : d) count_delta[name] += v;
        fetches_by_kind[s.kind] += d.at("insight_bufferpool_hits_total") +
                                   d.at("insight_bufferpool_misses_total");
      }
      ++report.attempted;
      std::string verdict;
      {
        ScopedSpan check(&tracer, "check", root.id(), id);
        verdict = Check(ref, s, r);
      }
      if (!verdict.empty()) {
        report.Fail(verdict);
        continue;
      }
      latency[s.kind].Add(ms);
      all.Add(ms);
      if (decompose) {
        Decompose(db.get(), ref, s, *r, ms, &tracer, root.id(), id,
                  &steps[s.kind]);
      }
    }
    cycle_s.Add((NowMs() - cycle_start) / 1000);
    ++cycles;
  }

  INSIGHT_ASSIGN_OR_RETURN(SpaceUsage space, MeasureSpace(db.get(), "Birds"));
  report.E2e("setup_s", setup.Median(), "s", setup.size());
  // Throughput at the lower-quartile cycle time (see
  // GeomeanOfLowerQuartiles).
  report.E2e("ops_per_s", (3 + kZoomsPerCycle) / cycle_s.Quantile(0.25), "1/s",
             cycle_s.size());
  report.E2e("p50_ms", all.Median(), "ms", all.size());
  report.E2e("p95_ms", all.Quantile(0.95), "ms", all.size());
  report.E2e("kinds_p25_geomean_ms",
             GeomeanOfLowerQuartiles({&latency[kQ1], &latency[kQ2],
                                      &latency[kQ3], &latency[kZoom]}),
             "ms", all.size());
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  report.E2e("space_amp", space.amp(), "ratio");
  for (int k = 0; k < kNumKinds; ++k) {
    report.Extra(std::string(kKindNames[k]) + "_ms", latency[k].Median(), "ms",
                 latency[k].size());
  }
  report.meta.push_back({"cycles", std::to_string(cycles)});
  report.meta.push_back({"q3_threshold", std::to_string(ref.q3_threshold)});
  report.meta.push_back({"q3_rows", std::to_string(ref.q3_ids.size())});
  report.meta.push_back({"zooms_per_cycle", std::to_string(kZoomsPerCycle)});
  report.meta.push_back({"clients", "1 (embedded, closed loop)"});
  report.meta.push_back({"flush_policy", "none (in-memory, no WAL)"});

  if (!args.trace) return report;

  // ---- Per-layer metrics (traced run) ----
  const double stmts_in_block = static_cast<double>(3 + kZoomsPerCycle);
  AddCountMetrics(&report, count_delta, stmts_in_block, 0, 0);
  report.Layer("annotation.zoom_pages_per_call",
               fetches_by_kind[kZoom] / kZoomsPerCycle, "count/call");
  Steps merged;
  for (const Steps& st : steps) {
    merged.e2e.Append(st.e2e);
    merged.parse.Append(st.parse);
    merged.plan.Append(st.plan);
    merged.exec.Append(st.exec);
    merged.residual.Append(st.residual);
    merged.summaries_us.Append(st.summaries_us);
  }
  report.Layer("sql.parse_us_p50", merged.parse.Median(), "us",
               merged.parse.size());
  report.Layer("optimizer.plan_us_p50", merged.plan.Median(), "us",
               merged.plan.size());
  report.Layer("engine.exec_ms_p50", merged.exec.Median(), "ms",
               merged.exec.size());
  report.Layer("engine.q1.sort_self_ms", steps[kQ1].focus_self.Median(), "ms",
               steps[kQ1].focus_self.size());
  report.Layer("engine.q2.join_self_ms", steps[kQ2].focus_self.Median(), "ms",
               steps[kQ2].focus_self.size());
  report.Layer("engine.q3.access_self_ms", steps[kQ3].focus_self.Median(),
               "ms", steps[kQ3].focus_self.size());
  report.Layer("summary.get_summaries_us", merged.summaries_us.Median(), "us",
               merged.summaries_us.size());
  report.Layer("summary.storage_bytes_per_ann_byte",
               space.summary_storage_bytes / space.raw_bytes, "B/B");
  report.Layer("annotation.bytes_per_ann_byte",
               space.annotation_store_bytes / space.raw_bytes, "B/B");
  MiningProbe mining(db.get());
  Tracer untraced(false);
  for (const std::string& text : StoredTexts(db.get(), "Birds", 4000)) {
    mining.Time(text, &untraced, -1, 0);
  }
  mining.AddMetrics(&report);
  report.Layer("trace.stmt_p50_ms", all.Median(), "ms", all.size());
  report.Layer("trace.unattributed_ms_p50", merged.residual.Median(), "ms",
               merged.residual.size());
  report.Layer("trace.unattributed_share",
               merged.e2e.Sum() > 0 ? merged.residual.Sum() / merged.e2e.Sum()
                                    : 0,
               "ratio");
  for (int k = 0; k < kNumKinds; ++k) {
    const Steps& st = steps[k];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-10s n=%-4zu e2e=%.3fms parse=%.1fus plan=%.1fus "
                  "exec=%.3fms ops_self=%.3fms focus_self=%.3fms "
                  "unattributed=%.3fms",
                  kKindNames[k], st.e2e.size(), st.e2e.Median(),
                  st.parse.Median(), st.plan.Median(), st.exec.Median(),
                  st.ops_self.Median(), st.focus_self.Median(),
                  st.residual.Median());
    report.breakdown_lines.push_back(line);
  }
  const std::string trace_path = args.work_dir + "/trace-casestudy.jsonl";
  if (!WriteTrace(trace_path, {&tracer})) {
    return Status::IOError("cannot write " + trace_path);
  }
  report.meta.push_back({"trace_file", trace_path});
  return report;
}

}  // namespace perfbench
