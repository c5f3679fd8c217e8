// ingest: one writer streaming SQL ANNOTATE statements into a durable
// database in explicit transactions of kTxnSize, one fsync per COMMIT.
// After the timed loop the database is closed and reopened (untimed), and
// every acknowledged annotation must be back.
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <tuple>

#include "sql/parser.h"
#include "workload/birds_workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

using insight::QueryResult;
using insight::Result;
using insight::Status;

constexpr size_t kTxnSize = 64;
/// Transactions of the traced run's count block.
constexpr size_t kCountTxns = 4;
/// peak_rss_mb is read after set-up plus this many transactions (~10k
/// annotations, a few seconds), so it measures a fixed amount of work
/// whatever the throughput, and still shows memory that grows with the
/// annotations written.
constexpr size_t kRssTxns = 160;

enum Kind { kBegin = 0, kAnnotate, kCommit, kNumKinds };

Database::Options IngestOptions() {
  Database::Options options;
  options.backend = insight::StorageManager::Backend::kFile;
  options.buffer_pool_frames = kPoolFrames;
  options.wal_sync = Database::WalSyncMode::kGroupCommit;
  return options;
}

Result<std::unique_ptr<Database>> SetUp(const std::string& dir,
                                        uint64_t seed) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  INSIGHT_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                           Database::Open(dir, IngestOptions()));
  insight::BirdsWorkloadOptions opts;
  opts.seed = seed;
  opts.num_birds = kBirds;
  opts.annotations_per_bird = kIngestBaseAnnotationsPerBird;
  opts.synonyms_per_bird = 0;
  INSIGHT_RETURN_NOT_OK(
      insight::GenerateBirdsWorkload(db.get(), opts).status());
  INSIGHT_RETURN_NOT_OK(db->WalSync());
  return db;
}

/// One acknowledged annotation: target tuple and a digest of its text.
struct Acked {
  int64_t tuple;
  size_t text_hash;
  size_t text_size;
  bool operator<(const Acked& o) const {
    return std::tie(tuple, text_hash, text_size) <
           std::tie(o.tuple, o.text_hash, o.text_size);
  }
};

/// Reopens `dir` and checks every acknowledged annotation is present.
Status VerifyDurable(const std::string& dir, const std::vector<Acked>& acked,
                     Report* report) {
  INSIGHT_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                           Database::Open(dir, IngestOptions()));
  INSIGHT_ASSIGN_OR_RETURN(insight::SummaryManager * mgr,
                           db->GetManager("Birds"));
  std::map<Acked, size_t> stored;
  const std::hash<std::string> hasher;
  INSIGHT_RETURN_NOT_OK(mgr->annotations()->ForEachAnnotation(
      [&](const insight::Annotation& ann) {
        for (const insight::AnnotationTarget& target : ann.targets) {
          ++stored[{static_cast<int64_t>(target.oid), hasher(ann.text),
                    ann.text.size()}];
        }
        return Status::OK();
      }));
  size_t missing = 0;
  for (const Acked& a : acked) {
    auto it = stored.find(a);
    if (it == stored.end() || it->second == 0) {
      ++missing;
    } else {
      --it->second;
    }
  }
  if (missing > 0) {
    report->Fail(std::to_string(missing) + " of " +
                 std::to_string(acked.size()) +
                 " acknowledged annotations missing after reopen");
  }
  return Status::OK();
}

}  // namespace

Result<Report> RunIngest(const Args& args) {
  Report report;
  Samples setup;
  std::unique_ptr<Database> db;
  const std::string base = args.work_dir + "/ingest-" +
                           std::to_string(::getpid()) + "-";
  std::string dir;
  for (int k = 0; k < kSetups; ++k) {
    db.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    dir = base + std::to_string(k);
    const double t0 = NowMs();
    INSIGHT_ASSIGN_OR_RETURN(db, SetUp(dir, args.seed));
    setup.Add((NowMs() - t0) / 1000);
  }
  insight::SummaryManager* mgr = *db->GetManager("Birds");

  Tracer tracer(args.trace);
  MiningProbe mining(db.get());
  insight::Rng rng(args.seed * 7919 + 17);
  const std::hash<std::string> hasher;
  std::array<Samples, kNumKinds> latency;
  Samples all, parse_us, exec_ms, summaries_us, e2e, residual;
  std::vector<Acked> acked, pending;
  Counters block_before, block_delta;
  SpaceUsage block_space;  // At the end of the count block.
  const Counters run_before = args.trace ? ReadCounters(*db) : Counters{};
  double block_ann_bytes = 0;
  Samples txn_s;
  uint64_t stmt_id = 0;
  size_t txns = 0;

  // Runs one timed statement under the caller's root span; true when it
  // succeeded. `ms` receives its latency.
  auto run = [&](Kind kind, const std::string& sql, uint64_t* txn,
                 const ScopedSpan& root, double* ms) {
    ScopedSpan exec(&tracer, kind == kCommit ? "txn.commit" : "engine.execute",
                    root.id(), stmt_id);
    Result<QueryResult> r = db->Execute(sql, txn);
    *ms = exec.Stop();
    ++report.attempted;
    if (!r.ok()) {
      report.Fail(sql.substr(0, 40) + ": " + r.status().ToString());
      return false;
    }
    latency[kind].Add(*ms);
    all.Add(*ms);
    return true;
  };

  const double deadline = NowMs() + args.seconds * 1000;
  // The count block and the RSS point always complete, whatever the
  // deadline.
  static_assert(kRssTxns >= kCountTxns);
  double rss_mb = 0;
  while (txns < kRssTxns || NowMs() < deadline) {
    const bool count_block = args.trace && txns < kCountTxns;
    const bool decompose = args.trace && txns >= kCountTxns;
    if (args.trace && txns == 0) block_before = ReadCounters(*db);
    const double txn_start = NowMs();
    uint64_t txn = 0;
    double e2e_ms = 0;
    {
      ScopedSpan root(&tracer, "stmt", -1, ++stmt_id);
      if (!run(kBegin, "BEGIN", &txn, root, &e2e_ms)) break;
    }
    pending.clear();
    for (size_t i = 0; i < kTxnSize; ++i) {
      const std::string text = DrawAnnotationText(&rng);
      const int64_t tuple = rng.Uniform(1, static_cast<int64_t>(kBirds));
      const std::string sql = "ANNOTATE Birds TUPLE " + std::to_string(tuple) +
                              " WITH '" + text + "'";
      const uint64_t id = ++stmt_id;
      ScopedSpan root(&tracer, "stmt", -1, id);
      if (!run(kAnnotate, sql, &txn, root, &e2e_ms)) continue;
      pending.push_back({tuple, hasher(text), text.size()});
      if (count_block) block_ann_bytes += static_cast<double>(text.size());
      if (!decompose) continue;
      // Layer steps of this ANNOTATE, re-run piecewise after it returned.
      double parse_ms = 0;
      {
        ScopedSpan span(&tracer, "sql.parse", root.id(), id);
        (void)insight::ParseStatement(sql);
        parse_ms = span.Stop();
      }
      const double mining_ms = mining.Time(text, &tracer, root.id(), id);
      {
        ScopedSpan span(&tracer, "summary.get_summaries", root.id(), id);
        (void)mgr->GetSummaries(static_cast<insight::Oid>(tuple));
        summaries_us.Add(span.Stop() * 1000);
      }
      parse_us.Add(parse_ms * 1000);
      exec_ms.Add(e2e_ms - parse_ms);
      e2e.Add(e2e_ms);
      residual.Add(e2e_ms - parse_ms - mining_ms);
    }
    ScopedSpan root(&tracer, "stmt", -1, ++stmt_id);
    if (run(kCommit, "COMMIT", &txn, root, &e2e_ms)) {
      acked.insert(acked.end(), pending.begin(), pending.end());
    }
    root.Stop();
    txn_s.Add((NowMs() - txn_start) / 1000);
    ++txns;
    if (txns == kRssTxns) rss_mb = PeakRssMb();
    if (args.trace && txns == kCountTxns) {
      block_delta = Delta(ReadCounters(*db), block_before);
      INSIGHT_ASSIGN_OR_RETURN(block_space, MeasureSpace(db.get(), "Birds"));
    }
  }
  const Counters run_after = args.trace ? ReadCounters(*db) : Counters{};

  INSIGHT_ASSIGN_OR_RETURN(SpaceUsage space, MeasureSpace(db.get(), "Birds"));
  db.reset();
  INSIGHT_RETURN_NOT_OK(VerifyDurable(dir, acked, &report));
  std::filesystem::remove_all(dir);

  report.E2e("setup_s", setup.Median(), "s", setup.size());
  // Throughput at the lower-quartile transaction time.
  report.E2e("ops_per_s", (kTxnSize + 2) / txn_s.Quantile(0.25), "1/s",
             txn_s.size());
  report.E2e("p50_ms", all.Median(), "ms", all.size());
  report.E2e("p95_ms", all.Quantile(0.95), "ms", all.size());
  // BEGIN does no work worth gating; the write path is ANNOTATE + COMMIT.
  report.E2e("kinds_p25_geomean_ms",
             GeomeanOfLowerQuartiles({&latency[kAnnotate], &latency[kCommit]}),
             "ms", latency[kAnnotate].size() + latency[kCommit].size());
  report.E2e("peak_rss_mb", rss_mb, "MB");
  report.E2e("space_amp", space.amp(), "ratio");
  report.Extra("write_p50_ms", latency[kAnnotate].Median(), "ms",
               latency[kAnnotate].size());
  report.Extra("write_p99_ms", latency[kAnnotate].Quantile(0.99), "ms",
               latency[kAnnotate].size());
  report.Extra("commit_p50_ms", latency[kCommit].Median(), "ms",
               latency[kCommit].size());
  report.meta.push_back({"transactions", std::to_string(txns)});
  report.meta.push_back({"txn_size", std::to_string(kTxnSize)});
  report.meta.push_back({"acknowledged", std::to_string(acked.size())});
  report.meta.push_back({"clients", "1 (embedded, closed loop)"});
  report.meta.push_back(
      {"flush_policy", "WAL group commit, one fsync per COMMIT"});

  if (!args.trace) return report;

  const double block_anns = static_cast<double>(kCountTxns * kTxnSize);
  AddCountMetrics(&report, block_delta,
                  static_cast<double>(kCountTxns * (kTxnSize + 2)), block_anns,
                  block_ann_bytes);
  report.Layer("sql.parse_us_p50", parse_us.Median(), "us", parse_us.size());
  report.Layer("engine.exec_ms_p50", exec_ms.Median(), "ms", exec_ms.size());
  report.Layer("summary.get_summaries_us", summaries_us.Median(), "us",
               summaries_us.size());
  report.Layer("summary.storage_bytes_per_ann_byte",
               block_space.summary_storage_bytes / block_space.raw_bytes,
               "B/B");
  report.Layer("annotation.bytes_per_ann_byte",
               block_space.annotation_store_bytes / block_space.raw_bytes,
               "B/B");
  mining.AddMetrics(&report);
  report.Layer("txn.commit_ms_p50", latency[kCommit].Median(), "ms",
               latency[kCommit].size());
  // The engine keeps WAL sync latency as a coarse histogram; its exact
  // sum and count give the mean.
  const Counters wal = Delta(run_after, run_before);
  const double syncs = wal.at("insight_wal_sync_micros.count");
  report.Layer("wal.sync_us_mean",
               syncs > 0 ? wal.at("insight_wal_sync_micros.sum") / syncs : 0,
               "us", static_cast<size_t>(syncs));
  report.Layer("trace.stmt_p50_ms", all.Median(), "ms", all.size());
  report.Layer("trace.unattributed_ms_p50", residual.Median(), "ms",
               residual.size());
  report.Layer("trace.unattributed_share",
               e2e.Sum() > 0 ? residual.Sum() / e2e.Sum() : 0, "ratio");
  char line[256];
  std::snprintf(line, sizeof(line),
                "annotate n=%zu e2e=%.3fms parse=%.1fus exec=%.3fms "
                "classify+snippet=%.3fms unattributed=%.3fms",
                e2e.size(), e2e.Median(), parse_us.Median(), exec_ms.Median(),
                e2e.Median() - parse_us.Median() / 1000 - residual.Median(),
                residual.Median());
  report.breakdown_lines.push_back(line);
  std::snprintf(line, sizeof(line), "commit   n=%zu e2e=%.3fms",
                latency[kCommit].size(), latency[kCommit].Median());
  report.breakdown_lines.push_back(line);
  const std::string trace_path = args.work_dir + "/trace-ingest.jsonl";
  if (!WriteTrace(trace_path, {&tracer})) {
    return Status::IOError("cannot write " + trace_path);
  }
  report.meta.push_back({"trace_file", trace_path});
  return report;
}

}  // namespace perfbench
