// serve: an in-process InsightServer on the case-study corpus, loaded by
// kClients blocking InsightClient connections in a closed loop, each
// drawing from the point / point+summary / range / top-N / ANNOTATE mix.
#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "corpus.h"
#include "net/client.h"
#include "net/server.h"
#include "sql/parser.h"
#include "workloads.h"

namespace perfbench {

namespace {

using insight::InsightClient;
using insight::InsightServer;
using insight::NetResult;
using insight::Result;
using insight::Status;

constexpr size_t kClients = 4;
constexpr size_t kIoThreads = 4;
/// Statements per client in the traced run's count block.
constexpr size_t kCountStmts = 50;
/// peak_rss_mb is read once the clients have attempted this many
/// statements, so it measures a fixed amount of work (ANNOTATE grows the
/// in-memory store) whatever the throughput.
constexpr size_t kRssStmts = 4000;
static_assert(kRssStmts % kClients == 0);

enum Kind { kPoint = 0, kPointSummary, kRange, kTopN, kAnnotate, kNumKinds };
constexpr std::array<const char*, kNumKinds> kKindNames = {
    "point", "point_summary", "range", "topn", "annotate"};

const char* const kDiseasePositive =
    "$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 0";
const char* const kTopNSql =
    "SELECT id, $.getSummaryObject('ClassBird1').getLabelValue('Disease') "
    "FROM Birds ORDER BY "
    "$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC LIMIT 5";
const char* const kRangeSql =
    "SELECT id, common_name FROM Birds WHERE id < 9 ORDER BY id";

struct Statement {
  Kind kind;
  int64_t bird;
  std::string sql;
  std::string text;  // ANNOTATE only.
};

/// 50% point, 20% point + summary predicate, 10% range, 10% top-N, 10%
/// autocommit ANNOTATE.
Statement Draw(insight::Rng* rng) {
  const double u = rng->NextDouble();
  const int64_t bird = rng->Uniform(1, static_cast<int64_t>(kBirds));
  const std::string point =
      "SELECT common_name FROM Birds WHERE id = " + std::to_string(bird);
  if (u < 0.5) return {kPoint, bird, point, ""};
  if (u < 0.7) {
    return {kPointSummary, bird, point + " AND " + kDiseasePositive, ""};
  }
  if (u < 0.8) return {kRange, 0, kRangeSql, ""};
  if (u < 0.9) return {kTopN, 0, kTopNSql, ""};
  std::string text = DrawAnnotationText(rng);
  return {kAnnotate, bird,
          "ANNOTATE Birds TUPLE " + std::to_string(bird) + " WITH '" + text +
              "'",
          text};
}

/// What the checks know beyond the reference: Disease counts only grow
/// under ANNOTATE, so a tuple's load-time answer stays right unless it
/// was annotated since.
struct ServeState {
  const Reference* ref;
  int64_t top5_floor = 0;  // 5th largest Disease count at load.
  std::array<std::atomic<bool>, kBirds + 1> annotated{};
};

std::string Check(ServeState* state, const Statement& s,
                  const Result<NetResult>& r) {
  if (!r.ok()) return s.sql.substr(0, 40) + ": " + r.status().ToString();
  const Reference& ref = *state->ref;
  const auto& rows = r->rows;
  auto name_is = [&](size_t i, int64_t bird) {
    return StringAt(rows[i], 0) == ref.name[bird];
  };
  switch (s.kind) {
    case kPoint:
      if (rows.size() == 1 && name_is(0, s.bird)) return "";
      return "point read of " + std::to_string(s.bird) + " is wrong";
    case kPointSummary: {
      const auto& d = ref.disease[s.bird];
      const bool qualified = d && *d > 0;
      if (rows.size() == 1 && name_is(0, s.bird) &&
          (qualified || state->annotated[s.bird].load())) {
        return "";
      }
      if (rows.empty() && !qualified) return "";
      return "summary point read of " + std::to_string(s.bird) + " is wrong";
    }
    case kRange:
      if (rows.size() != 8) return "range read returned wrong row count";
      for (size_t i = 0; i < 8; ++i) {
        if (IntAt(rows[i], 0) != static_cast<int64_t>(i + 1) ||
            StringAt(rows[i], 1) != ref.name[i + 1]) {
          return "range read is wrong at row " + std::to_string(i);
        }
      }
      return "";
    case kTopN: {
      // Counts only grow, so each of the top 5 is at least the load-time
      // 5th count, and a tuple not annotated since load still has its
      // load-time count.
      if (rows.size() != 5) return "top-N returned wrong row count";
      std::set<int64_t> seen;
      int64_t last = INT64_MAX;
      for (const auto& row : rows) {
        const int64_t id = IntAt(row, 0);
        const int64_t count = IntAt(row, 1);
        if (id < 1 || id > static_cast<int64_t>(kBirds) ||
            !seen.insert(id).second) {
          return "top-N returned a bad id";
        }
        if (count > last) {
          return "top-N is out of order at " + std::to_string(id);
        }
        last = count;
        const auto& d = ref.disease[id];
        if (count < state->top5_floor ||
            (!state->annotated[id].load() && !(d && *d == count))) {
          return "top-N returned " + std::to_string(id) + " with count " +
                 std::to_string(count) +
                 ", inconsistent with the load-time counts";
        }
      }
      return "";
    }
    default:
      return "";
  }
}

/// Layer steps of traced reads, in the units of their metrics.
struct Steps {
  Samples e2e, net_self, parse_us, plan_us, exec, topn_sort, summaries_us,
      residual;
  void Append(const Steps& o) {
    e2e.Append(o.e2e);
    net_self.Append(o.net_self);
    parse_us.Append(o.parse_us);
    plan_us.Append(o.plan_us);
    exec.Append(o.exec);
    topn_sort.Append(o.topn_sort);
    summaries_us.Append(o.summaries_us);
    residual.Append(o.residual);
  }
};

/// Re-runs a read piecewise through the embedded API after its timed
/// round trip (see ProfileStatement).
void Decompose(Database* db, const Statement& s, const NetResult& result,
               double rt_ms, Tracer* tracer, int64_t root, uint64_t stmt,
               Steps* steps) {
  std::vector<insight::Oid> oids;
  if (s.kind == kPoint || s.kind == kPointSummary) {
    oids.push_back(static_cast<insight::Oid>(s.bird));
  } else {
    for (const auto& row : result.rows) {
      oids.push_back(static_cast<insight::Oid>(IntAt(row, 0)));
    }
  }
  const StatementSteps st =
      ProfileStatement(db, s.sql, true, oids, tracer, root, stmt);
  const double net_self = rt_ms - st.execute_ms;
  steps->e2e.Add(rt_ms);
  steps->net_self.Add(net_self);
  steps->parse_us.Add(st.parse_ms * 1000);
  steps->plan_us.Add((st.explain_ms - st.parse_ms) * 1000);
  steps->exec.Add(st.execute_ms - st.explain_ms);
  steps->summaries_us.Add(st.summaries_ms * 1000);
  if (s.kind == kTopN) steps->topn_sort.Add(SelfMsOf(st.ops, "Sort"));
  steps->residual.Add(rt_ms - net_self - st.explain_ms - TotalSelfMs(st.ops));
}

/// One client's share of the run.
struct ClientResult {
  std::array<Samples, kNumKinds> latency;
  std::array<Steps, kNumKinds> steps;
  std::vector<double> done_ms;  // Completion time of each good statement.
  std::vector<std::string> annotate_texts;  // Traced runs.
  double block_ann_bytes = 0;
  size_t block_anns = 0;
  uint64_t attempted = 0;
};

/// Database, server and connected clients of one set-up. Members are
/// declared so that clients close before the server, and the server
/// drains before the database goes.
struct Deployment {
  std::unique_ptr<Database> db;
  std::unique_ptr<InsightServer> server;
  std::vector<std::unique_ptr<InsightClient>> clients;

  ~Deployment() {
    clients.clear();
    if (server) server->Shutdown();
    server.reset();
  }
};

Status Deploy(uint64_t seed, Deployment* d) {
  INSIGHT_ASSIGN_OR_RETURN(d->db, BuildCaseStudyCorpus(seed));
  InsightServer::Options options;
  options.port = 0;
  options.io_threads = kIoThreads;
  d->server = std::make_unique<InsightServer>(d->db.get(), options);
  INSIGHT_RETURN_NOT_OK(d->server->Start());
  for (size_t c = 0; c < kClients; ++c) {
    INSIGHT_ASSIGN_OR_RETURN(auto client,
                             InsightClient::Connect("127.0.0.1",
                                                    d->server->port()));
    d->clients.push_back(std::move(client));
  }
  return Status::OK();
}

}  // namespace

Result<Report> RunServe(const Args& args) {
  Report report;
  Samples setup;
  std::unique_ptr<Deployment> deployment;
  for (int k = 0; k < kSetups; ++k) {
    deployment = std::make_unique<Deployment>();
    const double t0 = NowMs();
    INSIGHT_RETURN_NOT_OK(Deploy(args.seed, deployment.get()));
    setup.Add((NowMs() - t0) / 1000);
  }
  Database* db = deployment->db.get();
  INSIGHT_ASSIGN_OR_RETURN(Reference ref, ComputeReference(db));
  ServeState state;
  state.ref = &ref;
  {
    std::vector<int64_t> counts;
    for (size_t id = 1; id <= kBirds; ++id) {
      if (ref.disease[id]) counts.push_back(*ref.disease[id]);
    }
    std::sort(counts.rbegin(), counts.rend());
    if (counts.size() < 5) return Status::Corruption("too few summaries");
    state.top5_floor = counts[4];
  }

  std::vector<Tracer> tracers(kClients, Tracer(args.trace));
  std::vector<ClientResult> results(kClients);
  FailureLog failures;
  Counters block_before, block_after;
  Result<SpaceUsage> block_space = SpaceUsage{};
  // The first barrier phase opens the count block, the second closes it;
  // the completion step runs while every client is parked.
  int phase = 0;
  std::barrier sync(static_cast<std::ptrdiff_t>(kClients), [&]() noexcept {
    if (!args.trace) return;
    if (phase++ == 0) {
      block_before = ReadCounters(*db);
    } else {
      block_after = ReadCounters(*db);
      block_space = MeasureSpace(db, "Birds");
    }
  });
  std::atomic<size_t> stmts_attempted{0};
  std::atomic<double> rss_mb{0};
  const double start = NowMs();
  const double deadline = start + args.seconds * 1000;

  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      InsightClient* client = deployment->clients[c].get();
      Tracer* tracer = &tracers[c];
      ClientResult& out = results[c];
      insight::Rng rng(args.seed * 104729 + c);
      uint64_t stmt_id = static_cast<uint64_t>(c) << 48;
      sync.arrive_and_wait();
      for (size_t i = 0;; ++i) {
        const bool count_block = args.trace && i < kCountStmts;
        if (args.trace && i == kCountStmts) sync.arrive_and_wait();
        if (!count_block && i >= kRssStmts / kClients && NowMs() >= deadline) {
          break;
        }
        const Statement s = Draw(&rng);
        const uint64_t id = ++stmt_id;
        ScopedSpan root(tracer, "stmt", -1, id);
        if (s.kind == kAnnotate) state.annotated[s.bird].store(true);
        ScopedSpan rt(tracer, "net.roundtrip", root.id(), id);
        Result<NetResult> r = client->Execute(s.sql);
        const double ms = rt.Stop();
        ++out.attempted;
        if (stmts_attempted.fetch_add(1) + 1 == kRssStmts) {
          rss_mb.store(PeakRssMb());
        }
        std::string verdict;
        {
          ScopedSpan check(tracer, "check", root.id(), id);
          verdict = Check(&state, s, r);
        }
        if (!verdict.empty()) {
          failures.Add(verdict);
          continue;
        }
        out.latency[s.kind].Add(ms);
        out.done_ms.push_back(NowMs());
        if (s.kind == kAnnotate) {
          if (count_block) {
            out.block_ann_bytes += static_cast<double>(s.text.size());
            ++out.block_anns;
          }
          if (args.trace) {
            out.annotate_texts.push_back(s.text);
            ScopedSpan parse(tracer, "sql.parse", root.id(), id);
            (void)insight::ParseStatement(s.sql);
          }
          continue;
        }
        if (args.trace && !count_block) {
          Decompose(db, s, *r, ms, tracer, root.id(), id, &out.steps[s.kind]);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  failures.MoveInto(&report);

  ClientResult merged;
  Steps steps;
  for (const ClientResult& r : results) {
    for (int k = 0; k < kNumKinds; ++k) {
      merged.latency[k].Append(r.latency[k]);
      steps.Append(r.steps[k]);
    }
    report.attempted += r.attempted;
    merged.block_ann_bytes += r.block_ann_bytes;
    merged.block_anns += r.block_anns;
  }
  Samples all, reads;
  std::vector<const Samples*> kinds;
  for (int k = 0; k < kNumKinds; ++k) {
    all.Append(merged.latency[k]);
    if (k != kAnnotate) reads.Append(merged.latency[k]);
    kinds.push_back(&merged.latency[k]);
  }
  INSIGHT_ASSIGN_OR_RETURN(SpaceUsage space, MeasureSpace(db, "Birds"));

  report.E2e("setup_s", setup.Median(), "s", setup.size());
  // Throughput: the upper quartile of the completions in each whole second
  // of the run (see GeomeanOfLowerQuartiles).
  std::vector<double> per_second(static_cast<size_t>(args.seconds), 0);
  for (const ClientResult& r : results) {
    for (double t : r.done_ms) {
      const size_t window = static_cast<size_t>((t - start) / 1000);
      if (window < per_second.size()) ++per_second[window];
    }
  }
  Samples rate;
  for (double n : per_second) rate.Add(n);
  report.E2e("ops_per_s", rate.Quantile(0.75), "1/s", rate.size());
  report.E2e("p50_ms", all.Median(), "ms", all.size());
  report.E2e("p95_ms", all.Quantile(0.95), "ms", all.size());
  report.E2e("kinds_p25_geomean_ms", GeomeanOfLowerQuartiles(kinds), "ms",
             all.size());
  report.E2e("peak_rss_mb", rss_mb.load(), "MB");
  report.E2e("space_amp", space.amp(), "ratio");
  const Samples& writes = merged.latency[kAnnotate];
  report.Extra("read_p50_ms", reads.Median(), "ms", reads.size());
  report.Extra("read_p99_ms", reads.Quantile(0.99), "ms", reads.size());
  report.Extra("write_p50_ms", writes.Median(), "ms", writes.size());
  report.Extra("write_p99_ms", writes.Quantile(0.99), "ms", writes.size());
  for (int k = 0; k < kNumKinds; ++k) {
    report.Extra(std::string(kKindNames[k]) + "_p50_ms",
                 merged.latency[k].Median(), "ms", merged.latency[k].size());
  }
  report.meta.push_back({"clients", std::to_string(kClients) +
                                        " InsightClient connections, closed "
                                        "loop"});
  report.meta.push_back({"io_threads", std::to_string(kIoThreads)});
  report.meta.push_back({"flush_policy", "none (in-memory, no WAL)"});

  if (!args.trace) return report;

  const double block_stmts = static_cast<double>(kClients * kCountStmts);
  AddCountMetrics(&report, Delta(block_after, block_before), block_stmts,
                  static_cast<double>(merged.block_anns),
                  merged.block_ann_bytes);
  report.Layer("net.self_ms_p50", steps.net_self.Median(), "ms",
               steps.net_self.size());
  report.Layer("sql.parse_us_p50", steps.parse_us.Median(), "us",
               steps.parse_us.size());
  report.Layer("optimizer.plan_us_p50", steps.plan_us.Median(), "us",
               steps.plan_us.size());
  report.Layer("engine.exec_ms_p50", steps.exec.Median(), "ms",
               steps.exec.size());
  report.Layer("engine.topn.sort_self_ms", steps.topn_sort.Median(), "ms",
               steps.topn_sort.size());
  report.Layer("summary.get_summaries_us", steps.summaries_us.Median(), "us",
               steps.summaries_us.size());
  INSIGHT_RETURN_NOT_OK(block_space.status());
  report.Layer("summary.storage_bytes_per_ann_byte",
               block_space->summary_storage_bytes / block_space->raw_bytes,
               "B/B");
  report.Layer("annotation.bytes_per_ann_byte",
               block_space->annotation_store_bytes / block_space->raw_bytes,
               "B/B");
  MiningProbe mining(db);
  Tracer untraced(false);
  for (const ClientResult& r : results) {
    for (const std::string& text : r.annotate_texts) {
      mining.Time(text, &untraced, -1, 0);
    }
  }
  mining.AddMetrics(&report);
  report.Layer("trace.stmt_p50_ms", all.Median(), "ms", all.size());
  report.Layer("trace.unattributed_ms_p50", steps.residual.Median(), "ms",
               steps.residual.size());
  report.Layer("trace.unattributed_share",
               steps.e2e.Sum() > 0 ? steps.residual.Sum() / steps.e2e.Sum()
                                   : 0,
               "ratio");
  for (int k = 0; k < kNumKinds; ++k) {
    Steps st;
    for (const ClientResult& r : results) st.Append(r.steps[k]);
    if (st.e2e.empty()) continue;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-13s n=%-5zu rt=%.3fms net_self=%.3fms parse=%.1fus "
                  "plan=%.1fus exec=%.3fms unattributed=%.3fms",
                  kKindNames[k], st.e2e.size(), st.e2e.Median(),
                  st.net_self.Median(), st.parse_us.Median(),
                  st.plan_us.Median(), st.exec.Median(),
                  st.residual.Median());
    report.breakdown_lines.push_back(line);
  }
  const std::string trace_path = args.work_dir + "/trace-serve.jsonl";
  std::vector<const Tracer*> tracer_ptrs;
  for (const Tracer& t : tracers) tracer_ptrs.push_back(&t);
  if (!WriteTrace(trace_path, tracer_ptrs)) {
    return Status::IOError("cannot write " + trace_path);
  }
  report.meta.push_back({"trace_file", trace_path});
  return report;
}

}  // namespace perfbench
