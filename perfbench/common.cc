#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <cstring>

#include "sindex/summary_btree.h"
#include "sql/parser.h"

namespace perfbench {

double NowMs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// ---------------------------------------------------------------- Samples

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double GeomeanOfLowerQuartiles(const std::vector<const Samples*>& kinds) {
  double log_sum = 0;
  size_t n = 0;
  for (const Samples* s : kinds) {
    if (s->empty()) continue;
    log_sum += std::log(std::max(s->Quantile(0.25), 1e-9));
    ++n;
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

// ----------------------------------------------------------------- Tracer

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t stmt) {
  if (!enabled_) return -1;
  spans_.push_back({name, NowMs(), 0, parent, stmt});
  return static_cast<int64_t>(spans_.size() - 1);
}

void Tracer::End(int64_t id) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end_ms = NowMs();
}

std::vector<double> Tracer::SelfTimes() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ms, s.end_ms});
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, spans_[i].start_ms);
      hi = std::min(hi, spans_[i].end_ms);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = spans_[i].end_ms - spans_[i].start_ms - covered;
  }
  return self;
}

void Tracer::AddOps(uint64_t stmt, std::vector<OpProfile> ops) {
  if (enabled_) ops_.push_back({stmt, std::move(ops)});
}

bool WriteTrace(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t t = 0; t < tracers.size(); ++t) {
    const Tracer& tracer = *tracers[t];
    const std::vector<double> self = tracer.SelfTimes();
    for (size_t i = 0; i < tracer.spans().size(); ++i) {
      const Span& s = tracer.spans()[i];
      std::fprintf(out,
                   "{\"thread\":%zu,\"span\":%zu,\"name\":\"%s\","
                   "\"stmt\":%llu,\"parent\":%lld,\"start_ms\":%.6f,"
                   "\"end_ms\":%.6f,\"self_ms\":%.6f}\n",
                   t, i, s.name.c_str(),
                   static_cast<unsigned long long>(s.stmt),
                   static_cast<long long>(s.parent), s.start_ms, s.end_ms,
                   self[i]);
    }
    for (const auto& [stmt, ops] : tracer.ops()) {
      for (const OpProfile& op : ops) {
        std::fprintf(out,
                     "{\"thread\":%zu,\"stmt\":%llu,\"op\":\"%s\","
                     "\"depth\":%d,\"inclusive_ms\":%.6f,"
                     "\"self_ms\":%.6f}\n",
                     t, static_cast<unsigned long long>(stmt),
                     op.name.c_str(), op.depth, op.inclusive_ms, op.self_ms);
      }
    }
  }
  return std::fclose(out) == 0;
}

double ScopedSpan::Stop() {
  if (ms_ < 0) {
    ms_ = std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start_)
              .count();
    tracer_->End(id_);
  }
  return ms_;
}

// --------------------------------------------------------------- Counters

namespace {

/// Minimal reader for the flat JSON DumpMetricsJson() renders: objects,
/// arrays, strings without escapes, and numbers.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : s_(text) {}

  void Skip() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n')) ++i_;
  }
  bool Eat(char c) {
    Skip();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  std::string String() {
    Skip();
    if (i_ >= s_.size() || s_[i_] != '"') return "";
    const size_t end = s_.find('"', i_ + 1);
    std::string out = s_.substr(i_ + 1, end - i_ - 1);
    i_ = end + 1;
    return out;
  }
  double Number() {
    Skip();
    char* end = nullptr;
    const double v = std::strtod(s_.c_str() + i_, &end);
    i_ = static_cast<size_t>(end - s_.c_str());
    return v;
  }
  bool AtString() {
    Skip();
    return i_ < s_.size() && s_[i_] == '"';
  }

 private:
  const std::string& s_;
  size_t i_ = 0;
};

}  // namespace

Counters ReadCounters(const Database& db) {
  const std::string json = db.DumpMetricsJson();
  Counters out;
  JsonCursor c(json);
  c.Eat('{');
  do {
    const std::string section = c.String();
    c.Eat(':');
    c.Eat('{');
    if (c.Eat('}')) continue;
    do {
      const std::string name = c.String();
      c.Eat(':');
      if (section != "histograms") {
        out[name] = c.Number();
        continue;
      }
      c.Eat('{');
      do {
        const std::string field = c.String();
        c.Eat(':');
        if (field != "buckets") {
          out[name + "." + field] = c.Number();
          continue;
        }
        // Skip the [[bound, count], ...] bucket list.
        c.Eat('[');
        while (c.Eat('[')) {
          if (c.AtString()) {
            c.String();  // "+Inf"
          } else {
            c.Number();
          }
          c.Eat(',');
          c.Number();
          c.Eat(']');
          c.Eat(',');
        }
        c.Eat(']');
      } while (c.Eat(','));
      c.Eat('}');
    } while (c.Eat(','));
    c.Eat('}');
  } while (c.Eat(','));
  return out;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

// ------------------------------------------------------ EXPLAIN ANALYZE

std::vector<OpProfile> ParseExplainAnalyze(const std::string& text) {
  std::vector<OpProfile> ops;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t time_at = line.find(" time=");
    if (time_at == std::string::npos) continue;
    OpProfile op;
    const size_t indent = line.find_first_not_of(' ');
    op.depth = static_cast<int>(indent / 2);
    const size_t name_end = line.find_first_of("(", indent);
    op.name = line.substr(indent, name_end - indent);
    op.inclusive_ms = std::strtod(line.c_str() + time_at + 6, nullptr);
    ops.push_back(op);
  }
  // Self = inclusive minus the direct children's inclusive time.
  for (size_t i = 0; i < ops.size(); ++i) {
    double children = 0;
    for (size_t j = i + 1; j < ops.size() && ops[j].depth > ops[i].depth;
         ++j) {
      if (ops[j].depth == ops[i].depth + 1) children += ops[j].inclusive_ms;
    }
    ops[i].self_ms = std::max(0.0, ops[i].inclusive_ms - children);
  }
  return ops;
}

double SelfMsOf(const std::vector<OpProfile>& ops, const std::string& needle) {
  double sum = 0;
  for (const OpProfile& op : ops) {
    if (op.name.find(needle) != std::string::npos) sum += op.self_ms;
  }
  return sum;
}

double TotalSelfMs(const std::vector<OpProfile>& ops) {
  double sum = 0;
  for (const OpProfile& op : ops) sum += op.self_ms;
  return sum;
}

StatementSteps ProfileStatement(Database* db, const std::string& sql,
                                bool execute,
                                const std::vector<insight::Oid>& oids,
                                Tracer* tracer, int64_t root, uint64_t stmt) {
  StatementSteps steps;
  {
    ScopedSpan span(tracer, "sql.parse", root, stmt);
    (void)insight::ParseStatement(sql);
    steps.parse_ms = span.Stop();
  }
  {
    ScopedSpan span(tracer, "optimizer.explain", root, stmt);
    (void)db->Explain(sql);
    steps.explain_ms = span.Stop();
  }
  if (execute) {
    uint64_t txn = 0;  // Own handle: the one-argument Execute serializes.
    ScopedSpan span(tracer, "engine.execute", root, stmt);
    (void)db->Execute(sql, &txn);
    steps.execute_ms = span.Stop();
  }
  {
    ScopedSpan span(tracer, "engine.explain_analyze", root, stmt);
    auto analyzed = db->ExplainAnalyze(sql);
    if (analyzed.ok()) steps.ops = ParseExplainAnalyze(*analyzed);
  }
  tracer->AddOps(stmt, steps.ops);
  insight::SummaryManager* mgr = *db->GetManager("Birds");
  ScopedSpan span(tracer, "summary.get_summaries", root, stmt);
  for (insight::Oid oid : oids) (void)mgr->GetSummaries(oid);
  steps.summaries_ms = span.Stop();
  return steps;
}

// ------------------------------------------------------------------ Misc

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void Report::Fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

void FailureLog::Add(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  ++count_;
  if (first_.size() < 8) first_.push_back(why);
}

void FailureLog::MoveInto(Report* report) {
  std::lock_guard<std::mutex> lock(mu_);
  report->failed += count_;
  for (std::string& why : first_) {
    if (report->errors.size() < 8) report->errors.push_back(std::move(why));
  }
  count_ = 0;
  first_.clear();
}

insight::Result<SpaceUsage> MeasureSpace(Database* db,
                                         const std::string& table) {
  SpaceUsage space;
  INSIGHT_ASSIGN_OR_RETURN(insight::SummaryManager * mgr,
                           db->GetManager(table));
  INSIGHT_ASSIGN_OR_RETURN(const insight::SummaryBTree* sbt,
                           db->GetSummaryIndex(table, "ClassBird1"));
  INSIGHT_RETURN_NOT_OK(mgr->annotations()->ForEachAnnotation(
      [&](const insight::Annotation& ann) {
        space.raw_bytes += static_cast<double>(ann.text.size());
        return insight::Status::OK();
      }));
  space.annotation_store_bytes =
      static_cast<double>(mgr->annotations()->storage_bytes());
  space.summary_storage_bytes =
      static_cast<double>(mgr->summary_storage_bytes());
  space.sbtree_bytes = static_cast<double>(sbt->size_bytes());
  if (space.raw_bytes <= 0) {
    return insight::Status::InvalidArgument("table holds no annotation text");
  }
  return space;
}

void AddCountMetrics(Report* report, const Counters& delta, double stmts,
                     double anns, double ann_bytes) {
  auto get = [&](const char* name) {
    auto it = delta.find(name);
    return it == delta.end() ? 0.0 : it->second;
  };
  auto per = [](double v, double d) { return d > 0 ? v / d : 0.0; };
  const double hits = get("insight_bufferpool_hits_total");
  const double fetches = hits + get("insight_bufferpool_misses_total");
  report->Layer("net.bytes_sent_per_stmt",
                per(get("insight_net_bytes_sent_total"), stmts), "B/stmt");
  report->Layer("index.btree_probes_per_stmt",
                per(get("insight_btree_probes_total"), stmts), "count/stmt");
  report->Layer("sindex.sbtree_probes_per_stmt",
                per(get("insight_sbtree_probes_total"), stmts), "count/stmt");
  report->Layer("sindex.backward_derefs_per_stmt",
                per(get("insight_sbtree_backward_derefs_total"), stmts),
                "count/stmt");
  report->Layer("sindex.key_inserts_per_ann",
                per(get("insight_sbtree_key_inserts_total"), anns),
                "count/ann");
  report->Layer("sindex.key_deletes_per_ann",
                per(get("insight_sbtree_key_deletes_total"), anns),
                "count/ann");
  report->Layer("storage.bp_fetches_per_stmt", per(fetches, stmts),
                "count/stmt");
  report->Layer("storage.bp_hit_ratio", per(hits, fetches), "ratio");
  report->Layer("storage.bp_evictions_per_stmt",
                per(get("insight_bufferpool_evictions_total"), stmts),
                "count/stmt");
  report->Layer("storage.bp_writebacks_per_stmt",
                per(get("insight_bufferpool_writebacks_total"), stmts),
                "count/stmt");
  report->Layer("storage.bp_latch_waits_per_stmt",
                per(get("insight_bufferpool_latch_waits_total"), stmts),
                "count/stmt");
  report->Layer("storage.heap_pages_scanned_per_stmt",
                per(get("insight_heap_pages_scanned_total"), stmts),
                "count/stmt");
  report->Layer("storage.pages_skipped_per_stmt",
                per(get("insight_scan_pages_skipped_total"), stmts),
                "count/stmt");
  report->Layer("wal.bytes_per_ann_byte",
                per(get("insight_wal_append_bytes_total"), ann_bytes), "B/B");
  report->Layer("wal.appends_per_ann",
                per(get("insight_wal_appends_total"), anns), "count/ann");
  report->Layer("wal.fsyncs_per_ann",
                per(get("insight_wal_fsyncs_total"), anns), "count/ann");
  report->Layer("stats.sketch_updates_per_ann",
                per(get("insight_stats_sketch_updates_total"), anns),
                "count/ann");
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"p50_ms", "ms"},
      {"p95_ms", "ms"},
      {"kinds_p25_geomean_ms", "ms"},
      {"peak_rss_mb", "MB"},
      {"space_amp", "ratio"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"net.self_ms_p50", "ms"},
      {"net.bytes_sent_per_stmt", "B/stmt"},
      {"sql.parse_us_p50", "us"},
      {"optimizer.plan_us_p50", "us"},
      {"engine.exec_ms_p50", "ms"},
      {"engine.q1.sort_self_ms", "ms"},
      {"engine.q2.join_self_ms", "ms"},
      {"engine.q3.access_self_ms", "ms"},
      {"engine.topn.sort_self_ms", "ms"},
      {"summary.get_summaries_us", "us"},
      {"summary.storage_bytes_per_ann_byte", "B/B"},
      {"index.btree_probes_per_stmt", "count/stmt"},
      {"sindex.sbtree_probes_per_stmt", "count/stmt"},
      {"sindex.backward_derefs_per_stmt", "count/stmt"},
      {"sindex.key_inserts_per_ann", "count/ann"},
      {"sindex.key_deletes_per_ann", "count/ann"},
      {"mining.classify_us_p50", "us"},
      {"mining.snippet_us_p99", "us"},
      {"annotation.bytes_per_ann_byte", "B/B"},
      {"annotation.zoom_pages_per_call", "count/call"},
      {"storage.bp_fetches_per_stmt", "count/stmt"},
      {"storage.bp_hit_ratio", "ratio"},
      {"storage.bp_evictions_per_stmt", "count/stmt"},
      {"storage.bp_writebacks_per_stmt", "count/stmt"},
      {"storage.bp_latch_waits_per_stmt", "count/stmt"},
      {"storage.heap_pages_scanned_per_stmt", "count/stmt"},
      {"storage.pages_skipped_per_stmt", "count/stmt"},
      {"txn.commit_ms_p50", "ms"},
      {"wal.bytes_per_ann_byte", "B/B"},
      {"wal.appends_per_ann", "count/ann"},
      {"wal.fsyncs_per_ann", "count/ann"},
      {"wal.sync_us_mean", "us"},
      {"stats.sketch_updates_per_ann", "count/ann"},
      {"trace.stmt_p50_ms", "ms"},
      {"trace.unattributed_ms_p50", "ms"},
      {"trace.unattributed_share", "ratio"},
  };
  return kMetrics;
}

}  // namespace perfbench
