// Shared pieces of the end-to-end benchmark runner: run arguments, latency
// samples, the in-memory span tracer, engine counter snapshots, EXPLAIN
// ANALYZE operator profiles, and the report every workload fills in.
#ifndef INSIGHTNOTES_PERFBENCH_COMMON_H_
#define INSIGHTNOTES_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sql/database.h"

namespace perfbench {

using insight::Database;

/// Corpus and pool sizes shared by every workload (see README.md).
constexpr size_t kBirds = 450;
constexpr size_t kCaseStudyAnnotationsPerBird = 25;
constexpr size_t kIngestBaseAnnotationsPerBird = 10;
/// 256 frames x 16 KiB pages = 4 MiB: smaller than the raw annotation
/// store of either corpus, larger than the summary read set.
constexpr size_t kPoolFrames = 256;
/// Set-ups per run; setup_s is their median and the last one is measured.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";  // Scratch files and the trace output.
};

/// Milliseconds since the first call (process-relative, steady clock).
double NowMs();

/// A bag of measurements with interpolated quantiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Linear interpolation between closest ranks; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// One operator of an EXPLAIN ANALYZE tree.
struct OpProfile {
  std::string name;     // Operator kind, e.g. "SummarySort[O]".
  int depth = 0;
  double inclusive_ms = 0;
  double self_ms = 0;   // Inclusive minus the children's inclusive time.
};
/// One timed region: name, start, end, parent span (-1 for a root) and the
/// statement it belongs to.
struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int64_t parent = -1;
  uint64_t stmt = 0;
};

/// Per-thread span buffer. Disabled tracers record nothing, so the
/// untraced run pays one branch per span site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int64_t Begin(const char* name, int64_t parent, uint64_t stmt);
  void End(int64_t id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the part of it covered by the span's direct children.
  std::vector<double> SelfTimes() const;

  /// Operator profile of one statement, from EXPLAIN ANALYZE.
  void AddOps(uint64_t stmt, std::vector<OpProfile> ops);
  const std::vector<std::pair<uint64_t, std::vector<OpProfile>>>& ops() const {
    return ops_;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::pair<uint64_t, std::vector<OpProfile>>> ops_;
};

/// Writes every tracer's spans (with self times) and operator profiles as
/// JSON lines to `path`. Returns false when the file cannot be written.
bool WriteTrace(const std::string& path,
                const std::vector<const Tracer*>& tracers);

/// RAII span. Stop() returns the measured duration even when tracing is
/// off, so the same scope times the statement in both modes.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent, uint64_t stmt)
      : tracer_(tracer),
        id_(tracer->Begin(name, parent, stmt)),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span (idempotent) and returns its duration in ms.
  double Stop();
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
  std::chrono::steady_clock::time_point start_;
  double ms_ = -1;
};

/// Engine counters and gauges parsed from Database::DumpMetricsJson();
/// each histogram contributes "<name>.count" and "<name>.sum".
using Counters = std::map<std::string, double>;
Counters ReadCounters(const Database& db);
/// after - before, key by key.
Counters Delta(const Counters& after, const Counters& before);

std::vector<OpProfile> ParseExplainAnalyze(const std::string& text);
/// Sum of self time over operators whose name contains `needle`.
double SelfMsOf(const std::vector<OpProfile>& ops, const std::string& needle);
double TotalSelfMs(const std::vector<OpProfile>& ops);

/// One statement re-run piecewise through the public API after its timed
/// execution, each step under its own span of `root`.
struct StatementSteps {
  double parse_ms = 0;      // ParseStatement.
  double explain_ms = 0;    // Database::Explain: parse + plan.
  double execute_ms = 0;    // Embedded Database::Execute (0 when skipped).
  double summaries_ms = 0;  // SummaryManager::GetSummaries over `oids`.
  std::vector<OpProfile> ops;  // Database::ExplainAnalyze.
};
/// Runs ParseStatement, Explain, Execute (when `execute`), ExplainAnalyze
/// and GetSummaries on the Birds tuples `oids`; the operator profile also
/// goes to the tracer.
StatementSteps ProfileStatement(Database* db, const std::string& sql,
                                bool execute,
                                const std::vector<insight::Oid>& oids,
                                Tracer* tracer, int64_t root, uint64_t stmt);

/// Peak resident set size of the process, in MiB.
double PeakRssMb();

struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 0;  // Measurements behind the value (0 = a ratio/count).
};

/// What a workload run hands back to main().
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // First few failure descriptions.
  std::vector<std::pair<std::string, Metric>> end_to_end;
  std::vector<std::pair<std::string, Metric>> per_layer;
  std::vector<std::pair<std::string, std::string>> meta;
  /// Printed with the end-to-end set but not part of the JSON result:
  /// per statement kind medians and the failure fraction.
  std::vector<std::pair<std::string, Metric>> extra;
  /// Traced runs: per statement kind, the median ms of each layer step.
  std::vector<std::string> breakdown_lines;

  void Fail(const std::string& why);
  void E2e(const std::string& name, double v, const std::string& unit,
           size_t samples = 0) {
    end_to_end.push_back({name, {v, unit, samples}});
  }
  void Layer(const std::string& name, double v, const std::string& unit,
             size_t samples = 0) {
    per_layer.push_back({name, {v, unit, samples}});
  }
  void Extra(const std::string& name, double v, const std::string& unit,
             size_t samples = 0) {
    extra.push_back({name, {v, unit, samples}});
  }
};

/// Thread-safe failure sink for multi-client workloads.
class FailureLog {
 public:
  void Add(const std::string& why);
  void MoveInto(Report* report);

 private:
  std::mutex mu_;
  uint64_t count_ = 0;
  std::vector<std::string> first_;
};

/// Geometric mean of the per-kind lower quartiles (a regression in any
/// one statement kind moves it, however rare that kind is in the mix).
/// Lower quartiles rather than medians, and throughput at the faster
/// quartile of cycles, transactions or seconds: a shared host can run the
/// same code up to 1.6x slower for seconds at a time, and the faster
/// quartile is set by the part of the run the host left alone.
double GeomeanOfLowerQuartiles(const std::vector<const Samples*>& kinds);

/// Space amplification of one annotated table: bytes in its annotation
/// store, summary storage and Summary-BTree over raw annotation bytes.
struct SpaceUsage {
  double raw_bytes = 0;
  double annotation_store_bytes = 0;
  double summary_storage_bytes = 0;
  double sbtree_bytes = 0;
  double amp() const {
    return (annotation_store_bytes + summary_storage_bytes + sbtree_bytes) /
           raw_bytes;
  }
};
insight::Result<SpaceUsage> MeasureSpace(Database* db,
                                         const std::string& table);

/// Per-statement work counts over a counter delta, as per-layer metrics.
/// `stmts` and `anns` are the denominators; `ann_bytes` the raw bytes of
/// the annotations written in the delta's window.
void AddCountMetrics(Report* report, const Counters& delta, double stmts,
                     double anns, double ann_bytes);

/// The metric sets every run reports, in output order: (name, unit).
/// Untraced runs print the end-to-end set, traced runs the per-layer set;
/// a per-layer metric whose layer the workload never reaches reads 0.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench

#endif  // INSIGHTNOTES_PERFBENCH_COMMON_H_
