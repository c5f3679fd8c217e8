// insight_perfbench: one run of one workload.
//
//   insight_perfbench --workload casestudy|ingest|serve --seed N
//                     --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a metric table, one {"meta": ...} line, and as its last line the
// result object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end set with --trace 0, the per-layer set with --trace 1.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Report;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload casestudy|ingest|serve --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  insight::Result<Report> result = insight::Status::InvalidArgument(
      "unknown workload " + args.workload);
  if (args.workload == "casestudy") {
    result = perfbench::RunCaseStudy(args);
  } else if (args.workload == "ingest") {
    result = perfbench::RunIngest(args);
  } else if (args.workload == "serve") {
    result = perfbench::RunServe(args);
  }
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", result.status().ToString().c_str());
    return 1;
  }
  Report& report = *result;

  // Human-readable table: the reported set plus the per-kind extras.
  const auto& wanted = args.trace ? perfbench::PerLayerMetrics()
                                  : perfbench::EndToEndMetrics();
  const auto& have = args.trace ? report.per_layer : report.end_to_end;
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  auto print_row = [](const std::string& name, const Metric& m) {
    std::printf("%-38s %14.6g %-10s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  };
  std::string metrics_json;
  for (const auto& [name, unit] : wanted) {
    Metric m{0, unit, 0};
    for (const auto& [have_name, have_metric] : have) {
      if (have_name == name) m = have_metric;
    }
    print_row(name, m);
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
                    ", \"unit\": " + JsonString(unit) + "}";
  }
  if (!args.trace) {
    for (const auto& [name, m] : report.extra) print_row(name, m);
    print_row("failed_frac",
              {static_cast<double>(report.failed) /
                   static_cast<double>(std::max<uint64_t>(report.attempted, 1)),
               "fraction", report.attempted});
  }
  for (const std::string& line : report.breakdown_lines) {
    std::printf("  %s\n", line.c_str());
  }
  for (const std::string& error : report.errors) {
    std::printf("! %s\n", error.c_str());
  }

  // Run metadata, including the sample count behind each timing.
  std::string meta = "\"workload\": " + JsonString(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"seconds\": " + JsonNumber(args.seconds) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"nproc\": " +
                     std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                     ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
                     ", \"git_sha\": " +
                     JsonString(std::getenv("PERFBENCH_GIT_SHA") != nullptr
                                    ? std::getenv("PERFBENCH_GIT_SHA")
                                    : "unknown") +
                     ", \"pool_frames\": " +
                     std::to_string(perfbench::kPoolFrames) +
                     ", \"setups\": " + std::to_string(perfbench::kSetups);
  for (const auto& [key, value] : report.meta) {
    meta += ", " + JsonString(key) + ": " + JsonString(value);
  }
  std::string samples;
  for (const auto& [name, m] : have) {
    if (m.samples == 0) continue;
    if (!samples.empty()) samples += ", ";
    samples += JsonString(name) + ": " + std::to_string(m.samples);
  }
  for (const auto& [name, m] : report.extra) {
    if (!samples.empty()) samples += ", ";
    samples += JsonString(name) + ": " + std::to_string(m.samples);
  }
  std::printf("{\"meta\": {%s, \"samples\": {%s}}}\n", meta.c_str(),
              samples.c_str());

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics_json.c_str());
  std::fflush(stdout);
  return 0;
}
