// Production-path benchmark driver.
//
//   prodbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--plant-fault] [--epoch-instances <n>]
//
// Prints a human-readable summary, then, as the last line, one JSON object
// with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
//
// With --setup-only the process sets the workload up, prints the
// steady-clock time at which its first instance could start and the
// CompileSpec time, and exits; the benchmark spawns itself this way to
// time cold set-ups from process start.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: prodbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--plant-fault] [--epoch-instances <n>] "
               "[--setup-only]\n");
  return 2;
}

void PrintMetrics(const char* label, const std::vector<prodbench::Metric>& ms) {
  for (const auto& m : ms) {
    std::printf("%-12s %-28s %16.6f %s\n", label, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  prodbench::RunConfig config;
  bool have_workload = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--plant-fault") {
      config.plant_fault = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else if (arg == "--workload" && (v = value())) {
      config.workload = v;
      have_workload = true;
    } else if (arg == "--seed" && (v = value())) {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      config.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace" && (v = value())) {
      config.trace = std::string(v) == "1";
    } else if (arg == "--epoch-instances" && (v = value())) {
      config.epoch_instances = std::atoi(v);
    } else {
      return Usage();
    }
  }
  if (!have_workload || config.seconds <= 0) return Usage();

  if (setup_only) {
    exotica::Result<prodbench::SetUpSample> sample = prodbench::SetUpOnly(config);
    if (!sample.ok()) {
      std::fprintf(stderr, "prodbench: %s\n", sample.status().ToString().c_str());
      return 1;
    }
    std::printf("%llu %.17g\n", static_cast<unsigned long long>(sample->ready_ns),
                sample->compile_ms);
    return 0;
  }

  exotica::Result<prodbench::RunReport> report = prodbench::RunWorkload(config);
  if (!report.ok()) {
    std::fprintf(stderr, "prodbench: %s\n", report.status().ToString().c_str());
    return 1;
  }
  for (const std::string& v : report->violations) {
    std::printf("violation    %s\n", v.c_str());
  }
  PrintMetrics("end_to_end", report->end_to_end);
  PrintMetrics("note", report->notes);
  PrintMetrics("per_layer", report->per_layer);

  const auto& metrics = config.trace ? report->per_layer : report->end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report->correct ? "true" : "false",
              static_cast<unsigned long long>(report->attempted),
              static_cast<unsigned long long>(report->failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
