// The four production-path workloads and the metrics they report.

#ifndef PRODBENCH_WORKLOADS_H_
#define PRODBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace prodbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunConfig {
  std::string workload;   ///< saga_oltp | flex_fig3 | crash_recover | fleet_mix
  uint64_t seed = 1;
  double seconds = 1;     ///< measured time (serving plus restarts)
  bool trace = false;     ///< report per-layer metrics from a traced phase
  bool plant_fault = false;  ///< compensations lie (checker self-test)
  /// Instances per engine lifetime (0 = the workload's default).
  int epoch_instances = 0;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;  ///< the first few, for humans
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> notes;  ///< printed, not part of the result line
};

exotica::Result<RunReport> RunWorkload(const RunConfig& config);

/// One set-up in a fresh process (--setup-only).
struct SetUpSample {
  uint64_t ready_ns = 0;  ///< steady clock when the first instance could start
  double compile_ms = 0;  ///< CompileSpec wall time within the set-up
};

exotica::Result<SetUpSample> SetUpOnly(const RunConfig& config);

}  // namespace prodbench

#endif  // PRODBENCH_WORKLOADS_H_
