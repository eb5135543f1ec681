// Workflow simulation (paper §3.3: WFMSs "provide a great deal of
// support for organizational aspects, user interface, monitoring,
// accounting, simulation, distribution, and heterogeneity").
//
// A discrete-event simulation on the real engine: each trial runs one
// wfrt::Engine on a virtual clock. Every program samples its attempt's
// duration and stays pending; each finish is reported at its virtual
// time with a sampled RC, so transition conditions, joins, dead
// path elimination, exit-condition loops, blocks and data connectors are
// the engine's own. Manual activities go through the engine's worklists
// and wait for one of the role's people (role capacity). A trial costs an
// engine execution plus the simulator's event queue and sampling; what
// simulation adds is the design-time answers (makespan percentiles,
// bottleneck roles, path frequencies) that a real execution cannot give.

#ifndef EXOTICA_WFSIM_SIM_H_
#define EXOTICA_WFSIM_SIM_H_

#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/rng.h"
#include "wf/process.h"

namespace exotica::wfsim {

/// \brief How long an activity takes (virtual time).
struct DurationModel {
  enum class Kind : int { kFixed = 0, kUniform = 1, kExponential = 2 };
  Kind kind = Kind::kFixed;
  Micros a = 0;  ///< fixed value / uniform lo / exponential mean
  Micros b = 0;  ///< uniform hi

  static DurationModel Fixed(Micros value) {
    return DurationModel{Kind::kFixed, value, 0};
  }
  static DurationModel Uniform(Micros lo, Micros hi) {
    return DurationModel{Kind::kUniform, lo, hi};
  }
  static DurationModel Exponential(Micros mean) {
    return DurationModel{Kind::kExponential, mean, 0};
  }

  Micros Sample(Rng* rng) const;
};

/// \brief Stochastic behaviour of one activity.
struct ActivityProfile {
  DurationModel duration = DurationModel::Fixed(0);
  /// Distribution over the RC the activity reports; probabilities must
  /// sum to ~1. Default: always RC = 0.
  std::vector<std::pair<int64_t, double>> rc_distribution = {{0, 1.0}};

  /// Probability that an attempt crashes (the engine's program-crash
  /// fault class): the program returns the transient error the runtime's
  /// FaultPlan injects, the engine's retry policy re-runs the activity
  /// from the beginning, and the crashed attempt's time is added to the
  /// re-run's, so design-time makespans account for retry amplification.
  /// A crashed manual attempt's person re-runs it at once.
  double crash_probability = 0.0;

  int64_t SampleRc(Rng* rng) const;
};

/// \brief Simulation setup.
struct SimConfig {
  /// Profiles by activity name (shared across subprocesses); activities
  /// without an entry use `default_profile`. A profile on a block
  /// activity is not read: a block takes as long as its child, and its
  /// RC is the child's output (what the child's data connectors map to
  /// the child's process output).
  std::map<std::string, ActivityProfile> profiles;
  ActivityProfile default_profile;

  /// Role capacities for manual activities (people holding the role).
  /// Manual activities whose role is missing here are treated as having
  /// capacity 1.
  std::map<std::string, int> role_capacity;

  uint64_t seed = 42;
  int trials = 1000;

  /// Cap on an activity's attempts while its exit condition stays false
  /// (the engine's EngineOptions::max_exit_retries); reaching it fails
  /// the simulation. 0 = unlimited.
  int max_exit_retries = 1000;

  /// The engine's RetryPolicy::max_attempts: consecutive crashes of one
  /// activity (a successful attempt resets the count) that quarantine
  /// the instance, which fails the simulation; 0 = unlimited.
  int max_crash_retries = 64;
};

/// \brief Per-activity aggregate over all trials.
struct ActivityStats {
  uint64_t executions = 0;     ///< times the activity actually ran
  uint64_t dead = 0;           ///< trials where it was dead-path-eliminated
  uint64_t crashes = 0;        ///< attempts lost to injected crashes
  Micros busy_micros = 0;      ///< total virtual time spent executing
  Micros queue_micros = 0;     ///< manual: total time waiting for a person
};

/// \brief Per-role utilization.
struct RoleStats {
  int capacity = 0;
  Micros busy_micros = 0;   ///< person-time consumed
  Micros queue_micros = 0;  ///< work-item waiting time
};

/// \brief Simulation output.
struct SimResult {
  int trials = 0;
  std::vector<Micros> makespans;  ///< per trial, sorted ascending

  Micros MakespanMean() const;
  Micros MakespanPercentile(double p) const;  ///< p in [0,1]
  Micros MakespanMax() const;

  std::map<std::string, ActivityStats> activities;
  std::map<std::string, RoleStats> roles;
};

/// \brief Runs `trials` independent virtual executions of `process_name`.
Result<SimResult> Simulate(const wf::DefinitionStore& store,
                           const std::string& process_name,
                           const SimConfig& config);

}  // namespace exotica::wfsim

#endif  // EXOTICA_WFSIM_SIM_H_
