// Outcome checker.
//
// A root's logged subtransaction calls are replayed through the library's
// native executor (atm::SagaExecutor or atm::FlexExecutor) with each call
// answered from the log. The workflow run is correct when the native
// executor asks for exactly the logged calls, in order, and reaches the
// same outcome as the root's output RC. That holds the saga to
// T1..Tn or T1..Tj;Cj..C1, and the Figure-3 transaction to p1, p2 or p3
// in preference order, or to abort with every committed compensatable step
// compensated. The sites are then read: a step's per-instance key must be
// present exactly when the step's effect is in place, so a compensation
// reported committed but never run is caught.

#ifndef PRODBENCH_CHECKER_H_
#define PRODBENCH_CHECKER_H_

#include <map>
#include <string>

#include "atm/flex.h"
#include "atm/saga.h"
#include "layers.h"
#include "txn/multidb.h"

namespace prodbench {

struct CheckSpec {
  const exotica::atm::SagaSpec* saga = nullptr;  ///< exactly one of these
  const exotica::atm::FlexSpec* flex = nullptr;
  /// Subtransaction name → site, for the per-instance key check.
  const std::map<std::string, std::string>* site_of = nullptr;
  /// Accept a repeat of a call that committed right before it: forward
  /// recovery re-runs in-flight steps (at-least-once).
  bool allow_reruns = false;
};

/// Checks one finished root against `spec`; `rc` is its output RC.
/// Returns an empty string when correct, else what is wrong.
std::string CheckRoot(const Root& root, int64_t rc, const CheckSpec& spec,
                      exotica::txn::MultiDatabase* sites);

}  // namespace prodbench

#endif  // PRODBENCH_CHECKER_H_
