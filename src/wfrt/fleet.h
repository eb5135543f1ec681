// EngineFleet: scale-out across engines (paper §3.3: workflow systems are
// "orders of magnitude more heterogeneous and distributed than
// databases").
//
// Each worker thread owns one Engine exclusively; the fleet shares only
// immutable state (the DefinitionStore and the ProgramRegistry bindings —
// both read-only while the fleet runs) plus whatever thread-safe
// resources the bound programs touch (e.g. multidatabase sites). This is
// the FlowMark deployment model in miniature: navigation is per-server,
// the contended resources are the data sites.
//
// One batch scheduler, work stealing: seeds are assigned up front by
// current queue depth (a fresh fleet degenerates to round-robin); workers
// then run their engines in bounded slices, publish their ready depth to
// a coordinator, and when idle steal a whole instance *family* from the
// most-loaded peer via Engine::Detach/Adopt. All cross-thread traffic
// flows through one mutex-protected coordinator; engines themselves stay
// single-threaded. Every engine gets a distinct instance-id prefix
// ("e<i>:") so ids stay unique across migration.

#ifndef EXOTICA_WFRT_FLEET_H_
#define EXOTICA_WFRT_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "wfjournal/journal.h"
#include "wfrt/engine.h"

namespace exotica::wfrt {

/// \brief Fleet-level scheduling knobs.
struct FleetOptions {
  /// Ready-queue pops a worker executes between steal-coordination
  /// checks. Smaller = lower steal latency, more coordination overhead.
  /// The slice adapts to thief pressure: a worker that finds thieves
  /// queued at its slice boundary halves its slice (floor 1), counted in
  /// EngineStats::steal_slice_shrinks, and doubles it back toward
  /// steal_slice at quiet boundaries.
  int steal_slice = 32;
};

/// \brief A set of independent engines driven by worker threads.
class EngineFleet {
 public:
  /// `definitions` and `programs` must outlive the fleet and must not be
  /// mutated while a batch runs. Program callables must be thread-safe.
  EngineFleet(const wf::DefinitionStore* definitions,
              ProgramRegistry* programs, int engines,
              EngineOptions options = {}, FleetOptions fleet_options = {});

  int size() const { return static_cast<int>(engines_.size()); }
  Engine* engine(int i) { return engines_[static_cast<size_t>(i)].get(); }

  /// \brief One instance that did not finish cleanly in a batch.
  struct InstanceError {
    int engine = 0;      ///< index of the engine that ran (finished) it
    std::string id;      ///< instance id
    std::string error;   ///< quarantine reason / stall description
  };

  /// \brief What a fleet has done, summed over every engine's whole
  /// lifetime — not just the batch that returned it. On a reused fleet,
  /// `instances_finished` and `aggregate` count every earlier batch too,
  /// and `failed_instances` still lists instances quarantined (or stalled)
  /// in them; a caller that wants one batch's figures takes per-engine
  /// EngineStats deltas around the RunBatch call.
  struct BatchResult {
    uint64_t instances_finished = 0;
    EngineStats aggregate;
    /// Engine-level infrastructure errors (start failure, navigation
    /// error, journal I/O), one slot per engine; empty string = clean.
    /// The worker stops its engine's loop on these.
    std::vector<std::string> errors;
    /// Per-instance failures: quarantined and stalled instances, across
    /// all engines. One poisoned instance lands here without masking the
    /// rest of the batch.
    std::vector<InstanceError> failed_instances;
    bool ok() const {
      if (!failed_instances.empty()) return false;
      for (const std::string& e : errors) {
        if (!e.empty()) return false;
      }
      return true;
    }
  };

  /// \brief One instance to start in a batch: a process name plus an
  /// optional input container (null = process defaults). The pointer must
  /// outlive RunBatch.
  struct BatchSeed {
    std::string process;
    const data::Container* input = nullptr;
  };

  /// Starts `count` instances of `process_name`, spread over the engines
  /// by current queue depth, and drives them to completion in parallel
  /// (one thread per engine, work stealing). Instances must not stall on
  /// manual work.
  Result<BatchResult> RunBatch(const std::string& process_name, int count,
                               const data::Container* input = nullptr);

  /// Heterogeneous batch: one instance per seed. This is where stealing
  /// earns its keep — a batch mixing heavy and light processes no longer
  /// bounds the wall clock by whichever engine drew the heavy ones.
  Result<BatchResult> RunBatch(const std::vector<BatchSeed>& seeds);

  // --- durability (per-engine journal shards) --------------------------------

  /// Attaches one pre-opened journal per engine (`journals[i]` ↔ engine
  /// i). Size must equal size(); every engine must be fresh. The journals
  /// are not owned and must outlive the fleet.
  Status AttachJournals(const std::vector<wfjournal::Journal*>& journals);

  /// Opens (creating if necessary) one segmented FileJournal shard per
  /// engine at `<base_path>.e<i>`, each on its own thread (as Recover
  /// replays them), and attaches them. The fleet owns these journals. A
  /// shard that fails to open fails the call with its path in the message
  /// (the lowest failing shard when several do), and nothing is attached.
  /// Shard ↔ engine pairing is positional, so reopening the same base path
  /// with the same fleet size after a crash hands every engine its own
  /// history back.
  Status OpenJournalShards(const std::string& base_path,
                           bool fsync_each = false);

  /// Journal attached to engine `i`, or null if none.
  wfjournal::Journal* journal_shard(int i) {
    size_t e = static_cast<size_t>(i);
    return e < journals_.size() ? journals_[e] : nullptr;
  }

  struct RecoveryReport {
    uint64_t records_replayed = 0;    ///< across all shards
    uint64_t handoffs_readopted = 0;  ///< dangling detaches re-adopted
    uint64_t handoff_images_dropped = 0;  ///< detach images whose adopt
                                          ///< was found in another shard
  };

  /// Parallel sharded recovery: every engine replays its own journal
  /// shard concurrently (one thread per engine — engines share only
  /// immutable state), then a single-threaded pass resolves dangling
  /// handoffs: a kInstanceDetached image retained by a victim's replay is
  /// re-adopted onto the least-loaded engine unless some shard's
  /// kInstanceAdopted already re-hosted the family. Follow with
  /// RunBatch({}) (or per-engine Run()) to drive recovered work.
  Result<RecoveryReport> Recover();

 private:
  /// Greedy depth-aware seed assignment (satisfies argmin of current
  /// unfinished load + already-assigned count); fresh fleets degenerate
  /// to round-robin without the old low-index remainder bias.
  std::vector<std::vector<const BatchSeed*>> AssignSeeds(
      const std::vector<BatchSeed>& seeds) const;

  /// The scheduler: one worker thread per engine starts that engine's
  /// seeds, then drives it in slices and steals when idle.
  void RunStealing(const std::vector<std::vector<const BatchSeed*>>& assigned,
                   BatchResult* result);

  const wf::DefinitionStore* definitions_;
  FleetOptions fleet_;
  std::vector<std::unique_ptr<Engine>> engines_;
  /// Journal shard per engine (AttachJournals/OpenJournalShards); empty
  /// until one of those is called.
  std::vector<wfjournal::Journal*> journals_;
  /// Backing storage for OpenJournalShards.
  std::vector<std::unique_ptr<wfjournal::FileJournal>> owned_journals_;
};

}  // namespace exotica::wfrt

#endif  // EXOTICA_WFRT_FLEET_H_
