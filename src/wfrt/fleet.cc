#include "wfrt/fleet.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

namespace exotica::wfrt {

namespace {

/// All cross-thread state of a stealing batch. Workers touch it only
/// under `mu`; engines are touched only by their owning worker, so the
/// scheduler adds no locking to navigation itself.
struct StealCoordinator {
  explicit StealCoordinator(size_t n)
      : depth(n, 0),
        cost(n, 0.0),
        active(n, 1),
        idle(n, 0),
        barred(n, 0),
        requests(n),
        handoff(n),
        handoff_ready(n, 0) {}

  std::mutex mu;
  std::condition_variable cv;

  std::vector<size_t> depth;  ///< published ready depth per engine
  std::vector<double> cost;   ///< published mean activity cost (EWMA µs)
  std::vector<char> active;   ///< worker has not retired
  std::vector<char> idle;     ///< worker is quiescent, hunting for work
  std::vector<char> barred;   ///< declined a steal; skipped as victim
                              ///< (monotone — guarantees termination)
  std::vector<std::vector<int>> requests;  ///< per victim: queued thieves
  std::vector<std::vector<DetachedInstance>> handoff;  ///< per thief;
                                                       ///< empty = declined
  std::vector<char> handoff_ready;                     ///< per thief
};

/// Runs `task(e)` for every engine index e < n, each on a thread of its
/// own, and returns the statuses in index order. The caller's thread only
/// waits: running the last task on it instead raised prodbench fleet_mix's
/// peak RSS by about a quarter (10 runs each, 4-vCPU VM).
template <typename Task>
std::vector<Status> RunPerEngine(size_t n, const Task& task) {
  std::vector<Status> statuses(n);
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (size_t e = 0; e < n; ++e) {
    workers.emplace_back([&task, &statuses, e] { statuses[e] = task(e); });
  }
  for (std::thread& w : workers) w.join();
  return statuses;
}

}  // namespace

EngineFleet::EngineFleet(const wf::DefinitionStore* definitions,
                         ProgramRegistry* programs, int engines,
                         EngineOptions options, FleetOptions fleet_options)
    : definitions_(definitions), fleet_(fleet_options) {
  if (engines < 1) engines = 1;
  if (fleet_.steal_slice < 1) fleet_.steal_slice = 1;
  engines_.reserve(static_cast<size_t>(engines));
  for (int i = 0; i < engines; ++i) {
    EngineOptions eo = options;
    eo.instance_id_prefix =
        options.instance_id_prefix + "e" + std::to_string(i) + ":";
    engines_.push_back(std::make_unique<Engine>(definitions, programs, eo));
  }
}

Status EngineFleet::AttachJournals(
    const std::vector<wfjournal::Journal*>& journals) {
  if (journals.size() != engines_.size()) {
    return Status::InvalidArgument(
        "journal shard count " + std::to_string(journals.size()) +
        " does not match fleet size " + std::to_string(engines_.size()));
  }
  for (size_t e = 0; e < engines_.size(); ++e) {
    EXO_RETURN_NOT_OK_CTX(engines_[e]->AttachJournal(journals[e]),
                          "attaching journal shard " + std::to_string(e));
  }
  journals_ = journals;
  return Status::OK();
}

Status EngineFleet::OpenJournalShards(const std::string& base_path,
                                      bool fsync_each) {
  // Shards share nothing, so they are opened (and validated) concurrently,
  // as Recover replays them: a restart pays for the largest shard rather
  // than their sum.
  const size_t n = engines_.size();
  auto path = [&base_path](size_t e) {
    return base_path + ".e" + std::to_string(e);
  };
  std::vector<std::unique_ptr<wfjournal::FileJournal>> opened(n);
  std::vector<Status> statuses =
      RunPerEngine(n, [&](size_t e) -> Status {
        EXO_ASSIGN_OR_RETURN(opened[e],
                             wfjournal::FileJournal::Open(path(e), fsync_each));
        return Status::OK();
      });
  // The first failing shard, in shard order, is the one reported.
  for (size_t e = 0; e < n; ++e) {
    EXO_RETURN_NOT_OK_CTX(statuses[e], "opening journal shard " + path(e));
  }
  std::vector<wfjournal::Journal*> raw;
  raw.reserve(n);
  for (const auto& journal : opened) raw.push_back(journal.get());
  EXO_RETURN_NOT_OK(AttachJournals(raw));
  owned_journals_ = std::move(opened);
  return Status::OK();
}

Result<EngineFleet::RecoveryReport> EngineFleet::Recover() {
  size_t n = engines_.size();
  if (journals_.size() != n) {
    return Status::FailedPrecondition(
        "no journal shards attached (AttachJournals/OpenJournalShards)");
  }
  // Phase 1: every engine replays its own shard, in parallel. Engines
  // share only immutable state (definitions and their compiled plans), so
  // recovery needs no coordination until the handoff pass.
  std::vector<Status> statuses =
      RunPerEngine(n, [this](size_t e) { return engines_[e]->Recover(); });
  for (size_t e = 0; e < n; ++e) {
    EXO_RETURN_NOT_OK_CTX(statuses[e],
                          "recovering journal shard " + std::to_string(e));
  }

  RecoveryReport report;
  for (size_t e = 0; e < n; ++e) {
    report.records_replayed += engines_[e]->stats().recovery_records_replayed;
  }

  // Phase 2 (single-threaded): resolve dangling handoffs. A victim's
  // replay retained the family image of every detach; if no shard's
  // kInstanceAdopted re-hosted the family, the handoff died in flight and
  // the image is the only surviving copy — re-adopt it on the
  // least-loaded engine (Adopt journals it there, so the next crash
  // replays cleanly).
  for (size_t v = 0; v < n; ++v) {
    for (const std::string& root : engines_[v]->RetainedDetachedRoots()) {
      bool hosted = false;
      for (size_t a = 0; a < n && !hosted; ++a) {
        Result<const ProcessInstance*> found = engines_[a]->FindInstance(root);
        hosted = found.ok() && !(*found)->detached;
      }
      EXO_ASSIGN_OR_RETURN(DetachedInstance image,
                           engines_[v]->TakeDetachedImage(root));
      if (hosted) {
        ++report.handoff_images_dropped;
        continue;
      }
      size_t best = 0;
      for (size_t a = 1; a < n; ++a) {
        if (engines_[a]->unfinished_top_level() <
            engines_[best]->unfinished_top_level()) {
          best = a;
        }
      }
      EXO_RETURN_NOT_OK_CTX(engines_[best]->Adopt(image),
                            "re-adopting dangling handoff " + root);
      ++report.handoffs_readopted;
    }
  }
  return report;
}

Result<EngineFleet::BatchResult> EngineFleet::RunBatch(
    const std::string& process_name, int count, const data::Container* input) {
  if (count < 0) {
    return Status::InvalidArgument("instance count must be non-negative");
  }
  std::vector<BatchSeed> seeds(static_cast<size_t>(count),
                               BatchSeed{process_name, input});
  return RunBatch(seeds);
}

std::vector<std::vector<const EngineFleet::BatchSeed*>>
EngineFleet::AssignSeeds(const std::vector<BatchSeed>& seeds) const {
  size_t n = engines_.size();
  std::vector<size_t> load(n);
  for (size_t e = 0; e < n; ++e) {
    load[e] = engines_[e]->unfinished_top_level();
  }
  std::vector<std::vector<const BatchSeed*>> assigned(n);
  for (const BatchSeed& seed : seeds) {
    size_t best = 0;
    for (size_t e = 1; e < n; ++e) {
      if (load[e] < load[best]) best = e;
    }
    ++load[best];
    assigned[best].push_back(&seed);
  }
  return assigned;
}

Result<EngineFleet::BatchResult> EngineFleet::RunBatch(
    const std::vector<BatchSeed>& seeds) {
  for (const BatchSeed& seed : seeds) {
    EXO_RETURN_NOT_OK(definitions_->FindProcess(seed.process).status());
  }
  std::vector<std::vector<const BatchSeed*>> assigned = AssignSeeds(seeds);

  BatchResult result;
  result.errors.assign(engines_.size(), "");
  RunStealing(assigned, &result);

  for (size_t e = 0; e < engines_.size(); ++e) {
    const Engine& engine = *engines_[e];
    const EngineStats& s = engine.stats();
    result.aggregate.Add(s);
    result.instances_finished += s.instances_finished;
    for (const Engine::FailedInstance& f : engine.FailedInstances()) {
      result.failed_instances.push_back(
          InstanceError{static_cast<int>(e), f.id, f.reason});
    }
  }

  // Stall sweep: a top-level instance that is neither finished nor
  // quarantined after every worker retired is stuck on manual work. An
  // instance may have migrated, so look it up wherever it lives now.
  for (size_t e = 0; e < engines_.size(); ++e) {
    if (engines_[e]->unfinished_top_level() == 0) continue;
    for (const std::string& id : engines_[e]->instance_order()) {
      Result<const ProcessInstance*> found = engines_[e]->FindInstance(id);
      if (!found.ok()) continue;
      const ProcessInstance* inst = *found;
      if (inst->is_child() || inst->finished || inst->failed ||
          inst->detached) {
        continue;
      }
      result.failed_instances.push_back(
          InstanceError{static_cast<int>(e), id,
                        "instance " + id + " stalled (manual work?)"});
    }
  }
  return result;
}

void EngineFleet::RunStealing(
    const std::vector<std::vector<const BatchSeed*>>& assigned,
    BatchResult* result) {
  size_t n = engines_.size();
  StealCoordinator co(n);

  std::vector<std::thread> workers;
  workers.reserve(n);
  for (size_t e = 0; e < n; ++e) {
    workers.emplace_back([this, e, n, &assigned, result, &co] {
      Engine* engine = engines_[e].get();
      int self = static_cast<int>(e);

      // Phase 1: spin every seed up front (one copy of the plan's spin-up
      // image each), so load is visible to thieves from the first slice.
      bool engine_dead = false;
      for (const BatchSeed* seed : assigned[e]) {
        auto id = engine->StartProcess(seed->process, seed->input);
        if (!id.ok()) {
          result->errors[e] = id.status().ToString();
          engine_dead = true;
          break;
        }
      }

      std::unique_lock<std::mutex> lock(co.mu);

      // Serves (or declines) one pending steal request against this
      // engine. Detach journals + flushes, so it runs unlocked; the
      // request slot is cleared first so the window cannot double-serve.
      auto serve_request = [&] {
        // Serve *every* queued thief at this one boundary. Serving is
        // tied to this engine's slice boundary, and a loaded victim's
        // slices are slow (that is *why* it is loaded) — making thieves
        // wait one boundary each would drain it at the victim's own pace.
        while (!co.requests[e].empty()) {
          int thief = co.requests[e].front();
          co.requests[e].erase(co.requests[e].begin());
          std::vector<DetachedInstance> give;
          lock.unlock();
          // Steal-half: one handoff carries up to half of the resident
          // families, so successive thieves leave with 1/2, 1/4, ... and
          // a deep queue drains in O(log n) handoffs.
          size_t quota = engine->unfinished_top_level() / 2;
          for (size_t k = 0; k < quota; ++k) {
            Result<std::string> pick = engine->PickDetachable();
            if (!pick.ok()) break;
            Result<DetachedInstance> det = engine->Detach(*pick);
            if (!det.ok()) break;
            give.push_back(std::move(*det));
          }
          lock.lock();
          if (give.empty()) {
            // Nothing stealable here now; bar this engine for the rest
            // of the batch so probes cannot loop forever.
            co.barred[e] = 1;
          }
          co.handoff[static_cast<size_t>(thief)] = std::move(give);
          co.handoff_ready[static_cast<size_t>(thief)] = 1;
          co.cv.notify_all();
        }
      };

      // Phase 2: drive in slices; steal when quiescent. The slice adapts
      // to thief pressure: thieves found queued at a boundary mean the
      // whole slice was steal latency for them, so the next slice is
      // halved; quiet boundaries double it back toward the configured
      // width.
      int cur_slice = fleet_.steal_slice;
      while (!engine_dead) {
        lock.unlock();
        bool quiescent = false;
        Status st = engine->RunSlice(cur_slice, &quiescent);
        lock.lock();
        if (!st.ok()) {
          result->errors[e] = st.ToString();
          break;
        }
        if (!co.requests[e].empty()) {
          if (cur_slice > 1) {
            cur_slice /= 2;
            engine->NoteStealSliceShrink();
          }
        } else if (cur_slice < fleet_.steal_slice) {
          cur_slice = std::min(fleet_.steal_slice, cur_slice * 2);
        }
        serve_request();
        co.depth[e] = engine->ready_depth();
        co.cost[e] = engine->mean_activity_cost_micros();
        co.cv.notify_all();
        if (co.depth[e] > 0) continue;

        // Quiescent: hunt for a victim, or wait for load to appear.
        co.idle[e] = 1;
        co.cv.notify_all();
        bool retired = false;
        while (co.idle[e] && !engine_dead) {
          if (!co.requests[e].empty()) {
            serve_request();  // declines: our queue is empty
            continue;
          }
          // Victim hunt: the pick maximizes depth x (mean activity cost
          // + 1), so a short queue of expensive activities can outrank a
          // deeper queue of trivial ones. With no cost signal yet (all
          // EWMAs zero) the score degenerates to plain depth.
          int victim = -1;
          double best_score = 0.0;
          for (size_t v = 0; v < n; ++v) {
            if (v == e || !co.active[v] || co.barred[v] || co.depth[v] == 0) {
              continue;
            }
            double score =
                static_cast<double>(co.depth[v]) * (co.cost[v] + 1.0);
            if (score > best_score) {
              best_score = score;
              victim = static_cast<int>(v);
            }
          }
          if (victim >= 0) {
            co.requests[static_cast<size_t>(victim)].push_back(self);
            co.handoff_ready[e] = 0;
            co.cv.notify_all();
            co.cv.wait(lock, [&] { return co.handoff_ready[e] == 1; });
            co.handoff_ready[e] = 0;
            std::vector<DetachedInstance> got = std::move(co.handoff[e]);
            co.handoff[e].clear();
            if (got.empty()) {
              engine->NoteStealFailed();
              continue;  // victim is now barred; try elsewhere
            }
            lock.unlock();
            Status adopt = Status::OK();
            for (const DetachedInstance& d : got) {
              adopt = engine->Adopt(d);
              if (!adopt.ok()) break;
            }
            lock.lock();
            if (!adopt.ok()) {
              result->errors[e] = adopt.ToString();
              engine_dead = true;
              break;
            }
            co.idle[e] = 0;
            co.depth[e] = engine->ready_depth();
            co.cost[e] = engine->mean_activity_cost_micros();
            co.cv.notify_all();
            break;  // back to slicing
          }
          // No stealable load anywhere. Retire once every other worker is
          // idle or retired — a busy worker may still publish depth.
          bool someone_busy = false;
          for (size_t v = 0; v < n; ++v) {
            if (v != e && co.active[v] && !co.idle[v]) someone_busy = true;
          }
          if (!someone_busy) {
            retired = true;
            break;
          }
          co.cv.wait(lock);
        }
        if (retired || engine_dead) break;
      }

      // Retirement: nobody may be left waiting on this engine.
      co.active[e] = 0;
      co.idle[e] = 0;
      co.depth[e] = 0;
      for (int thief : co.requests[e]) {
        co.handoff[static_cast<size_t>(thief)].clear();
        co.handoff_ready[static_cast<size_t>(thief)] = 1;
      }
      co.requests[e].clear();
      co.cv.notify_all();
    });
  }
  for (std::thread& w : workers) w.join();
}

}  // namespace exotica::wfrt
