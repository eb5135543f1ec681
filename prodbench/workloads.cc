#include "workloads.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "atm/subtxn.h"
#include "checker.h"
#include "common/rng.h"
#include "exotica/fmtm.h"
#include "exotica/programs.h"
#include "layers.h"
#include "trace.h"
#include "txn/multidb.h"
#include "wfjournal/journal.h"
#include "wfrt/engine.h"
#include "wfrt/fleet.h"

namespace prodbench {

namespace fs = std::filesystem;
namespace atm = exotica::atm;
namespace exo = exotica::exo;
namespace txn = exotica::txn;
namespace wfjournal = exotica::wfjournal;
namespace wfrt = exotica::wfrt;
using exotica::Result;
using exotica::Status;

namespace {

// ---------------------------------------------------------------------------
// Workload inputs

constexpr const char* kSagaSpec = R"(SAGA 'Oltp'
  STEP 'S1'; STEP 'S2'; STEP 'S3'; STEP 'S4';
  STEP 'S5'; STEP 'S6'; STEP 'S7'; STEP 'S8';
END 'Oltp')";

// The paper's Figure 3 (the ZNBB94 flexible transaction), as the
// repository ships it; read relative to the repository root.
constexpr const char* kFlexSpecPath = "docs/specs/figure3.spec";

// Journals, set-up scratch and span dumps, relative to the repository root.
constexpr const char* kWorkDir = ".bench_out";

constexpr int kStepsPerRoot = 8;     // hot-key slots per root
constexpr size_t kKeySpace = 1024;   // hot keys per site
constexpr size_t kAuditRing = 4096;  // the one non-default engine option
constexpr int kFleetEngines = 2;
constexpr size_t kRestartWindow = 10;  // restarts per recovery window
constexpr double kBestShare = 0.05;    // see LeastDisturbed
constexpr int kColdSetUps = 25;        // set-up processes per run

struct SiteConfig {
  std::string name;
  double abort_rate;  ///< unilateral commit aborts, seeded per site
};

// Saga: 2.8% per commit over 8 steps compensates ~20% of the sagas, at
// steps spread over the whole chain.
const std::vector<SiteConfig>& SagaSites() {
  static const std::vector<SiteConfig> sites = {
      {"s0", 0.028}, {"s1", 0.028}, {"s2", 0.028}, {"s3", 0.028}};
  return sites;
}

// Figure 3: T1,T2 on f0; T4 on f1; T5,T6,T8 on f2; T3,T7 on f3. Gives
// aborted ~10%, p3 ~14%, p2 ~21% and p1 ~56% of the instances.
const std::vector<SiteConfig>& FlexSites() {
  static const std::vector<SiteConfig> sites = {
      {"f0", 0.05}, {"f1", 0.15}, {"f2", 0.10}, {"f3", 0.05}};
  return sites;
}

std::vector<SubTxnPlacement> SagaPlacements() {
  std::vector<SubTxnPlacement> out;
  for (uint32_t i = 0; i < kStepsPerRoot; ++i) {
    out.push_back({"S" + std::to_string(i + 1), "s" + std::to_string(i % 4), i});
  }
  return out;
}

std::vector<SubTxnPlacement> FlexPlacements() {
  return {{"T1", "f0", 0}, {"T2", "f0", 1}, {"T4", "f1", 2}, {"T5", "f2", 3},
          {"T6", "f2", 4}, {"T8", "f2", 5}, {"T3", "f3", 6}, {"T7", "f3", 7}};
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Measurement helpers

uint64_t CpuMicros() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<uint64_t>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) *
             1000000u +
         static_cast<uint64_t>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

// Wall time of k threads each spinning a fixed amount of work, over one
// thread's; 1.0 means k cores were really available.
double CalibrationSpinRatio(int k) {
  auto spin = [] {
    volatile uint64_t x = 1;
    for (int i = 0; i < 20000000; ++i) x = x * 6364136223846793005ull + 1;
  };
  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    uint64_t t0 = NowNs();
    spin();
    uint64_t one = NowNs() - t0;
    t0 = NowNs();
    std::vector<std::thread> threads;
    for (int i = 0; i < k; ++i) threads.emplace_back(spin);
    for (auto& t : threads) t.join();
    uint64_t many = NowNs() - t0;
    ratios.push_back(static_cast<double>(many) / static_cast<double>(one));
  }
  return Quantile(ratios, 0.5);
}

// ---------------------------------------------------------------------------
// The world a workload runs in

// Compiled definitions, bound programs and the decorating runner; built
// once per setup and shared by every engine of the run.
struct World {
  exotica::wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  BenchRunner runner;
  RootResolver* resolver = nullptr;  ///< read by every program wrapper
  std::optional<atm::SagaSpec> saga;
  std::optional<atm::FlexSpec> flex;
  std::vector<SubTxnPlacement> placements;
  std::vector<SiteConfig> sites;
  std::map<std::string, std::string> site_of;
  std::vector<std::string> key_space;
  std::atomic<uint64_t> key_cursor{0};
  double compile_ms = 0;
};

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Result<std::unique_ptr<World>> BuildWorld(bool with_saga, bool with_flex) {
  auto w = std::make_unique<World>();
  std::string flex_spec;
  if (with_flex) {
    EXO_ASSIGN_OR_RETURN(flex_spec, ReadFile(kFlexSpecPath));
  }
  uint64_t t0 = NowNs();
  if (with_saga) {
    EXO_ASSIGN_OR_RETURN(exo::FmtmOutput out, exo::CompileSpec(kSagaSpec, &w->store));
    w->saga = std::move(out.saga);
  }
  if (with_flex) {
    EXO_ASSIGN_OR_RETURN(exo::FmtmOutput out, exo::CompileSpec(flex_spec, &w->store));
    w->flex = std::move(out.flex);
  }
  w->compile_ms = static_cast<double>(NowNs() - t0) / 1e6;
  if (with_saga) {
    EXO_RETURN_NOT_OK(exo::BindSagaPrograms(*w->saga, w->store, &w->runner,
                                            &w->programs));
    for (const auto& p : SagaPlacements()) w->placements.push_back(p);
    for (const auto& s : SagaSites()) w->sites.push_back(s);
  }
  if (with_flex) {
    EXO_RETURN_NOT_OK(exo::BindFlexPrograms(*w->flex, w->store, &w->runner,
                                            &w->programs));
    for (const auto& p : FlexPlacements()) w->placements.push_back(p);
    for (const auto& s : FlexSites()) w->sites.push_back(s);
  }
  EXO_RETURN_NOT_OK(WrapPrograms(&w->programs, &w->resolver));
  for (const auto& p : w->placements) w->site_of[p.name] = p.site;
  for (size_t i = 0; i < kKeySpace; ++i) {
    w->key_space.push_back("k" + std::to_string(i));
  }
  return w;
}

// The autonomous sites; they outlive engine crashes.
struct Sites {
  txn::MultiDatabase mdb;
  atm::MultiDbRunner runner{&mdb};
  std::unique_ptr<LyingCompensationRunner> liar;
};

Result<std::unique_ptr<Sites>> MakeSites(World* w, uint64_t seed,
                                         bool plant_fault) {
  auto s = std::make_unique<Sites>();
  for (size_t i = 0; i < w->sites.size(); ++i) {
    EXO_RETURN_NOT_OK(s->mdb.AddSite(w->sites[i].name));
    EXO_ASSIGN_OR_RETURN(txn::Site * site, s->mdb.site(w->sites[i].name));
    site->SetCommitFailureRate(w->sites[i].abort_rate, Mix(seed, i));
  }
  EXO_RETURN_NOT_OK(
      RegisterSubTxns(&s->runner, w->placements, &w->key_space, &w->key_cursor));
  if (plant_fault) {
    s->liar = std::make_unique<LyingCompensationRunner>(&s->runner);
    w->runner.set_inner(s->liar.get());
  } else {
    w->runner.set_inner(&s->runner);
  }
  return s;
}

wfrt::EngineOptions BaseOptions() {
  wfrt::EngineOptions o;
  o.max_audit_events = kAuditRing;
  return o;
}

// One engine with its journal; the traced phase decorates the journal.
struct Node {
  std::unique_ptr<wfjournal::FileJournal> file;
  std::unique_ptr<TimedJournal> timed;
  std::unique_ptr<wfrt::Engine> engine;
};

Result<std::unique_ptr<Node>> OpenNode(World* w, const fs::path& path,
                                       const wfrt::EngineOptions& options,
                                       bool traced) {
  auto n = std::make_unique<Node>();
  EXO_ASSIGN_OR_RETURN(n->file, wfjournal::FileJournal::Open(path.string()));
  n->engine = std::make_unique<wfrt::Engine>(&w->store, &w->programs, options);
  wfjournal::Journal* journal = n->file.get();
  if (traced) {
    n->timed = std::make_unique<TimedJournal>(n->file.get());
    journal = n->timed.get();
  }
  EXO_RETURN_NOT_OK(n->engine->AttachJournal(journal));
  return n;
}

// A fleet with one journal shard per engine, at the paths
// EngineFleet::OpenJournalShards uses (`<base>.e<i>`), so a restart can
// reopen them that way. The shards are opened here rather than by the
// fleet so the traced phase can decorate them.
struct FleetNode {
  std::vector<std::unique_ptr<wfjournal::FileJournal>> files;
  std::vector<std::unique_ptr<TimedJournal>> timed;
  std::unique_ptr<wfrt::EngineFleet> fleet;  // last, so destroyed first
};

Result<std::unique_ptr<FleetNode>> OpenFleet(World* w, const std::string& base,
                                             const wfrt::EngineOptions& options,
                                             bool traced) {
  auto n = std::make_unique<FleetNode>();
  n->fleet = std::make_unique<wfrt::EngineFleet>(&w->store, &w->programs,
                                                 kFleetEngines, options);
  std::vector<wfjournal::Journal*> shards;
  for (int e = 0; e < kFleetEngines; ++e) {
    EXO_ASSIGN_OR_RETURN(std::unique_ptr<wfjournal::FileJournal> file,
                         wfjournal::FileJournal::Open(base + ".e" + std::to_string(e)));
    shards.push_back(file.get());
    n->files.push_back(std::move(file));
    if (traced) {
      n->timed.push_back(std::make_unique<TimedJournal>(shards.back()));
      shards.back() = n->timed.back().get();
    }
  }
  EXO_RETURN_NOT_OK(n->fleet->AttachJournals(shards));
  return n;
}

// ---------------------------------------------------------------------------
// Per-phase accounting

struct Phase {
  bool traced = false;
  uint64_t serve_ns = 0;
  uint64_t cpu_us = 0;
  uint64_t instances = 0;  ///< completed top-level instances
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<uint64_t> latency_ns;  ///< per instance; per batch on the fleet
  // Per engine lifetime, so a burst of load from elsewhere on the machine
  // moves a run's median less than its mean.
  std::vector<double> epoch_rate;
  std::vector<double> epoch_cpu_us;
  uint64_t journal_bytes = 0;
  uint64_t journal_records = 0;   ///< appended
  uint64_t journal_retained = 0;  ///< still on disk after truncation
  uint64_t journal_flushes = 0;
  std::vector<double> recovery_ms, open_ms, recover_ms, resume_ms;
  uint64_t records_replayed = 0;
  wfrt::EngineStats stats;  ///< summed over the serving engines
  uint64_t audit_events = 0;
  uint64_t unilateral_aborts = 0;
  uint64_t lock_waits = 0;
  uint64_t wal_records = 0;
  // Fleet only.
  std::vector<double> imbalance;
  uint64_t batches = 0;

  void Fail(const std::string& why) {
    ++failed;
    if (violations.size() < 5) violations.push_back(why);
  }
};

void AddStats(const wfrt::EngineStats& s, wfrt::EngineStats* sum) {
  sum->activities_executed += s.activities_executed;
  sum->connectors_evaluated += s.connectors_evaluated;
  sum->dead_path_terminations += s.dead_path_terminations;
  sum->vm_condition_evals += s.vm_condition_evals;
  sum->tree_condition_evals += s.tree_condition_evals;
  sum->native_step_dispatches += s.native_step_dispatches;
  sum->step_program_dispatches += s.step_program_dispatches;
  sum->instances_stolen += s.instances_stolen;
  sum->steals_failed += s.steals_failed;
  sum->steal_slice_shrinks += s.steal_slice_shrinks;
}

void AddSiteStats(txn::MultiDatabase* mdb, Phase* ph) {
  ph->unilateral_aborts += mdb->AggregateStats().unilateral_aborts;
  for (const std::string& name : mdb->SiteNames()) {
    Result<txn::Site*> site = mdb->site(name);
    if (!site.ok()) continue;
    ph->lock_waits += (*site)->locks().stats().waits;
    ph->wal_records += (*site)->wal().size();
  }
}

// Top-level instance ids of `engine` (block children and migrated husks
// skipped), with how often each occurs.
std::map<std::string, int> TopLevelIds(const wfrt::Engine& engine) {
  std::map<std::string, int> ids;
  for (const std::string& id : engine.instance_order()) {
    Result<const wfrt::ProcessInstance*> inst = engine.FindInstance(id);
    if (!inst.ok() || (*inst)->is_child()) continue;
    ++ids[id];
  }
  return ids;
}

// Top-level ids across a fleet, each with the engine of every occurrence.
std::map<std::string, std::vector<int>> FleetHolders(wfrt::EngineFleet& fleet) {
  std::map<std::string, std::vector<int>> holders;
  for (int e = 0; e < fleet.size(); ++e) {
    for (const auto& [id, n] : TopLevelIds(*fleet.engine(e))) {
      holders[id].insert(holders[id].end(), static_cast<size_t>(n), e);
    }
  }
  return holders;
}

Result<int64_t> OutputRc(const wfrt::Engine& engine, const std::string& id) {
  EXO_ASSIGN_OR_RETURN(exotica::data::Container out, engine.OutputOf(id));
  EXO_ASSIGN_OR_RETURN(exotica::data::Value rc, out.Get("RC"));
  return rc.as_long();
}

// ---------------------------------------------------------------------------
// Root resolution for the program wrappers

// Closed loop with one client: the only root in flight is the current one.
class CurrentRootResolver : public RootResolver {
 public:
  Root* current = nullptr;
  Root* Resolve(const wfrt::ProgramContext&) override { return current; }
};

// Many roots in flight: walk the instance's parents on the serving engine.
class EngineRootResolver : public RootResolver {
 public:
  explicit EngineRootResolver(std::map<std::string, Root>* roots)
      : roots_(roots) {}
  void set_engine(const wfrt::Engine* engine) {
    engine_ = engine;
    cache_.clear();
  }
  Root* Resolve(const wfrt::ProgramContext& context) override {
    auto hit = cache_.find(context.instance_id);
    if (hit != cache_.end()) return hit->second;
    std::string id = context.instance_id;
    for (;;) {
      Result<const wfrt::ProcessInstance*> inst = engine_->FindInstance(id);
      if (!inst.ok() || !(*inst)->is_child()) break;
      id = (*inst)->parent_instance;
    }
    auto root = roots_->find(id);
    Root* r = root == roots_->end() ? nullptr : &root->second;
    cache_[context.instance_id] = r;
    return r;
  }

 private:
  std::map<std::string, Root>* roots_;
  const wfrt::Engine* engine_ = nullptr;
  std::unordered_map<std::string, Root*> cache_;
};

// A restart of a finished history must run no program at all.
class NoProgramsResolver : public RootResolver {
 public:
  std::atomic<uint64_t> calls{0};
  Root* Resolve(const wfrt::ProgramContext&) override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
};

// Points the program wrappers at a resolver for the scope's lifetime.
class ResolverScope {
 public:
  ResolverScope(World* w, RootResolver* resolver) : w_(w) {
    w_->resolver = resolver;
  }
  ~ResolverScope() { w_->resolver = nullptr; }
  ResolverScope(const ResolverScope&) = delete;
  ResolverScope& operator=(const ResolverScope&) = delete;

 private:
  World* w_;
};

Root NewRoot(exotica::Rng* rng) {
  Root r;
  r.hot_keys.resize(kStepsPerRoot);
  for (uint32_t& k : r.hot_keys) {
    k = static_cast<uint32_t>(rng->Uniform(0, kKeySpace - 1));
  }
  return r;
}

// Reopens a journal, recovers an engine from it and resumes it: the
// restart every workload times after each engine lifetime.
struct Restarted {
  std::unique_ptr<wfjournal::FileJournal> file;
  std::unique_ptr<wfrt::Engine> engine;
};

Result<Restarted> Restart(World* w, const fs::path& journal_path,
                          const wfrt::EngineOptions& options, Phase* ph) {
  Restarted r;
  uint64_t t0 = NowNs();
  EXO_ASSIGN_OR_RETURN(r.file, wfjournal::FileJournal::Open(journal_path.string()));
  uint64_t t1 = NowNs();
  r.engine = std::make_unique<wfrt::Engine>(&w->store, &w->programs, options);
  EXO_RETURN_NOT_OK(r.engine->AttachJournal(r.file.get()));
  EXO_RETURN_NOT_OK(r.engine->Recover());
  uint64_t t2 = NowNs();
  ph->open_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  ph->recover_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
  ph->recovery_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
  ph->records_replayed += r.engine->stats().recovery_records_replayed;
  return r;
}

// ---------------------------------------------------------------------------
// Workloads

struct Ctx {
  const RunConfig* config;
  World* world;
  fs::path dir;
  std::vector<double>* setup_s;     ///< one sample per set-up
  std::vector<double>* compile_ms;
};

// saga_oltp / flex_fig3: one engine lifetime of a closed loop with one
// client, then a clean restart of its journal.
Status ClosedLoopEpoch(const Ctx& ctx, uint64_t epoch, bool saga, int count,
                       Phase* ph) {
  World* w = ctx.world;
  fs::path dir = ctx.dir / ("epoch" + std::to_string(epoch));
  fs::create_directories(dir);
  EXO_ASSIGN_OR_RETURN(std::unique_ptr<Sites> sites,
                       MakeSites(w, Mix(ctx.config->seed, epoch),
                                 ctx.config->plant_fault));
  wfrt::EngineOptions options = BaseOptions();
  EXO_ASSIGN_OR_RETURN(std::unique_ptr<Node> node,
                       OpenNode(w, dir / "journal", options, ph->traced));
  uint64_t audit = 0;
  if (ph->traced) {
    node->engine->SetObserver([&audit](const wfrt::AuditEvent&) { ++audit; });
  }
  exotica::Rng rng(Mix(ctx.config->seed, epoch + 0x5eed));
  std::vector<Root> roots;
  roots.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) roots.push_back(NewRoot(&rng));
  const std::string process = saga ? "Oltp" : "Fig3";

  CurrentRootResolver resolver;
  ResolverScope serving(w, &resolver);
  Status failure;
  uint64_t cpu0 = CpuMicros();
  uint64_t begin = NowNs();
  for (int i = 0; i < count && failure.ok(); ++i) {
    Root& root = roots[static_cast<size_t>(i)];
    resolver.current = &root;
    SetTraceInstance(static_cast<uint32_t>(i));
    uint64_t t0 = NowNs();
    {
      Span instance(Layer::kInstance);
      Result<std::string> id = [&] {
        Span span(Layer::kWfrtStart);
        return node->engine->StartProcess(process);
      }();
      if (!id.ok()) {
        failure = id.status();
        break;
      }
      root.id = *id;
      Span span(Layer::kWfrtRun);
      failure = node->engine->Run();
    }
    ph->latency_ns.push_back(NowNs() - t0);
  }
  ph->serve_ns += NowNs() - begin;
  ph->cpu_us += CpuMicros() - cpu0;
  if (!failure.ok()) return failure;

  CheckSpec spec;
  spec.saga = saga ? &*w->saga : nullptr;
  spec.flex = saga ? nullptr : &*w->flex;
  spec.site_of = &w->site_of;
  for (const Root& root : roots) {
    ++ph->attempted;
    Result<int64_t> rc = OutputRc(*node->engine, root.id);
    if (!rc.ok()) {
      ph->Fail(root.id + ": " + rc.status().ToString());
      continue;
    }
    ++ph->instances;
    std::string why = CheckRoot(root, *rc, spec, &sites->mdb);
    if (!why.empty()) ph->Fail(root.id + ": " + why);
  }
  for (const auto& f : node->engine->FailedInstances()) {
    ph->Fail(f.id + " quarantined: " + f.reason);
  }
  AddStats(node->engine->stats(), &ph->stats);
  ph->audit_events += audit;
  if (node->timed) ph->journal_flushes += node->timed->flushes();
  ph->journal_records += node->file->size();
  ph->journal_retained += node->file->size();
  node.reset();  // the engine shuts down; its journal is flushed
  ph->journal_bytes += DirBytes(dir);
  AddSiteStats(&sites->mdb, ph);

  NoProgramsResolver none;
  ResolverScope restart(w, &none);
  EXO_ASSIGN_OR_RETURN(Restarted r, Restart(w, dir / "journal", options, ph));
  uint64_t t0 = NowNs();
  EXO_RETURN_NOT_OK(r.engine->Run());
  ph->resume_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  std::map<std::string, int> ids = TopLevelIds(*r.engine);
  if (ids.size() != roots.size() || r.engine->unfinished_top_level() != 0 ||
      none.calls.load() != 0) {
    ph->Fail("restart recovered " + std::to_string(ids.size()) + " of " +
             std::to_string(roots.size()) + " roots, re-ran " +
             std::to_string(none.calls.load()) + " programs");
  }
  r = Restarted{};
  fs::remove_all(dir);
  return Status::OK();
}

// crash_recover: a finished history plus live sagas driven partway, a
// crash after the last flush, then reopen + Recover() + resume.
Status CrashEpoch(const Ctx& ctx, uint64_t epoch, int history, Phase* ph) {
  constexpr int kLive = 48;
  // Ready-queue pops for the live sagas before the checkpoint and between
  // it and the crash. The queue is FIFO, so each saga gets about 3 + 2 of
  // the ~12 pops a committing saga takes. The explicit checkpoint gives
  // every crash the same shape: a snapshot of 48 live families plus a
  // short tail, whatever the automatic snapshots left behind.
  constexpr int kStepsBeforeCheckpoint = kLive * 3;
  constexpr int kStepsAfterCheckpoint = kLive * 2;
  World* w = ctx.world;
  fs::path dir = ctx.dir / ("epoch" + std::to_string(epoch));
  fs::create_directories(dir);
  EXO_ASSIGN_OR_RETURN(std::unique_ptr<Sites> sites,
                       MakeSites(w, Mix(ctx.config->seed, epoch),
                                 ctx.config->plant_fault));
  wfrt::EngineOptions options = BaseOptions();
  // About one automatic snapshot per lifetime's history: the instance
  // whose Run() writes it pays for it, and at a few per hundred instances
  // those writes would set the p99 on their own.
  options.snapshot_interval = 16000;
  EXO_ASSIGN_OR_RETURN(std::unique_ptr<Node> node,
                       OpenNode(w, dir / "journal", options, ph->traced));
  uint64_t audit = 0;
  if (ph->traced) {
    node->engine->SetObserver([&audit](const wfrt::AuditEvent&) { ++audit; });
  }
  exotica::Rng rng(Mix(ctx.config->seed, epoch + 0x5eed));
  std::map<std::string, Root> roots;
  EngineRootResolver resolver(&roots);
  resolver.set_engine(node->engine.get());
  ResolverScope scope(w, &resolver);

  CheckSpec spec;
  spec.saga = &*w->saga;
  spec.site_of = &w->site_of;
  spec.allow_reruns = true;

  Status failure;
  uint64_t cpu0 = CpuMicros();
  uint64_t begin = NowNs();
  for (int i = 0; i < history && failure.ok(); ++i) {
    SetTraceInstance(static_cast<uint32_t>(i));
    uint64_t t0 = NowNs();
    Span instance(Layer::kInstance);
    Result<std::string> id = [&] {
      Span span(Layer::kWfrtStart);
      return node->engine->StartProcess("Oltp");
    }();
    if (!id.ok()) {
      failure = id.status();
      break;
    }
    Root& root = roots[*id] = NewRoot(&rng);
    root.id = *id;
    {
      Span span(Layer::kWfrtRun);
      failure = node->engine->Run();
    }
    ph->latency_ns.push_back(NowNs() - t0);
  }
  std::vector<std::string> live;
  for (int i = 0; i < kLive && failure.ok(); ++i) {
    Result<std::string> id = [&] {
      Span span(Layer::kWfrtStart);
      return node->engine->StartProcess("Oltp");
    }();
    if (!id.ok()) {
      failure = id.status();
      break;
    }
    Root& root = roots[*id] = NewRoot(&rng);
    root.id = *id;
    live.push_back(*id);
  }
  for (int steps : {kStepsBeforeCheckpoint, 0, kStepsAfterCheckpoint}) {
    if (!failure.ok()) break;
    if (steps == 0) {
      failure = node->engine->Checkpoint();
      continue;
    }
    bool quiescent = false;
    Span span(Layer::kWfrtRun);
    failure = node->engine->RunSlice(steps, &quiescent);
  }
  ph->serve_ns += NowNs() - begin;
  ph->cpu_us += CpuMicros() - cpu0;
  if (!failure.ok()) return failure;

  // Roots finished before the crash are checked on the engine that ran
  // them; the rest are live at the crash.
  std::set<std::string> live_set;
  for (const std::string& id : live) {
    if (!node->engine->IsFinished(id)) live_set.insert(id);
  }
  live.assign(live_set.begin(), live_set.end());
  if (live.empty()) ph->Fail("no saga was live at the crash");
  for (const auto& [id, root] : roots) {
    if (live_set.count(id) > 0) continue;
    ++ph->attempted;
    Result<int64_t> rc = OutputRc(*node->engine, id);
    if (!rc.ok()) {
      ph->Fail(id + ": " + rc.status().ToString());
      continue;
    }
    ++ph->instances;
    std::string why = CheckRoot(root, *rc, spec, &sites->mdb);
    if (!why.empty()) ph->Fail(id + ": " + why);
  }
  size_t unfinished = node->engine->unfinished_top_level();
  AddStats(node->engine->stats(), &ph->stats);
  ph->audit_events += audit;
  if (node->timed) ph->journal_flushes += node->timed->flushes();
  ph->journal_records += node->file->size();
  ph->journal_retained += node->file->size() - node->file->first_seq();
  node.reset();  // the crash: the engine is dropped after its last flush
  ph->journal_bytes += DirBytes(dir);

  EXO_ASSIGN_OR_RETURN(Restarted r, Restart(w, dir / "journal", options, ph));
  resolver.set_engine(r.engine.get());
  cpu0 = CpuMicros();
  uint64_t t0 = NowNs();
  {
    Span span(Layer::kWfrtRun);
    failure = r.engine->Run();
  }
  uint64_t resume = NowNs() - t0;
  ph->resume_ms.push_back(static_cast<double>(resume) / 1e6);
  ph->serve_ns += resume;
  ph->cpu_us += CpuMicros() - cpu0;
  if (!failure.ok()) return failure;

  std::map<std::string, int> ids = TopLevelIds(*r.engine);
  if (unfinished != live.size()) {
    ph->Fail("expected " + std::to_string(live.size()) +
             " live roots at the crash, found " + std::to_string(unfinished));
  }
  for (const std::string& id : live) {
    ++ph->attempted;
    auto it = ids.find(id);
    if (it == ids.end() || it->second != 1) {
      ph->Fail(id + ": recovered " +
               std::to_string(it == ids.end() ? 0 : it->second) + " times");
      continue;
    }
    Result<int64_t> rc = OutputRc(*r.engine, id);
    if (!rc.ok()) {
      ph->Fail(id + ": " + rc.status().ToString());
      continue;
    }
    ++ph->instances;
    std::string why = CheckRoot(roots[id], *rc, spec, &sites->mdb);
    if (!why.empty()) ph->Fail(id + ": " + why);
  }
  for (const auto& [id, n] : ids) {
    if (live_set.count(id) > 0) continue;
    if (roots.count(id) == 0 || !r.engine->IsFinished(id)) {
      ph->Fail(id + ": finished history root came back unfinished");
    }
  }
  for (const auto& f : r.engine->FailedInstances()) {
    ph->Fail(f.id + " quarantined: " + f.reason);
  }
  AddSiteStats(&sites->mdb, ph);
  r = Restarted{};
  fs::remove_all(dir);
  return Status::OK();
}

// fleet_mix: one fleet lifetime of mixed batches, then a restart of its
// journal shards.
Status FleetEpoch(const Ctx& ctx, uint64_t epoch, int batches, int batch_size,
                  Phase* ph) {
  World* w = ctx.world;
  fs::path dir = ctx.dir / ("epoch" + std::to_string(epoch));
  fs::create_directories(dir);
  const std::string base = (dir / "journal").string();
  EXO_ASSIGN_OR_RETURN(std::unique_ptr<Sites> sites,
                       MakeSites(w, Mix(ctx.config->seed, epoch),
                                 ctx.config->plant_fault));
  wfrt::EngineOptions options = BaseOptions();
  EXO_ASSIGN_OR_RETURN(std::unique_ptr<FleetNode> node,
                       OpenFleet(w, base, options, ph->traced));
  wfrt::EngineFleet* fleet = node->fleet.get();
  std::vector<uint64_t> audit(kFleetEngines, 0);
  if (ph->traced) {
    for (int e = 0; e < kFleetEngines; ++e) {
      fleet->engine(e)->SetObserver(
          [&audit, e](const wfrt::AuditEvent&) { ++audit[static_cast<size_t>(e)]; });
    }
  }
  exotica::Rng rng(Mix(ctx.config->seed, epoch + 0x5eed));
  w->key_cursor.store(Mix(ctx.config->seed, epoch) % kKeySpace);
  std::vector<wfrt::EngineFleet::BatchSeed> seeds(
      static_cast<size_t>(batch_size));
  uint64_t started = 0;
  for (int b = 0; b < batches; ++b) {
    for (auto& s : seeds) s.process = rng.Bernoulli(0.5) ? "Oltp" : "Fig3";
    std::vector<uint64_t> finished_before;
    for (int e = 0; e < kFleetEngines; ++e) {
      finished_before.push_back(fleet->engine(e)->stats().instances_finished);
    }
    SetTraceInstance(static_cast<uint32_t>(b));
    uint64_t cpu0 = CpuMicros();
    uint64_t t0 = NowNs();
    Result<wfrt::EngineFleet::BatchResult> result = [&] {
      Span span(Layer::kFleetBatch);
      return fleet->RunBatch(seeds);
    }();
    uint64_t wall = NowNs() - t0;
    ph->serve_ns += wall;
    ph->cpu_us += CpuMicros() - cpu0;
    ph->latency_ns.push_back(wall);
    ++ph->batches;
    started += seeds.size();
    if (!result.ok()) return result.status();
    for (const std::string& e : result->errors) {
      if (!e.empty()) ph->Fail("engine error: " + e);
    }
    for (const auto& f : result->failed_instances) {
      ph->Fail(f.id + ": " + f.error);
    }
    double lo = 0, hi = 0;
    for (int e = 0; e < kFleetEngines; ++e) {
      double fin = static_cast<double>(fleet->engine(e)->stats().instances_finished -
                                       finished_before[static_cast<size_t>(e)]);
      lo = e == 0 ? fin : std::min(lo, fin);
      hi = e == 0 ? fin : std::max(hi, fin);
    }
    ph->imbalance.push_back(hi / std::max(lo, 1.0));
  }
  for (int e = 0; e < kFleetEngines; ++e) {
    AddStats(fleet->engine(e)->stats(), &ph->stats);
  }

  // Every started root held by exactly one engine, with a valid RC.
  ph->attempted += started;
  std::map<std::string, std::vector<int>> holders = FleetHolders(*fleet);
  for (const auto& [id, engines] : holders) {
    if (engines.size() != 1) {
      ph->Fail(id + ": held " + std::to_string(engines.size()) + " times");
      continue;
    }
    Result<int64_t> rc = OutputRc(*fleet->engine(engines[0]), id);
    if (!rc.ok() || (*rc != 0 && *rc != 1)) {
      ph->Fail(id + ": bad output RC");
      continue;
    }
    ++ph->instances;
  }
  if (holders.size() != started) {
    ph->Fail("fleet holds " + std::to_string(holders.size()) + " roots, started " +
             std::to_string(started));
  }
  for (int e = 0; e < kFleetEngines; ++e) {
    ph->journal_records += node->files[static_cast<size_t>(e)]->size();
    ph->journal_retained += node->files[static_cast<size_t>(e)]->size();
    ph->audit_events += audit[static_cast<size_t>(e)];
  }
  for (const auto& timed : node->timed) ph->journal_flushes += timed->flushes();
  node.reset();
  ph->journal_bytes += DirBytes(dir);
  AddSiteStats(&sites->mdb, ph);

  NoProgramsResolver none;
  ResolverScope scope(w, &none);
  uint64_t t0 = NowNs();
  auto again = std::make_unique<wfrt::EngineFleet>(&w->store, &w->programs,
                                                   kFleetEngines, options);
  EXO_RETURN_NOT_OK(again->OpenJournalShards(base));
  uint64_t t1 = NowNs();
  EXO_ASSIGN_OR_RETURN(wfrt::EngineFleet::RecoveryReport report, again->Recover());
  uint64_t t2 = NowNs();
  EXO_ASSIGN_OR_RETURN(wfrt::EngineFleet::BatchResult resumed, again->RunBatch({}));
  uint64_t t3 = NowNs();
  ph->open_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  ph->recover_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
  ph->recovery_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
  ph->resume_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
  ph->records_replayed += report.records_replayed;
  std::map<std::string, std::vector<int>> recovered = FleetHolders(*again);
  size_t duplicated = 0;
  for (const auto& [id, engines] : recovered) duplicated += engines.size() != 1;
  if (!resumed.ok() || recovered.size() != started || duplicated != 0 ||
      none.calls.load() != 0) {
    ph->Fail("fleet restart recovered " + std::to_string(recovered.size()) +
             " of " + std::to_string(started) + " roots (" +
             std::to_string(duplicated) + " more than once), re-ran " +
             std::to_string(none.calls.load()) + " programs");
  }
  again.reset();
  fs::remove_all(dir);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Driver

struct Shape {
  bool saga = false;
  bool flex = false;
  bool fleet = false;
  int epoch_instances = 0;  ///< closed loop: roots; crash: history roots
  int batch_size = 0;       ///< fleet: roots per batch
  /// Latency samples per window; the percentiles reported are medians of
  /// the per-window percentiles.
  size_t latency_window = 1000;
};

Result<Shape> ShapeOf(const RunConfig& config) {
  Shape s;
  // The closed loops restart their journal every 250 instances, so a run
  // holds hundreds of restarts and a window of them spans about a second:
  // short enough that most runs have a quiet one. With 1000-instance
  // lifetimes a window spanned 2.5 s and the recovery p90 followed the
  // machine's slow spells.
  if (config.workload == "saga_oltp") {
    s.saga = true;
    s.epoch_instances = 250;
  } else if (config.workload == "flex_fig3") {
    s.flex = true;
    s.epoch_instances = 250;
  } else if (config.workload == "crash_recover") {
    s.saga = true;
    s.epoch_instances = 400;
    // Ten lifetimes per window, so each lifetime's first instance and the
    // one that writes its snapshot stay well under 1% of a window.
    s.latency_window = 4000;
  } else if (config.workload == "fleet_mix") {
    s.saga = s.flex = s.fleet = true;
    s.epoch_instances = 2048;
    s.batch_size = 128;
    s.latency_window = 100;
  } else {
    return Status::InvalidArgument("unknown workload " + config.workload);
  }
  if (config.epoch_instances > 0) {
    s.epoch_instances = config.epoch_instances;
    if (s.fleet) s.batch_size = std::min(s.batch_size, s.epoch_instances);
  }
  return s;
}

// Site creation, CompileSpec, program binding and journal open, up to the
// point where the first instance can start; `*ready_ns` is that moment.
Result<std::unique_ptr<World>> SetUp(const RunConfig& config, const Shape& shape,
                                     const fs::path& dir, uint64_t* ready_ns) {
  EXO_ASSIGN_OR_RETURN(std::unique_ptr<World> w, BuildWorld(shape.saga, shape.flex));
  EXO_ASSIGN_OR_RETURN(std::unique_ptr<Sites> sites,
                       MakeSites(w.get(), config.seed, config.plant_fault));
  fs::create_directories(dir);
  if (shape.fleet) {
    wfrt::EngineFleet fleet(&w->store, &w->programs, kFleetEngines,
                            BaseOptions());
    EXO_RETURN_NOT_OK(fleet.OpenJournalShards((dir / "journal").string()));
    *ready_ns = NowNs();
  } else {
    EXO_ASSIGN_OR_RETURN(std::unique_ptr<Node> node,
                         OpenNode(w.get(), dir / "journal", BaseOptions(), false));
    *ready_ns = NowNs();
  }
  w->runner.set_inner(nullptr);
  fs::remove_all(dir);
  return w;
}

fs::path RunDir(const RunConfig& config) {
  return fs::path(kWorkDir) / (config.workload + "-" + std::to_string(config.seed));
}

// Times one set-up in a fresh copy of this program (--setup-only), from
// just before the spawn to the moment its first instance could start: exec,
// loading, static initialisation, the spec read and everything SetUp does.
// The two processes share the steady clock.
Status ColdSetUp(const RunConfig& config, std::vector<double>* setup_s,
                 std::vector<double>* compile_ms) {
  std::error_code ec;
  std::string exe = fs::read_symlink("/proc/self/exe", ec).string();
  if (ec) return Status::IOError("cannot find this program: " + ec.message());
  std::vector<std::string> args = {exe,           "--workload",
                                   config.workload, "--seed",
                                   std::to_string(config.seed), "--seconds",
                                   "1",           "--trace",
                                   "0",           "--setup-only"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) return Status::IOError("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  uint64_t t0 = NowNs();
  int spawned = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(),
                            environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t n = 0;
  while (spawned == 0 && (n = read(fds[0], buf, sizeof buf)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (spawned != 0) return Status::Internal("cannot spawn a set-up process");
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return Status::Internal("set-up process failed");
  }
  unsigned long long ready = 0;
  double compile = 0;
  if (std::sscanf(out.c_str(), "%llu %lf", &ready, &compile) != 2 || ready < t0) {
    return Status::Internal("set-up process printed '" + out + "'");
  }
  setup_s->push_back(static_cast<double>(ready - t0) / 1e9);
  compile_ms->push_back(compile);
  return Status::OK();
}

Status RunPhase(const Ctx& ctx, const Shape& shape, double seconds, Phase* ph) {
  SetTracing(ph->traced);
  ResetTotals();
  ctx.world->runner.reset_counts();
  uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  // Cold set-ups are spread over the untraced phase, between lifetimes.
  uint64_t setup_period = static_cast<uint64_t>(seconds * 1e9 / kColdSetUps);
  uint64_t next_setup = NowNs();
  uint64_t epoch = ph->traced ? 1000000 : 0;
  Status st;
  do {
    if (!ph->traced && NowNs() >= next_setup) {
      st = ColdSetUp(*ctx.config, ctx.setup_s, ctx.compile_ms);
      if (!st.ok()) break;
      next_setup += setup_period;
    }
    uint64_t serve0 = ph->serve_ns, cpu0 = ph->cpu_us, done0 = ph->instances;
    if (shape.fleet) {
      st = FleetEpoch(ctx, epoch, shape.epoch_instances / shape.batch_size,
                      shape.batch_size, ph);
    } else if (shape.saga && ctx.config->workload == "crash_recover") {
      st = CrashEpoch(ctx, epoch, shape.epoch_instances, ph);
    } else {
      st = ClosedLoopEpoch(ctx, epoch, shape.saga, shape.epoch_instances, ph);
    }
    ++epoch;
    if (st.ok() && ph->serve_ns > serve0 && ph->instances > done0) {
      double done = static_cast<double>(ph->instances - done0);
      ph->epoch_rate.push_back(
          done / (static_cast<double>(ph->serve_ns - serve0) / 1e9));
      ph->epoch_cpu_us.push_back(static_cast<double>(ph->cpu_us - cpu0) / done);
    }
  } while (st.ok() && NowNs() < deadline);
  SetTracing(false);
  return st;
}

double PerInstance(double v, const Phase& ph) {
  return ph.instances == 0 ? 0 : v / static_cast<double>(ph.instances);
}

// Other tenants of the machine only ever slow a stretch of a run down, and
// they do so for seconds at a time, often for most of a run. So a time is
// taken per window of consecutive samples, and the run reports the
// kBestShare quantile over its windows: the figure of its least disturbed
// stretch. A series shorter than two windows is taken whole.
template <typename T>
double LeastDisturbed(const std::vector<T>& v, size_t window, double q) {
  if (v.size() < 2 * window) return Quantile(v, q);
  std::vector<double> per_window;
  for (size_t i = 0; i + window <= v.size(); i += window) {
    per_window.push_back(
        Quantile(std::vector<T>(v.begin() + static_cast<long>(i),
                                v.begin() + static_cast<long>(i + window)),
                 q));
  }
  return Quantile(per_window, kBestShare);
}

}  // namespace

Result<RunReport> RunWorkload(const RunConfig& config) {
  EXO_ASSIGN_OR_RETURN(Shape shape, ShapeOf(config));
  fs::path dir = RunDir(config);
  fs::remove_all(dir);

  uint64_t ready_ns = 0;
  EXO_ASSIGN_OR_RETURN(std::unique_ptr<World> world,
                       SetUp(config, shape, dir / "setup", &ready_ns));
  std::vector<double> setup_s, compile_ms;
  double spin_ratio = CalibrationSpinRatio(kFleetEngines);

  Ctx ctx{&config, world.get(), dir, &setup_s, &compile_ms};
  Phase plain, traced;
  traced.traced = true;
  double plain_seconds = config.trace ? config.seconds * 0.3 : config.seconds;
  EXO_RETURN_NOT_OK(RunPhase(ctx, shape, plain_seconds, &plain));
  LayerTotals layers;
  uint64_t compensations = 0;
  if (config.trace) {
    EXO_RETURN_NOT_OK(RunPhase(ctx, shape, config.seconds - plain_seconds, &traced));
    layers = CollectTotals();
    compensations = world->runner.compensations();
    fs::create_directories(kWorkDir);
    fs::path spans = fs::path(kWorkDir) / ("spans-" + config.workload + ".jsonl");
    if (!WriteSpans(spans.string())) {
      return Status::IOError("cannot write " + spans.string());
    }
  }
  fs::remove_all(dir);

  RunReport report;
  for (Phase* ph : {&plain, &traced}) {
    report.attempted += ph->attempted;
    report.failed += ph->failed;
    for (const std::string& v : ph->violations) report.violations.push_back(v);
  }
  report.correct = report.failed == 0 && report.attempted > 0;

  const Phase& p = plain;
  auto us = [](double ns) { return ns / 1e3; };
  report.end_to_end = {
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"instances_per_s", Quantile(p.epoch_rate, 1 - kBestShare), "1/s"},
      {"latency_p50_us", us(LeastDisturbed(p.latency_ns, shape.latency_window, 0.5)),
       "us"},
      {"latency_p99_us",
       us(LeastDisturbed(p.latency_ns, shape.latency_window, 0.99)), "us"},
      {"cpu_us_per_instance", Quantile(p.epoch_cpu_us, kBestShare), "us"},
      {"journal_bytes_per_instance",
       PerInstance(static_cast<double>(p.journal_bytes), p), "B"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"recovery_p50_ms", LeastDisturbed(p.recovery_ms, kRestartWindow, 0.5), "ms"},
      {"recovery_p90_ms", LeastDisturbed(p.recovery_ms, kRestartWindow, 0.9), "ms"},
  };
  report.notes = {
      {"failed_share",
       report.attempted == 0 ? 1.0
                             : static_cast<double>(report.failed) /
                                   static_cast<double>(report.attempted),
       "share"},
      {"calib.spin_ratio", spin_ratio, "x"},
      {"instances", static_cast<double>(p.instances), "count"},
      {"restarts", static_cast<double>(p.recovery_ms.size()), "count"},
      {"setup_processes", static_cast<double>(setup_s.size()), "count"},
      {"lifetime_rate_median", Quantile(p.epoch_rate, 0.5), "1/s"},
  };
  if (!config.trace) return report;

  const Phase& t = traced;
  auto L = [&](Layer l) { return static_cast<size_t>(l); };
  auto per = [&](double v) { return PerInstance(v, t); };
  auto per_restart = [&](double v) {
    return t.recovery_ms.empty() ? 0 : v / static_cast<double>(t.recovery_ms.size());
  };
  // On a single engine every span runs on the benchmark's thread, and the
  // self times of all but the instance span add up to the serving wall less
  // the loop between spans. On the fleet the batch span is the only one on
  // that thread, so its share is 1 by construction; the layer spans run on
  // the worker threads, where they are set against the CPU time spent
  // inside RunBatch. What they leave over there is navigation and steal
  // coordination, which no span can reach without instrumenting the engine.
  double self_sum = 0, worker_ns = 0;
  for (size_t i = 0; i < layers.self_ns.size(); ++i) {
    if (i == L(Layer::kInstance)) continue;
    double self = static_cast<double>(layers.self_ns[i]);
    if (shape.fleet && i != L(Layer::kFleetBatch)) {
      worker_ns += self;
    } else {
      self_sum += self;
    }
  }
  const wfrt::EngineStats& s = t.stats;
  double dispatches =
      static_cast<double>(s.native_step_dispatches + s.step_program_dispatches);
  double traced_rate = Quantile(t.epoch_rate, 1 - kBestShare);
  double plain_rate = Quantile(p.epoch_rate, 1 - kBestShare);
  report.per_layer = {
      {"exotica.compile_ms", Quantile(compile_ms, 0.5), "ms"},
      {"wfrt.start_us",
       layers.count[L(Layer::kWfrtStart)] == 0
           ? 0
           : us(static_cast<double>(layers.total_ns[L(Layer::kWfrtStart)]) /
                static_cast<double>(layers.count[L(Layer::kWfrtStart)])),
       "us"},
      {"wfrt.nav_self_us",
       per(us(static_cast<double>(layers.self_ns[L(Layer::kWfrtRun)]))), "us"},
      {"wfrt.activities", per(static_cast<double>(s.activities_executed)), "count"},
      {"wfrt.connectors", per(static_cast<double>(s.connectors_evaluated)), "count"},
      {"wfrt.dead_paths", per(static_cast<double>(s.dead_path_terminations)), "count"},
      {"wfrt.condition_evals",
       per(static_cast<double>(s.vm_condition_evals + s.tree_condition_evals)),
       "count"},
      {"wfrt.native_dispatch_share",
       dispatches == 0 ? 0 : static_cast<double>(s.native_step_dispatches) / dispatches,
       "share"},
      {"wfrt.audit_events", per(static_cast<double>(t.audit_events)), "count"},
      {"programs.calls", per(static_cast<double>(layers.count[L(Layer::kPrograms)])),
       "count"},
      {"programs.us", per(us(static_cast<double>(layers.total_ns[L(Layer::kPrograms)]))),
       "us"},
      {"programs.self_us",
       per(us(static_cast<double>(layers.self_ns[L(Layer::kPrograms)]))), "us"},
      {"atm.subtxn_us", per(us(static_cast<double>(layers.total_ns[L(Layer::kAtm)]))),
       "us"},
      {"atm.subtxns", per(static_cast<double>(layers.count[L(Layer::kAtm)])), "count"},
      {"atm.compensations", per(static_cast<double>(compensations)), "count"},
      {"txn.unilateral_aborts", per(static_cast<double>(t.unilateral_aborts)), "count"},
      {"txn.lock_waits", per(static_cast<double>(t.lock_waits)), "count"},
      {"txn.wal_records", per(static_cast<double>(t.wal_records)), "count"},
      {"wfjournal.append_us",
       per(us(static_cast<double>(layers.total_ns[L(Layer::kJournalAppend)]))), "us"},
      {"wfjournal.flush_us",
       per(us(static_cast<double>(layers.total_ns[L(Layer::kJournalFlush)]))), "us"},
      {"wfjournal.records", per(static_cast<double>(t.journal_records)), "count"},
      {"wfjournal.flushes", per(static_cast<double>(t.journal_flushes)), "count"},
      {"wfjournal.bytes_per_record",
       t.journal_retained == 0 ? 0
                               : static_cast<double>(t.journal_bytes) /
                                     static_cast<double>(t.journal_retained),
       "B"},
      {"wfjournal.open_ms", Quantile(t.open_ms, 0.5), "ms"},
      {"wfrt.recover_ms", Quantile(t.recover_ms, 0.5), "ms"},
      {"wfrt.records_replayed", per_restart(static_cast<double>(t.records_replayed)),
       "count"},
      {"wfrt.resume_ms", Quantile(t.resume_ms, 0.5), "ms"},
      {"fleet.batch_ms", shape.fleet ? Quantile(t.latency_ns, 0.5) / 1e6 : 0, "ms"},
      {"fleet.steals",
       t.batches == 0 ? 0 : static_cast<double>(s.instances_stolen) / t.batches, "count"},
      {"fleet.steals_failed",
       t.batches == 0 ? 0 : static_cast<double>(s.steals_failed) / t.batches, "count"},
      {"fleet.slice_shrinks",
       t.batches == 0 ? 0 : static_cast<double>(s.steal_slice_shrinks) / t.batches,
       "count"},
      {"fleet.engine_imbalance", Quantile(t.imbalance, 0.5), "x"},
      {"fleet.parallelism_used",
       !shape.fleet || t.serve_ns == 0
           ? 0
           : static_cast<double>(t.cpu_us) * 1e3 / static_cast<double>(t.serve_ns),
       "x"},
      {"fleet.worker_span_share",
       !shape.fleet || t.cpu_us == 0 ? 0 : worker_ns / (static_cast<double>(t.cpu_us) * 1e3),
       "share"},
      {"calib.spin_ratio", spin_ratio, "x"},
      {"trace.reconciled_share",
       t.serve_ns == 0 ? 0 : self_sum / static_cast<double>(t.serve_ns), "share"},
      {"trace.overhead_share",
       plain_rate == 0 ? 0 : 1.0 - traced_rate / plain_rate, "share"},
      {"trace.instances_per_s", traced_rate, "1/s"},
  };
  return report;
}

Result<SetUpSample> SetUpOnly(const RunConfig& config) {
  EXO_ASSIGN_OR_RETURN(Shape shape, ShapeOf(config));
  SetUpSample sample;
  EXO_ASSIGN_OR_RETURN(std::unique_ptr<World> world,
                       SetUp(config, shape, RunDir(config) / "setup", &sample.ready_ns));
  sample.compile_ms = world->compile_ms;
  return sample;
}

}  // namespace prodbench
