// The event spine (docs/specs/event_spine.md): every navigation step is
// described once and that one event feeds both the journal and the audit
// ring. These tests pin both renderings against the string-built ones
// they replaced:
//   - journal bytes written from views equal the bytes a decorator that
//     only implements Append(Record) writes, record for record;
//   - the lazily rendered audit trail equals what an AuditTrail with the
//     same bound keeps when fed the observer's events, for every bound;
//   - events recorded before a snapshot replay still render after it reset
//     the engine's instances.
// The suite (EventSpine*) also runs under ASan+UBSan in CI: rendering
// reads definition-owned names and the name table through refs the ring
// holds.

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "atm/flex.h"
#include "atm/saga.h"
#include "atm/subtxn.h"
#include "exotica/flex_translate.h"
#include "exotica/programs.h"
#include "exotica/saga_translate.h"
#include "org/directory.h"
#include "wf/builder.h"
#include "wfjournal/faulty.h"
#include "wfjournal/journal.h"
#include "wfrt/engine.h"
#include "../testutil.h"

namespace exotica {
namespace {

namespace fs = std::filesystem;
using wfjournal::FileJournal;
using wfjournal::Journal;
using wfjournal::Record;

/// Subtransactions commit unless named in `aborts`, which a scenario
/// changes between instances.
class SwitchRunner : public atm::SubTxnRunner {
 public:
  Result<bool> Run(const std::string& name) override {
    return aborts.count(name) == 0;
  }
  Result<bool> Compensate(const std::string&) override { return true; }

  std::set<std::string> aborts;
};

/// Pass-through decorator that implements only Append(Record): the
/// engine's views reach it through Journal's default AppendView, which
/// builds a Record from each view, so the file is written by
/// Record::EncodeTo.
class RecordOnlyJournal : public Journal {
 public:
  explicit RecordOnlyJournal(Journal* inner) : inner_(inner) {}

  Status Append(Record record) override {
    return inner_->Append(std::move(record));
  }
  Status Flush() override { return inner_->Flush(); }
  Result<std::vector<Record>> ReadAll() const override {
    return inner_->ReadAll();
  }
  Status Visit(const RecordVisitor& visitor) const override {
    return inner_->Visit(visitor);
  }
  uint64_t size() const override { return inner_->size(); }
  Status RotateSegment() override { return inner_->RotateSegment(); }
  Result<uint64_t> TruncateBefore(uint64_t seq) override {
    return inner_->TruncateBefore(seq);
  }
  uint64_t first_seq() const override { return inner_->first_seq(); }
  std::string active_path() const override { return inner_->active_path(); }

 protected:
  Journal* inner_;
};

/// Counts how records arrive; forwards views as views.
class CountingJournal : public RecordOnlyJournal {
 public:
  using RecordOnlyJournal::RecordOnlyJournal;

  Status Append(Record record) override {
    ++records;
    return RecordOnlyJournal::Append(std::move(record));
  }
  Status AppendView(const wfjournal::RecordView& view) override {
    ++views;
    return inner_->AppendView(view);
  }

  int records = 0;
  int views = 0;
};

/// Definitions, programs and the runner behind one scenario.
struct World {
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  SwitchRunner runner;
  org::Directory directory;
  std::string root;  ///< translated root process, when there is one
};

struct Scenario {
  std::string name;
  std::function<void(World*)> setup;
  std::function<void(World*, wfrt::Engine*)> drive;
};

/// A reason with every character the journal escapes.
const char kHostileReason[] = "bad \"input\"\tcol\nline \\ end\r";

void Declare(World* w, const std::string& program) {
  ASSERT_TRUE(test::DeclareDefaultProgram(&w->store, program).ok());
}

data::Container Rc(const World& w, int64_t rc) {
  return test::DefaultInput(w.store, rc);
}

std::vector<Scenario> Scenarios() {
  std::vector<Scenario> out;
  out.push_back(
      {"figure3",
       [](World* w) {
         auto t = exo::TranslateFlex(atm::MakeFigure3Spec(), &w->store);
         ASSERT_TRUE(t.ok()) << t.status().ToString();
         w->root = t->root_process;
         ASSERT_TRUE(exo::BindFlexPrograms(atm::MakeFigure3Spec(), w->store,
                                           &w->runner, &w->programs)
                         .ok());
       },
       [](World* w, wfrt::Engine* engine) {
         // p1, p2 (T5 aborts), p3 (T4 aborts), abort (T1 aborts); every
         // alternative runs in a block child.
         for (std::set<std::string> aborts :
              {std::set<std::string>{}, std::set<std::string>{"T5"},
               std::set<std::string>{"T4"}, std::set<std::string>{"T1"}}) {
           w->runner.aborts = aborts;
           auto id = engine->RunToCompletion(w->root);
           ASSERT_TRUE(id.ok()) << id.status().ToString();
         }
       }});
  out.push_back(
      {"saga",
       [](World* w) {
         atm::SagaSpec spec("S");
         for (int i = 1; i <= 3; ++i) spec.Then("T" + std::to_string(i));
         auto t = exo::TranslateSaga(spec, &w->store);
         ASSERT_TRUE(t.ok()) << t.status().ToString();
         w->root = t->root_process;
         ASSERT_TRUE(exo::BindSagaPrograms(spec, w->store, &w->runner,
                                           &w->programs)
                         .ok());
       },
       [](World* w, wfrt::Engine* engine) {
         for (std::set<std::string> aborts :
              {std::set<std::string>{"T3"}, std::set<std::string>{}}) {
           w->runner.aborts = aborts;
           auto id = engine->RunToCompletion(w->root);
           ASSERT_TRUE(id.ok()) << id.status().ToString();
         }
       }});
  out.push_back(
      {"quarantine",
       [](World* w) {
         Declare(w, "ok");
         Declare(w, "flaky");
         Declare(w, "poison");
         ASSERT_TRUE(test::BindConstRc(&w->programs, "ok", 0).ok());
         ASSERT_TRUE(test::BindCrashy(&w->programs, "flaky", 1).ok());
         ASSERT_TRUE(w->programs
                         .Bind("poison",
                               [](const data::Container&, data::Container*,
                                  const wfrt::ProgramContext&) {
                                 return Status::InvalidArgument(
                                     kHostileReason);
                               })
                         .ok());
         wf::ProcessBuilder b(&w->store, "q");
         b.Program("A", "flaky");
         b.Program("P", "poison");
         b.Connect("A", "P");
         ASSERT_TRUE(b.Register().ok());
       },
       [](World*, wfrt::Engine* engine) {
         auto id = engine->StartProcess("q");
         ASSERT_TRUE(id.ok());
         ASSERT_TRUE(engine->Run().ok());
         ASSERT_TRUE(engine->IsFailed(*id));
       }});
  out.push_back(
      {"checkpoint",
       [](World* w) {
         Declare(w, "ok");
         ASSERT_TRUE(test::BindConstRc(&w->programs, "ok", 0).ok());
         wf::ProcessBuilder b(&w->store, "c");
         b.Program("X", "ok");
         b.Program("Y", "ok");
         b.Connect("X", "Y", "RC = 0");
         ASSERT_TRUE(b.Register().ok());
       },
       [](World*, wfrt::Engine* engine) {
         ASSERT_TRUE(engine->RunToCompletion("c").ok());
         auto live = engine->StartProcess("c");
         ASSERT_TRUE(live.ok());
         ASSERT_TRUE(engine->SuspendInstance(*live).ok());
         ASSERT_TRUE(engine->Run().ok());
         ASSERT_TRUE(engine->Checkpoint().ok());
         ASSERT_TRUE(engine->ResumeSuspended(*live).ok());
         ASSERT_TRUE(engine->Run().ok());
         ASSERT_TRUE(engine->IsFinished(*live));
       }});
  out.push_back(
      {"lifecycle",
       [](World* w) {
         ASSERT_TRUE(w->directory.AddRole("clerk").ok());
         ASSERT_TRUE(w->directory.AddPerson("ann", 1, {"clerk"}).ok());
         Declare(w, "ok");
         Declare(w, "external");
         ASSERT_TRUE(test::BindConstRc(&w->programs, "ok", 0).ok());
         ASSERT_TRUE(w->programs
                         .Bind("external",
                               [](const data::Container&, data::Container*,
                                  const wfrt::ProgramContext&) {
                                 return Status::Pending("fax \"sent\"\t1");
                               })
                         .ok());
         wf::ProcessBuilder a(&w->store, "async");
         a.Program("Pre", "ok");
         a.Program("Fax", "external");
         a.Program("Post", "ok");
         a.Connect("Pre", "Fax");
         a.Connect("Fax", "Post", "RC = 0");
         ASSERT_TRUE(a.Register().ok());
         wf::ProcessBuilder m(&w->store, "manual");
         m.Program("Approve", "ok").Manual().Role("clerk");
         ASSERT_TRUE(m.Register().ok());
       },
       [](World* w, wfrt::Engine* engine) {
         ASSERT_TRUE(engine->AttachOrganization(&w->directory).ok());
         auto fax = engine->StartProcess("async");
         ASSERT_TRUE(fax.ok());
         ASSERT_TRUE(engine->Run().ok());
         ASSERT_TRUE(engine->CompleteAsync(*fax, "Fax", Rc(*w, 0)).ok());
         ASSERT_TRUE(engine->IsFinished(*fax));
         // One manual instance cancelled (work item withdrawn), one forced.
         auto cancelled = engine->StartProcess("manual");
         ASSERT_TRUE(cancelled.ok());
         ASSERT_TRUE(engine->Run().ok());
         ASSERT_TRUE(engine->CancelInstance(*cancelled).ok());
         auto forced = engine->StartProcess("manual");
         ASSERT_TRUE(forced.ok());
         ASSERT_TRUE(engine->Run().ok());
         ASSERT_TRUE(engine->ForceFinish(*forced, "Approve", Rc(*w, 0)).ok());
         ASSERT_TRUE(engine->IsFinished(*forced));
       }});
  return out;
}

wfrt::EngineOptions Options() {
  wfrt::EngineOptions options;
  // Crash retries wait (on paper) so retry-backoff events appear too.
  options.retry.initial_backoff_micros = 7;
  return options;
}

void RemoveJournal(const std::string& path) {
  const fs::path p(path);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(p.parent_path(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name == p.filename().string() ||
        name.rfind(p.filename().string() + ".", 0) == 0) {
      fs::remove(entry.path(), ec);
    }
  }
}

/// Every file of the journal at `path` (base and segments) by name.
std::map<std::string, std::string> JournalFiles(const std::string& path) {
  std::map<std::string, std::string> files;
  const fs::path p(path);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(p.parent_path(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name != p.filename().string() &&
        name.rfind(p.filename().string() + ".", 0) != 0) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    files[name.substr(p.filename().string().size())] = std::string(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }
  return files;
}

/// Runs `scenario` with a FileJournal at `path`, attached directly or
/// behind a RecordOnlyJournal; returns the journal's files.
std::map<std::string, std::string> JournalOf(const Scenario& scenario,
                                             const std::string& path,
                                             bool record_only) {
  RemoveJournal(path);
  World w;
  scenario.setup(&w);
  {
    auto file = FileJournal::Open(path);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    if (!file.ok()) return {};
    RecordOnlyJournal wrapped(file->get());
    wfrt::Engine engine(&w.store, &w.programs, Options());
    EXPECT_TRUE(engine
                    .AttachJournal(record_only
                                       ? static_cast<Journal*>(&wrapped)
                                       : file->get())
                    .ok());
    scenario.drive(&w, &engine);
  }
  std::map<std::string, std::string> files = JournalFiles(path);
  RemoveJournal(path);
  return files;
}

std::string Joined(const std::map<std::string, std::string>& files) {
  std::string all;
  for (const auto& [name, bytes] : files) all += name + ":\n" + bytes;
  return all;
}

TEST(EventSpineTest, ViewEncodingMatchesRecordEncodingByteForByte) {
  const std::string dir = ::testing::TempDir();
  for (const Scenario& scenario : Scenarios()) {
    SCOPED_TRACE(scenario.name);
    auto views = JournalOf(scenario, dir + "/exo_spine_views.log", false);
    auto records = JournalOf(scenario, dir + "/exo_spine_records.log", true);
    ASSERT_FALSE(views.empty());
    EXPECT_EQ(Joined(views), Joined(records));
    if (scenario.name == "quarantine") {
      // The hostile reason reached the file, escaped.
      EXPECT_NE(Joined(views).find("bad \\\"input\\\"\\tcol\\nline \\\\ end\\r"),
                std::string::npos);
    }
    if (scenario.name == "checkpoint") {
      // The snapshot opened a segment and truncation dropped the base.
      EXPECT_EQ(views.count(""), 0u);
    }
  }
}

TEST(EventSpineTest, DetachAdoptHandoffJournalsMatchByteForByte) {
  const std::string dir = ::testing::TempDir();
  auto run = [&dir](bool record_only) {
    const std::string victim_path = dir + "/exo_spine_victim.log";
    const std::string thief_path = dir + "/exo_spine_thief.log";
    RemoveJournal(victim_path);
    RemoveJournal(thief_path);
    World w;
    Scenarios()[0].setup(&w);  // Figure 3: a family with block children
    {
      auto victim_file = FileJournal::Open(victim_path);
      auto thief_file = FileJournal::Open(thief_path);
      EXPECT_TRUE(victim_file.ok() && thief_file.ok());
      RecordOnlyJournal victim_wrapped(victim_file->get());
      RecordOnlyJournal thief_wrapped(thief_file->get());
      wfrt::EngineOptions a = Options();
      a.instance_id_prefix = "a:";
      wfrt::EngineOptions b = Options();
      b.instance_id_prefix = "b:";
      wfrt::Engine victim(&w.store, &w.programs, a);
      wfrt::Engine thief(&w.store, &w.programs, b);
      Journal* victim_journal = victim_file->get();
      Journal* thief_journal = thief_file->get();
      if (record_only) {
        victim_journal = &victim_wrapped;
        thief_journal = &thief_wrapped;
      }
      EXPECT_TRUE(victim.AttachJournal(victim_journal).ok());
      EXPECT_TRUE(thief.AttachJournal(thief_journal).ok());
      w.runner.aborts = {"T5"};
      for (int i = 0; i < 2; ++i) EXPECT_TRUE(victim.StartProcess(w.root).ok());
      bool quiescent = false;
      EXPECT_TRUE(victim.RunSlice(3, &quiescent).ok());
      auto pick = victim.PickDetachable();
      EXPECT_TRUE(pick.ok()) << pick.status().ToString();
      if (pick.ok()) {
        auto detached = victim.Detach(*pick);
        EXPECT_TRUE(detached.ok()) << detached.status().ToString();
        if (detached.ok()) {
          EXPECT_TRUE(thief.Adopt(*detached).ok());
        }
        EXPECT_TRUE(thief.Run().ok());
        EXPECT_TRUE(thief.IsFinished(*pick));
      }
      EXPECT_TRUE(victim.Run().ok());
    }
    std::string both = "victim\n" + Joined(JournalFiles(victim_path)) +
                       "thief\n" + Joined(JournalFiles(thief_path));
    RemoveJournal(victim_path);
    RemoveJournal(thief_path);
    return both;
  };
  std::string views = run(false);
  EXPECT_NE(views.find("\t15\t"), std::string::npos);  // an adopt record
  EXPECT_EQ(views, run(true));
}

TEST(EventSpineTest, EngineAppendsViewsOnly) {
  // With a FileJournal attached, no step builds a Record: every append
  // arrives as a view.
  const std::string path = ::testing::TempDir() + "/exo_spine_count.log";
  for (const Scenario& scenario : Scenarios()) {
    SCOPED_TRACE(scenario.name);
    RemoveJournal(path);
    World w;
    scenario.setup(&w);
    auto file = FileJournal::Open(path);
    ASSERT_TRUE(file.ok());
    CountingJournal counting(file->get());
    wfrt::Engine engine(&w.store, &w.programs, Options());
    ASSERT_TRUE(engine.AttachJournal(&counting).ok());
    scenario.drive(&w, &engine);
    EXPECT_EQ(counting.records, 0);
    EXPECT_EQ(static_cast<uint64_t>(counting.views), (*file)->size());
  }
  RemoveJournal(path);
}

std::vector<std::string> Rows(const wfrt::AuditTrail& trail) {
  std::vector<std::string> rows;
  for (const wfrt::AuditEvent& e : trail.events()) {
    rows.push_back(std::to_string(e.at) + "|" +
                   wfrt::AuditKindName(e.kind) + "|" + e.instance + "|" +
                   e.activity + "|" + e.detail);
  }
  return rows;
}

/// kind|instance|activity|detail per event: everything an AuditEvent
/// carries except the clock.
std::string Plain(const wfrt::AuditTrail& trail) {
  std::string out;
  for (const wfrt::AuditEvent& e : trail.events()) {
    out += std::string(wfrt::AuditKindName(e.kind)) + "|" + e.instance + "|" +
           e.activity + "|" + e.detail + "\n";
  }
  return out;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(EventSpineTest, RenderedTrailsMatchStringBuiltGolden) {
  // FNV-1a of Plain(audit()) per scenario, as the engine wrote it when
  // every event was built from strings (the DeterminismTest trace goldens
  // pin Compact(), which leaves most details out; these pin the details:
  // attempts, targets, block children, work items, reasons, counts).
  const std::map<std::string, uint64_t> kGolden = {
      {"figure3", 0x240e8350be5fdd5bull},
      {"saga", 0x549b0d9225b821e3ull},
      {"quarantine", 0x5c5e4403b3ab3d85ull},
      {"checkpoint", 0x41d3d8c746e2a92eull},
      {"lifecycle", 0x976cfe739ab87eabull},
  };
  for (const Scenario& scenario : Scenarios()) {
    SCOPED_TRACE(scenario.name);
    World w;
    scenario.setup(&w);
    wfrt::Engine engine(&w.store, &w.programs, Options());
    wfjournal::MemoryJournal journal;  // Checkpoint needs one
    ASSERT_TRUE(engine.AttachJournal(&journal).ok());
    scenario.drive(&w, &engine);
    const std::string plain = Plain(engine.audit());
    EXPECT_EQ(Fnv1a(plain), kGolden.at(scenario.name)) << plain;
  }
}

TEST(EventSpineTest, RenderedTrailEqualsObservedTrailForEveryBound) {
  for (size_t bound : {size_t{1}, size_t{8}, size_t{4096}, size_t{0}}) {
    for (const Scenario& scenario : Scenarios()) {
      SCOPED_TRACE(scenario.name + " bound " + std::to_string(bound));
      World w;
      scenario.setup(&w);
      wfrt::EngineOptions options = Options();
      options.max_audit_events = bound;
      wfrt::Engine engine(&w.store, &w.programs, options);
      wfjournal::MemoryJournal journal;  // Checkpoint needs one
      ASSERT_TRUE(engine.AttachJournal(&journal).ok());
      wfrt::AuditTrail observed;
      observed.set_max_events(bound);
      engine.SetObserver(
          [&observed](const wfrt::AuditEvent& e) { observed.Add(e); });
      scenario.drive(&w, &engine);
      EXPECT_EQ(Rows(engine.audit()), Rows(observed));
      // More events: with a small bound the ring now drops some.
      scenario.drive(&w, &engine);
      ASSERT_FALSE(observed.events().empty());
      EXPECT_EQ(Rows(engine.audit()), Rows(observed));
      EXPECT_EQ(engine.audit().max_events(), bound);
    }
  }
}

TEST(EventSpineTest, EventsBeforeSnapshotReplayRenderAfterRecover) {
  // The crash between the snapshot flush and its truncation: Recover
  // replays the whole prefix (auditing the cancel and the quarantine in
  // it), then the snapshot resets every instance slot. The ring's name
  // table outlives that reset, so the early events render unchanged.
  const std::string path = ::testing::TempDir() + "/exo_spine_snap.log";
  RemoveJournal(path);
  World w;
  Scenarios()[2].setup(&w);  // "q": a crash retry, then a quarantine
  Declare(&w, "manual_ok");
  ASSERT_TRUE(test::BindConstRc(&w.programs, "manual_ok", 0).ok());
  ASSERT_TRUE(w.directory.AddRole("clerk").ok());
  ASSERT_TRUE(w.directory.AddPerson("ann", 1, {"clerk"}).ok());
  wf::ProcessBuilder m(&w.store, "manual");
  m.Program("Approve", "manual_ok").Manual().Role("clerk");
  ASSERT_TRUE(m.Register().ok());

  std::string quarantined, cancelled, live;
  {
    auto file = FileJournal::Open(path);
    ASSERT_TRUE(file.ok());
    wfjournal::FaultyJournal faulty(file->get(), path);
    wfrt::Engine engine(&w.store, &w.programs, Options());
    ASSERT_TRUE(engine.AttachJournal(&faulty).ok());
    ASSERT_TRUE(engine.AttachOrganization(&w.directory).ok());
    auto q = engine.StartProcess("q");
    ASSERT_TRUE(q.ok());
    quarantined = *q;
    ASSERT_TRUE(engine.Run().ok());
    auto c = engine.StartProcess("manual");
    ASSERT_TRUE(c.ok());
    cancelled = *c;
    ASSERT_TRUE(engine.Run().ok());
    ASSERT_TRUE(engine.CancelInstance(cancelled).ok());
    auto l = engine.StartProcess("manual");
    ASSERT_TRUE(l.ok());
    live = *l;
    ASSERT_TRUE(engine.Run().ok());
    faulty.FailTruncateAt(0);
    EXPECT_TRUE(engine.Checkpoint().IsIOError());
  }  // crash: the snapshot is durable, the segments behind it survive

  auto file = FileJournal::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  wfrt::Engine recovered(&w.store, &w.programs, Options());
  ASSERT_TRUE(recovered.AttachJournal(file->get()).ok());
  ASSERT_TRUE(recovered.AttachOrganization(&w.directory).ok());
  wfrt::AuditTrail observed;
  recovered.SetObserver(
      [&observed](const wfrt::AuditEvent& e) { observed.Add(e); });
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_GT(recovered.stats().recovery_records_replayed, 1u);
  // The cancelled family is not in the snapshot: only the ring remembers.
  EXPECT_FALSE(recovered.FindInstance(cancelled).ok());

  std::vector<std::string> rows = Rows(recovered.audit());
  EXPECT_EQ(rows, Rows(observed));
  auto has = [&rows](const std::string& tail) {
    for (const std::string& row : rows) {
      if (row.size() >= tail.size() &&
          row.compare(row.size() - tail.size(), tail.size(), tail) == 0) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has("|instance-finished|" + cancelled + "||cancelled"));
  EXPECT_TRUE(has("|dead|" + cancelled + "|Approve|cancelled"));
  EXPECT_TRUE(has("|dead|" + quarantined + "|P|failed"));
  EXPECT_TRUE(has("|recovery-resumed|" + live + "|Approve|ready"));
  bool reason_seen = false;
  for (const std::string& row : rows) {
    reason_seen = reason_seen ||
                  (row.find("|instance-failed|" + quarantined + "||") !=
                       std::string::npos &&
                   row.find(kHostileReason) != std::string::npos);
  }
  EXPECT_TRUE(reason_seen);
  file->reset();
  RemoveJournal(path);
}

}  // namespace
}  // namespace exotica
