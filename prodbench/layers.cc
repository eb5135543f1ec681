#include "layers.h"

#include <utility>

#include "data/value.h"
#include "trace.h"

namespace prodbench {

using exotica::Result;
using exotica::Status;
using exotica::data::Value;

namespace {
thread_local Root* t_root = nullptr;
}  // namespace

Root* CurrentRoot() { return t_root; }

Status WrapPrograms(exotica::wfrt::ProgramRegistry* programs,
                    RootResolver* const* resolver) {
  for (const std::string& name : programs->BoundNames()) {
    EXO_ASSIGN_OR_RETURN(const exotica::wfrt::ProgramFn* found,
                         programs->Find(name));
    exotica::wfrt::ProgramFn inner = *found;
    EXO_RETURN_NOT_OK(programs->Rebind(
        name, [inner = std::move(inner), resolver](
                  const exotica::data::Container& input,
                  exotica::data::Container* output,
                  const exotica::wfrt::ProgramContext& context) -> Status {
          Span span(Layer::kPrograms);
          RootResolver* r = *resolver;
          t_root = r != nullptr ? r->Resolve(context) : nullptr;
          Status st = inner(input, output, context);
          t_root = nullptr;
          return st;
        }));
  }
  return Status::OK();
}

Result<bool> BenchRunner::Run(const std::string& name) {
  return Call(name, /*compensation=*/false);
}

Result<bool> BenchRunner::Compensate(const std::string& name) {
  return Call(name, /*compensation=*/true);
}

Result<bool> BenchRunner::Call(const std::string& name, bool compensation) {
  Span span(Layer::kAtm);
  Result<bool> committed =
      compensation ? inner_->Compensate(name) : inner_->Run(name);
  if (compensation && Tracing()) {
    compensations_.fetch_add(1, std::memory_order_relaxed);
  }
  if (committed.ok() && t_root != nullptr) {
    t_root->calls.push_back(prodbench::Call{name, compensation, *committed});
  }
  return committed;
}

Status TimedJournal::Append(exotica::wfjournal::Record record) {
  Span span(Layer::kJournalAppend);
  return inner_->Append(std::move(record));
}

Status TimedJournal::Flush() {
  Span span(Layer::kJournalFlush);
  ++flushes_;
  return inner_->Flush();
}

std::string InstanceKey(const std::string& root_id, const std::string& step) {
  return root_id + "/" + step;
}

Status RegisterSubTxns(exotica::atm::MultiDbRunner* runner,
                       const std::vector<SubTxnPlacement>& placements,
                       const std::vector<std::string>* key_space,
                       std::atomic<uint64_t>* fallback_cursor) {
  for (const SubTxnPlacement& p : placements) {
    auto hot_key = [key_space, fallback_cursor,
                    step = p.step](const Root* root) -> const std::string& {
      uint64_t slot = root != nullptr
                          ? root->hot_keys[step]
                          : fallback_cursor->fetch_add(
                                1, std::memory_order_relaxed);
      return (*key_space)[slot % key_space->size()];
    };
    auto bump = [hot_key](exotica::txn::Transaction& t,
                          int64_t delta) -> Status {
      const std::string& key = hot_key(CurrentRoot());
      EXO_ASSIGN_OR_RETURN(Value v, t.Get(key));
      int64_t current = v.is_null() ? 0 : v.as_long();
      return t.Put(key, Value(current + delta));
    };
    std::string name = p.name;
    auto body = [bump, name](exotica::txn::Transaction& t) -> Status {
      EXO_RETURN_NOT_OK(bump(t, 1));
      const Root* root = CurrentRoot();
      if (root == nullptr) return Status::OK();
      return t.Put(InstanceKey(root->id, name), Value(int64_t{1}));
    };
    auto compensation = [bump, name](exotica::txn::Transaction& t) -> Status {
      EXO_RETURN_NOT_OK(bump(t, -1));
      const Root* root = CurrentRoot();
      if (root == nullptr) return Status::OK();
      return t.Erase(InstanceKey(root->id, name));
    };
    EXO_RETURN_NOT_OK(runner->Register({p.name, p.site, body, compensation}));
  }
  return Status::OK();
}

}  // namespace prodbench
