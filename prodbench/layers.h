// The benchmark's hooks at each layer boundary, all built on public API:
// a decorating SubTxnRunner (atm), a decorating Journal (wfjournal),
// program re-binding through ProgramRegistry::Rebind (programs), and the
// subtransaction bodies that run on txn::MultiDatabase sites (txn).
//
// Outside tracing the hooks still attribute every subtransaction call to
// the top-level instance that made it, because the outcome checker needs
// each instance's call log and its per-instance keys on the sites.

#ifndef PRODBENCH_LAYERS_H_
#define PRODBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "atm/subtxn.h"
#include "txn/multidb.h"
#include "wfjournal/journal.h"
#include "wfrt/program.h"

namespace prodbench {

/// One subtransaction call as the runner saw it.
struct Call {
  std::string name;
  bool compensation = false;
  bool committed = false;
};

/// A top-level instance as the benchmark tracks it: its id, the hot keys
/// its steps touch (generated from the seed), and its call log.
struct Root {
  std::string id;
  std::vector<uint32_t> hot_keys;  ///< one per step, indexes the key space
  std::vector<Call> calls;
};

/// Maps a program invocation to the top-level instance it belongs to;
/// null when the workload does not track roots.
class RootResolver {
 public:
  virtual ~RootResolver() = default;
  virtual Root* Resolve(const exotica::wfrt::ProgramContext& context) = 0;
};

/// The root of the program running on this thread (null outside one).
Root* CurrentRoot();

/// Re-binds every bound program with a wrapper that records a span and
/// publishes the invocation's root (via `*resolver`, read at call time so
/// a workload can swap resolvers between engines).
exotica::Status WrapPrograms(exotica::wfrt::ProgramRegistry* programs,
                             RootResolver* const* resolver);

/// Decorating runner: records a span, counts compensations, and appends
/// each call to the current root's log.
class BenchRunner : public exotica::atm::SubTxnRunner {
 public:
  void set_inner(exotica::atm::SubTxnRunner* inner) { inner_ = inner; }
  exotica::Result<bool> Run(const std::string& name) override;
  exotica::Result<bool> Compensate(const std::string& name) override;

  uint64_t compensations() const {
    return compensations_.load(std::memory_order_relaxed);
  }
  void reset_counts() { compensations_.store(0, std::memory_order_relaxed); }

 private:
  exotica::Result<bool> Call(const std::string& name, bool compensation);

  exotica::atm::SubTxnRunner* inner_ = nullptr;
  std::atomic<uint64_t> compensations_{0};
};

/// The planted fault of the checker self-test: reports every compensation
/// as committed without running it.
class LyingCompensationRunner : public exotica::atm::SubTxnRunner {
 public:
  explicit LyingCompensationRunner(exotica::atm::SubTxnRunner* inner)
      : inner_(inner) {}
  exotica::Result<bool> Run(const std::string& name) override {
    return inner_->Run(name);
  }
  exotica::Result<bool> Compensate(const std::string&) override {
    return true;
  }

 private:
  exotica::atm::SubTxnRunner* inner_;
};

/// Decorating journal: spans around Append and Flush, a flush count, every
/// other call forwarded.
class TimedJournal : public exotica::wfjournal::Journal {
 public:
  explicit TimedJournal(exotica::wfjournal::Journal* inner) : inner_(inner) {}

  exotica::Status Append(exotica::wfjournal::Record record) override;
  exotica::Status Flush() override;
  exotica::Result<std::vector<exotica::wfjournal::Record>> ReadAll()
      const override {
    return inner_->ReadAll();
  }
  exotica::Status Visit(const RecordVisitor& visitor) const override {
    return inner_->Visit(visitor);
  }
  uint64_t size() const override { return inner_->size(); }
  exotica::Status RotateSegment() override { return inner_->RotateSegment(); }
  exotica::Result<uint64_t> TruncateBefore(uint64_t seq) override {
    return inner_->TruncateBefore(seq);
  }
  uint64_t first_seq() const override { return inner_->first_seq(); }
  std::string active_path() const override { return inner_->active_path(); }

  uint64_t flushes() const { return flushes_; }

 private:
  exotica::wfjournal::Journal* inner_;
  uint64_t flushes_ = 0;
};

/// Where one subtransaction runs and which hot key slot it uses.
struct SubTxnPlacement {
  std::string name;
  std::string site;
  uint32_t step = 0;  ///< index into Root::hot_keys
};

/// Registers forward and compensation bodies for `placements` on
/// `runner`. Each forward body reads and increments one hot key on its
/// site and, when a root is current, writes the per-instance key
/// "<root id>/<name>"; the compensation undoes both. Without a current
/// root the hot key comes from `*fallback_cursor` over the key space.
exotica::Status RegisterSubTxns(exotica::atm::MultiDbRunner* runner,
                                const std::vector<SubTxnPlacement>& placements,
                                const std::vector<std::string>* key_space,
                                std::atomic<uint64_t>* fallback_cursor);

/// The per-instance key a committed, uncompensated step leaves behind.
std::string InstanceKey(const std::string& root_id, const std::string& step);

}  // namespace prodbench

#endif  // PRODBENCH_LAYERS_H_
