// Fault-injecting journal decorator: wraps any Journal and fails the Nth
// append (or flush) in a configurable way, so recovery tests can explore
// "the disk misbehaves at every possible point" instead of one hand-picked
// crash. The decorated journal stays usable as the replay source — records
// appended before the fault are intact, which is exactly the state a real
// crash leaves behind.
//
// Byte-level faults (short writes, garbage) need a real file to scribble
// on; pass the FileJournal's path and the decorator writes the torn or
// corrupt bytes raw, after flushing the inner journal so ordering on disk
// matches a genuine crash.

#ifndef EXOTICA_WFJOURNAL_FAULTY_H_
#define EXOTICA_WFJOURNAL_FAULTY_H_

#include <cstdint>
#include <string>

#include "wfjournal/journal.h"

namespace exotica::wfjournal {

/// \brief Journal decorator that injects an I/O fault at the Nth append
/// and/or the Nth flush.
class FaultyJournal : public Journal {
 public:
  enum class FaultMode : int {
    /// Append returns IOError and the record is lost (ENOSPC / EIO on
    /// write). The journal holds exactly the records appended before.
    kAppendError = 0,
    /// The record reaches the file only partially: the inner journal is
    /// flushed, then a prefix of the encoded record is written raw with no
    /// newline. Reopening the file sees a torn tail — Open() must truncate
    /// it and continue. Requires a file path.
    kShortWrite = 1,
    /// A line of garbage lands *before* the record (e.g. a misdirected
    /// write): inner flushed, junk line written raw, then the append
    /// proceeds normally. Reopening sees garbage followed by well-formed
    /// records — Open() must report Corruption. Requires a file path.
    kGarbage = 2,
  };

  /// Wraps `inner` (not owned; must outlive this). `path` is the backing
  /// file for byte-level modes; empty is fine for kAppendError.
  explicit FaultyJournal(Journal* inner, std::string path = "")
      : inner_(inner), path_(std::move(path)) {}

  /// Arms a fault at the `append_index`-th Append call (0-based).
  void FailAppendAt(uint64_t append_index, FaultMode mode) {
    append_armed_ = true;
    fail_append_at_ = append_index;
    append_mode_ = mode;
  }

  /// Arms an fsync failure at the `flush_index`-th Flush call (0-based).
  /// The flush is not forwarded, so group-committed records stay buffered;
  /// the engine sees the error at its quiescence point.
  void FailFlushAt(uint64_t flush_index) {
    flush_armed_ = true;
    fail_flush_at_ = flush_index;
  }

  /// Arms a failure at the `truncate_index`-th TruncateBefore call
  /// (0-based). The truncation is not forwarded — this models a crash
  /// after the snapshot record is durable but before the journal prefix
  /// was dropped.
  void FailTruncateAt(uint64_t truncate_index) {
    truncate_armed_ = true;
    fail_truncate_at_ = truncate_index;
  }

  uint64_t appends() const { return appends_; }
  uint64_t flushes() const { return flushes_; }
  uint64_t truncates() const { return truncates_; }
  uint64_t faults_injected() const { return injected_; }

  Status Append(Record record) override;
  /// Forwards the view to the inner journal unless this is the armed
  /// append, which goes through Append's fault path as a Record.
  Status AppendView(const RecordView& view) override;
  Status Flush() override;
  Result<std::vector<Record>> ReadAll() const override {
    return inner_->ReadAll();
  }
  Status Visit(const RecordVisitor& visitor) const override {
    return inner_->Visit(visitor);
  }
  uint64_t size() const override { return inner_->size(); }
  Status RotateSegment() override { return inner_->RotateSegment(); }
  Result<uint64_t> TruncateBefore(uint64_t seq) override;
  uint64_t first_seq() const override { return inner_->first_seq(); }
  std::string active_path() const override { return inner_->active_path(); }

 private:
  /// Appends `bytes` raw to the inner journal's active segment (falling
  /// back to the constructor path), bypassing the inner journal — after a
  /// rotation the torn bytes must land where the next real write would.
  Status RawWrite(const std::string& bytes);

  Journal* inner_;
  std::string path_;

  bool append_armed_ = false;
  uint64_t fail_append_at_ = 0;
  FaultMode append_mode_ = FaultMode::kAppendError;

  bool flush_armed_ = false;
  uint64_t fail_flush_at_ = 0;

  bool truncate_armed_ = false;
  uint64_t fail_truncate_at_ = 0;

  uint64_t appends_ = 0;
  uint64_t flushes_ = 0;
  uint64_t truncates_ = 0;
  uint64_t injected_ = 0;
};

}  // namespace exotica::wfjournal

#endif  // EXOTICA_WFJOURNAL_FAULTY_H_
