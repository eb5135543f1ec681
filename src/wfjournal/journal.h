// Navigation journal: the persistence layer behind the paper's forward
// recovery guarantee (§3.3: "the execution of a process is persistent in
// the sense that forward recovery is always guaranteed ... Once the
// failures have been repaired, the process execution is resumed from the
// point where the failure occurred").
//
// The engine appends one record per navigation state transition. After a
// crash, Engine::Recover replays the journal to rebuild every in-flight
// instance. Activities that were started but not finished are re-run from
// the beginning — the at-least-once caveat the paper spells out.
//
// FileJournal group-commits: appends accumulate in an in-memory arena and
// reach the file in one write() per Flush() (the engine flushes at every
// navigation quiescence point). fsync_each requests write-through: each
// record is written and fsynced individually, preserving the strongest
// durability setting exactly. A write cut short never leaves a malformed
// line behind: a group commit keeps only the unwritten rest of its batch
// for the next Flush(), and a write-through append that fails cuts the
// file back to where the record began.
//
// Write path. The engine appends views (AppendView): the record's fields
// as string_views into names and scratch it already holds, so a step
// builds no Record. FileJournal encodes a view straight into its
// group-commit buffer through RecordView::EncodeTo, the encoder behind
// Record::EncodeTo too, so both paths write the same bytes. Journals that
// only implement Append(Record) (MemoryJournal, decorators) get views
// through the default AppendView, which builds the Record. See
// docs/specs/event_spine.md.
//
// Long-lived engines checkpoint: a kSnapshot record carries the full set
// of live-instance images, and everything behind it can be discarded.
// FileJournal supports this with segment files — the base path is the
// initial segment (starting at seq 0), RotateSegment() starts a fresh
// `path.<seq>` file, and TruncateBefore(seq) unlinks segments that lie
// wholly behind `seq`. Sequence numbers stay monotonic across rotation
// and truncation, so a truncated journal replays exactly like the
// untruncated one minus the dropped prefix. See
// docs/specs/snapshot_recovery.md.
//
// Read path. A restart reads the journal twice, but decodes it once.
// FileJournal::Open validates every line in place (Record::Validate: field
// count, digits-only seq and type, the flag, every escape, seq continuity)
// without building a Record, so the only thing it keeps is the counters.
// Visit then decodes each line exactly once, into one Record reused for
// the whole scan, so the scan allocates nothing per record once the
// Record's strings have grown to the longest field. Both scans read a
// segment through one buffer of 64 KB (grown only to hold a longer
// record) that is released when the scan ends: memory is bounded by the
// read buffer, not by the segment.

#ifndef EXOTICA_WFJOURNAL_JOURNAL_H_
#define EXOTICA_WFJOURNAL_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace exotica::wfjournal {

enum class EventType : int {
  kInstanceStart = 0,      ///< payload = process name; extra = input image
  kActivityReady = 1,
  kActivityStarted = 2,    ///< flag unused; payload = attempt number
  kActivityFinished = 3,   ///< payload = output container image
  kActivityTerminated = 4,
  kActivityRescheduled = 5,///< exit condition false
  kActivityDead = 6,       ///< dead path elimination
  kConnectorEval = 7,      ///< activity=from, to=to, flag=value
  kInstanceFinished = 8,   ///< payload = output container image
                           ///< (9 is unused: no writer produces it)
  kInstanceSuspended = 10,
  kInstanceResumed = 11,
  kInstanceCancelled = 12, ///< user-initiated termination
  kInstanceFailed = 13,    ///< retry budget exhausted / permanent failure;
                           ///< payload = failure reason
  kInstanceDetached = 14,  ///< instance migrated away (work stealing);
                           ///< payload = full instance-family image, so a
                           ///< handoff that never reached the adopter's
                           ///< journal can be re-adopted after recovery
  kInstanceAdopted = 15,   ///< instance migrated in; payload = the same
                           ///< family image — makes the adopter's journal
                           ///< self-contained for replay
  kSnapshot = 16,          ///< engine checkpoint; payload = one escaped
                           ///< family image per line for every live
                           ///< instance; extra = next-instance counter.
                           ///< Replay resets the engine to exactly this
                           ///< state; records behind it are redundant.
};

const char* EventTypeName(EventType type);

/// \brief One journal record's fields as views, unescaped as in Record:
/// what the engine appends without building a Record (see AppendView).
struct RecordView {
  RecordView() = default;
  RecordView(EventType type, std::string_view instance,
             std::string_view activity = {}, std::string_view to = {},
             bool flag = false, std::string_view payload = {},
             std::string_view extra = {})
      : type(type), instance(instance), activity(activity), to(to),
        flag(flag), payload(payload), extra(extra) {}

  EventType type = EventType::kInstanceStart;
  std::string_view instance;
  std::string_view activity;
  std::string_view to;
  bool flag = false;
  std::string_view payload;
  std::string_view extra;

  /// Appends the record's encoding under `seq` to `out` (no newline):
  /// the one text encoder, behind Record::EncodeTo and every FileJournal
  /// append.
  void EncodeTo(uint64_t seq, std::string* out) const;
};

/// \brief One journal record.
struct Record {
  uint64_t seq = 0;            ///< assigned by the journal on append
  std::string instance;        ///< process instance id
  EventType type = EventType::kInstanceStart;
  std::string activity;        ///< activity (or connector source)
  std::string to;              ///< connector target
  bool flag = false;           ///< connector evaluation result
  std::string payload;         ///< container image / process name / child id
  std::string extra;           ///< second payload (instance input image)

  /// Views of this record's fields (valid while the record is).
  RecordView view() const {
    return {type, instance, activity, to, flag, payload, extra};
  }

  /// Tab-separated single-line encoding (payloads escaped).
  std::string Encode() const;
  /// Appends the encoding to `out` (no newline); lets appenders reuse one
  /// buffer instead of allocating a string per record.
  void EncodeTo(std::string* out) const;
  static Result<Record> Decode(std::string_view line);

  /// Decodes `line` into `*out`, assigning and unescaping into its
  /// existing string storage. Accepts exactly the lines Decode and
  /// Validate accept, with the same Corruption; on error `*out` is left
  /// partly overwritten.
  static Status DecodeInto(std::string_view line, Record* out);

  /// Checks `line` exactly as Decode does, without building a Record:
  /// eight tab-separated fields, seq and type digits only (what the
  /// encoder writes: no sign, no blank), the type in range, the flag `0`
  /// or `1`, every escape in payload and extra valid. Stores the seq in
  /// `*seq` when non-null.
  static Status Validate(std::string_view line, uint64_t* seq = nullptr);
};

/// \brief Append-only record sink + replay source.
class Journal {
 public:
  virtual ~Journal() = default;

  /// Appends `record` (seq is assigned, monotonically increasing). The
  /// record may be buffered until Flush(); with fsync_each it is durable
  /// on return.
  virtual Status Append(Record record) = 0;

  /// Appends the record `view` describes, exactly as Append would append
  /// the Record built from it. The default builds that Record and calls
  /// Append, so a journal or decorator that implements only Append sees
  /// every record; FileJournal encodes the view without building one.
  virtual Status AppendView(const RecordView& view);

  /// Pushes buffered appends to the backing store (group commit). No-op
  /// for journals that write through.
  virtual Status Flush() { return Status::OK(); }

  /// All retained records, in append order (includes buffered appends).
  virtual Result<std::vector<Record>> ReadAll() const = 0;

  /// Streams every retained record, in append order, through `visitor`
  /// without materializing a copy of the journal. Stops and returns the
  /// visitor's status on the first non-OK result.
  using RecordVisitor = std::function<Status(const Record&)>;
  virtual Status Visit(const RecordVisitor& visitor) const = 0;

  /// Sequence number the next append will get (== total records ever
  /// appended, including any later truncated away).
  virtual uint64_t size() const = 0;

  /// Starts a fresh backing segment so the next record appended is the
  /// first of its segment — called right before a snapshot record so
  /// TruncateBefore(snapshot seq) can drop every earlier segment whole.
  /// No-op for journals without segmented storage.
  virtual Status RotateSegment() { return Status::OK(); }

  /// Discards storage for records with seq < `seq` where that can be done
  /// in whole units (FileJournal: whole segment files; MemoryJournal:
  /// individual records). Returns how many records were dropped. Never
  /// touches the active segment.
  virtual Result<uint64_t> TruncateBefore(uint64_t seq) {
    (void)seq;
    return static_cast<uint64_t>(0);
  }

  /// Seq of the oldest record still retained (0 when nothing was ever
  /// truncated).
  virtual uint64_t first_seq() const { return 0; }

  /// Path of the file appends currently land in; empty for journals
  /// without file-backed storage. Fault injectors use this to corrupt the
  /// bytes a torn write would actually hit.
  virtual std::string active_path() const { return {}; }
};

/// \brief Volatile journal for tests and benchmarks.
class MemoryJournal : public Journal {
 public:
  Status Append(Record record) override;
  Result<std::vector<Record>> ReadAll() const override;
  Status Visit(const RecordVisitor& visitor) const override;
  uint64_t size() const override { return base_seq_ + records_.size(); }
  Result<uint64_t> TruncateBefore(uint64_t seq) override;
  uint64_t first_seq() const override { return base_seq_; }

  /// Simulates a crash that loses every record with seq >= `keep` — used
  /// by the recovery tests to explore "failure at every navigation step".
  void TruncateTo(uint64_t keep);

 private:
  std::vector<Record> records_;
  /// Seq of records_[0]; nonzero once TruncateBefore dropped a prefix.
  uint64_t base_seq_ = 0;
};

/// \brief File-backed journal (one encoded record per line), optionally
/// split across segment files by RotateSegment/TruncateBefore.
class FileJournal : public Journal {
 public:
  /// Opens (creating if necessary) the base file plus any `path.<seq>`
  /// segments and validates them in seq order, in place, to restore the
  /// counters (no record is decoded; see Record::Validate). A torn final
  /// record in the *active* (last) segment — a crash mid-write of a
  /// group-committed batch — is truncated away; a torn or malformed
  /// record anywhere else is Corruption.
  static Result<std::unique_ptr<FileJournal>> Open(const std::string& path,
                                                   bool fsync_each = false);
  ~FileJournal() override;

  Status Append(Record record) override;
  /// Encodes `view` under the next seq into the group-commit buffer, then
  /// writes it through (fsync_each) or leaves it for Flush(). Append
  /// comes through here too.
  Status AppendView(const RecordView& view) override;
  Status Flush() override;
  Result<std::vector<Record>> ReadAll() const override;
  Status Visit(const RecordVisitor& visitor) const override;
  uint64_t size() const override { return next_seq_; }
  Status RotateSegment() override;
  Result<uint64_t> TruncateBefore(uint64_t seq) override;
  uint64_t first_seq() const override { return first_seq_; }
  std::string active_path() const override { return segments_.back().path; }

  /// Number of live segment files (≥ 1).
  size_t segment_count() const { return segments_.size(); }

 private:
  /// One backing file holding records [start, next segment's start).
  struct Segment {
    uint64_t start = 0;
    std::string path;
  };

  FileJournal(std::string path, bool fsync_each)
      : path_(std::move(path)), fsync_each_(fsync_each) {}

  /// Discovers existing segment files for path_ (the base file is the
  /// seq-0 segment when present) and orders them by start seq.
  Status LoadSegments();

  /// Writes everything pending (one write() unless the kernel takes less).
  /// On a failed write the bytes already written leave pending_, so a
  /// retry completes the torn record in place instead of writing its
  /// prefix twice. Const so readers can flush before scanning the file
  /// (pending_ is the only thing mutated).
  Status FlushPending() const;

  /// Scans one segment through a bounded read buffer. With a null
  /// `visitor` every line is only validated (Open); otherwise each is
  /// decoded once into one reused Record and streamed through `visitor`.
  /// `expect` carries the required next seq across segments. Reports the
  /// byte offset just past the last well-formed record and the bytes the
  /// file held; a torn tail stops the scan without error iff `allow_torn`
  /// (the active segment).
  Status ScanSegment(const Segment& segment, bool allow_torn,
                     const RecordVisitor* visitor, uint64_t* expect,
                     uint64_t* good_end, uint64_t* file_size) const;

  /// Buffered bytes beyond which Append flushes on its own, bounding arena
  /// growth between quiescence points.
  static constexpr size_t kAutoFlushBytes = 1 << 18;

  std::string path_;
  bool fsync_each_;
  int fd_ = -1;  ///< open on the active (last) segment
  uint64_t next_seq_ = 0;
  uint64_t first_seq_ = 0;
  std::vector<Segment> segments_;
  /// Group-commit arena: encoded records waiting for Flush().
  mutable std::string pending_;
};

}  // namespace exotica::wfjournal

#endif  // EXOTICA_WFJOURNAL_JOURNAL_H_
