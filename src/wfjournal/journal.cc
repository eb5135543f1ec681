#include "wfjournal/journal.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>

#include "common/strings.h"

namespace exotica::wfjournal {

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kInstanceStart: return "INSTANCE_START";
    case EventType::kActivityReady: return "READY";
    case EventType::kActivityStarted: return "STARTED";
    case EventType::kActivityFinished: return "FINISHED";
    case EventType::kActivityTerminated: return "TERMINATED";
    case EventType::kActivityRescheduled: return "RESCHEDULED";
    case EventType::kActivityDead: return "DEAD";
    case EventType::kConnectorEval: return "CONNECTOR";
    case EventType::kInstanceFinished: return "INSTANCE_FINISHED";
    case EventType::kInstanceSuspended: return "SUSPENDED";
    case EventType::kInstanceResumed: return "RESUMED";
    case EventType::kInstanceCancelled: return "CANCELLED";
    case EventType::kInstanceFailed: return "FAILED";
    case EventType::kInstanceDetached: return "DETACHED";
    case EventType::kInstanceAdopted: return "ADOPTED";
    case EventType::kSnapshot: return "SNAPSHOT";
  }
  return "?";
}

namespace {

constexpr size_t kFieldCount = 8;

/// Bytes a segment scan reads at a time. The buffer grows past this only
/// to hold a single longer record (a snapshot or a migrated family image).
constexpr size_t kReadBufferBytes = 64 * 1024;

/// One encoded line cut into its fields, pointing into the line. Payload
/// and extra are still escaped.
struct LineFields {
  uint64_t seq = 0;
  EventType type = EventType::kInstanceStart;
  std::string_view instance;
  std::string_view activity;
  std::string_view to;
  bool flag = false;
  std::string_view payload;
  std::string_view extra;
};

Status Corrupt(std::string what, std::string_view line) {
  what.append(line);
  return Status::Corruption(std::move(what));
}

/// True iff UnescapeQuoted would accept `s`.
bool ValidEscapes(std::string_view s) {
  for (size_t i = s.find('\\'); i != std::string_view::npos;
       i = s.find('\\', i + 2)) {
    if (i + 1 >= s.size()) return false;
    switch (s[i + 1]) {
      case '\\': case '"': case 'n': case 't': case 'r': break;
      default: return false;
    }
  }
  return true;
}

/// Cuts `line` into its eight fields and checks all but the escapes, which
/// the caller then validates (Validate) or unescapes (DecodeInto), payload
/// before extra, so both report the same first error for a line.
Status ParseFields(std::string_view line, LineFields* out) {
  std::string_view field[kFieldCount];
  size_t count = 0;
  size_t start = 0;
  for (;;) {
    size_t tab = line.find('\t', start);
    if (count < kFieldCount) field[count] = line.substr(start, tab - start);
    ++count;
    if (tab == std::string_view::npos) break;
    start = tab + 1;
  }
  if (count != kFieldCount) {
    return Corrupt("journal record has " + std::to_string(count) +
                       " fields, want 8: ",
                   line);
  }
  if (!ParseNumber(field[0], &out->seq)) {
    return Corrupt("bad seq in journal record: ", line);
  }
  uint64_t type = 0;
  if (!ParseNumber(field[1], &type) ||
      type > static_cast<uint64_t>(EventType::kSnapshot)) {
    return Corrupt("bad type in journal record: ", line);
  }
  out->type = static_cast<EventType>(type);
  out->instance = field[2];
  out->activity = field[3];
  out->to = field[4];
  if (field[5] != "0" && field[5] != "1") {
    return Corrupt("bad flag in journal record: ", line);
  }
  out->flag = field[5][0] == '1';
  out->payload = field[6];
  out->extra = field[7];
  return Status::OK();
}

void AppendNumber(uint64_t value, std::string* out) {
  char digits[20];
  auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), value);
  (void)ec;  // 20 digits hold any uint64_t
  out->append(digits, end);
}

/// Reads a segment file line by line through one buffer (see
/// kReadBufferBytes). A returned line view stays valid until the next call.
class LineReader {
 public:
  /// Takes ownership of `fd`, open for reading.
  explicit LineReader(int fd) : fd_(fd), buf_(kReadBufferBytes, '\0') {}
  ~LineReader() { ::close(fd_); }
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  /// Stores the next line, without its '\n', in `*line`; `*terminated` is
  /// false when the file ends mid-line. Sets `*more` false at end of file.
  Status Next(std::string_view* line, bool* terminated, bool* more) {
    for (;;) {
      const void* nl = scan_ < end_
                           ? std::memchr(buf_.data() + scan_, '\n', end_ - scan_)
                           : nullptr;
      if (nl != nullptr) {
        size_t pos = static_cast<size_t>(static_cast<const char*>(nl) -
                                         buf_.data());
        *line = std::string_view(buf_.data() + begin_, pos - begin_);
        begin_ = scan_ = pos + 1;
        *terminated = true;
        *more = true;
        return Status::OK();
      }
      scan_ = end_;
      if (eof_) {
        *more = begin_ < end_;
        *line = std::string_view(buf_.data() + begin_, end_ - begin_);
        *terminated = false;
        begin_ = scan_ = end_;
        return Status::OK();
      }
      // Slide the partial line to the front; grow only when it alone
      // fills the buffer.
      if (begin_ > 0) {
        std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
        end_ -= begin_;
        scan_ = end_;
        begin_ = 0;
      }
      if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
      ssize_t n = ::read(fd_, buf_.data() + end_, buf_.size() - end_);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("cannot read journal: ") +
                               std::strerror(errno));
      }
      if (n == 0) {
        eof_ = true;
      } else {
        end_ += static_cast<size_t>(n);
        bytes_read_ += static_cast<uint64_t>(n);
      }
    }
  }

  uint64_t bytes_read() const { return bytes_read_; }

 private:
  int fd_;
  std::string buf_;
  size_t begin_ = 0;  ///< start of the unread part
  size_t scan_ = 0;   ///< bytes before this hold no '\n' of the current line
  size_t end_ = 0;    ///< end of the bytes read
  bool eof_ = false;
  uint64_t bytes_read_ = 0;
};

}  // namespace

void RecordView::EncodeTo(uint64_t seq, std::string* out) const {
  AppendNumber(seq, out);
  out->push_back('\t');
  AppendNumber(static_cast<uint64_t>(type), out);
  out->push_back('\t');
  out->append(instance);
  out->push_back('\t');
  out->append(activity);
  out->push_back('\t');
  out->append(to);
  out->push_back('\t');
  out->push_back(flag ? '1' : '0');
  out->push_back('\t');
  AppendEscaped(payload, out);
  out->push_back('\t');
  AppendEscaped(extra, out);
}

void Record::EncodeTo(std::string* out) const { view().EncodeTo(seq, out); }

std::string Record::Encode() const {
  std::string out;
  EncodeTo(&out);
  return out;
}

Result<Record> Record::Decode(std::string_view line) {
  Record r;
  EXO_RETURN_NOT_OK(DecodeInto(line, &r));
  return r;
}

Status Record::DecodeInto(std::string_view line, Record* out) {
  LineFields f;
  EXO_RETURN_NOT_OK(ParseFields(line, &f));
  if (!UnescapeQuoted(f.payload, &out->payload)) {
    return Corrupt("bad payload escape in journal record: ", line);
  }
  if (!UnescapeQuoted(f.extra, &out->extra)) {
    return Corrupt("bad extra escape in journal record: ", line);
  }
  out->seq = f.seq;
  out->type = f.type;
  out->instance.assign(f.instance);
  out->activity.assign(f.activity);
  out->to.assign(f.to);
  out->flag = f.flag;
  return Status::OK();
}

Status Record::Validate(std::string_view line, uint64_t* seq) {
  LineFields f;
  EXO_RETURN_NOT_OK(ParseFields(line, &f));
  if (!ValidEscapes(f.payload)) {
    return Corrupt("bad payload escape in journal record: ", line);
  }
  if (!ValidEscapes(f.extra)) {
    return Corrupt("bad extra escape in journal record: ", line);
  }
  if (seq != nullptr) *seq = f.seq;
  return Status::OK();
}

Status Journal::AppendView(const RecordView& view) {
  Record r;
  r.type = view.type;
  r.instance.assign(view.instance);
  r.activity.assign(view.activity);
  r.to.assign(view.to);
  r.flag = view.flag;
  r.payload.assign(view.payload);
  r.extra.assign(view.extra);
  return Append(std::move(r));
}

Status MemoryJournal::Append(Record record) {
  record.seq = base_seq_ + records_.size();
  records_.push_back(std::move(record));
  return Status::OK();
}

Result<std::vector<Record>> MemoryJournal::ReadAll() const { return records_; }

Status MemoryJournal::Visit(const RecordVisitor& visitor) const {
  for (const Record& r : records_) {
    EXO_RETURN_NOT_OK(visitor(r));
  }
  return Status::OK();
}

Result<uint64_t> MemoryJournal::TruncateBefore(uint64_t seq) {
  if (seq <= base_seq_) return static_cast<uint64_t>(0);
  uint64_t cut = std::min<uint64_t>(seq, base_seq_ + records_.size());
  uint64_t dropped = cut - base_seq_;
  records_.erase(records_.begin(),
                 records_.begin() + static_cast<ptrdiff_t>(dropped));
  base_seq_ = cut;
  return dropped;
}

void MemoryJournal::TruncateTo(uint64_t keep) {
  if (keep <= base_seq_) {
    records_.clear();
  } else if (keep - base_seq_ < records_.size()) {
    records_.resize(keep - base_seq_);
  }
}

Result<std::unique_ptr<FileJournal>> FileJournal::Open(const std::string& path,
                                                       bool fsync_each) {
  auto journal = std::unique_ptr<FileJournal>(new FileJournal(path, fsync_each));
  EXO_RETURN_NOT_OK(journal->LoadSegments());
  // Validate existing content in place (nothing is decoded) to restore
  // the sequence counters and verify integrity of what is already there.
  // The scan's byte count says whether a tail needs cutting; no second
  // read of the file. A torn tail in the active segment
  // (crash mid-batch) is cut off so subsequent appends start at a record
  // boundary; damage anywhere behind it is corruption.
  uint64_t expect = journal->segments_.front().start;
  journal->first_seq_ = expect;
  for (size_t i = 0; i < journal->segments_.size(); ++i) {
    const Segment& seg = journal->segments_[i];
    bool active = i + 1 == journal->segments_.size();
    if (seg.start != expect) {
      return Status::Corruption("journal segment " + seg.path +
                                " starts at seq " + std::to_string(seg.start) +
                                " want " + std::to_string(expect));
    }
    uint64_t good_end = 0;
    uint64_t file_size = 0;
    EXO_RETURN_NOT_OK(journal->ScanSegment(seg, active, nullptr, &expect,
                                           &good_end, &file_size));
    if (active && file_size > good_end &&
        ::truncate(seg.path.c_str(), static_cast<off_t>(good_end)) != 0) {
      return Status::IOError("cannot truncate torn journal tail in " +
                             seg.path + ": " + std::strerror(errno));
    }
  }
  journal->next_seq_ = expect;
  const std::string& active_file = journal->segments_.back().path;
  journal->fd_ =
      ::open(active_file.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (journal->fd_ < 0) {
    return Status::IOError("cannot open journal " + active_file + ": " +
                           std::strerror(errno));
  }
  return journal;
}

Status FileJournal::LoadSegments() {
  segments_.clear();
  if (::access(path_.c_str(), F_OK) == 0) segments_.push_back({0, path_});
  // Rotation files live next to the base path as `<base>.<startseq>`.
  size_t slash = path_.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path_.substr(0, slash);
  std::string base =
      slash == std::string::npos ? path_ : path_.substr(slash + 1);
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (struct dirent* entry = ::readdir(d)) {
      std::string name = entry->d_name;
      if (!StartsWith(name, base + ".")) continue;
      std::string suffix = name.substr(base.size() + 1);
      if (suffix.empty() ||
          suffix.find_first_not_of("0123456789") != std::string::npos) {
        continue;  // unrelated sibling (e.g. a fleet shard "journal.e1")
      }
      segments_.push_back(
          {std::strtoull(suffix.c_str(), nullptr, 10), dir + "/" + name});
    }
    ::closedir(d);
  }
  if (segments_.empty()) segments_.push_back({0, path_});
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) { return a.start < b.start; });
  return Status::OK();
}

FileJournal::~FileJournal() {
  if (fd_ >= 0) {
    (void)FlushPending().ok();
    ::close(fd_);
  }
}

Status FileJournal::Append(Record record) {
  return FileJournal::AppendView(record.view());
}

Status FileJournal::AppendView(const RecordView& view) {
  view.EncodeTo(next_seq_, &pending_);
  pending_ += '\n';
  if (fsync_each_) {
    // Write-through: the record is written and fsynced before returning.
    // A failed write drops it from the buffer and cuts the file back to
    // where it began, so its seq is not used and the next record does not
    // land on a torn prefix. (pending_ held only this record: every
    // earlier one was written through or cut away the same way.)
    const off_t before = ::lseek(fd_, 0, SEEK_END);
    Status written = FlushPending();
    if (!written.ok()) {
      pending_.clear();
      if (before >= 0 && ::ftruncate(fd_, before) != 0) {
        return written.WithContext(
            std::string("cannot cut the torn record from the journal: ") +
            std::strerror(errno));
      }
      return written;
    }
    if (::fsync(fd_) != 0) {
      return Status::IOError("fsync failed on journal " + active_path() +
                             ": " + std::strerror(errno));
    }
    ++next_seq_;
    return Status::OK();
  }
  ++next_seq_;
  if (pending_.size() >= kAutoFlushBytes) return FlushPending();
  return Status::OK();
}

Status FileJournal::Flush() { return FlushPending(); }

Status FileJournal::RotateSegment() {
  EXO_RETURN_NOT_OK(FlushPending());
  // Rotating twice with nothing in between would reuse the same file name;
  // the still-empty active segment already satisfies the contract.
  if (segments_.back().start == next_seq_) return Status::OK();
  if (fsync_each_ && ::fsync(fd_) != 0) {
    return Status::IOError("fsync failed on journal " + active_path() + ": " +
                           std::strerror(errno));
  }
  std::string path = path_ + "." + std::to_string(next_seq_);
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open journal segment " + path + ": " +
                           std::strerror(errno));
  }
  ::close(fd_);
  fd_ = fd;
  segments_.push_back({next_seq_, std::move(path)});
  return Status::OK();
}

Result<uint64_t> FileJournal::TruncateBefore(uint64_t seq) {
  uint64_t dropped = 0;
  // A segment is droppable when the *next* segment starts at or before
  // `seq` — every record it holds is then < seq. The active segment is
  // never dropped.
  while (segments_.size() > 1 && segments_[1].start <= seq) {
    if (::unlink(segments_.front().path.c_str()) != 0 && errno != ENOENT) {
      return Status::IOError("cannot unlink journal segment " +
                             segments_.front().path + ": " +
                             std::strerror(errno));
    }
    dropped += segments_[1].start - segments_.front().start;
    segments_.erase(segments_.begin());
  }
  first_seq_ = segments_.front().start;
  return dropped;
}

Status FileJournal::FlushPending() const {
  if (pending_.empty()) return Status::OK();
  size_t off = 0;
  while (off < pending_.size()) {
    ssize_t n = ::write(fd_, pending_.data() + off, pending_.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Status failed = Status::IOError("short write to journal " +
                                      active_path() + ": " +
                                      std::strerror(errno));
      // What reached the file stays there: keep only the rest.
      pending_.erase(0, off);
      return failed;
    }
    off += static_cast<size_t>(n);
  }
  pending_.clear();
  return Status::OK();
}

Status FileJournal::ScanSegment(const Segment& segment, bool allow_torn,
                                const RecordVisitor* visitor, uint64_t* expect,
                                uint64_t* good_end, uint64_t* file_size) const {
  *good_end = 0;
  *file_size = 0;
  int fd = ::open(segment.path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::OK();  // no file yet: empty segment
    return Status::IOError("cannot open journal " + segment.path + ": " +
                           std::strerror(errno));
  }
  LineReader reader(fd);
  Record record;  // decode target, reused for every line of the scan
  std::string_view line;
  bool terminated = false;
  bool more = false;
  uint64_t offset = 0;
  for (;;) {
    EXO_RETURN_NOT_OK(reader.Next(&line, &terminated, &more));
    if (!more) break;
    if (line.empty()) {
      offset += 1;  // a blank line is always '\n'-terminated
      continue;
    }
    uint64_t seq = 0;
    Status parsed = visitor != nullptr ? Record::DecodeInto(line, &record)
                                       : Record::Validate(line, &seq);
    if (!parsed.ok() || !terminated) {
      if (!allow_torn) {
        return parsed.ok() ? Status::Corruption("journal segment " +
                                                segment.path +
                                                " has a torn tail behind the "
                                                "active segment")
                           : parsed;
      }
      if (!parsed.ok()) {
        // Only the final record may be torn; garbage with well-formed
        // lines after it is corruption, not a crash artifact.
        for (;;) {
          EXO_RETURN_NOT_OK(reader.Next(&line, &terminated, &more));
          if (!more) break;
          if (!line.empty()) return parsed;
        }
      }
      break;
    }
    if (visitor != nullptr) seq = record.seq;
    if (seq != *expect) {
      return Status::Corruption("journal " + segment.path + " seq gap: got " +
                                std::to_string(seq) + " want " +
                                std::to_string(*expect));
    }
    ++*expect;
    offset += line.size() + 1;
    if (visitor != nullptr) EXO_RETURN_NOT_OK((*visitor)(record));
  }
  *good_end = offset;
  *file_size = reader.bytes_read();
  return Status::OK();
}

Result<std::vector<Record>> FileJournal::ReadAll() const {
  std::vector<Record> out;
  EXO_RETURN_NOT_OK(Visit([&out](const Record& r) {
    out.push_back(r);
    return Status::OK();
  }));
  return out;
}

Status FileJournal::Visit(const RecordVisitor& visitor) const {
  EXO_RETURN_NOT_OK(FlushPending());
  uint64_t expect = segments_.front().start;
  for (size_t i = 0; i < segments_.size(); ++i) {
    uint64_t good_end = 0;
    uint64_t file_size = 0;
    EXO_RETURN_NOT_OK(ScanSegment(segments_[i], i + 1 == segments_.size(),
                                  &visitor, &expect, &good_end, &file_size));
  }
  return Status::OK();
}

}  // namespace exotica::wfjournal
