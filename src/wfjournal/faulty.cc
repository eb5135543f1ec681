#include "wfjournal/faulty.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace exotica::wfjournal {

Status FaultyJournal::RawWrite(const std::string& bytes) {
  // After a segment rotation the legacy constructor path is a stale
  // (possibly deleted) segment; the bytes a torn write would clobber live
  // in the inner journal's active segment.
  std::string target = inner_->active_path();
  if (target.empty()) target = path_;
  if (target.empty()) {
    return Status::InvalidArgument(
        "FaultyJournal byte-level fault needs a file path");
  }
  int fd = ::open(target.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("FaultyJournal cannot open " + target + ": " +
                           std::strerror(errno));
  }
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ::close(fd);
      return Status::IOError("FaultyJournal raw write to " + target +
                             " failed: " + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  return Status::OK();
}

Result<uint64_t> FaultyJournal::TruncateBefore(uint64_t seq) {
  uint64_t index = truncates_++;
  if (truncate_armed_ && index == fail_truncate_at_) {
    ++injected_;
    // Not forwarded: every pre-snapshot segment survives, exactly the
    // state a crash between snapshot flush and truncation leaves.
    return Status::IOError("injected truncate failure at truncate " +
                           std::to_string(index));
  }
  return inner_->TruncateBefore(seq);
}

Status FaultyJournal::Append(Record record) {
  uint64_t index = appends_++;
  if (!append_armed_ || index != fail_append_at_) {
    return inner_->Append(std::move(record));
  }
  ++injected_;
  switch (append_mode_) {
    case FaultMode::kAppendError:
      return Status::IOError("injected write failure (ENOSPC) at append " +
                             std::to_string(index));
    case FaultMode::kShortWrite: {
      // Flush what came before so the file looks like a real crash: every
      // earlier record whole, then a prefix of this one.
      EXO_RETURN_NOT_OK(inner_->Flush());
      record.seq = inner_->size();
      std::string line = record.Encode();
      EXO_RETURN_NOT_OK(RawWrite(line.substr(0, line.size() / 2)));
      return Status::IOError("injected short write at append " +
                             std::to_string(index));
    }
    case FaultMode::kGarbage: {
      EXO_RETURN_NOT_OK(inner_->Flush());
      EXO_RETURN_NOT_OK(RawWrite("\x7f!!corrupt-block!!\x01\x02\x03\n"));
      // The write that clobbered the log was not the journal's own, so the
      // append itself still succeeds.
      return inner_->Append(std::move(record));
    }
  }
  return Status::Internal("unreachable");
}

Status FaultyJournal::AppendView(const RecordView& view) {
  if (append_armed_ && appends_ == fail_append_at_) {
    return Journal::AppendView(view);  // builds the Record for Append
  }
  ++appends_;
  return inner_->AppendView(view);
}

Status FaultyJournal::Flush() {
  uint64_t index = flushes_++;
  if (flush_armed_ && index == fail_flush_at_) {
    ++injected_;
    // Not forwarded: buffered records stay buffered, as after EIO from
    // fsync. (A FileJournal still flushes them in its destructor; data
    // loss is modelled with kAppendError / kShortWrite instead.)
    return Status::IOError("injected fsync failure at flush " +
                           std::to_string(index));
  }
  return inner_->Flush();
}

}  // namespace exotica::wfjournal
