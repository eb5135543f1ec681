#include "wfjournal/journal.h"

#include <signal.h>
#include <sys/resource.h>

#include <cstdio>

#include <gtest/gtest.h>

namespace exotica::wfjournal {
namespace {

Record MakeRecord(EventType type, const std::string& inst) {
  Record r;
  r.type = type;
  r.instance = inst;
  r.activity = "A";
  r.to = "B";
  r.flag = true;
  r.payload = "RC=0\nState_1=1\n";
  r.extra = "tab\there";
  return r;
}

TEST(JournalRecordTest, EncodeDecodeRoundTrip) {
  Record r = MakeRecord(EventType::kConnectorEval, "wf-3");
  r.seq = 17;
  auto decoded = Record::Decode(r.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->seq, 17u);
  EXPECT_EQ(decoded->type, EventType::kConnectorEval);
  EXPECT_EQ(decoded->instance, "wf-3");
  EXPECT_EQ(decoded->activity, "A");
  EXPECT_EQ(decoded->to, "B");
  EXPECT_TRUE(decoded->flag);
  EXPECT_EQ(decoded->payload, r.payload);
  EXPECT_EQ(decoded->extra, r.extra);
}

TEST(JournalRecordTest, DecodeRejectsMalformedLines) {
  EXPECT_TRUE(Record::Decode("").status().IsCorruption());
  EXPECT_TRUE(Record::Decode("1\t2\t3").status().IsCorruption());
  EXPECT_TRUE(Record::Decode("x\t0\ti\ta\tb\t0\tp\te").status().IsCorruption());
  EXPECT_TRUE(Record::Decode("0\t99\ti\ta\tb\t0\tp\te").status().IsCorruption());
  EXPECT_TRUE(Record::Decode("0\t0\ti\ta\tb\t7\tp\te").status().IsCorruption());
  EXPECT_TRUE(Record::Decode("0\t0\ti\ta\tb\t0\tbad\\x\te").status().IsCorruption());
}

TEST(MemoryJournalTest, AppendAssignsSequence) {
  MemoryJournal j;
  ASSERT_TRUE(j.Append(MakeRecord(EventType::kInstanceStart, "wf-1")).ok());
  ASSERT_TRUE(j.Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
  auto all = j.ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].seq, 0u);
  EXPECT_EQ((*all)[1].seq, 1u);
  EXPECT_EQ(j.size(), 2u);
}

TEST(MemoryJournalTest, TruncateSimulatesCrash) {
  MemoryJournal j;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(j.Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
  }
  j.TruncateTo(2);
  EXPECT_EQ(j.size(), 2u);
  j.TruncateTo(10);  // no-op
  EXPECT_EQ(j.size(), 2u);
}

TEST(FileJournalTest, PersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/exo_journal_test.log";
  std::remove(path.c_str());
  {
    auto j = FileJournal::Open(path);
    ASSERT_TRUE(j.ok()) << j.status().ToString();
    ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kInstanceStart, "wf-1")).ok());
    ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
  }
  {
    auto j = FileJournal::Open(path);
    ASSERT_TRUE(j.ok());
    EXPECT_EQ((*j)->size(), 2u);
    auto all = (*j)->ReadAll();
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(all->size(), 2u);
    EXPECT_EQ((*all)[1].type, EventType::kActivityReady);
    // Appending continues the sequence.
    ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kActivityDead, "wf-1")).ok());
    auto again = (*j)->ReadAll();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ((*again)[2].seq, 2u);
  }
  std::remove(path.c_str());
}

// Byte size of the journal file right now (0 if absent).
uint64_t FileSize(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  fseek(f, 0, SEEK_END);
  long n = ftell(f);
  fclose(f);
  return n < 0 ? 0 : static_cast<uint64_t>(n);
}

TEST(FileJournalTest, GroupCommitBuffersUntilFlush) {
  std::string path = ::testing::TempDir() + "/exo_journal_group.log";
  std::remove(path.c_str());
  auto j = FileJournal::Open(path);
  ASSERT_TRUE(j.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
  }
  // Nothing reaches the file until Flush().
  EXPECT_EQ(FileSize(path), 0u);
  EXPECT_EQ((*j)->size(), 3u);
  ASSERT_TRUE((*j)->Flush().ok());
  uint64_t flushed = FileSize(path);
  EXPECT_GT(flushed, 0u);
  // Readers see buffered appends regardless of flush state.
  ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kActivityDead, "wf-1")).ok());
  auto all = (*j)->ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 4u);
  EXPECT_EQ((*all)[3].type, EventType::kActivityDead);
  std::remove(path.c_str());
}

TEST(FileJournalTest, DestructorFlushesBufferedAppends) {
  std::string path = ::testing::TempDir() + "/exo_journal_dtor.log";
  std::remove(path.c_str());
  {
    auto j = FileJournal::Open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kInstanceStart, "wf-1")).ok());
    EXPECT_EQ(FileSize(path), 0u);
  }
  auto j = FileJournal::Open(path);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ((*j)->size(), 1u);
  std::remove(path.c_str());
}

/// Caps this process's file size at `limit` bytes with SIGXFSZ ignored,
/// so a write across the cap is cut short and the next one fails with
/// EFBIG instead of killing the test. Restores the old limit and the old
/// SIGXFSZ disposition when it goes out of scope.
class FileSizeCap {
 public:
  explicit FileSizeCap(uint64_t limit) {
    struct sigaction ignore = {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    ok_ = getrlimit(RLIMIT_FSIZE, &old_limit_) == 0 &&
          sigaction(SIGXFSZ, &ignore, &old_action_) == 0;
    struct rlimit capped = old_limit_;
    capped.rlim_cur = static_cast<rlim_t>(limit);
    ok_ = ok_ && setrlimit(RLIMIT_FSIZE, &capped) == 0;
  }
  ~FileSizeCap() {
    setrlimit(RLIMIT_FSIZE, &old_limit_);
    sigaction(SIGXFSZ, &old_action_, nullptr);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;
  bool ok() const { return ok_; }

 private:
  struct rlimit old_limit_ = {};
  struct sigaction old_action_ = {};
  bool ok_ = false;
};

TEST(FileJournalTest, CutShortGroupCommitCompletesOnRetry) {
  // A flush the kernel cuts short must keep only the unwritten rest of
  // the batch, so the retry completes the torn record in place instead of
  // writing its prefix a second time (a malformed line mid-file).
  std::string path = ::testing::TempDir() + "/exo_journal_cutshort.log";
  std::remove(path.c_str());
  auto j = FileJournal::Open(path);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kInstanceStart, "wf-1")).ok());
  ASSERT_TRUE((*j)->Flush().ok());
  const uint64_t before = FileSize(path);
  ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
  {
    FileSizeCap cap(before + 20);
    ASSERT_TRUE(cap.ok());
    Status cut = (*j)->Flush();
    EXPECT_TRUE(cut.IsIOError()) << cut.ToString();
    EXPECT_EQ(FileSize(path), before + 20);  // a torn prefix reached disk
  }
  ASSERT_TRUE((*j)->Flush().ok());  // the retry completes it
  ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kActivityDead, "wf-1")).ok());
  ASSERT_TRUE((*j)->Flush().ok());
  j->reset();

  // A doubled prefix would be a malformed line mid-file: Corruption.
  auto reopened = FileJournal::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto all = (*reopened)->ReadAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 3u);
  EXPECT_EQ((*all)[1].type, EventType::kActivityReady);
  EXPECT_EQ((*all)[1].payload, "RC=0\nState_1=1\n");
  EXPECT_EQ((*all)[2].type, EventType::kActivityDead);
  std::remove(path.c_str());
}

TEST(FileJournalTest, CutShortWriteThroughLeavesNoTornPrefix) {
  // A write-through append that fails part-way must cut the file back:
  // its seq is not used, and the next acknowledged record must not be
  // glued onto the torn prefix (Open would cut the merged line as a tail).
  std::string path = ::testing::TempDir() + "/exo_journal_cutshort_ws.log";
  std::remove(path.c_str());
  auto j = FileJournal::Open(path, /*fsync_each=*/true);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kInstanceStart, "wf-1")).ok());
  const uint64_t before = FileSize(path);
  {
    FileSizeCap cap(before + 20);
    ASSERT_TRUE(cap.ok());
    Status cut = (*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1"));
    EXPECT_TRUE(cut.IsIOError()) << cut.ToString();
  }
  EXPECT_EQ(FileSize(path), before);
  EXPECT_EQ((*j)->size(), 1u);
  ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kActivityDead, "wf-1")).ok());
  j->reset();

  auto reopened = FileJournal::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto all = (*reopened)->ReadAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[1].seq, 1u);
  EXPECT_EQ((*all)[1].type, EventType::kActivityDead);
  std::remove(path.c_str());
}

TEST(FileJournalTest, FsyncEachWritesThrough) {
  std::string path = ::testing::TempDir() + "/exo_journal_fsync.log";
  std::remove(path.c_str());
  auto j = FileJournal::Open(path, /*fsync_each=*/true);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kInstanceStart, "wf-1")).ok());
  EXPECT_GT(FileSize(path), 0u);  // durable without any Flush()
  std::remove(path.c_str());
}

TEST(FileJournalTest, TornTailTruncatedOnOpen) {
  std::string path = ::testing::TempDir() + "/exo_journal_torn.log";
  std::remove(path.c_str());
  std::string full;
  {
    auto j = FileJournal::Open(path);
    ASSERT_TRUE(j.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
    }
  }
  // Simulate a crash mid-write: append half of a fourth record, no newline.
  {
    FILE* f = fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    fputs("3\t1\twf-1\tA", f);
    fclose(f);
  }
  auto j = FileJournal::Open(path);
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_EQ((*j)->size(), 3u);
  // Appends land where the tear was cut, keeping seqs contiguous.
  ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kActivityDead, "wf-1")).ok());
  ASSERT_TRUE((*j)->Flush().ok());
  auto all = (*j)->ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 4u);
  EXPECT_EQ((*all)[3].seq, 3u);
  EXPECT_EQ((*all)[3].type, EventType::kActivityDead);
  std::remove(path.c_str());
}

TEST(FileJournalTest, GarbageBeforeValidRecordsIsCorruption) {
  std::string path = ::testing::TempDir() + "/exo_journal_mid.log";
  std::remove(path.c_str());
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    Record r = MakeRecord(EventType::kInstanceStart, "wf-1");
    r.seq = 0;
    fprintf(f, "%s\n", r.Encode().c_str());
    fputs("not a record\n", f);  // garbage in the middle...
    r.seq = 1;
    fprintf(f, "%s\n", r.Encode().c_str());  // ...with valid data after it
    fclose(f);
  }
  // A torn tail only exists at the end of the file; this is corruption.
  EXPECT_TRUE(FileJournal::Open(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(FileJournalTest, VisitStreamsAndStopsOnVisitorError) {
  std::string path = ::testing::TempDir() + "/exo_journal_visit.log";
  std::remove(path.c_str());
  auto j = FileJournal::Open(path);
  ASSERT_TRUE(j.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
  }
  int seen = 0;
  ASSERT_TRUE((*j)->Visit([&seen](const Record&) {
    ++seen;
    return Status::OK();
  }).ok());
  EXPECT_EQ(seen, 5);
  seen = 0;
  Status st = (*j)->Visit([&seen](const Record&) {
    ++seen;
    return seen == 3 ? Status::Aborted("stop") : Status::OK();
  });
  EXPECT_TRUE(st.IsAborted());
  EXPECT_EQ(seen, 3);
  std::remove(path.c_str());
}

TEST(MemoryJournalTest, TruncateBeforeDropsPrefixKeepsSeqs) {
  MemoryJournal j;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(j.Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
  }
  auto dropped = j.TruncateBefore(3);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 3u);
  EXPECT_EQ(j.first_seq(), 3u);
  EXPECT_EQ(j.size(), 5u);  // next seq unchanged
  auto all = j.ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].seq, 3u);
  // Appends continue the original numbering.
  ASSERT_TRUE(j.Append(MakeRecord(EventType::kActivityDead, "wf-1")).ok());
  all = j.ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->back().seq, 5u);
  // Truncating behind the retained range is a no-op.
  dropped = j.TruncateBefore(1);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 0u);
}

// Removes the base file and any `path.<n>` segments.
void RemoveSegments(const std::string& path) {
  std::remove(path.c_str());
  for (uint64_t n = 0; n < 4096; ++n) {
    std::remove((path + "." + std::to_string(n)).c_str());
  }
}

TEST(SegmentedJournalTest, RotateKeepsSequenceAndSurvivesReopen) {
  std::string path = ::testing::TempDir() + "/exo_journal_rotate.log";
  RemoveSegments(path);
  {
    auto j = FileJournal::Open(path);
    ASSERT_TRUE(j.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          (*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
    }
    ASSERT_TRUE((*j)->RotateSegment().ok());
    EXPECT_EQ((*j)->segment_count(), 2u);
    EXPECT_EQ((*j)->active_path(), path + ".3");
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          (*j)->Append(MakeRecord(EventType::kActivityDead, "wf-1")).ok());
    }
    auto all = (*j)->ReadAll();
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(all->size(), 5u);
    for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ((*all)[i].seq, i);
  }
  // Reopen discovers both segments and continues the sequence.
  auto j = FileJournal::Open(path);
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_EQ((*j)->size(), 5u);
  EXPECT_EQ((*j)->segment_count(), 2u);
  ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
  auto all = (*j)->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->back().seq, 5u);
  RemoveSegments(path);
}

TEST(SegmentedJournalTest, RotateWithEmptyActiveSegmentIsNoOp) {
  std::string path = ::testing::TempDir() + "/exo_journal_rotate2.log";
  RemoveSegments(path);
  auto j = FileJournal::Open(path);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
  ASSERT_TRUE((*j)->RotateSegment().ok());
  ASSERT_TRUE((*j)->RotateSegment().ok());  // nothing appended in between
  EXPECT_EQ((*j)->segment_count(), 2u);
  RemoveSegments(path);
}

TEST(SegmentedJournalTest, TruncateBeforeDeletesWholeSegmentsOnly) {
  std::string path = ::testing::TempDir() + "/exo_journal_trunc.log";
  RemoveSegments(path);
  auto j = FileJournal::Open(path);
  ASSERT_TRUE(j.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        (*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
  }
  ASSERT_TRUE((*j)->RotateSegment().ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        (*j)->Append(MakeRecord(EventType::kActivityDead, "wf-1")).ok());
  }
  ASSERT_TRUE((*j)->Flush().ok());
  // seq 4 is mid-active-segment: only the base segment (0..2) is behind it.
  auto dropped = (*j)->TruncateBefore(4);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 3u);
  EXPECT_EQ((*j)->first_seq(), 3u);
  EXPECT_EQ((*j)->segment_count(), 1u);
  EXPECT_EQ(FileSize(path), 0u);  // base segment unlinked
  auto all = (*j)->ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].seq, 3u);
  RemoveSegments(path);
}

TEST(SegmentedJournalTest, ReopensAfterTruncationWithoutBaseFile) {
  std::string path = ::testing::TempDir() + "/exo_journal_nobase.log";
  RemoveSegments(path);
  {
    auto j = FileJournal::Open(path);
    ASSERT_TRUE(j.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          (*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
    }
    ASSERT_TRUE((*j)->RotateSegment().ok());
    ASSERT_TRUE(
        (*j)->Append(MakeRecord(EventType::kActivityDead, "wf-1")).ok());
    ASSERT_TRUE((*j)->Flush().ok());
    ASSERT_TRUE((*j)->TruncateBefore(3).ok());
  }
  auto j = FileJournal::Open(path);
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_EQ((*j)->size(), 4u);
  EXPECT_EQ((*j)->first_seq(), 3u);
  auto all = (*j)->ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ((*all)[0].seq, 3u);
  RemoveSegments(path);
}

TEST(SegmentedJournalTest, TornTailInActiveSegmentTruncatedOnOpen) {
  std::string path = ::testing::TempDir() + "/exo_journal_segtorn.log";
  RemoveSegments(path);
  {
    auto j = FileJournal::Open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(
        (*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
    ASSERT_TRUE((*j)->RotateSegment().ok());
    ASSERT_TRUE(
        (*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
  }
  {
    FILE* f = fopen((path + ".1").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    fputs("2\t1\twf-1\tA", f);  // half a record, no newline
    fclose(f);
  }
  auto j = FileJournal::Open(path);
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_EQ((*j)->size(), 2u);
  ASSERT_TRUE((*j)->Append(MakeRecord(EventType::kActivityDead, "wf-1")).ok());
  ASSERT_TRUE((*j)->Flush().ok());
  auto all = (*j)->ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 3u);
  EXPECT_EQ(all->back().seq, 2u);
  RemoveSegments(path);
}

TEST(SegmentedJournalTest, TornTailBehindActiveSegmentIsCorruption) {
  std::string path = ::testing::TempDir() + "/exo_journal_segmid.log";
  RemoveSegments(path);
  {
    auto j = FileJournal::Open(path);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(
        (*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
    ASSERT_TRUE((*j)->RotateSegment().ok());
    ASSERT_TRUE(
        (*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
  }
  {
    FILE* f = fopen(path.c_str(), "ab");  // damage the *base* segment
    ASSERT_NE(f, nullptr);
    fputs("1\t1\twf-1\tA", f);
    fclose(f);
  }
  EXPECT_TRUE(FileJournal::Open(path).status().IsCorruption());
  RemoveSegments(path);
}

TEST(SegmentedJournalTest, MissingMiddleSegmentIsCorruption) {
  std::string path = ::testing::TempDir() + "/exo_journal_seggap.log";
  RemoveSegments(path);
  {
    auto j = FileJournal::Open(path);
    ASSERT_TRUE(j.ok());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          (*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
    }
    ASSERT_TRUE((*j)->RotateSegment().ok());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          (*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
    }
    ASSERT_TRUE((*j)->RotateSegment().ok());
    ASSERT_TRUE(
        (*j)->Append(MakeRecord(EventType::kActivityReady, "wf-1")).ok());
  }
  // A vanished *middle* segment leaves a seq gap no truncation could
  // produce (truncation only ever drops a prefix). Open must refuse.
  std::remove((path + ".2").c_str());
  EXPECT_TRUE(FileJournal::Open(path).status().IsCorruption());
  RemoveSegments(path);
}

TEST(FileJournalTest, DetectsSeqGapCorruption) {
  std::string path = ::testing::TempDir() + "/exo_journal_gap.log";
  std::remove(path.c_str());
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    Record r = MakeRecord(EventType::kInstanceStart, "wf-1");
    r.seq = 5;  // gap: first record should be 0
    fprintf(f, "%s\n", r.Encode().c_str());
    fclose(f);
  }
  auto j = FileJournal::Open(path);
  EXPECT_TRUE(j.status().IsCorruption());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace exotica::wfjournal
