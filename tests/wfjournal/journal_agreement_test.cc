// Validation and decoding must agree. FileJournal::Open only validates
// each line in place (Record::Validate); Visit decodes it (DecodeInto,
// the path Record::Decode shares). Both are hand-written string_view
// parsers, so this seeded mutation test feeds them the same damaged lines
// and requires the same verdict, line by line and through whole files:
// a bad line followed by a good one is Corruption, and a bad final line
// is cut as a torn tail.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "wfjournal/journal.h"

namespace exotica::wfjournal {
namespace {

// Every character the encoder escapes, in payload and extra alike.
constexpr char kEscaped[] = "a\\b\"c\nd\te\rf";

Record Sample(uint64_t seq) {
  Record r;
  r.seq = seq;
  r.type = EventType::kConnectorEval;
  r.instance = "e1:wf-12";
  r.activity = "T1";
  r.to = "T2";
  r.flag = true;
  r.payload = std::string("RC=0\nNote=\"") + kEscaped + "\"\n";
  r.extra = kEscaped;
  return r;
}

std::string Line(uint64_t seq) { return Sample(seq).Encode(); }

// The seed lines: well-formed records holding every escape, plus the six
// inputs of JournalRecordTest.DecodeRejectsMalformedLines.
std::vector<std::string> Seeds() {
  Record start = Sample(1);
  start.type = EventType::kInstanceStart;
  start.flag = false;
  start.to = "";
  start.payload = "v1:S";
  return {Line(1),
          start.Encode(),
          "",
          "1\t2\t3",
          "x\t0\ti\ta\tb\t0\tp\te",
          "0\t99\ti\ta\tb\t0\tp\te",
          "0\t0\ti\ta\tb\t7\tp\te",
          "0\t0\ti\ta\tb\t0\tbad\\x\te"};
}

// Replaces the `index`-th tab-separated field of `line`.
std::string WithField(const std::string& line, size_t index,
                      const std::string& value) {
  std::string out;
  size_t field = 0;
  size_t start = 0;
  for (;;) {
    size_t tab = line.find('\t', start);
    if (field > 0) out += '\t';
    out += field == index ? value : line.substr(start, tab - start);
    ++field;
    if (tab == std::string::npos) break;
    start = tab + 1;
  }
  return out;
}

std::vector<std::string> Mutants() {
  std::set<std::string> out;
  Rng rng(20260419);
  for (const std::string& seed : Seeds()) {
    out.insert(seed);
    for (size_t i = 0; i <= seed.size(); ++i) {
      out.insert(seed.substr(0, i));  // a cut at every byte
    }
    for (size_t i = 0; i < seed.size(); ++i) {
      for (char mask : {'\x01', '\x20', '\x80'}) {
        std::string flipped = seed;
        flipped[i] = static_cast<char>(flipped[i] ^ mask);
        out.insert(flipped);
      }
      std::string random = seed;
      random[i] = static_cast<char>(rng.Uniform(0, 255));
      out.insert(random);
      if (seed[i] == '\t') {
        out.insert(seed.substr(0, i) + seed.substr(i + 1));   // dropped
        out.insert(seed.substr(0, i) + '\t' + seed.substr(i));  // doubled
      }
    }
    for (const char* bad_number : {"+1", "-1", " 1", "1 ", "", "1x", "x"}) {
      out.insert(WithField(seed, 0, bad_number));  // seq
      out.insert(WithField(seed, 1, bad_number));  // type
    }
    out.insert(WithField(seed, 1, "17"));  // one past kSnapshot
    out.insert(WithField(seed, 1, "99999999999999999999"));
    out.insert(WithField(seed, 0, "18446744073709551616"));  // 2^64
    out.insert(WithField(seed, 5, "2"));
    out.insert(WithField(seed, 5, "01"));
    out.insert(WithField(seed, 6, "bad\\x"));
    out.insert(WithField(seed, 7, "trailing\\"));
  }
  return {out.begin(), out.end()};
}

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

void WriteFile(const std::string& path, const std::string& content) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite(content.data(), 1, content.size(), f);
  fclose(f);
}

uint64_t FileSize(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  fseek(f, 0, SEEK_END);
  long n = ftell(f);
  fclose(f);
  return n < 0 ? 0 : static_cast<uint64_t>(n);
}

// What Open does with `content`: its status and, when OK, the record
// count and the file size left behind.
struct Opened {
  Status status;
  uint64_t records = 0;
  uint64_t file_size = 0;
};

Opened OpenFile(const std::string& path, const std::string& content) {
  WriteFile(path, content);
  Opened out;
  auto j = FileJournal::Open(path);
  out.status = j.status();
  if (j.ok()) out.records = (*j)->size();
  out.file_size = FileSize(path);
  return out;
}

// What Visit does with `content` as the active segment, bypassing Open's
// repair: the journal is opened empty and the bytes land behind its back.
Opened VisitFile(const std::string& path, const std::string& content) {
  std::remove(path.c_str());
  Opened out;
  auto j = FileJournal::Open(path);
  if (!j.ok()) {
    out.status = j.status();
    return out;
  }
  WriteFile(path, content);
  out.status = (*j)->Visit([&out](const Record&) {
    ++out.records;
    return Status::OK();
  });
  return out;
}

TEST(JournalAgreementTest, ValidateAndDecodeAcceptTheSameLines) {
  std::vector<std::string> mutants = Mutants();
  ASSERT_GT(mutants.size(), 1000u);
  size_t accepted = 0;
  for (const std::string& line : mutants) {
    SCOPED_TRACE(::testing::PrintToString(line));
    uint64_t seq = 0;
    Status validated = Record::Validate(line, &seq);
    Result<Record> decoded = Record::Decode(line);
    ASSERT_EQ(validated.ok(), decoded.ok());
    if (!decoded.ok()) {
      EXPECT_TRUE(validated.IsCorruption());
      EXPECT_EQ(validated.ToString(), decoded.status().ToString());
      continue;
    }
    ++accepted;
    EXPECT_EQ(seq, decoded->seq);
    // Whatever decodes re-encodes to a line that decodes to the same
    // record.
    Result<Record> again = Record::Decode(decoded->Encode());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->Encode(), decoded->Encode());
    // Decoding into a record that held other data leaves no residue.
    Record reused = Sample(7);
    reused.payload.assign(500, 'p');
    ASSERT_TRUE(Record::DecodeInto(line, &reused).ok());
    EXPECT_EQ(reused.Encode(), decoded->Encode());
  }
  // The mutations reach both verdicts.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(mutants.size() - accepted, 100u);
}

TEST(JournalAgreementTest, NumbersAreDigitsOnly) {
  for (const char* bad : {"+1", "-1", " 1", "1 ", "\t1", "0x1", "1e0", ""}) {
    SCOPED_TRACE(bad);
    EXPECT_TRUE(Record::Validate(WithField(Line(1), 0, bad)).IsCorruption());
    EXPECT_TRUE(Record::Decode(WithField(Line(1), 1, bad)).status()
                    .IsCorruption());
  }
  EXPECT_TRUE(Record::Validate(WithField(Line(1), 1, "17")).IsCorruption());
  EXPECT_TRUE(Record::Validate(WithField(Line(1), 1, "16")).ok());
}

TEST(JournalAgreementTest, OpenAndVisitAgreeOnEveryMutant) {
  std::string path = TempPath("exo_journal_agree.log");
  const std::string good0 = Line(0) + "\n";
  const std::string good2 = Line(2) + "\n";
  for (const std::string& m : Mutants()) {
    // A blank line is skipped by the scan and a '\n' splits the mutant
    // into two lines; the line-level test above covers both.
    if (m.empty() || m.find('\n') != std::string::npos) continue;
    SCOPED_TRACE(::testing::PrintToString(m));
    uint64_t seq = 0;
    bool valid = Record::Validate(m, &seq).ok();
    bool fits = valid && seq == 1;

    // Damage followed by a good record: Corruption unless the mutant is a
    // well-formed record 1.
    std::string middle = good0 + m + "\n" + good2;
    Opened open = OpenFile(path, middle);
    Opened visit = VisitFile(path, middle);
    EXPECT_EQ(open.status.ok(), fits) << open.status.ToString();
    EXPECT_EQ(visit.status.ok(), fits) << visit.status.ToString();
    if (fits) {
      EXPECT_EQ(open.records, 3u);
      EXPECT_EQ(visit.records, 3u);
    } else {
      EXPECT_TRUE(open.status.IsCorruption());
      EXPECT_TRUE(visit.status.IsCorruption());
    }

    // Damage as the final line: a bad one is a torn tail, cut by Open and
    // skipped by Visit; a well-formed one with the wrong seq is a gap.
    std::string tail = good0 + m + "\n";
    open = OpenFile(path, tail);
    visit = VisitFile(path, tail);
    if (!valid) {
      ASSERT_TRUE(open.status.ok()) << open.status.ToString();
      EXPECT_EQ(open.records, 1u);
      EXPECT_EQ(open.file_size, good0.size());
      ASSERT_TRUE(visit.status.ok()) << visit.status.ToString();
      EXPECT_EQ(visit.records, 1u);
    } else {
      EXPECT_EQ(open.status.ok(), fits) << open.status.ToString();
      EXPECT_EQ(visit.status.ok(), fits) << visit.status.ToString();
      if (fits) {
        EXPECT_EQ(open.records, 2u);
        EXPECT_EQ(visit.records, 2u);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(JournalAgreementTest, UnterminatedFinalLineIsATornTail) {
  // A cut at every byte of the next record, with no newline: whether or
  // not the prefix parses, Open cuts it and appends resume behind it.
  std::string path = TempPath("exo_journal_agree_torn.log");
  const std::string good0 = Line(0) + "\n";
  const std::string next = Line(1);
  for (size_t cut = 1; cut <= next.size(); ++cut) {
    SCOPED_TRACE(cut);
    Opened visit = VisitFile(path, good0 + next.substr(0, cut));
    ASSERT_TRUE(visit.status.ok()) << visit.status.ToString();
    EXPECT_EQ(visit.records, 1u);
    Opened open = OpenFile(path, good0 + next.substr(0, cut));
    ASSERT_TRUE(open.status.ok()) << open.status.ToString();
    EXPECT_EQ(open.records, 1u);
    EXPECT_EQ(open.file_size, good0.size());
  }
  std::remove(path.c_str());
}

TEST(JournalAgreementTest, RecordsLongerThanTheReadBufferRoundTrip) {
  // Snapshot and migration records can exceed the scan's read buffer; the
  // buffer grows to hold them, and the lines around them still parse.
  std::string path = TempPath("exo_journal_agree_long.log");
  std::vector<std::string> payloads = {std::string(70 * 1024, 'x'),
                                       std::string(200 * 1024, '\n'), "s"};
  {
    auto j = FileJournal::Open(path);
    ASSERT_TRUE(j.ok());
    for (const std::string& p : payloads) {
      Record r = Sample(0);
      r.payload = p;
      ASSERT_TRUE((*j)->Append(r).ok());
    }
  }
  auto j = FileJournal::Open(path);
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_EQ((*j)->size(), payloads.size());
  size_t i = 0;
  ASSERT_TRUE((*j)->Visit([&](const Record& r) {
                    EXPECT_EQ(r.seq, i);
                    EXPECT_EQ(r.payload, payloads[i]);
                    EXPECT_EQ(r.extra, kEscaped);
                    ++i;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(i, payloads.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace exotica::wfjournal
