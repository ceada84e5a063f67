// Snapshot building blocks: the binary codec (core/binio.hpp), atomic file
// and fsync'd journal primitives (core/atomic_file.hpp), the EventQueue
// export/restore path, the whole-file snapshot format (magic + version +
// FNV-1a trailer) and the wrsn.snapshot manifest lines.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/atomic_file.hpp"
#include "core/binio.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "sim/events.hpp"
#include "sim/snapshot.hpp"

namespace wrsn {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(BinIo, ScalarRoundTrip) {
  BinWriter w;
  w.u8(std::uint8_t{7});
  w.u32(std::uint32_t{0xdeadbeef});
  w.u64(std::uint64_t{0x0123456789abcdefULL});
  w.f64(-0.1);
  w.boolean(true);
  w.size(std::size_t{42});
  w.str("hello");

  BinReader r(w.bytes());
  std::uint8_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
  double d = 0.0;
  bool e = false;
  std::size_t f = 0;
  std::string s;
  r.u8(a);
  r.u32(b);
  r.u64(c);
  r.f64(d);
  r.boolean(e);
  r.size(f);
  r.str(s);
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, 0xdeadbeefu);
  EXPECT_EQ(c, 0x0123456789abcdefULL);
  EXPECT_EQ(d, -0.1);  // bit-exact, not approximate
  EXPECT_TRUE(e);
  EXPECT_EQ(f, 42u);
  EXPECT_EQ(s, "hello");
  EXPECT_NO_THROW(r.expect_end());
}

TEST(BinIo, DoubleBitPatternsSurvive) {
  // Signed zero and subnormals round-trip bit-for-bit (the property the
  // deterministic snapshot relies on).
  for (const double v : {-0.0, 5e-324, 1.0 / 3.0, 1e308}) {
    BinWriter w;
    w.f64(v);
    BinReader r(w.bytes());
    double out = 1.0;
    r.f64(out);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out), std::bit_cast<std::uint64_t>(v));
  }
}

TEST(BinIo, VectorRoundTrip) {
  BinWriter w;
  const std::vector<double> doubles{1.5, -2.25, 0.0};
  const std::vector<std::uint64_t> words{1, 2, 3};
  const std::vector<std::uint8_t> bytes{0, 255, 7};
  w.vec(doubles);
  w.vec(words);
  w.vec(bytes);
  BinReader r(w.bytes());
  std::vector<double> d2;
  std::vector<std::uint64_t> w2;
  std::vector<std::uint8_t> b2;
  r.vec(d2);
  r.vec(w2);
  r.vec(b2);
  EXPECT_EQ(d2, doubles);
  EXPECT_EQ(w2, words);
  EXPECT_EQ(b2, bytes);
}

TEST(BinIo, TruncationThrows) {
  BinWriter w;
  w.u64(std::uint64_t{1});
  const std::string bytes = w.bytes();
  BinReader r(std::string_view(bytes).substr(0, 4));
  std::uint64_t v = 0;
  EXPECT_THROW(r.u64(v), InvalidArgument);
}

TEST(BinIo, TrailingBytesThrow) {
  BinWriter w;
  w.u8(std::uint8_t{1});
  w.u8(std::uint8_t{2});
  BinReader r(w.bytes());
  std::uint8_t v = 0;
  r.u8(v);
  EXPECT_THROW(r.expect_end(), InvalidArgument);
}

TEST(BinIo, Fnv1a64KnownValues) {
  // Reference values for the FNV-1a 64-bit parameters.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_NE(fnv1a64("ab"), fnv1a64("ba"));
}

TEST(AtomicFile, WriteFileAtomicReplaces) {
  const std::string path = temp_path("atomic_replace.txt");
  write_file_atomic(path, "first");
  EXPECT_EQ(read_file(path), "first");
  write_file_atomic(path, "second");
  EXPECT_EQ(read_file(path), "second");
  std::remove(path.c_str());
}

TEST(AtomicFile, UncommittedLeavesNoFinalFile) {
  const std::string path = temp_path("atomic_uncommitted.txt");
  std::remove(path.c_str());
  {
    AtomicFile file(path);
    file.stream() << "half-written";
    // no commit(): destructor discards the temp file
  }
  std::ifstream in(path);
  EXPECT_FALSE(in.is_open());
}

TEST(AtomicFile, CommitPublishes) {
  const std::string path = temp_path("atomic_commit.txt");
  {
    AtomicFile file(path);
    file.stream() << "payload";
    file.commit();
  }
  EXPECT_EQ(read_file(path), "payload");
  std::remove(path.c_str());
}

// A rename over a FIFO or device (--out /dev/stdout, --spans /dev/null)
// would replace it with a regular file: such targets are written in place,
// and an uncommitted writer leaves them alone.
TEST(AtomicFile, NonRegularTargetIsWrittenInPlace) {
  const std::string path = temp_path("atomic_fifo");
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const int reader = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);
  { AtomicFile discarded(path); }
  {
    AtomicFile file(path);
    file.stream() << "payload";
    file.commit();
  }
  write_file_atomic(path, "+more");
  char buf[32] = {};
  const ssize_t n = ::read(reader, buf, sizeof(buf));
  ::close(reader);
  EXPECT_EQ(std::string(buf, n > 0 ? static_cast<std::size_t>(n) : 0), "payload+more");
  struct stat st {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode));
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.is_open());
  std::remove(path.c_str());
}

TEST(JournalWriter, AppendsLines) {
  const std::string path = temp_path("journal.jsonl");
  std::remove(path.c_str());
  {
    JournalWriter journal(path);
    journal.append("{\"a\":1}");
    journal.append("{\"a\":2}");
  }
  {
    JournalWriter journal(path);  // reopen appends, never truncates
    journal.append("{\"a\":3}");
  }
  EXPECT_EQ(read_file(path), "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n");
  std::remove(path.c_str());
}

TEST(EventQueueSnapshot, SortedEventsIsNonDestructive) {
  for (const EventQueueImpl impl : {EventQueueImpl::kCalendar, EventQueueImpl::kHeap}) {
    EventQueue q(impl);
    q.push(5.0, EventKind::kSlotRotation);
    q.push(1.0, EventKind::kTargetMove, 3);
    q.push(1.0, EventKind::kSensorCrossing, 7, 2);
    const std::vector<Event> events = q.sorted_events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(q.size(), 3u);  // export worked on a copy
    EXPECT_DOUBLE_EQ(events[0].time, 1.0);
    EXPECT_EQ(events[0].subject, 3u);  // seq tie-break preserved
    EXPECT_EQ(events[1].subject, 7u);
    EXPECT_DOUBLE_EQ(events[2].time, 5.0);
  }
}

TEST(EventQueueSnapshot, RestorePreservesSeqOrder) {
  // Export from one impl, restore into the other: pop order must match,
  // including the FIFO tie-break at equal times.
  EventQueue src(EventQueueImpl::kCalendar);
  src.push(2.0, EventKind::kTargetMove, 0);
  src.push(2.0, EventKind::kTargetMove, 1);
  src.push(1.0, EventKind::kRvArrival, 4, 9);
  const std::vector<Event> events = src.sorted_events();
  const std::uint64_t next_seq = src.next_seq();

  for (const EventQueueImpl impl : {EventQueueImpl::kCalendar, EventQueueImpl::kHeap}) {
    EventQueue dst(impl);
    dst.push(99.0, EventKind::kSimEnd);  // restore clears pre-existing state
    dst.restore(events, next_seq);
    EXPECT_EQ(dst.size(), 3u);
    EXPECT_EQ(dst.next_seq(), next_seq);
    EXPECT_EQ(dst.pop().subject, 4u);
    EXPECT_EQ(dst.pop().subject, 0u);
    EXPECT_EQ(dst.pop().subject, 1u);
    // New pushes continue the sequence without colliding with restored seqs.
    dst.push(1.0, EventKind::kSimEnd);
    EXPECT_EQ(dst.pop().seq, next_seq);
  }
}

TEST(EventQueueSnapshot, RestoreRejectsSeqAboveNextSeq) {
  EventQueue q;
  std::vector<Event> events(1);
  events[0].time = 1.0;
  events[0].seq = 5;
  EXPECT_THROW(q.restore(events, 5), InvalidArgument);
}

WorldSnapshot tiny_snapshot() {
  SimConfig cfg;
  cfg.num_sensors = 20;
  cfg.num_targets = 3;
  cfg.num_rvs = 1;
  cfg.field_side = meters(60.0);
  cfg.sim_duration = hours(1.0);
  cfg.seed = 77;
  World world(cfg, WorldEngine::kIncremental);
  world.run_until(minutes(20.0));
  return world.checkpoint();
}

TEST(SnapshotFile, SerializeDeserializeRoundTrip) {
  const WorldSnapshot snap = tiny_snapshot();
  const std::string bytes = serialize_snapshot(snap);
  EXPECT_EQ(bytes.substr(0, 8), "WRSNSNAP");
  const WorldSnapshot back = deserialize_snapshot(bytes);
  EXPECT_EQ(back.version, snap.version);
  EXPECT_EQ(back.config_text, snap.config_text);
  EXPECT_EQ(back.engine, snap.engine);
  EXPECT_EQ(back.now, snap.now);
  EXPECT_EQ(back.events_processed, snap.events_processed);
  EXPECT_EQ(back.state, snap.state);
  EXPECT_EQ(back.span_state, snap.span_state);
}

TEST(SnapshotFile, RejectsCorruption) {
  const std::string bytes = serialize_snapshot(tiny_snapshot());
  EXPECT_THROW(deserialize_snapshot("short"), InvalidArgument);
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(deserialize_snapshot(bad_magic), InvalidArgument);
  std::string truncated = bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW(deserialize_snapshot(truncated), InvalidArgument);
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x01;
  EXPECT_THROW(deserialize_snapshot(flipped), InvalidArgument);
}

TEST(SnapshotFile, SaveLoadFile) {
  const std::string path = temp_path("world.snap");
  const WorldSnapshot snap = tiny_snapshot();
  save_snapshot_file(path, snap);
  const WorldSnapshot back = load_snapshot_file(path);
  EXPECT_EQ(back.state, snap.state);
  EXPECT_EQ(back.now, snap.now);
  std::remove(path.c_str());
  EXPECT_THROW(load_snapshot_file(path), InvalidArgument);
}

// Every snapshot written while the World still had a shard executor carries
// `parallel_threshold = 4096` in its config text. The key is gone, so such a
// snapshot must fail to restore with a one-line error naming the key.
TEST(SnapshotFile, RemovedConfigKeyFailsRestoreLoudly) {
  WorldSnapshot snap = tiny_snapshot();
  const std::string anchor = "\nthreads = ";
  const std::size_t at = snap.config_text.find(anchor);
  ASSERT_NE(at, std::string::npos);
  snap.config_text.insert(at + 1, "parallel_threshold = 4096\n");
  try {
    const World restored(snap);
    FAIL() << "a snapshot carrying parallel_threshold restored";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'parallel_threshold'"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
}

TEST(SnapshotManifest, LinesAreValidJson) {
  std::string err;
  EXPECT_TRUE(json_validate(snapshot_manifest_meta_line(), &err)) << err;
  SnapshotManifestRecord rec;
  rec.id = 3;
  rec.file = "ckpt.000003.snap";
  rec.t_s = 1234.5;
  rec.events = 999;
  rec.bytes = 4096;
  rec.terminal = true;
  const std::string line = snapshot_manifest_line(rec);
  EXPECT_TRUE(json_validate(line, &err)) << err;
  EXPECT_NE(line.find("\"record\":\"snapshot\""), std::string::npos);
  EXPECT_NE(line.find("\"terminal\":true"), std::string::npos);
  EXPECT_NE(line.find("ckpt.000003.snap"), std::string::npos);
}

}  // namespace
}  // namespace wrsn
