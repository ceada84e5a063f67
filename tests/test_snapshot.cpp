// Snapshot building blocks: the binary codec (core/binio.hpp), atomic file
// and fsync'd journal primitives (core/atomic_file.hpp), the EventQueue
// export/restore path, the whole-file snapshot format (magic + version +
// word-wise checksum trailer) and the wrsn.snapshot manifest lines.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/atomic_file.hpp"
#include "core/binio.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "core/rng.hpp"
#include "heap_queue.hpp"
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

// Lengths are checked against the bytes left before anything is sized
// from them, and the bound check cannot wrap.
TEST(BinIo, HugeLengthsThrowBeforeAllocating) {
  for (const std::uint64_t n : {std::uint64_t{1} << 40, ~std::uint64_t{0},
                                ~std::uint64_t{0} - 3}) {
    BinWriter w;
    w.u64(n);
    w.u64(std::uint64_t{7});
    const std::string bytes = w.bytes();
    {
      BinReader r(bytes);
      std::string s;
      EXPECT_THROW(r.str(s), InvalidArgument) << n;
    }
    {
      BinReader r(bytes);
      std::vector<std::uint64_t> v;
      EXPECT_THROW(r.vec(v), InvalidArgument) << n;
    }
    {
      BinReader r(bytes);
      EXPECT_THROW((void)r.count(1), InvalidArgument) << n;
    }
  }
  BinWriter w;
  w.u64(std::uint64_t{1});
  w.u64(std::uint64_t{7});
  BinReader r(w.bytes());
  EXPECT_EQ(r.count(8), 1u);  // exactly one 8-byte element left
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

// Bytes from a hex string ("00ff..."), for golden encodings.
std::string from_hex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    const int byte = std::stoi(std::string(hex.substr(i, 2)), nullptr, 16);
    out.push_back(static_cast<char>(byte));
  }
  return out;
}

// The bulk codec writes exactly the little-endian bytes of the format:
// counts and scalars as u64/u32, doubles as their bit patterns (signed
// zero, a NaN payload and a subnormal included), u8 vectors as raw bytes.
TEST(BinIo, BulkCodecGoldenBytes) {
  const std::vector<double> doubles{-0.0, std::bit_cast<double>(0x7ff8deadbeef0001ULL),
                                    5e-324, 1.0};
  const std::vector<std::uint64_t> words{0x0123456789abcdefULL, 1};
  const std::vector<std::uint8_t> bytes{0x00, 0xff, 0x7f};
  BinWriter w;
  w.vec(doubles);
  w.vec(words);
  w.vec(bytes);
  w.u32(std::uint32_t{0x01020304});
  w.f64(-2.5);
  const std::string golden = from_hex(
      "0400000000000000"
      "0000000000000080"   // -0.0
      "0100efbeaddef87f"   // NaN 0x7ff8deadbeef0001
      "0100000000000000"   // 5e-324
      "000000000000f03f"   // 1.0
      "0200000000000000"
      "efcdab8967452301"
      "0100000000000000"
      "0300000000000000"
      "00ff7f"
      "04030201"
      "00000000000004c0");  // -2.5
  EXPECT_EQ(w.bytes(), golden);

  BinReader r(golden);
  std::vector<double> d2;
  std::vector<std::uint64_t> w2;
  std::vector<std::uint8_t> b2;
  std::uint32_t u = 0;
  double x = 0.0;
  r.vec(d2);
  r.vec(w2);
  r.vec(b2);
  r.u32(u);
  r.f64(x);
  EXPECT_NO_THROW(r.expect_end());
  ASSERT_EQ(d2.size(), doubles.size());
  for (std::size_t i = 0; i < doubles.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d2[i]),
              std::bit_cast<std::uint64_t>(doubles[i]));
  }
  EXPECT_EQ(w2, words);
  EXPECT_EQ(b2, bytes);
  EXPECT_EQ(u, 0x01020304u);
  EXPECT_EQ(x, -2.5);
}

// A payload cut inside a bulk vector fails at the count, before any copy.
TEST(BinIo, TruncationInsideABulkVectorThrows) {
  BinWriter w;
  w.vec(std::vector<double>{1.0, 2.0, 3.0});
  w.vec(std::vector<std::uint8_t>{1, 2, 3, 4});
  const std::string bytes = w.bytes();
  for (const std::size_t cut : {std::size_t{8 + 8 + 3}, std::size_t{8 + 24 - 1},
                                std::size_t{8 + 24 + 8 + 2}}) {
    BinReader r(std::string_view(bytes).substr(0, cut));
    std::vector<double> d;
    std::vector<std::uint8_t> b;
    EXPECT_THROW(
        {
          r.vec(d);
          r.vec(b);
        },
        InvalidArgument)
        << cut;
  }
}

// Pinned checksum64 values at every tail length from 0 to 40 (0-5 whole
// words plus 0-7 tail bytes), over bytes (37 i + 11) mod 256. A change here
// changes the snapshot format and needs a schema version bump.
TEST(BinIo, Checksum64KnownValues) {
  constexpr std::uint64_t kExpected[41] = {
      0x4e096f2251f30c41ULL, 0xcc664c4f9f883447ULL, 0xecb6ca9a46c2b79dULL,
      0x5f274196c029a325ULL, 0xc8a231a51b6c0f3eULL, 0x0c5a8bde5b98f13bULL,
      0xcf1943dc0d7303b6ULL, 0x543cbf81d6a1f266ULL, 0x4be1021a37df3462ULL,
      0xdcda131fc8a5aacfULL, 0xa3e7c5b30781ddaeULL, 0xf23fa8e02e784871ULL,
      0xa39d1a7cf655d209ULL, 0xe67dbafde16b809aULL, 0xf4cbd074bfe7a602ULL,
      0x1ca4a41d8eb31b0dULL, 0xca96ac0606d2536eULL, 0xeaf2cf4587dca012ULL,
      0x1782dcd82cc8ec66ULL, 0x0c75c6c4f9054d8cULL, 0x0b08a76a18cf7a3aULL,
      0x266bc9a9d85e1056ULL, 0x01ef5b5e1bc1f0f6ULL, 0x7af83f72a96ce4dfULL,
      0x7487c2b055b5fa9fULL, 0x1501b6b89a2e4770ULL, 0x4e66e263d6934ef3ULL,
      0xe2a9f3b312f16c62ULL, 0xbb0061d7478c5c52ULL, 0x121e4b09c35d361aULL,
      0xa12c6ba1b3ab62dcULL, 0x3af27b577787016cULL, 0x9bf512007d4a4a6bULL,
      0x498c48f3fb3de152ULL, 0x14c1ea875285db1dULL, 0xa5822ca2f115eabcULL,
      0xf0f8e869b376ba65ULL, 0xbd65089eff6dce78ULL, 0x57de02b9648b3e0eULL,
      0x5d2bd21039400143ULL, 0x3de72eb06a865ad3ULL,
  };
  std::string bytes;
  for (std::size_t len = 0; len <= 40; ++len) {
    EXPECT_EQ(checksum64(bytes), kExpected[len]) << "length " << len;
    // Every single-bit flip is detected, in whole words and in the tail.
    for (std::size_t bit = 0; bit < 8 * len; ++bit) {
      std::string flipped = bytes;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      EXPECT_NE(checksum64(flipped), kExpected[len])
          << "length " << len << " bit " << bit;
    }
    bytes.push_back(static_cast<char>((len * 37 + 11) & 0xff));
  }
}

// Any change confined to one 8-byte word is detected, whatever the word
// becomes: each lane step is a bijection of the word it folds in.
TEST(BinIo, Checksum64DetectsAnyOneWordChange) {
  std::string bytes(8 * 11 + 5, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<char>(i * 91);
  const std::uint64_t base = checksum64(bytes);
  Xoshiro256 rng(29);
  for (std::size_t word = 0; word < 11; ++word) {
    for (int trial = 0; trial < 64; ++trial) {
      std::string changed = bytes;
      std::uint64_t v = 0;
      std::memcpy(&v, changed.data() + 8 * word, 8);
      v ^= rng.next() | 1;  // never zero: a real change
      std::memcpy(changed.data() + 8 * word, &v, 8);
      EXPECT_NE(checksum64(changed), base) << "word " << word;
    }
  }
  // The length is folded in: trailing zero bytes are not invisible.
  EXPECT_NE(checksum64(bytes + std::string(1, '\0')), base);
  EXPECT_NE(checksum64(bytes + std::string(8, '\0')), base);
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
  EventQueue q;
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

template <typename Queue>
void expect_restore_preserves_seq_order(const std::vector<Event>& events,
                                        std::uint64_t next_seq) {
  Queue dst;
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

TEST(EventQueueSnapshot, RestorePreservesSeqOrder) {
  // Export from the calendar queue, restore into it and into the heap
  // reference: pop order must match, including the FIFO tie-break at equal
  // times.
  EventQueue src;
  src.push(2.0, EventKind::kTargetMove, 0);
  src.push(2.0, EventKind::kTargetMove, 1);
  src.push(1.0, EventKind::kRvArrival, 4, 9);
  expect_restore_preserves_seq_order<EventQueue>(src.sorted_events(), src.next_seq());
  expect_restore_preserves_seq_order<HeapQueue>(src.sorted_events(), src.next_seq());
}

TEST(EventQueueSnapshot, RestoreRejectsSeqAboveNextSeq) {
  EventQueue q;
  std::vector<Event> events(1);
  events[0].time = 1.0;
  events[0].seq = 5;
  EXPECT_THROW(q.restore(events, 5), InvalidArgument);
}

SimConfig tiny_config() {
  SimConfig cfg;
  cfg.num_sensors = 20;
  cfg.num_targets = 3;
  cfg.num_rvs = 1;
  cfg.field_side = meters(60.0);
  cfg.sim_duration = hours(1.0);
  cfg.seed = 77;
  return cfg;
}

WorldSnapshot tiny_snapshot() {
  World world(tiny_config());
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

// Every single-bit flip anywhere in a small snapshot file (magic, header,
// body or trailer) is rejected before any of it is restored.
TEST(SnapshotFile, EverySingleBitFlipIsRejected) {
  const std::string bytes = serialize_snapshot(tiny_snapshot());
  ASSERT_LT(bytes.size(), std::size_t{64} << 10) << "not a small snapshot";
  std::size_t accepted = 0;
  for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    try {
      (void)deserialize_snapshot(flipped);
      ++accepted;
    } catch (const InvalidArgument&) {
    }
  }
  EXPECT_EQ(accepted, 0u);
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

// ---------------------------------------------------------------------------
// Hostile payloads: snapshots whose checksum trailer is valid but whose body is
// not. Restore must reject each with one InvalidArgument line and never
// index, allocate or resize from an unchecked value.
// ---------------------------------------------------------------------------

// World with its protected state reachable, to plant hostile values that
// checkpoint() then writes out under a valid checksum.
struct PlantableWorld : World {
  using World::World;
  using World::active_monitor_;
  using World::alive_count_;
  using World::alive_members_;
  using World::claimed_;
  using World::clusters_;
  using World::coverable_count_;
  using World::covered_count_;
  using World::net_;
  using World::queue_;
  using World::requests_;
  using World::rotors_;
  using World::rvs_;
  using World::series_;
  using World::soa_;
  using World::uplink_pending_;
  using World::UplinkPending;
};

// next_seq value planted to find the event section in the body: the u64
// right after it is the event count, then the events, then the drain marks.
constexpr std::uint64_t kSeqMarker = 0x5EC0DE5EC0DE5EC0ULL;

WorldSnapshot planted(const std::function<void(PlantableWorld&)>& plant,
                      SimConfig cfg = tiny_config()) {
  PlantableWorld w(cfg);
  w.run_until(minutes(20.0));
  plant(w);
  return w.checkpoint();
}

std::string le64(std::uint64_t v) {
  BinWriter w;
  w.u64(v);
  return w.take();
}

std::uint64_t get_u64(const std::string& s, std::size_t at) {
  BinReader r(std::string_view(s).substr(at, 8));
  std::uint64_t v = 0;
  r.u64(v);
  return v;
}

void put_u64(std::string& s, std::size_t at, std::uint64_t v) {
  s.replace(at, 8, le64(v));
}

// Offset of the only occurrence of `v`'s encoding in `state`.
std::size_t find_u64(const std::string& state, std::uint64_t v) {
  const std::size_t at = state.find(le64(v));
  EXPECT_NE(at, std::string::npos) << "marker not found";
  EXPECT_EQ(state.find(le64(v), at + 1), std::string::npos) << "marker not unique";
  return at;
}

// A snapshot whose queue's next_seq is kSeqMarker, and the offset of its
// event count in the body.
std::pair<WorldSnapshot, std::size_t> with_event_section() {
  WorldSnapshot snap = planted([](PlantableWorld& w) {
    w.queue_.restore(w.queue_.sorted_events(), kSeqMarker);
  });
  const std::size_t at = find_u64(snap.state, kSeqMarker) + 8;
  return {snap, at};
}

// Serializes `snap` (a fresh checksum trailer), reads it back and restores it:
// the restore must fail with one InvalidArgument line containing `expect`.
void expect_rejected(const WorldSnapshot& snap, const std::string& expect) {
  const std::string bytes = serialize_snapshot(snap);
  try {
    const World restored(deserialize_snapshot(bytes));
    ADD_FAILURE() << "restored a snapshot that should fail with: " << expect;
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(expect), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
}

// A served request leaves a tombstone in the recharge list until enough of
// them pile up for a compaction. A checkpoint taken while some are present
// writes only the live requests, so the restored (compacted) list writes the
// same bytes, and both worlds stay byte-identical as they run on.
TEST(SnapshotFile, RecheckpointWithTombstonesIsByteIdentical) {
  SimConfig cfg;
  cfg.num_sensors = 120;
  cfg.num_targets = 5;
  cfg.num_rvs = 2;
  cfg.field_side = meters(100.0);
  cfg.sim_duration = days(4.0);
  cfg.radio.listen_duty_cycle = 0.25;  // brisk demand
  cfg.scheduler = "combined";
  cfg.seed = 808;
  PlantableWorld w(cfg);
  double day = 0.0;
  while (w.requests_.tombstones() == 0 && day < 3.0) {
    day += 0.05;
    w.run_until(days(day));
  }
  ASSERT_GT(w.requests_.tombstones(), 0u) << "no tombstones by day " << day;
  ASSERT_GT(w.requests_.size(), 0u);

  const WorldSnapshot snap = w.checkpoint();
  World restored(deserialize_snapshot(serialize_snapshot(snap)));
  EXPECT_EQ(restored.checkpoint().state, snap.state);
  w.run_until(days(day + 0.5));
  restored.run_until(days(day + 0.5));
  EXPECT_EQ(restored.checkpoint().state, w.checkpoint().state);
}

TEST(SnapshotHostile, UnpatchedSnapshotRestores) {
  const auto [snap, at] = with_event_section();
  EXPECT_GT(get_u64(snap.state, at), 0u);  // the run has pending events
  const World restored(deserialize_snapshot(serialize_snapshot(snap)));
  EXPECT_EQ(restored.checkpoint().state, snap.state);
}

TEST(SnapshotHostile, RejectsOutOfRangeDrainMark) {
  auto [snap, at] = with_event_section();
  const std::size_t marks = at + 8 + get_u64(snap.state, at) * (8 + 8 + 1 + 8 + 8);
  const std::uint64_t n = get_u64(snap.state, marks);
  put_u64(snap.state, marks, n + 1);
  snap.state.insert(marks + 8, le64(27));  // num_sensors = 20
  expect_rejected(snap, "drain mark 27 out of range (limit 20)");
}

TEST(SnapshotHostile, RejectsOutOfRangeEventKindAndSubject) {
  {
    auto [snap, at] = with_event_section();
    snap.state[at + 8 + 16] = static_cast<char>(kNumEventKinds);
    expect_rejected(snap, "event kind 13 out of range (limit 13)");
  }
  {
    // A target move naming target 3 of 3.
    auto [snap, at] = with_event_section();
    const std::size_t n = get_u64(snap.state, at);
    bool patched = false;
    for (std::size_t i = 0; i < n && !patched; ++i) {
      const std::size_t ev = at + 8 + i * 33;
      if (snap.state[ev + 16] == static_cast<char>(EventKind::kTargetMove)) {
        put_u64(snap.state, ev + 17, 3);
        patched = true;
      }
    }
    ASSERT_TRUE(patched) << "no target-move event pending";
    expect_rejected(snap, "event subject 3 out of range (limit 3)");
  }
  // A fault event in a run without faults would dereference the absent
  // fault plan.
  expect_rejected(planted([](PlantableWorld& w) {
                    w.push_event_for_test(w.now().value() + 1.0,
                                          EventKind::kRvBreakdown, 0, 0);
                  }),
                  "event kind rv-breakdown in a run without faults");
}

TEST(SnapshotHostile, RejectsOutOfRangeIds) {
  expect_rejected(planted([](PlantableWorld& w) {
                    w.net_.sensor(0).assigned_target = 5;
                  }),
                  "target id 5 out of range (limit 3)");
  expect_rejected(planted([](PlantableWorld& w) {
                    w.clusters_.members[0].push_back(20);
                  }),
                  "sensor id 20 out of range (limit 20)");
  expect_rejected(planted([](PlantableWorld& w) { w.active_monitor_[1] = 21; }),
                  "active monitor 21 out of range (limit 20)");
  expect_rejected(planted([](PlantableWorld& w) { w.claimed_.insert(40); }),
                  "claimed sensor 40 out of range (limit 20)");
  expect_rejected(planted([](PlantableWorld& w) {
                    w.rvs_[0].service_queue.push_back(99);
                  }),
                  "service-queue sensor 99 out of range (limit 20)");
  expect_rejected(planted([](PlantableWorld& w) {
                    RechargeRequest req;
                    req.sensor = 22;
                    w.requests_.add(req);
                  }),
                  "request sensor 22 out of range (limit 20)");
  expect_rejected(planted([](PlantableWorld& w) {
                    RechargeRequest req;
                    req.sensor = 0;
                    req.cluster = 7;
                    if (!w.requests_.contains(0)) w.requests_.add(req);
                  }),
                  "request cluster 7 out of range (limit 3)");
}

TEST(SnapshotHostile, RejectsOutOfRangeEnums) {
  expect_rejected(planted([](PlantableWorld& w) {
                    w.rvs_[0].state = static_cast<Rv::State>(6);
                  }),
                  "RV state 6 out of range (limit 6)");
  expect_rejected(planted([](PlantableWorld& w) {
                    w.uplink_pending_[3] = static_cast<PlantableWorld::UplinkPending>(3);
                  }),
                  "uplink state 3 out of range (limit 3)");
}

// Plants an `kind` event for RV 0 carrying its (bumped) epoch, so restore
// treats it as live, with the RV put in `state` holding `queue`.
WorldSnapshot planted_rv_event(EventKind kind, Rv::State state,
                               std::vector<SensorId> queue, bool faults = false) {
  SimConfig cfg = tiny_config();
  cfg.fault.enabled = faults;
  return planted(
      [&](PlantableWorld& w) {
        Rv& rv = w.rvs_[0];
        ++rv.epoch;  // whatever the RV had pending goes stale
        rv.state = state;
        rv.service_queue.assign(queue.begin(), queue.end());
        w.push_event_for_test(w.now().value() + 1.0, kind, 0, rv.epoch);
      },
      cfg);
}

// A live arrival must end a return trip or a leg toward the head of a
// non-empty service queue; on_rv_arrival asserts it mid-run otherwise.
TEST(SnapshotHostile, RejectsArrivalTheRvCannotTake) {
  expect_rejected(planted_rv_event(EventKind::kRvArrival, Rv::State::kIdle, {}),
                  "snapshot rv-arrival for RV 0 that is idle with an empty "
                  "service queue");
  expect_rejected(planted_rv_event(EventKind::kRvArrival, Rv::State::kCharging, {3}),
                  "snapshot rv-arrival for RV 0 that is charging");
  expect_rejected(planted_rv_event(EventKind::kRvArrival, Rv::State::kTraveling, {}),
                  "snapshot rv-arrival for RV 0 that is traveling with an "
                  "empty service queue");
  // The states the handler takes restore.
  for (const auto& [state, queue] :
       {std::pair{Rv::State::kTraveling, std::vector<SensorId>{3}},
        std::pair{Rv::State::kReturning, std::vector<SensorId>{}}}) {
    const WorldSnapshot snap = planted_rv_event(EventKind::kRvArrival, state, queue);
    EXPECT_NO_THROW(World{deserialize_snapshot(serialize_snapshot(snap))});
  }
}

// A live charge-done must end a dwell at the head of a non-empty service
// queue; on_rv_charge_done asserts it mid-run otherwise.
TEST(SnapshotHostile, RejectsChargeDoneTheRvCannotTake) {
  expect_rejected(planted_rv_event(EventKind::kRvChargeDone, Rv::State::kCharging, {}),
                  "snapshot rv-charge-done for RV 0 that is charging with an "
                  "empty service queue");
  expect_rejected(planted_rv_event(EventKind::kRvChargeDone, Rv::State::kTraveling, {3}),
                  "snapshot rv-charge-done for RV 0 that is traveling");
  expect_rejected(planted_rv_event(EventKind::kRvChargeDone, Rv::State::kReturning, {}),
                  "snapshot rv-charge-done for RV 0 that is returning with an "
                  "empty service queue");
  const WorldSnapshot snap =
      planted_rv_event(EventKind::kRvChargeDone, Rv::State::kCharging, {3});
  EXPECT_NO_THROW(World{deserialize_snapshot(serialize_snapshot(snap))});
  // One carrying another epoch than the RV's is not live at restore, so the
  // RV's state does not matter.
  const WorldSnapshot stale = planted([](PlantableWorld& w) {
    w.push_event_for_test(w.now().value() + 1.0, EventKind::kRvChargeDone, 0,
                          w.rvs_[0].epoch + 1);
  });
  EXPECT_NO_THROW(World{deserialize_snapshot(serialize_snapshot(stale))});
}

// A live base-charge-done must end a self-charge, and a live repair a
// breakdown; their handlers assert it mid-run otherwise.
TEST(SnapshotHostile, RejectsDockAndRepairEventsTheRvCannotTake) {
  expect_rejected(
      planted_rv_event(EventKind::kRvBaseChargeDone, Rv::State::kIdle, {}),
      "snapshot rv-base-charge-done for RV 0 that is idle");
  expect_rejected(
      planted_rv_event(EventKind::kRvBaseChargeDone, Rv::State::kReturning, {}),
      "snapshot rv-base-charge-done for RV 0 that is returning");
  const WorldSnapshot docked =
      planted_rv_event(EventKind::kRvBaseChargeDone, Rv::State::kSelfCharging, {});
  EXPECT_NO_THROW(World{deserialize_snapshot(serialize_snapshot(docked))});
  // Repairs exist only with faults on (without them the fault-event check
  // refuses the kind first).
  expect_rejected(
      planted_rv_event(EventKind::kRvRepaired, Rv::State::kIdle, {}, true),
      "snapshot rv-repaired for RV 0 that is idle");
  const WorldSnapshot broken =
      planted_rv_event(EventKind::kRvRepaired, Rv::State::kBrokenDown, {}, true);
  EXPECT_NO_THROW(World{deserialize_snapshot(serialize_snapshot(broken))});
}

TEST(SnapshotHostile, RejectsImpossibleTimesAndLevels) {
  expect_rejected(planted([](PlantableWorld& w) {
                    w.push_event_for_test(w.now().value() - 60.0,
                                          EventKind::kMetricsSample, 0, 0);
                  }),
                  "event at t=1140.000000 precedes the snapshot time 1200.000000");
  expect_rejected(planted([](PlantableWorld& w) { w.soa_.level[4] = -1.0; }),
                  "sensor battery level -1.000000 outside [0, ");
  expect_rejected(planted([](PlantableWorld& w) {
                    w.rvs_[0].battery.set_level(Joule{1e30});
                  }),
                  "RV battery level");
}

TEST(SnapshotHostile, RejectsLengthsBeyondThePayload) {
  // Event count.
  {
    auto [snap, at] = with_event_section();
    put_u64(snap.state, at, std::uint64_t{1} << 60);
    expect_rejected(snap, "exceeds the");
  }
  // Cluster count, found through a planted first member: the body holds the
  // cluster count, then cluster 0's length, then its members.
  {
    constexpr std::uint64_t kMember = 0x00C1C1C1C1C1C1C1ULL;
    WorldSnapshot snap =
        planted([](PlantableWorld& w) { w.clusters_.members[0] = {kMember}; });
    const std::size_t count = find_u64(snap.state, kMember) - 16;
    ASSERT_EQ(get_u64(snap.state, count), 3u);
    put_u64(snap.state, count, ~std::uint64_t{0});
    expect_rejected(snap, "exceeds the");
  }
  // Time-series count, found through a planted first sample time.
  {
    constexpr double kStamp = 12345.678;
    WorldSnapshot snap = planted([](PlantableWorld& w) {
      w.series_.assign(1, TimeSeriesPoint{});
      w.series_[0].t = kStamp;
    });
    const std::size_t count =
        find_u64(snap.state, std::bit_cast<std::uint64_t>(kStamp)) - 8;
    ASSERT_EQ(get_u64(snap.state, count), 1u);
    put_u64(snap.state, count, std::uint64_t{1} << 58);
    expect_rejected(snap, "exceeds the");
  }
}

// Cross-field consistency of the clustering: each planted state below keeps
// every id in range, so only the consistency checks can refuse it. The world
// is the tiny one with more sensors, so every target has a member and some
// sensors have none.

SimConfig cluster_config() {
  SimConfig cfg = tiny_config();
  cfg.num_sensors = 90;
  return cfg;
}

WorldSnapshot planted_clusters(const std::function<void(PlantableWorld&)>& plant) {
  PlantableWorld w(cluster_config());
  w.run_until(minutes(20.0));
  plant(w);
  return w.checkpoint();
}

// The first sensor outside every cluster.
SensorId first_non_member(const PlantableWorld& w) {
  for (SensorId s = 0; s < w.clusters_.assignment.size(); ++s) {
    if (w.clusters_.assignment[s] == kInvalidId) return s;
  }
  ADD_FAILURE() << "every sensor is a member";
  return 0;
}

// Target 0's first member.
SensorId member_of_target0(const PlantableWorld& w) {
  EXPECT_FALSE(w.clusters_.members[0].empty());
  return w.clusters_.members[0].empty() ? 0 : w.clusters_.members[0].front();
}

TEST(SnapshotHostile, ClusteredSnapshotRestores) {
  const WorldSnapshot snap = planted_clusters([](PlantableWorld& w) {
    for (TargetId t = 0; t < w.clusters_.members.size(); ++t) {
      EXPECT_FALSE(w.clusters_.members[t].empty()) << "target " << t;
    }
    EXPECT_NE(first_non_member(w), kInvalidId);
  });
  const World restored(deserialize_snapshot(serialize_snapshot(snap)));
  EXPECT_EQ(restored.checkpoint().state, snap.state);
}

TEST(SnapshotHostile, RejectsAssignmentThatDisagreesWithMembers) {
  SensorId s = 0;
  WorldSnapshot snap = planted_clusters([&](PlantableWorld& w) {
    s = first_non_member(w);
    w.clusters_.assignment[s] = 1;
  });
  expect_rejected(snap, "sensor " + std::to_string(s) +
                            " is assigned to cluster 1 but not among its members");
  snap = planted_clusters([&](PlantableWorld& w) {
    s = member_of_target0(w);
    w.clusters_.assignment[s] = kInvalidId;
  });
  expect_rejected(snap, "sensor " + std::to_string(s) +
                            " is in cluster 0 but not assigned to it");
}

TEST(SnapshotHostile, RejectsSensorInTwoClusters) {
  SensorId s = 0;
  const WorldSnapshot snap = planted_clusters([&](PlantableWorld& w) {
    s = member_of_target0(w);
    w.clusters_.members[2].push_back(s);
  });
  expect_rejected(snap, "sensor " + std::to_string(s) + " is in clusters 0 and 2");
}

TEST(SnapshotHostile, RejectsLoadOnNonMember) {
  SensorId s = 0;
  const WorldSnapshot snap = planted_clusters([&](PlantableWorld& w) {
    s = first_non_member(w);
    w.clusters_.loads[s] = 2;
  });
  expect_rejected(snap, "sensor " + std::to_string(s) +
                            " has load 2 but is in no cluster");
}

TEST(SnapshotHostile, RejectsRotorThatDisagreesWithItsCluster) {
  const WorldSnapshot snap = planted_clusters([](PlantableWorld& w) {
    std::vector<SensorId> members = w.rotors_[1].members();
    members.pop_back();
    w.rotors_[1].restore(members, 0);
  });
  expect_rejected(snap, "rotor 1 members differ from its cluster");
}

TEST(SnapshotHostile, RejectsMonitorOutsideItsCluster) {
  SensorId s = 0;
  const WorldSnapshot snap = planted_clusters([&](PlantableWorld& w) {
    s = member_of_target0(w);
    w.active_monitor_[1] = s;
  });
  expect_rejected(snap, "active monitor " + std::to_string(s) +
                            " of target 1 is not a member of its cluster");
}

// The sensors' mirrors of the clustering: the target each carries and its
// monitoring flag, which the global recluster clears on members only.
TEST(SnapshotHostile, RejectsSensorMirrorsThatDisagreeWithClusters) {
  SensorId s = 0;
  WorldSnapshot snap = planted_clusters([&](PlantableWorld& w) {
    s = member_of_target0(w);
    w.net_.sensor(s).assigned_target = 2;
  });
  expect_rejected(snap, "sensor " + std::to_string(s) +
                            " targets 2 but its cluster assignment differs");
  snap = planted_clusters([&](PlantableWorld& w) {
    s = first_non_member(w);
    w.net_.sensor(s).monitoring = true;
  });
  expect_rejected(snap, "sensor " + std::to_string(s) +
                            " monitors but is in no cluster");
}

// The derived-state counters, each one off from the flags it counts.

std::string counter_error(const std::string& what, std::size_t stored) {
  return what + " " + std::to_string(stored) + " disagrees with its flags (" +
         std::to_string(stored - 1) + ")";
}

TEST(SnapshotHostile, RejectsAliveCountThatDisagreesWithLevels) {
  std::size_t stored = 0;
  const WorldSnapshot snap =
      planted([&](PlantableWorld& w) { stored = ++w.alive_count_; });
  expect_rejected(snap, counter_error("alive count", stored));
}

TEST(SnapshotHostile, RejectsCoverableCountThatDisagreesWithFlags) {
  std::size_t stored = 0;
  const WorldSnapshot snap =
      planted([&](PlantableWorld& w) { stored = ++w.coverable_count_; });
  expect_rejected(snap, counter_error("coverable count", stored));
}

TEST(SnapshotHostile, RejectsCoveredCountThatDisagreesWithFlags) {
  std::size_t stored = 0;
  const WorldSnapshot snap =
      planted([&](PlantableWorld& w) { stored = ++w.covered_count_; });
  expect_rejected(snap, counter_error("covered count", stored));
}

TEST(SnapshotHostile, RejectsAliveMembersThatDisagreeWithClusters) {
  std::size_t stored = 0;
  const WorldSnapshot snap =
      planted_clusters([&](PlantableWorld& w) { stored = ++w.alive_members_[1]; });
  expect_rejected(snap, counter_error("target 1 alive-member count", stored));
}

// The traffic flows against the restored routing forest. A flow record is
// the source, the rate, the path (source first, base station excluded) and
// the empty link-factor vectors plus the path success of a lossless flow.
// The tx and rx rate
// arrays open the traffic section, ahead of the four aggregate sums, the
// delivering-source count and the source count. The lowest source whose
// flow reaches the base station is found by the bytes of its record.
struct FlowRecord {
  SensorId source = kInvalidId;
  std::size_t at = 0;     // offset of the record in the body
  std::size_t tx_at = 0;  // offset of the tx rate array's first element
};

// A clustered-world snapshot (the tiny world's flows reach no base
// station) and that flow record.
WorldSnapshot planted_flow(FlowRecord& rec) {
  std::string bytes;
  std::size_t n = 0;
  WorldSnapshot snap = planted_clusters([&](PlantableWorld& w) {
    n = w.net_.num_sensors();
    for (SensorId s = 0; s < n && rec.source == kInvalidId; ++s) {
      if (w.traffic().has_source(s) && w.net_.routing().reachable(s)) rec.source = s;
    }
    ASSERT_NE(rec.source, kInvalidId) << "no flow reaches the base station";
    const std::vector<std::size_t> path = w.net_.routing().path_to_base(rec.source);
    BinWriter record;
    record.u64(rec.source);
    record.f64(w.traffic().rate_pps());
    record.size(path.size() - 1);
    for (std::size_t k = 0; k + 1 < path.size(); ++k) record.u64(path[k]);
    bytes = record.take();
  });
  if (bytes.empty()) return snap;
  rec.at = snap.state.find(bytes);
  EXPECT_NE(rec.at, std::string::npos) << "flow record not found";
  EXPECT_EQ(snap.state.find(bytes, rec.at + 1), std::string::npos);
  rec.tx_at = rec.at - 8 - 8 - 4 * 8 - (8 + 8 * n) - 8 * n;
  EXPECT_EQ(get_u64(snap.state, rec.tx_at - 8), n) << "tx array not found";
  return snap;
}

TEST(SnapshotHostile, RejectsFlowOffTheRoutingForest) {
  FlowRecord rec;
  WorldSnapshot snap = planted_flow(rec);
  // The path's first node is the source itself; name another sensor.
  put_u64(snap.state, rec.at + 24, (rec.source + 1) % cluster_config().num_sensors);
  expect_rejected(snap, "flow of source " + std::to_string(rec.source) +
                            " disagrees with the routing forest");
}

TEST(SnapshotHostile, RejectsFlowRateOtherThanTheConfigRate) {
  FlowRecord rec;
  WorldSnapshot snap = planted_flow(rec);
  put_u64(snap.state, rec.at + 8, std::bit_cast<std::uint64_t>(0.5));
  expect_rejected(snap, "flow of source " + std::to_string(rec.source) +
                            " has rate 0.500000 pkt/s, not the configured 0.250000");
}

TEST(SnapshotHostile, RejectsRatesThatDisagreeWithTheFlows) {
  FlowRecord rec;
  WorldSnapshot snap = planted_flow(rec);
  // One flow's worth more transmissions at the source than its flows give.
  const std::size_t tx = rec.tx_at + 8 * rec.source;
  const double stored = std::bit_cast<double>(get_u64(snap.state, tx));
  put_u64(snap.state, tx, std::bit_cast<std::uint64_t>(stored + 0.25));
  expect_rejected(snap, "rates of sensor " + std::to_string(rec.source) +
                            " disagree with the");
}

// Version 2 was the last schema with an engine byte in the header, and
// version 3 the last with a byte-wise FNV-1a trailer; such files are
// refused by their version, with one line.
TEST(SnapshotHostile, RejectsVersion2Snapshots) {
  for (const std::uint32_t version : {2u, 3u}) {
    WorldSnapshot snap = tiny_snapshot();
    snap.version = version;
    const std::string bytes = serialize_snapshot(snap);
    try {
      (void)deserialize_snapshot(bytes);
      FAIL() << "a version-" << version << " snapshot was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()), "unsupported snapshot schema version " +
                                           std::to_string(version) +
                                           " (this build reads 4)");
    }
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
