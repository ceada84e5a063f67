#pragma once
// Little-endian binary codec for checkpoint/snapshot payloads.
//
// Doubles are encoded as their IEEE-754 bit pattern (u64), so a value read
// back is the *same object*, bit for bit — the property the deterministic
// WorldSnapshot (sim/snapshot.hpp) is built on. The format is little-endian
// and so is every supported host (static_assert below), so each scalar and
// each arithmetic vector moves with one memcpy. The reader bounds-checks
// every access and every element count and throws InvalidArgument on
// truncation or trailing bytes, so a half-written snapshot file is rejected
// instead of silently restoring garbage. A word-wise checksum covers whole
// payloads.
//
// The writer/reader pair is deliberately symmetric: serialization code is
// written once as a template over the archive (see SnapshotAccess in
// sim/snapshot.cpp), so the save and load field lists can never drift apart.

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace wrsn {

static_assert(std::endian::native == std::endian::little,
              "the snapshot codec copies scalars in host byte order, which "
              "must be the format's little-endian order");

// Element types a vec() moves in bulk: doubles and 8- or 1-byte unsigned
// integers (u64, size_t-based ids, u8), each encoded as its own sizeof(T)
// little-endian bytes. Vectors of anything else fail to compile.
template <typename T>
inline constexpr bool kBulkElement =
    std::is_same_v<T, double> ||
    (std::is_unsigned_v<T> && !std::is_same_v<T, bool> &&
     (sizeof(T) == 8 || sizeof(T) == 1));

class BinWriter {
 public:
  BinWriter() = default;
  // Reserves `size_hint` bytes up front, so a writer sized from the payload
  // it will hold never reallocates.
  explicit BinWriter(std::size_t size_hint) { buf_.reserve(size_hint); }

  void u8(const std::uint8_t& v) { buf_.push_back(static_cast<char>(v)); }
  void u32(const std::uint32_t& v) { raw(&v, sizeof v); }
  void u64(const std::uint64_t& v) { raw(&v, sizeof v); }
  void f64(const double& v) { raw(&v, sizeof v); }
  void boolean(const bool& v) { u8(v ? 1 : 0); }
  void size(const std::size_t& v) { u64(static_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    size(s.size());
    buf_.append(s);
  }

  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(kBulkElement<T>, "vec() moves doubles, u64 and u8 only");
    size(v.size());
    raw(v.data(), v.size() * sizeof(T));
  }

  // Appends `n` bytes exactly as they lie in memory (host = wire order).
  void raw(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class BinReader {
 public:
  explicit BinReader(std::string_view bytes) : bytes_(bytes) {}

  void u8(std::uint8_t& v) { raw(&v, 1); }
  void u32(std::uint32_t& v) { raw(&v, sizeof v); }
  void u64(std::uint64_t& v) { raw(&v, sizeof v); }
  void f64(double& v) { raw(&v, sizeof v); }
  void boolean(bool& v) {
    std::uint8_t b = 0;
    u8(b);
    v = b != 0;
  }
  void size(std::size_t& v) {
    std::uint64_t w = 0;
    u64(w);
    v = static_cast<std::size_t>(w);
  }
  void str(std::string& s);

  template <typename T>
  void vec(std::vector<T>& v) {
    static_assert(kBulkElement<T>, "vec() moves doubles, u64 and u8 only");
    v.resize(count(sizeof(T)));
    raw(v.data(), v.size() * sizeof(T));
  }

  // Reads a u64 element count and checks it against the bytes left, each
  // element taking at least `min_bytes` (> 0) of them, so a hostile length
  // fails here instead of sizing an allocation.
  [[nodiscard]] std::size_t count(std::size_t min_bytes);

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  // Throws unless every byte has been consumed (a codec/schema mismatch
  // shows up as a hard error, not a silently ignored tail).
  void expect_end() const;

 private:
  // Copies the next `n` bytes to `out` (host = wire order).
  void raw(void* out, std::size_t n) {
    need(n);
    if (n == 0) return;  // an empty vector's data() may be null
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
  }
  void need(std::size_t n) const {
    if (n > bytes_.size() - pos_) truncated(n);  // pos_ <= size: no wrap
  }
  [[noreturn]] void truncated(std::size_t n) const;

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// Word-wise 64-bit checksum: the bytes as little-endian u64 words, word k
// folded into lane k mod 4 by a multiply–xorshift step, the lanes and the
// length merged, and the tail (< 8 bytes) folded in byte by byte. Every
// step is a bijection of the lane it updates, so any change confined to one
// 8-byte word (or to the tail) always changes the result. The snapshot file
// trailer and the sweep-journal records carry it.
[[nodiscard]] std::uint64_t checksum64(std::string_view bytes);

// FNV-1a 64-bit over `bytes`, byte at a time: the report digests and the
// sweep campaign identity hash.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

}  // namespace wrsn
