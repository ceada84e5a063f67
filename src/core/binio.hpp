#pragma once
// Little-endian binary codec for checkpoint/snapshot payloads.
//
// Doubles are encoded as their IEEE-754 bit pattern (u64), so a value read
// back is the *same object*, bit for bit — the property the deterministic
// WorldSnapshot (sim/snapshot.hpp) is built on. The reader bounds-checks
// every access and every element count and throws InvalidArgument on
// truncation or trailing bytes, so a half-written snapshot file is rejected
// instead of silently restoring garbage. An FNV-1a 64 checksum helper covers
// whole payloads.
//
// The writer/reader pair is deliberately symmetric: serialization code is
// written once as a template over the archive (see SnapshotAccess in
// sim/snapshot.cpp), so the save and load field lists can never drift apart.

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wrsn {

class BinWriter {
 public:
  void u8(const std::uint8_t& v) { buf_.push_back(static_cast<char>(v)); }
  void u32(const std::uint32_t& v) { put_bits(v, 4); }
  void u64(const std::uint64_t& v) { put_bits(v, 8); }
  void f64(const double& v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(const bool& v) { u8(v ? 1 : 0); }
  void size(const std::size_t& v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    buf_.append(s);
  }

  template <typename T>
  void vec(const std::vector<T>& v);

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  void put_bits(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string buf_;
};

class BinReader {
 public:
  explicit BinReader(std::string_view bytes) : bytes_(bytes) {}

  void u8(std::uint8_t& v);
  void u32(std::uint32_t& v);
  void u64(std::uint64_t& v);
  void f64(double& v) {
    std::uint64_t bits = 0;
    u64(bits);
    v = std::bit_cast<double>(bits);
  }
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
  void vec(std::vector<T>& v);

  // Reads a u64 element count and checks it against the bytes left, each
  // element taking at least `min_bytes` (> 0) of them, so a hostile length
  // fails here instead of sizing an allocation.
  [[nodiscard]] std::size_t count(std::size_t min_bytes);

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  // Throws unless every byte has been consumed (a codec/schema mismatch
  // shows up as a hard error, not a silently ignored tail).
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// Element codecs for the vec() helpers. Each element type the snapshot uses
// gets one overload pair; vectors of anything else fail to compile.
inline void bin_io(BinWriter& ar, const double& v) { ar.f64(v); }
inline void bin_io(BinReader& ar, double& v) { ar.f64(v); }
inline void bin_io(BinWriter& ar, const std::uint64_t& v) { ar.u64(v); }
inline void bin_io(BinReader& ar, std::uint64_t& v) { ar.u64(v); }
inline void bin_io(BinWriter& ar, const std::uint8_t& v) { ar.u8(v); }
inline void bin_io(BinReader& ar, std::uint8_t& v) { ar.u8(v); }

template <typename T>
void BinWriter::vec(const std::vector<T>& v) {
  u64(v.size());
  for (const T& e : v) bin_io(*this, e);
}

template <typename T>
void BinReader::vec(std::vector<T>& v) {
  // Every bin_io element type encodes in exactly sizeof(T) bytes.
  const std::size_t n = count(sizeof(T));
  v.clear();
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    T e{};
    bin_io(*this, e);
    v.push_back(e);
  }
}

// FNV-1a 64-bit over `bytes`; the snapshot file format stores this as a
// trailer so bit rot / truncation is caught before deserialization.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

}  // namespace wrsn
