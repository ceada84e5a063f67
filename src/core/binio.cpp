#include "core/binio.hpp"

#include "core/error.hpp"

namespace wrsn {

void BinReader::need(std::size_t n) const {
  if (n > bytes_.size() - pos_) {  // pos_ <= size, so this cannot wrap
    throw InvalidArgument("binary payload truncated (needed " +
                          std::to_string(n) + " bytes at offset " +
                          std::to_string(pos_) + " of " +
                          std::to_string(bytes_.size()) + ")");
  }
}

void BinReader::u8(std::uint8_t& v) {
  need(1);
  v = static_cast<std::uint8_t>(bytes_[pos_++]);
}

void BinReader::u32(std::uint32_t& v) {
  need(4);
  std::uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 4;
  v = out;
}

void BinReader::u64(std::uint64_t& v) {
  need(8);
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 8;
  v = out;
}

std::size_t BinReader::count(std::size_t min_bytes) {
  std::uint64_t n = 0;
  u64(n);
  if (n > remaining() / min_bytes) {
    throw InvalidArgument("binary payload truncated (count " +
                          std::to_string(n) + " at offset " +
                          std::to_string(pos_ - 8) + " exceeds the " +
                          std::to_string(remaining()) + " bytes left)");
  }
  return static_cast<std::size_t>(n);
}

void BinReader::str(std::string& s) {
  const std::size_t n = count(1);
  s.assign(bytes_.substr(pos_, n));
  pos_ += n;
}

void BinReader::expect_end() const {
  if (pos_ != bytes_.size()) {
    throw InvalidArgument("binary payload has " +
                          std::to_string(bytes_.size() - pos_) +
                          " trailing byte(s)");
  }
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace wrsn
