#include "core/binio.hpp"

#include "core/error.hpp"

namespace wrsn {

void BinReader::truncated(std::size_t n) const {
  throw InvalidArgument("binary payload truncated (needed " + std::to_string(n) +
                        " bytes at offset " + std::to_string(pos_) + " of " +
                        std::to_string(bytes_.size()) + ")");
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

namespace {

// Odd multipliers (xxHash64's primes), so each multiply is a bijection of
// the 64-bit lane.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;

// One lane step: xor the word in, multiply, xorshift. For a fixed lane it
// is a bijection of the word, and for a fixed word a bijection of the lane.
constexpr std::uint64_t lane_step(std::uint64_t lane, std::uint64_t word) {
  lane = (lane ^ word) * kP1;
  return lane ^ (lane >> 31);
}

// Final avalanche (a bijection).
constexpr std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
}

}  // namespace

std::uint64_t checksum64(std::string_view bytes) {
  const char* p = bytes.data();
  const std::size_t words = bytes.size() / 8;
  std::uint64_t lane[4] = {kP1, kP2, kP3, kP4};
  const auto word_at = [p](std::size_t k) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + 8 * k, 8);  // little-endian host (binio.hpp)
    return w;
  };
  std::size_t k = 0;
  for (; k + 4 <= words; k += 4) {
    lane[0] = lane_step(lane[0], word_at(k));
    lane[1] = lane_step(lane[1], word_at(k + 1));
    lane[2] = lane_step(lane[2], word_at(k + 2));
    lane[3] = lane_step(lane[3], word_at(k + 3));
  }
  for (; k < words; ++k) lane[k & 3] = lane_step(lane[k & 3], word_at(k));
  // Merge: each lane enters through a bijection of itself, so the result
  // stays a bijection of any one lane with the others fixed.
  std::uint64_t h = static_cast<std::uint64_t>(bytes.size()) * kP3;
  for (const std::uint64_t l : lane) h = lane_step(h, avalanche(l));
  for (std::size_t i = 8 * words; i < bytes.size(); ++i) {
    h = lane_step(h, static_cast<unsigned char>(p[i]));
  }
  return avalanche(h);
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
