#include "check.hpp"

#include <cstring>

namespace perfbench {

namespace {

constexpr std::uint64_t kStride = 0x9e3779b97f4a7c15ull;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// Word i of a payload: distinct per key and per position, and cheap enough
// (one multiply-add) that verifying multi-MiB payloads runs at memory speed.
inline std::uint64_t word(std::uint64_t key, std::size_t i) {
  return key + kStride * static_cast<std::uint64_t>(i);
}

double reduce_input(std::uint64_t key, int rank, std::size_t i) {
  return static_cast<double>(
      (key + static_cast<std::uint64_t>(rank) * 977u + i * 131u) % 1024u);
}

}  // namespace

std::uint64_t payload_key(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                          std::uint64_t d) {
  return mix(mix(mix(mix(a) ^ b) ^ c) ^ d);
}

void fill_payload(std::byte* buf, std::size_t n, std::uint64_t key) {
  std::size_t words = n / 8;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w = word(key, i);
    std::memcpy(buf + i * 8, &w, 8);
  }
  std::uint64_t tail = word(key, words);
  std::memcpy(buf + words * 8, &tail, n % 8);
}

bool payload_ok(const std::byte* buf, std::size_t n, std::uint64_t key) {
  std::size_t words = n / 8;
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w;
    std::memcpy(&w, buf + i * 8, 8);
    diff |= w ^ word(key, i);
  }
  std::uint64_t tail = word(key, words), got = tail;
  std::memcpy(&got, buf + words * 8, n % 8);
  return diff == 0 && got == tail;
}

void fill_reduce_input(double* buf, std::size_t n, std::uint64_t key,
                       int rank) {
  for (std::size_t i = 0; i < n; ++i) buf[i] = reduce_input(key, rank, i);
}

bool reduce_ok(const double* out, std::size_t n, std::uint64_t key,
               int nranks) {
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    double want = 0;
    for (int r = 0; r < nranks; ++r) want += reduce_input(key, r, i);
    ok &= out[i] == want;
  }
  return ok;
}

}  // namespace perfbench
