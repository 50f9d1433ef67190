// Payload generation and verification. Every payload the benchmark sends is
// a word pattern keyed by (seed, step, rank, ...), so a stale, shifted,
// truncated or cross-delivered buffer fails the check. Allreduce operands
// are small integers stored as doubles, so their sums are exact and the
// expected result is computed independently of the runtime.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// Mix several identifiers into one payload key.
std::uint64_t payload_key(std::uint64_t a, std::uint64_t b = 0,
                          std::uint64_t c = 0, std::uint64_t d = 0);

void fill_payload(std::byte* buf, std::size_t n, std::uint64_t key);
[[nodiscard]] bool payload_ok(const std::byte* buf, std::size_t n,
                              std::uint64_t key);

/// Allreduce operands of `rank`: integers in [0, 1024) stored as doubles.
void fill_reduce_input(double* buf, std::size_t n, std::uint64_t key,
                       int rank);
/// Does `out` hold the exact sum of what fill_reduce_input gives ranks
/// [0, nranks)?
[[nodiscard]] bool reduce_ok(const double* out, std::size_t n,
                             std::uint64_t key, int nranks);

/// Failure accounting for one rank: every verified payload is one attempt.
struct Tally {
  std::uint64_t* attempted;
  std::uint64_t* failed;

  void count(bool ok) {
    ++*attempted;
    if (!ok) ++*failed;
  }
};

}  // namespace perfbench
