// Self-test of the benchmark's payload checker: clean payloads pass, and a
// deliberately corrupted receive buffer — including one that really went
// through the runtime — is counted as a failure.
#include <cstdio>
#include <cstring>
#include <vector>

#include "check.hpp"
#include "core/comm.hpp"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench;
  std::uint64_t attempted = 0, failed = 0;
  Tally tally{&attempted, &failed};

  // Word pattern, with a tail shorter than a word.
  const std::uint64_t key = payload_key(7, 1, 2, 3);
  std::vector<std::byte> buf(4099);
  fill_payload(buf.data(), buf.size(), key);
  tally.count(payload_ok(buf.data(), buf.size(), key));
  expect(failed == 0, "clean payload passes");

  for (std::size_t at : {std::size_t{0}, std::size_t{2048}, buf.size() - 1}) {
    std::vector<std::byte> bad = buf;
    bad[at] ^= std::byte{0x10};
    std::uint64_t before = failed;
    tally.count(payload_ok(bad.data(), bad.size(), key));
    expect(failed == before + 1, "flipped bit is counted");
  }
  std::uint64_t before = failed;
  tally.count(payload_ok(buf.data(), buf.size(), payload_key(7, 1, 2, 4)));
  tally.count(payload_ok(buf.data() + 8, buf.size() - 8, key));
  expect(failed == before + 2, "stale and shifted payloads are counted");

  // Integer-valued allreduce operands sum exactly.
  const int nranks = 4;
  const std::size_t n = 1000;
  std::vector<double> in(n), sum(n, 0.0);
  for (int r = 0; r < nranks; ++r) {
    fill_reduce_input(in.data(), n, key, r);
    for (std::size_t i = 0; i < n; ++i) sum[i] += in[i];
  }
  before = failed;
  tally.count(reduce_ok(sum.data(), n, key, nranks));
  expect(failed == before, "exact allreduce sum passes");
  sum[17] += 1;
  tally.count(reduce_ok(sum.data(), n, key, nranks));
  expect(failed == before + 1, "corrupted allreduce element is counted");

  // A real receive through the runtime, then corrupted in place.
  std::uint64_t world_attempted = 0, world_failed = 0;
  nemo::core::Config cfg;
  cfg.nranks = 2;
  cfg.tuning = nemo::tune::formula_defaults(nemo::detect_host());
  nemo::core::run(cfg, [&](nemo::core::Comm& c) {
    std::vector<std::byte> msg(64 * 1024 + 3);
    if (c.rank() == 0) {
      fill_payload(msg.data(), msg.size(), key);
      c.send(msg.data(), msg.size(), 1, 5);
      return;
    }
    c.recv(msg.data(), msg.size(), 0, 5);
    Tally t{&world_attempted, &world_failed};
    t.count(payload_ok(msg.data(), msg.size(), key));
    msg[msg.size() / 2] ^= std::byte{1};
    t.count(payload_ok(msg.data(), msg.size(), key));
  });
  expect(world_attempted == 2 && world_failed == 1,
         "corrupted receive buffer from the runtime is counted");

  expect(attempted == 8 && failed == 6, "tally totals");
  if (failures == 0) std::printf("perfbench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
