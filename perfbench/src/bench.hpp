// Shared plumbing of the nemolmt benchmark: run options, the result memory
// that outlives every world, and the per-rank record logs the workloads
// append to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

enum class Workload { kSmallStream, kBulkExchange, kCollMix };

const char* workload_name(Workload w);
bool workload_from_name(const std::string& s, Workload* out);
int workload_ranks(Workload w);

struct Options {
  Workload workload = Workload::kSmallStream;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< Where the report and span files go ("" = none).
};

/// One timed sample. `bytes` is the message or operand size the sample is
/// about (24 bits: every workload size is below 16 MiB); samples taken in
/// traced worlds carry kTracedBit in their tag.
enum Tag : std::uint8_t {
  kPingpong = 1,    ///< 8 B round trip (ns = round trip).
  kWindow,          ///< 64-message window (bytes = window payload).
  kStepPingpong,    ///< Bulk step: pingpong transfer + chase.
  kStepBidir,       ///< Bulk step: bidirectional exchange + chase.
  kXferPingpong,    ///< Transfer part of a pingpong step (round trip).
  kXferBidir,       ///< Transfer part of a bidirectional step.
  kChaseAfter,      ///< Pointer chase right after a transfer.
  kChaseIdle,       ///< The same chase with no transfer before it.
  kAllreduce,
  kAlltoall,
  kBcast,
  kBarrier,
};
inline constexpr std::uint8_t kTracedBit = 0x80;

struct Rec {
  std::uint32_t tag_bytes;  ///< tag << 24 | bytes.
  float ns;

  [[nodiscard]] Tag tag() const {
    return static_cast<Tag>((tag_bytes >> 24) & ~kTracedBit);
  }
  [[nodiscard]] bool traced() const {
    return ((tag_bytes >> 24) & kTracedBit) != 0;
  }
  [[nodiscard]] std::uint32_t bytes() const { return tag_bytes & 0xFFFFFFu; }
};

/// Runtime counters the benchmark reads, by index into LayerCounts::v.
enum Count : int {
  // engine().counters(): messages per path (tune::Counters::path_hist).
  cPathDefault, cPathVmsplice, cPathWritev, cPathKnem, cPathCma, cPathEager,
  cPathFastbox,
  cFastboxHits, cFastboxFallbacks, cRingStalls, cDrainExhausted,
  cProgressPasses, cUmPoolHits, cUmPoolMisses,
  cCollShmOps, cCollP2pOps, cCollShmBytes, cCollFallbacks, cCollEpochStalls,
  cFoldOps, cFoldBytes, cPeerDeaths, cTimeoutAborts,
  // engine().stats()
  cEagerSent, cRndvSent, cBytesSent,
  // engine().knem_device().stats(): world-wide, so read on rank 0 only.
  cKnemBytes, cCmaBytes, cCmaStageFallbacks, cCmaStageBytes, cDmaRecvCmds,
  cCountN
};

/// Counter deltas one rank saw over the measured sections of its worlds.
struct LayerCounts {
  std::uint64_t v[cCountN] = {};

  std::uint64_t operator[](Count c) const { return v[c]; }
};

/// Everything one rank hands back to the parent.
struct RankLog {
  std::uint64_t nspan = 0;
  std::uint64_t attempted = 0;  ///< Payloads / results verified.
  std::uint64_t failed = 0;     ///< Mismatches and peer-death verdicts.
  std::uint64_t sink = 0;       ///< Pointer-chase results (kept live).
  std::uint64_t fn_start_ns = 0, fn_end_ns = 0;  ///< Last world's body.
  /// Standalone probe work (traced worlds): bytes each copy kind moved,
  /// bytes folded, Engine::resolve_kind calls.
  std::uint64_t copy_bytes = 0, fold_bytes = 0, policy_calls = 0;
  LayerCounts counts{};
};

/// The run's result memory: one RankLog and span log per rank, and the
/// sample log rank 0 (the rank that keeps the clock) appends to. It is
/// mapped shared and anonymous before the first world, so forked ranks
/// write it in place and the parent reads it after the world is gone.
class Results {
 public:
  static constexpr int kMaxWorlds = 16;

  Results(int nranks, std::size_t rec_cap, std::size_t span_cap);
  ~Results();
  Results(const Results&) = delete;
  Results& operator=(const Results&) = delete;

  [[nodiscard]] int nranks() const { return nranks_; }
  RankLog& log(int rank);
  [[nodiscard]] const RankLog& log(int rank) const;

  /// Append a sample; false (sample dropped) once the log is full.
  bool add(Tag tag, bool traced, std::uint32_t bytes, double ns);
  /// Mark the end of measured world `world` in the sample log.
  void end_world(int world);
  [[nodiscard]] int worlds() const;

  /// Samples with any of `tags` from untraced (or traced) worlds, in the
  /// order they were taken; `world` >= 0 restricts them to that world.
  [[nodiscard]] std::vector<Rec> select(std::initializer_list<Tag> tags,
                                        bool traced = false,
                                        int world = -1) const;

  /// This rank's span log (zero capacity disables recording).
  [[nodiscard]] SpanLog span_log(int rank);
  [[nodiscard]] const Span* spans(int rank) const;
  [[nodiscard]] std::size_t span_count(int rank) const;
  [[nodiscard]] std::size_t span_cap() const { return span_cap_; }

 private:
  struct Header {
    std::uint64_t nrec;
    std::uint64_t world_end[kMaxWorlds];
  };

  int nranks_;
  std::size_t rec_cap_, span_cap_;
  std::size_t bytes_ = 0;
  Header* hdr_ = nullptr;
  RankLog* logs_ = nullptr;
  Rec* recs_ = nullptr;
  Span* spans_ = nullptr;
};

/// Facts about the host and the runtime's choices on it, recorded in every
/// report so numbers from different machines are never compared blindly.
struct HostFacts {
  int nproc = 0;
  int affinity_cores = 0;
  std::size_t l2_bytes = 0, l3_bytes = 0;
  std::string simd_kernel;
  bool cma_usable = false;
  std::size_t fastbox_max = 0, lmt_activation = 0, coll_activation = 0;
  std::size_t nt_min = 0;
  /// "size band -> path" decided by the runtime's policy for this world.
  std::vector<std::pair<std::string, std::string>> auto_paths;
};

/// What the parent learns from one run of a workload besides the logs.
struct RunData {
  std::vector<double> setup_s;  ///< One per world: bring-up + tear-down.
  std::uint64_t child_failures = 0;  ///< Worlds whose ranks exited badly.
  HostFacts host;
  std::uint32_t max_buffer_bytes = 0;  ///< Largest per-rank payload buffer.
  double peak_rss_mib = 0;  ///< Parent plus largest forked rank, at the end.
  int worlds = 0, traced_worlds = 0;
};

/// Run every world of `opt.workload`, appending samples, spans and counter
/// deltas to `res`. Throws std::runtime_error on an unusable host.
RunData run_workload(const Options& opt, Results& res);

}  // namespace perfbench
