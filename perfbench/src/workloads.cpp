// The three workloads and the world loop that runs them.
//
// Every workload is a closed loop: a rank issues its next operation only
// after its peer or its collective let it. Rank 0 keeps the clock and
// decides when to stop, and tells the other ranks in-band (a flag in the
// 8 B ping, the window's control message, the bulk payload header, or an
// untimed 8 B bcast every 64 collectives), so no rank is ever left waiting
// on a peer that already left the loop.
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "check.hpp"
#include "common/timing.hpp"
#include "core/comm.hpp"
#include "shm/nt_copy.hpp"
#include "simd/simd.hpp"
#include "tune/tuning.hpp"

namespace perfbench {

using nemo::now_ns;
using nemo::core::Comm;
using nemo::core::Request;

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSmallStream: return "small_stream";
    case Workload::kBulkExchange: return "bulk_exchange";
    case Workload::kCollMix: return "coll_mix";
  }
  return "?";
}

bool workload_from_name(const std::string& s, Workload* out) {
  for (Workload w : {Workload::kSmallStream, Workload::kBulkExchange,
                     Workload::kCollMix}) {
    if (s == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

int workload_ranks(Workload w) { return w == Workload::kCollMix ? 4 : 2; }

// ---------------------------------------------------------------------------
// Result memory
// ---------------------------------------------------------------------------

namespace {

std::size_t round_up(std::size_t v, std::size_t a) {
  return (v + a - 1) / a * a;
}

}  // namespace

Results::Results(int nranks, std::size_t rec_cap, std::size_t span_cap)
    : nranks_(nranks), rec_cap_(rec_cap), span_cap_(span_cap) {
  const auto n = static_cast<std::size_t>(nranks);
  bytes_ = round_up(sizeof(Header) + n * sizeof(RankLog) + rec_cap * sizeof(Rec) +
                        n * span_cap * sizeof(Span),
                    4096);
  void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("mmap of the result logs failed");
  hdr_ = new (p) Header{};
  logs_ = reinterpret_cast<RankLog*>(hdr_ + 1);
  for (std::size_t r = 0; r < n; ++r) new (logs_ + r) RankLog{};
  recs_ = reinterpret_cast<Rec*>(logs_ + n);
  spans_ = reinterpret_cast<Span*>(recs_ + rec_cap);
  // Touch the whole sample log now, so its share of peak_rss_mib is the same
  // however many samples a run takes.
  std::memset(static_cast<void*>(recs_), 0, rec_cap * sizeof(Rec));
}

Results::~Results() { ::munmap(hdr_, bytes_); }

RankLog& Results::log(int rank) { return logs_[rank]; }
const RankLog& Results::log(int rank) const { return logs_[rank]; }

bool Results::add(Tag tag, bool traced, std::uint32_t bytes, double ns) {
  if (hdr_->nrec >= rec_cap_) return false;
  auto t = static_cast<std::uint32_t>(tag | (traced ? kTracedBit : 0));
  recs_[hdr_->nrec++] = Rec{t << 24 | (bytes & 0xFFFFFFu), static_cast<float>(ns)};
  return true;
}

void Results::end_world(int world) { hdr_->world_end[world] = hdr_->nrec; }

int Results::worlds() const {
  int w = 0;
  while (w < kMaxWorlds && hdr_->world_end[w] != 0) ++w;
  return w;
}

std::vector<Rec> Results::select(std::initializer_list<Tag> tags, bool traced,
                                 int world) const {
  std::size_t from = 0, to = hdr_->nrec;
  if (world >= 0) {
    from = world == 0 ? 0 : hdr_->world_end[world - 1];
    to = hdr_->world_end[world];
  }
  std::vector<Rec> out;
  for (std::size_t i = from; i < to; ++i) {
    const Rec& rec = recs_[i];
    if (rec.traced() == traced &&
        std::find(tags.begin(), tags.end(), rec.tag()) != tags.end())
      out.push_back(rec);
  }
  return out;
}

SpanLog Results::span_log(int rank) {
  return {spans_ + static_cast<std::size_t>(rank) * span_cap_, &logs_[rank].nspan,
          span_cap_, rank};
}

const Span* Results::spans(int rank) const {
  return spans_ + static_cast<std::size_t>(rank) * span_cap_;
}

std::size_t Results::span_count(int rank) const {
  return std::min<std::size_t>(logs_[rank].nspan, span_cap_);
}

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

namespace {

constexpr int kDepth = 64;            // small_stream window depth
constexpr std::size_t kSlot = 4096;   // small_stream per-message buffer
constexpr int kCollCheckEvery = 64;   // coll_mix ops between stop checks
constexpr int kSetupOnlyWorlds = 6;   // extra bring-ups for setup_s
// Span reserve per traced world: the layer probes (at most 1000 spans) plus
// the last step rank 0 starts after its quota check.
constexpr std::size_t kProbeSpans = 1280;

enum MsgTag : int { kTagPing = 1, kTagCtl, kTagData, kTagBulk };

struct CollOp {
  Tag kind;
  std::uint32_t bytes;  ///< allreduce/bcast operand, alltoall per pair.
  int root;
};

/// Inputs every rank derives identically from the seed.
struct Plan {
  std::vector<std::uint32_t> sizes;  ///< pt2pt message sizes, in order.
  std::vector<CollOp> ops;           ///< coll_mix operation sequence.
  std::vector<std::uint32_t> copy_sizes, fold_sizes;  ///< Probe operands.
  std::size_t max_bytes = 0;         ///< Largest per-rank buffer needed.
  std::size_t chase_bytes = 0;       ///< bulk_exchange working set.
};

std::uint32_t log_uniform(std::mt19937_64& rng, double lo, double hi) {
  std::uniform_real_distribution<double> u(std::log(lo), std::log(hi));
  return static_cast<std::uint32_t>(std::lround(std::exp(u(rng))));
}

Plan make_plan(const Options& opt, int nranks, std::size_t l2_bytes) {
  Plan p;
  std::mt19937_64 rng(payload_key(opt.seed, 0x5eed));
  switch (opt.workload) {
    case Workload::kSmallStream:
      // 8 B .. 4 KiB spans the fastbox cutoff and stays eager.
      for (int i = 0; i < 4096; ++i) p.sizes.push_back(log_uniform(rng, 8, 4096));
      p.max_bytes = kSlot;
      break;
    case Workload::kBulkExchange:
      for (int i = 0; i < 1024; ++i)
        p.sizes.push_back(log_uniform(rng, 64 * 1024, 8 * 1024 * 1024));
      p.max_bytes = 8 * 1024 * 1024;
      p.chase_bytes = l2_bytes / 2;
      break;
    case Workload::kCollMix: {
      std::uniform_int_distribution<int> kind(0, 3), root(0, nranks - 1);
      for (int i = 0; i < 4096; ++i) {
        CollOp op{kBarrier, 0, 0};
        switch (kind(rng)) {
          case 0:
            op = {kAllreduce, log_uniform(rng, 1024, 1 << 20) & ~7u, 0};
            p.fold_sizes.push_back(op.bytes);
            break;
          case 1: op = {kAlltoall, log_uniform(rng, 1024, 256 * 1024), 0}; break;
          case 2: op = {kBcast, log_uniform(rng, 1024, 1 << 20), root(rng)}; break;
          default: break;
        }
        p.ops.push_back(op);
        if (op.bytes != 0) p.copy_sizes.push_back(op.bytes);
      }
      p.max_bytes = std::max<std::size_t>(1 << 20, 256 * 1024 *
                                                       static_cast<std::size_t>(nranks));
      break;
    }
  }
  if (p.copy_sizes.empty()) p.copy_sizes = p.sizes;
  if (p.fold_sizes.empty())
    for (std::uint32_t s : p.copy_sizes) p.fold_sizes.push_back(std::max(8u, s & ~7u));
  return p;
}

// ---------------------------------------------------------------------------
// Rank-side helpers
// ---------------------------------------------------------------------------

/// Page-aligned, pre-touched private buffer.
class Buf {
 public:
  explicit Buf(std::size_t n)
      : p_(static_cast<std::byte*>(
            std::aligned_alloc(4096, round_up(std::max<std::size_t>(n, 1), 4096)))) {
    if (p_ == nullptr) throw std::bad_alloc();
    std::memset(p_, 0, n);
  }
  ~Buf() { std::free(p_); }
  Buf(const Buf&) = delete;
  Buf& operator=(const Buf&) = delete;
  [[nodiscard]] std::byte* get() const { return p_; }

 private:
  std::byte* p_;
};

/// Dependent-load walk over a private working set: one random cycle through
/// every cache line, so its time is the working set's miss cost. The sum it
/// returns is stored by the caller, which keeps the loads from being elided.
class Chase {
 public:
  Chase(std::size_t bytes, std::uint64_t seed)
      : n_(std::max<std::size_t>(bytes / sizeof(Line), 2)),
        lines_(new Line[n_]) {
    std::vector<std::uint32_t> next(n_);
    std::iota(next.begin(), next.end(), 0u);
    std::mt19937_64 rng(seed);
    for (std::size_t i = n_ - 1; i > 0; --i)  // Sattolo: one n-cycle.
      std::swap(next[i], next[std::uniform_int_distribution<std::size_t>(
                             0, i - 1)(rng)]);
    for (std::size_t i = 0; i < n_; ++i) lines_[i].next = next[i];
  }
  std::uint64_t run() const {
    std::uint32_t i = 0;
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < n_; ++k) {
      i = lines_[i].next;
      acc += i;
    }
    return acc;
  }

 private:
  struct alignas(64) Line {
    std::uint32_t next;
  };
  std::size_t n_;
  std::unique_ptr<Line[]> lines_;
};

LayerCounts read_counts(Comm& c) {
  const nemo::tune::Counters& k = c.engine().counters();
  const nemo::core::EngineStats& s = c.engine().stats();
  LayerCounts o;
  for (int i = 0; i < nemo::tune::Counters::kPaths; ++i)
    o.v[cPathDefault + i] = k.path_hist[static_cast<std::size_t>(i)];
  o.v[cFastboxHits] = k.fastbox_hits;
  o.v[cFastboxFallbacks] = k.fastbox_fallbacks;
  o.v[cRingStalls] = k.ring_stalls;
  o.v[cDrainExhausted] = k.drain_exhausted;
  o.v[cProgressPasses] = k.progress_passes;
  o.v[cUmPoolHits] = k.um_pool_hits;
  o.v[cUmPoolMisses] = k.um_pool_misses;
  o.v[cCollShmOps] = k.coll_shm_ops;
  o.v[cCollP2pOps] = k.coll_p2p_ops;
  o.v[cCollShmBytes] = k.coll_shm_bytes;
  o.v[cCollFallbacks] = k.coll_fallbacks;
  o.v[cCollEpochStalls] = k.coll_epoch_stalls;
  for (int i = 0; i < nemo::tune::Counters::kSimdKernels; ++i) {
    o.v[cFoldOps] += k.simd_fold_ops[static_cast<std::size_t>(i)];
    o.v[cFoldBytes] += k.simd_fold_bytes[static_cast<std::size_t>(i)];
  }
  o.v[cPeerDeaths] = k.peer_deaths;
  o.v[cTimeoutAborts] = k.timeout_aborts;
  o.v[cEagerSent] = s.eager_msgs_sent;
  o.v[cRndvSent] = s.rndv_sent;
  o.v[cBytesSent] = s.bytes_sent;
  if (c.rank() == 0) {
    nemo::knem::DeviceStats d = c.engine().knem_device().stats();
    o.v[cKnemBytes] = d.bytes_copied;
    o.v[cCmaBytes] = d.cma_bytes;
    o.v[cCmaStageFallbacks] = d.cma_stage_fallbacks;
    o.v[cCmaStageBytes] = d.cma_stage_bytes;
    o.v[cDmaRecvCmds] = d.dma_recv_cmds;
  }
  return o;
}

struct WorldCtx {
  const Options* opt;
  const Plan* plan;
  Results* res;
  std::uint64_t world;
  bool traced;
  std::uint64_t budget_ns;  ///< Measured time for this world's workload.
  std::size_t span_quota;   ///< Rank 0 spans the workload loop may use.
};

/// Rank 0's view of a phase's budget: wall time, and in traced worlds the
/// span log's share.
class Budget {
 public:
  Budget(const WorldCtx& x, const SpanLog& spans, double share)
      : spans_(spans),
        end_ns_(now_ns() + static_cast<std::uint64_t>(
                               static_cast<double>(x.budget_ns) * share)),
        span_end_(spans.size() +
                  static_cast<std::size_t>(static_cast<double>(x.span_quota) *
                                           share)) {}
  [[nodiscard]] bool spent() const {
    return now_ns() >= end_ns_ || (spans_.on() && spans_.size() >= span_end_);
  }

 private:
  const SpanLog& spans_;
  std::uint64_t end_ns_;
  std::size_t span_end_;
};

struct RankEnv {
  Comm& c;
  const WorldCtx& x;
  SpanLog& spans;
  RankLog& log;
  Tally tally;

  [[nodiscard]] bool timer() const { return c.rank() == 0; }
  void sample(Tag tag, std::uint32_t bytes, std::uint64_t ns) {
    x.res->add(tag, x.traced, bytes, static_cast<double>(ns));
  }
};

// --- small_stream -----------------------------------------------------------

void small_stream(RankEnv& e) {
  Comm& c = e.c;
  const int peer = 1 - c.rank();
  const std::uint64_t seed = e.x.opt->seed, world = e.x.world;
  constexpr std::uint64_t kWarmup = 1000;

  // Phase one: 8 B pingpong. Bit 0 of the ping is rank 0's stop flag.
  {
    Budget budget(e.x, e.spans, 0.3);
    std::uint64_t got = 0;
    for (std::uint64_t i = 0;; ++i) {
      std::uint64_t want = payload_key(seed, world, i) & ~1ull;
      if (e.timer()) {
        std::uint64_t ping = want | (budget.spent() ? 1 : 0);
        std::uint64_t t0 = now_ns();
        {
          Scoped step(&e.spans, SpanName::kStep);
          {
            Scoped s(&e.spans, SpanName::kSend);
            c.send(&ping, 8, peer, kTagPing);
          }
          Scoped s(&e.spans, SpanName::kRecv);
          c.recv(&got, 8, peer, kTagPing);
        }
        std::uint64_t t1 = now_ns();
        // Every 8th round trip is plenty for p99 and keeps the log small.
        if (i >= kWarmup && i % 8 == 0) e.sample(kPingpong, 8, t1 - t0);
        e.tally.count(got == ping);
        if ((ping & 1) != 0) break;
      } else {
        {
          Scoped step(&e.spans, SpanName::kStep);
          {
            Scoped s(&e.spans, SpanName::kRecv);
            c.recv(&got, 8, peer, kTagPing);
          }
          Scoped s(&e.spans, SpanName::kSend);
          c.send(&got, 8, peer, kTagPing);
        }
        e.tally.count((got & ~1ull) == want);
        if ((got & 1) != 0) break;
      }
    }
  }

  // Phase two: window-64 nonblocking stream, rank 1 -> rank 0. Rank 0
  // pre-posts the window, then releases it with a control message that
  // also carries the stop flag; payloads are filled and checked outside the
  // timed window.
  Budget budget(e.x, e.spans, 0.7);
  const std::vector<std::uint32_t>& sizes = e.x.plan->sizes;
  Buf bufs(kDepth * kSlot);
  std::array<Request, kDepth> reqs;
  for (std::uint64_t w = 0;; ++w) {
    auto size = [&](int j) {
      return sizes[(w * kDepth + static_cast<std::uint64_t>(j)) % sizes.size()];
    };
    auto slot = [&](int j) { return bufs.get() + static_cast<std::size_t>(j) * kSlot; };
    auto key = [&](int j) {
      return payload_key(seed, world, w, static_cast<std::uint64_t>(j));
    };
    if (e.timer()) {
      std::uint64_t stop = budget.spent() ? 1 : 0;
      if (stop != 0) {
        c.send(&stop, 8, peer, kTagCtl);
        break;
      }
      std::uint64_t t0 = now_ns();
      {
        Scoped step(&e.spans, SpanName::kStep);
        for (int j = 0; j < kDepth; ++j) {
          Scoped s(&e.spans, SpanName::kIrecv);
          reqs[static_cast<std::size_t>(j)] = c.irecv(slot(j), size(j), peer, kTagData);
        }
        {
          Scoped s(&e.spans, SpanName::kSend);
          c.send(&stop, 8, peer, kTagCtl);
        }
        Scoped s(&e.spans, SpanName::kWaitall);
        c.waitall(reqs);
      }
      std::uint64_t t1 = now_ns();
      std::uint32_t bytes = 0;
      for (int j = 0; j < kDepth; ++j) bytes += size(j);
      if (w >= kWarmup / kDepth) e.sample(Tag::kWindow, bytes, t1 - t0);
      for (int j = 0; j < kDepth; ++j)
        e.tally.count(payload_ok(slot(j), size(j), key(j)));
    } else {
      for (int j = 0; j < kDepth; ++j) fill_payload(slot(j), size(j), key(j));
      std::uint64_t stop = 0;
      c.recv(&stop, 8, peer, kTagCtl);
      if (stop != 0) break;
      Scoped step(&e.spans, SpanName::kStep);
      for (int j = 0; j < kDepth; ++j) {
        Scoped s(&e.spans, SpanName::kIsend);
        reqs[static_cast<std::size_t>(j)] = c.isend(slot(j), size(j), peer, kTagData);
      }
      Scoped s(&e.spans, SpanName::kWaitall);
      c.waitall(reqs);
    }
  }
}

// --- bulk_exchange ----------------------------------------------------------

void bulk_exchange(RankEnv& e) {
  Comm& c = e.c;
  const int me = c.rank(), peer = 1 - me;
  const std::uint64_t seed = e.x.opt->seed, world = e.x.world;
  const std::vector<std::uint32_t>& sizes = e.x.plan->sizes;
  constexpr std::uint64_t kWarmupSteps = 4;
  Buf sbuf(e.x.plan->max_bytes), rbuf(e.x.plan->max_bytes);
  Chase chase(e.x.plan->chase_bytes, payload_key(seed, world, me));

  // Idle baseline: back-to-back chases, nothing else touching the cache.
  for (int i = 0; i <= 32; ++i) {
    std::uint64_t t0 = now_ns();
    e.log.sink += chase.run();
    if (i > 0 && e.timer()) e.sample(kChaseIdle, 0, now_ns() - t0);
  }

  Budget budget(e.x, e.spans, 1.0);
  for (std::uint64_t k = 0;; ++k) {
    const std::uint32_t n = sizes[k % sizes.size()];
    const bool bidir = k % 2 == 1;
    const bool last = e.timer() && budget.spent();
    // Untimed: produce this step's payload (word 0 is a header carrying the
    // step and rank 0's stop flag), then re-warm the working set the fill
    // and the previous check evicted, so the timed chase below sees only
    // what the transfer itself displaced.
    std::uint64_t header = k << 1 | (last ? 1 : 0);
    std::memcpy(sbuf.get(), &header, 8);
    fill_payload(sbuf.get() + 8, n - 8, payload_key(seed, world, k, me));
    e.log.sink += chase.run();

    std::uint64_t t0 = now_ns(), t1 = 0;
    {
      Scoped step(&e.spans, SpanName::kStep);
      if (bidir) {
        std::array<Request, 2> r;
        {
          Scoped s(&e.spans, SpanName::kIrecv);
          r[0] = c.irecv(rbuf.get(), n, peer, kTagBulk);
        }
        {
          Scoped s(&e.spans, SpanName::kIsend);
          r[1] = c.isend(sbuf.get(), n, peer, kTagBulk);
        }
        Scoped s(&e.spans, SpanName::kWaitall);
        c.waitall(r);
      } else {
        for (int leg = 0; leg < 2; ++leg) {
          if ((leg == 0) == e.timer()) {
            Scoped s(&e.spans, SpanName::kSend);
            c.send(sbuf.get(), n, peer, kTagBulk);
          } else {
            Scoped s(&e.spans, SpanName::kRecv);
            c.recv(rbuf.get(), n, peer, kTagBulk);
          }
        }
      }
      t1 = now_ns();
      Scoped s(&e.spans, SpanName::kChase);
      e.log.sink += chase.run();
    }
    std::uint64_t t2 = now_ns();
    if (e.timer() && k >= kWarmupSteps) {
      e.sample(bidir ? kStepBidir : kStepPingpong, n, t2 - t0);
      e.sample(bidir ? kXferBidir : kXferPingpong, n, t1 - t0);
      e.sample(kChaseAfter, n, t2 - t1);
    }
    std::uint64_t got = 0;
    std::memcpy(&got, rbuf.get(), 8);
    e.tally.count((got >> 1) == k && (e.timer() ? (got & 1) == 0 : true) &&
                  payload_ok(rbuf.get() + 8, n - 8,
                             payload_key(seed, world, k, peer)));
    if (e.timer() ? last : (got & 1) != 0) break;
  }
}

// --- coll_mix ----------------------------------------------------------------

SpanName coll_span(Tag t) {
  switch (t) {
    case kAllreduce: return SpanName::kAllreduce;
    case kAlltoall: return SpanName::kAlltoall;
    case kBcast: return SpanName::kBcast;
    default: return SpanName::kBarrier;
  }
}

void coll_mix(RankEnv& e) {
  Comm& c = e.c;
  const int me = c.rank(), n = c.size();
  const std::uint64_t seed = e.x.opt->seed, world = e.x.world;
  const std::vector<CollOp>& ops = e.x.plan->ops;
  constexpr std::uint64_t kWarmupOps = 64;
  Buf sbuf(e.x.plan->max_bytes), rbuf(e.x.plan->max_bytes);
  auto* sd = reinterpret_cast<double*>(sbuf.get());
  auto* rd = reinterpret_cast<double*>(rbuf.get());

  Budget budget(e.x, e.spans, 1.0);
  for (std::uint64_t k = 0;; ++k) {
    if (k % kCollCheckEvery == 0) {
      std::uint64_t stop = e.timer() && budget.spent() ? 1 : 0;
      c.bcast(&stop, 8, 0);
      if (stop != 0) break;
    }
    const CollOp& op = ops[k % ops.size()];
    const std::uint64_t key = payload_key(seed, world, k);
    const std::size_t elems = op.bytes / 8;
    auto block = [&](std::byte* base, int r) {
      return base + static_cast<std::size_t>(r) * op.bytes;
    };
    // Untimed: this op's operands.
    if (op.kind == kAllreduce) fill_reduce_input(sd, elems, key, me);
    if (op.kind == kAlltoall)
      for (int d = 0; d < n; ++d)
        fill_payload(block(sbuf.get(), d), op.bytes, payload_key(key, me, d));
    if (op.kind == kBcast && me == op.root) fill_payload(rbuf.get(), op.bytes, key);

    std::uint64_t t0 = now_ns();
    {
      Scoped step(&e.spans, SpanName::kStep);
      Scoped s(&e.spans, coll_span(op.kind));
      switch (op.kind) {
        case kAllreduce:
          c.allreduce_f64(sd, rd, elems, Comm::ReduceOp::kSum);
          break;
        case kAlltoall: c.alltoall(sbuf.get(), op.bytes, rbuf.get()); break;
        case kBcast: c.bcast(rbuf.get(), op.bytes, op.root); break;
        default: c.barrier(); break;
      }
    }
    std::uint64_t t1 = now_ns();
    if (e.timer() && k >= kWarmupOps) e.sample(op.kind, op.bytes, t1 - t0);

    bool ok = true;
    if (op.kind == kAllreduce) ok = reduce_ok(rd, elems, key, n);
    if (op.kind == kAlltoall)
      for (int s = 0; s < n; ++s)
        ok &= payload_ok(block(rbuf.get(), s), op.bytes, payload_key(key, s, me));
    if (op.kind == kBcast) ok = payload_ok(rbuf.get(), op.bytes, key);
    e.tally.count(ok);
  }
}

// --- standalone layer probes (traced worlds, rank 0) -------------------------

/// Time the copy engines, the fold kernel and the LMT policy on this
/// workload's operand sizes, each in batches under one span.
void layer_probes(RankEnv& e) {
  constexpr int kBatch = 16, kPolicyBatch = 256, kMaxBatches = 250;
  const Plan& p = *e.x.plan;
  const std::uint64_t per_probe = e.x.budget_ns / 20;
  std::size_t maxb = *std::max_element(p.copy_sizes.begin(), p.copy_sizes.end());
  maxb = std::max<std::size_t>(
      maxb, *std::max_element(p.fold_sizes.begin(), p.fold_sizes.end()));
  Buf a(maxb), b(maxb);
  fill_payload(a.get(), maxb, 1);

  std::size_t i = 0;
  for (std::uint64_t end = now_ns() + per_probe, nb = 0;
       now_ns() < end && nb < kMaxBatches; ++nb, i += kBatch) {
    auto size = [&](int j) { return p.copy_sizes[(i + j) % p.copy_sizes.size()]; };
    {
      Scoped s(&e.spans, SpanName::kCachedMemcpy);
      for (int j = 0; j < kBatch; ++j) nemo::shm::cached_memcpy(b.get(), a.get(), size(j));
    }
    {
      Scoped s(&e.spans, SpanName::kNtMemcpy);
      for (int j = 0; j < kBatch; ++j) nemo::shm::nt_memcpy(b.get(), a.get(), size(j));
    }
    for (int j = 0; j < kBatch; ++j) e.log.copy_bytes += size(j);
  }

  auto* da = reinterpret_cast<double*>(a.get());
  auto* db = reinterpret_cast<double*>(b.get());
  fill_reduce_input(da, maxb / 8, 1, 0);
  fill_reduce_input(db, maxb / 8, 2, 0);
  const nemo::simd::Kernel kernel = e.c.engine().simd_kernel();
  i = 0;
  for (std::uint64_t end = now_ns() + per_probe, nb = 0;
       now_ns() < end && nb < kMaxBatches; ++nb, i += kBatch) {
    auto elems = [&](int j) { return p.fold_sizes[(i + j) % p.fold_sizes.size()] / 8; };
    {
      Scoped s(&e.spans, SpanName::kFold);
      for (int j = 0; j < kBatch; ++j)
        nemo::simd::fold(kernel, nemo::simd::Op::kMax, db, da, elems(j));
    }
    for (int j = 0; j < kBatch; ++j) e.log.fold_bytes += elems(j) * 8;
  }

  std::uint64_t kinds = 0;
  i = 0;
  for (std::uint64_t end = now_ns() + per_probe, nb = 0;
       now_ns() < end && nb < kMaxBatches; ++nb, i += kPolicyBatch) {
    {
      Scoped s(&e.spans, SpanName::kResolveKind);
      for (int j = 0; j < kPolicyBatch; ++j)
        kinds += static_cast<std::uint64_t>(e.c.engine().resolve_kind(
            p.copy_sizes[(i + j) % p.copy_sizes.size()], 1, false));
    }
    e.log.policy_calls += kPolicyBatch;
  }
  e.log.sink += kinds;
}

void rank_main(Comm& c, const WorldCtx& x) {
  RankLog& log = x.res->log(c.rank());
  if (c.rank() == 0) log.fn_start_ns = now_ns();
  SpanLog spans = x.traced ? x.res->span_log(c.rank()) : SpanLog{};
  RankEnv e{c, x, spans, log, Tally{&log.attempted, &log.failed}};
  try {
    // Counters are read only after a hard barrier, so every rank's deltas
    // cover the same section, and only through the read-only accessors.
    c.hard_barrier();
    LayerCounts before = read_counts(c);
    switch (x.opt->workload) {
      case Workload::kSmallStream: small_stream(e); break;
      case Workload::kBulkExchange: bulk_exchange(e); break;
      case Workload::kCollMix: coll_mix(e); break;
    }
    c.hard_barrier();
    LayerCounts after = read_counts(c);
    for (int i = 0; i < cCountN; ++i) log.counts.v[i] += after.v[i] - before.v[i];
    if (x.traced && c.rank() == 0) layer_probes(e);
    c.hard_barrier();
  } catch (const nemo::resil::PeerDeadError&) {
    ++log.failed;
    throw;
  }
  if (c.rank() == 0) {
    x.res->end_world(static_cast<int>(x.world));
    log.fn_end_ns = now_ns();
  }
}

std::vector<int> affinity_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cores;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cores;
  for (int i = 0; i < CPU_SETSIZE; ++i)
    if (CPU_ISSET(i, &set)) cores.push_back(i);
  return cores;
}

std::string auto_path(nemo::core::Engine& eng, std::size_t bytes) {
  nemo::core::World& w = eng.world();
  if (!eng.policy().use_lmt(bytes, false, w.core_of(0), w.core_of(1)))
    return bytes <= w.tuning().fastbox_max ? "eager-fastbox" : "eager-queue";
  return std::string("rndv-") + nemo::lmt::to_string(eng.resolve_kind(bytes, 1, false));
}

HostFacts probe_host(nemo::core::Config cfg, const nemo::Topology& topo,
                     int affinity) {
  HostFacts f;
  f.nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  f.affinity_cores = affinity;
  int core = cfg.core_binding.empty() ? 0 : cfg.core_binding[0];
  for (const nemo::CacheDomain& d : topo.caches) {
    if (!d.contains(core)) continue;
    if (d.level == 2) f.l2_bytes = d.size_bytes;
    if (d.level == 3) f.l3_bytes = d.size_bytes;
  }
  // A threads-mode twin of the workload's world: same binding and tuning,
  // so the policy answers are the ones the measured worlds get.
  cfg.mode = nemo::core::LaunchMode::kThreads;
  nemo::core::run(cfg, [&](Comm& c) {
    if (c.rank() != 0) return;
    nemo::core::Engine& eng = c.engine();
    nemo::core::World& w = c.world();
    f.simd_kernel = nemo::simd::kernel_name(eng.simd_kernel());
    f.cma_usable = w.cma_ok();
    f.fastbox_max = w.tuning().fastbox_max;
    f.coll_activation = w.tuning().coll_activation;
    const nemo::tune::PlacementTuning& row =
        eng.policy().tuning_row(w.core_of(0), w.core_of(1));
    f.lmt_activation = row.lmt_activation;
    f.nt_min = row.nt_min;
    const std::pair<const char*, std::size_t> bands[] = {
        {"8B", 8},           {"1984B", 1984},    {"4KiB", 4096},
        {"64KiB", 64 << 10}, {"256KiB", 256 << 10}, {"1MiB", 1 << 20},
        {"8MiB", 8 << 20}};
    for (const auto& [name, bytes] : bands)
      f.auto_paths.emplace_back(name, auto_path(eng, bytes));
  });
  return f;
}

}  // namespace

RunData run_workload(const Options& opt, Results& res) {
  const int nranks = workload_ranks(opt.workload);
  std::vector<int> cores = affinity_cores();
  if (static_cast<int>(cores.size()) < nranks)
    throw std::runtime_error(
        std::string(workload_name(opt.workload)) + " needs " +
        std::to_string(nranks) + " cores, one per rank, but the affinity mask "
        "allows " + std::to_string(cores.size()) +
        "; refusing to report time-sliced numbers");

  nemo::core::Config cfg;
  cfg.nranks = nranks;
  cfg.mode = opt.workload == Workload::kBulkExchange
                 ? nemo::core::LaunchMode::kProcesses
                 : nemo::core::LaunchMode::kThreads;
  cfg.core_binding.assign(cores.begin(), cores.begin() + nranks);
  // The formula table, never a persisted tuning cache: runs must not depend
  // on what an earlier calibration left in the user's home directory.
  const nemo::Topology topo = nemo::detect_host();
  cfg.tuning = nemo::tune::formula_defaults(topo);

  RunData out;
  out.host = probe_host(cfg, topo, static_cast<int>(cores.size()));
  const Plan plan = make_plan(opt, nranks, out.host.l2_bytes);
  out.max_buffer_bytes = static_cast<std::uint32_t>(plan.max_bytes);

  // About one world per measured second, at most 16: the runtime's speed
  // differs from one world to the next (fresh arena pages, fresh threads),
  // and the median of many worlds is what makes a run repeat. Traced runs
  // alternate untraced and traced worlds, so the tracing overhead is a
  // paired in-process ratio.
  const int measured =
      std::clamp(static_cast<int>(std::lround(opt.seconds)), 4, Results::kMaxWorlds) & ~1;
  out.traced_worlds = opt.trace ? measured / 2 : 0;
  const std::size_t span_quota =
      out.traced_worlds == 0
          ? 0
          : res.span_cap() / static_cast<std::size_t>(out.traced_worlds) -
                kProbeSpans;
  for (int w = 0; w < measured + kSetupOnlyWorlds; ++w) {
    const bool setup_only = w >= measured;
    WorldCtx x{&opt, &plan, &res, static_cast<std::uint64_t>(w),
               opt.trace && w % 2 == 1,
               static_cast<std::uint64_t>(opt.seconds * 1e9 / measured),
               span_quota};
    RankLog& l0 = res.log(0);
    l0.fn_start_ns = l0.fn_end_ns = 0;
    // Forked ranks inherit unflushed stdio buffers and would print them again.
    std::fflush(nullptr);
    std::uint64_t t0 = now_ns();
    bool ok = setup_only
                  ? nemo::core::run(cfg, [](Comm&) {})
                  : nemo::core::run(cfg, [&](Comm& c) { rank_main(c, x); });
    std::uint64_t t1 = now_ns();
    if (!ok) ++out.child_failures;
    if (!setup_only) ++out.worlds;
    std::uint64_t body = l0.fn_end_ns > l0.fn_start_ns ? l0.fn_end_ns - l0.fn_start_ns : 0;
    out.setup_s.push_back(static_cast<double>(t1 - t0 - body) * 1e-9);
  }
  // Before any analysis allocates: this process plus the largest forked
  // rank (ru_maxrss is in KiB).
  rusage self{}, kids{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &kids);
  out.peak_rss_mib = static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
  return out;
}

}  // namespace perfbench
