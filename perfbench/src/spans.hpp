// In-memory span recorder for the traced run. The benchmark opens a span
// around each of its own calls into a runtime layer (post, wait, collective,
// pointer chase, standalone copy/fold/policy probes); spans of one step or
// operation share an id. Recording is off (a null log) in untraced worlds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint16_t {
  kStep,          ///< One workload step / operation (the root).
  kIsend,         ///< core: Comm::isend
  kIrecv,         ///< core: Comm::irecv
  kSend,          ///< core: Comm::send
  kRecv,          ///< core: Comm::recv
  kWaitall,       ///< core: Comm::waitall
  kAllreduce,     ///< coll: Comm::allreduce_f64
  kAlltoall,      ///< coll: Comm::alltoall
  kBcast,         ///< coll: Comm::bcast
  kBarrier,       ///< coll: Comm::barrier
  kChase,         ///< app: the pointer-chase compute probe
  kCachedMemcpy,  ///< shm: shm::cached_memcpy
  kNtMemcpy,      ///< shm: shm::nt_memcpy
  kFold,          ///< simd: simd::fold
  kResolveKind,   ///< lmt: Engine::resolve_kind (a batch of calls)
  kCount
};

const char* span_name(SpanName n);
/// Layer a span's self time is charged to: the src/ module whose public
/// function the span wraps ("step" for the root, "app" for the chase).
const char* span_layer(SpanName n);

struct Span {
  std::uint64_t start_ns;
  std::uint32_t dur_ns;
  SpanName name;
  std::uint16_t rank;
  std::uint32_t parent;  ///< Index in the same rank's log, or kNoParent.
  std::uint32_t op;      ///< Shared by every span of one step/operation.
};
inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

/// One rank's append-only span log (single writer: the rank's thread).
class SpanLog {
 public:
  SpanLog() = default;
  SpanLog(Span* data, std::uint64_t* count, std::size_t cap, int rank)
      : data_(data), count_(count), cap_(cap), rank_(rank) {}

  [[nodiscard]] bool on() const { return data_ != nullptr; }
  [[nodiscard]] std::size_t size() const { return on() ? *count_ : 0; }

  /// Open a span under the innermost open one; kNoParent when off or full.
  std::uint32_t begin(SpanName name);
  void end(std::uint32_t idx);

 private:
  Span* data_ = nullptr;
  std::uint64_t* count_ = nullptr;
  std::size_t cap_ = 0;
  int rank_ = 0;
  std::uint32_t open_ = kNoParent;
  std::uint32_t next_op_ = 0;
};

/// RAII span; a no-op on a null or disabled log.
class Scoped {
 public:
  Scoped(SpanLog* log, SpanName name)
      : log_(log != nullptr && log->on() ? log : nullptr),
        idx_(log_ != nullptr ? log_->begin(name) : kNoParent) {}
  ~Scoped() {
    if (log_ != nullptr) log_->end(idx_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t idx_;
};

/// Self-time breakdown of the step trees in a set of span logs.
struct SpanSummary {
  std::uint64_t steps = 0;
  double step_ns = 0;  ///< Sum of root step durations.
  std::map<std::string, double> self_ns;  ///< Per layer, inside steps.
  double uncovered_ns = 0;  ///< Step time no child span covers.
  /// Durations (ns) per span name, steps and standalone probes alike.
  std::map<SpanName, std::vector<double>> dur_ns;
};

/// Summarise rank logs (`spans[r]`, `counts[r]` entries each). Only rank
/// `step_rank`'s step trees feed the self-time split (the rank whose step
/// times are the end-to-end numbers); durations come from every rank.
SpanSummary summarise(const std::vector<const Span*>& spans,
                      const std::vector<std::size_t>& counts, int step_rank);

/// Write every span as Chrome trace-event JSON ("X" events, one tid per
/// rank, span id / parent / op in args). False on I/O failure.
bool write_trace_json(const std::string& path,
                      const std::vector<const Span*>& spans,
                      const std::vector<std::size_t>& counts);

}  // namespace perfbench
