#include "spans.hpp"

#include <algorithm>
#include <cstdio>

#include "common/timing.hpp"

namespace perfbench {

namespace {

struct NameInfo {
  const char* name;
  const char* layer;
};

constexpr NameInfo kNames[] = {
    {"step", "step"},
    {"core.isend", "core"},
    {"core.irecv", "core"},
    {"core.send", "core"},
    {"core.recv", "core"},
    {"core.waitall", "core"},
    {"coll.allreduce", "coll"},
    {"coll.alltoall", "coll"},
    {"coll.bcast", "coll"},
    {"coll.barrier", "coll"},
    {"app.chase", "app"},
    {"shm.cached_memcpy", "shm"},
    {"shm.nt_memcpy", "shm"},
    {"simd.fold", "simd"},
    {"lmt.resolve_kind", "lmt"},
};
static_assert(sizeof kNames / sizeof kNames[0] ==
              static_cast<std::size_t>(SpanName::kCount));

}  // namespace

const char* span_name(SpanName n) {
  return kNames[static_cast<std::size_t>(n)].name;
}
const char* span_layer(SpanName n) {
  return kNames[static_cast<std::size_t>(n)].layer;
}

std::uint32_t SpanLog::begin(SpanName name) {
  if (*count_ >= cap_) return kNoParent;
  auto idx = static_cast<std::uint32_t>(*count_);
  if (open_ == kNoParent) ++next_op_;
  Span& s = data_[idx];
  s.name = name;
  s.rank = static_cast<std::uint16_t>(rank_);
  s.parent = open_;
  s.op = next_op_;
  s.dur_ns = 0;
  ++*count_;
  open_ = idx;
  s.start_ns = nemo::now_ns();
  return idx;
}

void SpanLog::end(std::uint32_t idx) {
  std::uint64_t t = nemo::now_ns();
  if (idx == kNoParent) return;
  Span& s = data_[idx];
  s.dur_ns = static_cast<std::uint32_t>(t - s.start_ns);
  open_ = s.parent;
}

SpanSummary summarise(const std::vector<const Span*>& spans,
                      const std::vector<std::size_t>& counts, int step_rank) {
  SpanSummary out;
  for (std::size_t r = 0; r < spans.size(); ++r) {
    const Span* log = spans[r];
    std::size_t n = counts[r];
    std::vector<double> child_ns(n, 0.0);
    std::vector<std::uint32_t> root(n, 0);
    // Parents precede their children in the log, so one forward pass
    // resolves roots and totals each span's children.
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t p = log[i].parent;
      root[i] = p == kNoParent ? static_cast<std::uint32_t>(i) : root[p];
      if (p != kNoParent) child_ns[p] += log[i].dur_ns;
      out.dur_ns[log[i].name].push_back(log[i].dur_ns);
    }
    if (static_cast<int>(r) != step_rank) continue;
    for (std::size_t i = 0; i < n; ++i) {
      if (log[root[i]].name != SpanName::kStep) continue;
      double self = log[i].dur_ns - child_ns[i];
      if (log[i].parent == kNoParent) {
        ++out.steps;
        out.step_ns += log[i].dur_ns;
        out.uncovered_ns += self;
      } else {
        out.self_ns[span_layer(log[i].name)] += self;
      }
    }
  }
  return out;
}

bool write_trace_json(const std::string& path,
                      const std::vector<const Span*>& spans,
                      const std::vector<std::size_t>& counts) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t t0 = UINT64_MAX;
  for (std::size_t r = 0; r < spans.size(); ++r)
    for (std::size_t i = 0; i < counts[r]; ++i)
      t0 = std::min(t0, spans[r][i].start_ns);
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (std::size_t r = 0; r < spans.size(); ++r) {
    for (std::size_t i = 0; i < counts[r]; ++i) {
      const Span& s = spans[r][i];
      long long parent = s.parent == kNoParent ? -1 : s.parent;
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":0,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%lld,\"op\":%u}}",
                   first ? "" : ",", span_name(s.name), span_layer(s.name), r,
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3, i, parent, s.op);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
