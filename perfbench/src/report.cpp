#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

namespace perfbench {

namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

struct Band {
  const char* name;
  std::uint32_t lo, hi;  ///< [lo, hi)
};
constexpr Band kBands[] = {{"64k-256k", 64 << 10, 256 << 10},
                           {"256k-1m", 256 << 10, 1 << 20},
                           {"1m-8m", 1 << 20, (8 << 20) + 1}};

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// sum(numer) / sum(ns), per second.
double rate(const std::vector<Rec>& recs,
            const std::function<double(const Rec&)>& numer) {
  double num = 0, ns = 0;
  for (const Rec& r : recs) {
    num += numer(r);
    ns += r.ns;
  }
  return ns == 0 ? 0 : num / ns * 1e9;
}

std::vector<double> us(const std::vector<Rec>& recs, double scale = 1.0) {
  std::vector<double> v;
  v.reserve(recs.size());
  for (const Rec& r : recs) v.push_back(r.ns * scale / 1e3);
  return v;
}

/// The workload's three application-level measures, from untraced or from
/// traced worlds.
struct Primary {
  Timing lat;            ///< µs per application operation.
  double ops_per_s = 0;  ///< Operations per second.
  double gib_per_s = 0;  ///< Payload GiB per second.
  std::size_t worlds = 0;  ///< Worlds the rates are the median of.
};

/// One world's measures.
Primary primary_in(Workload w, const Results& res, bool traced, int world) {
  Primary p;
  const double nranks = res.nranks();
  switch (w) {
    case Workload::kSmallStream: {
      // Latency: 8 B half round trip. Rates: the 64-message windows.
      p.lat = timing(us(res.select({kPingpong}, traced, world), 0.5));
      std::vector<Rec> win = res.select({kWindow}, traced, world);
      p.ops_per_s = rate(win, [](const Rec&) { return 64.0; });
      p.gib_per_s = rate(win, [](const Rec& r) { return r.bytes() / kGiB; });
      break;
    }
    case Workload::kBulkExchange: {
      // Latency: one step (transfer + compute). Bandwidth: payload bytes
      // (both directions) over transfer time.
      std::vector<Rec> steps = res.select({kStepPingpong, kStepBidir}, traced, world);
      p.lat = timing(us(steps));
      p.ops_per_s = rate(steps, [](const Rec&) { return 1.0; });
      p.gib_per_s = rate(res.select({kXferPingpong, kXferBidir}, traced, world),
                         [](const Rec& r) { return 2.0 * r.bytes() / kGiB; });
      break;
    }
    case Workload::kCollMix: {
      // Latency: one collective. Bandwidth: each rank's operand bytes.
      std::vector<Rec> ops =
          res.select({kAllreduce, kAlltoall, kBcast, kBarrier}, traced, world);
      p.lat = timing(us(ops));
      p.ops_per_s = rate(ops, [](const Rec&) { return 1.0; });
      p.gib_per_s = rate(ops, [&](const Rec& r) {
        double b = r.bytes();
        return (r.tag() == kAlltoall ? b * nranks : b) / kGiB;
      });
      break;
    }
  }
  return p;
}

/// Each world gives its latency percentiles and its rates (total work over
/// total time); the run reports the median world, which a burst of host
/// noise inside one world cannot move. The sample count is the pooled one.
Primary primary(Workload w, const Results& res, bool traced) {
  Primary p;
  std::vector<double> p50, p99, ops, gib;
  for (int world = 0; world < res.worlds(); ++world) {
    // A world of the other kind has no samples; a short traced world may
    // have rates but no latency samples past its warm-up.
    Primary pw = primary_in(w, res, traced, world);
    if (pw.lat.n > 0) {
      p50.push_back(pw.lat.p50);
      p99.push_back(pw.lat.p99);
      p.lat.n += pw.lat.n;
    }
    if (pw.ops_per_s > 0) {
      ops.push_back(pw.ops_per_s);
      gib.push_back(pw.gib_per_s);
    }
  }
  p.lat.p50 = median(p50);
  p.lat.p99 = median(p99);
  p.ops_per_s = median(ops);
  p.gib_per_s = median(gib);
  p.worlds = ops.size();
  return p;
}

std::uint64_t total(const Results& res, Count c) {
  std::uint64_t t = 0;
  for (int r = 0; r < res.nranks(); ++r) t += res.log(r).counts[c];
  return t;
}

SpanSummary span_summary(const Results& res) {
  std::vector<const Span*> spans;
  std::vector<std::size_t> counts;
  for (int r = 0; r < res.nranks(); ++r) {
    spans.push_back(res.spans(r));
    counts.push_back(res.span_count(r));
  }
  return summarise(spans, counts, 0);
}

std::vector<double> durations(const SpanSummary& s,
                              std::initializer_list<SpanName> names) {
  std::vector<double> out;
  for (SpanName n : names) {
    auto it = s.dur_ns.find(n);
    if (it != s.dur_ns.end()) out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

double span_total_ns(const SpanSummary& s, SpanName n) {
  double t = 0;
  for (double d : durations(s, {n})) t += d;
  return t;
}

}  // namespace

std::uint64_t attempted(const Results& res) {
  std::uint64_t t = 0;
  for (int r = 0; r < res.nranks(); ++r) t += res.log(r).attempted;
  return t;
}

std::uint64_t failed(const Results& res, const RunData& run) {
  std::uint64_t t = run.child_failures;
  for (int r = 0; r < res.nranks(); ++r) t += res.log(r).failed;
  return t;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Timing timing(std::vector<double> v) {
  Timing t;
  t.n = v.size();
  t.p50 = quantile(v, 0.5);
  t.p99 = quantile(std::move(v), 0.99);
  return t;
}

std::vector<Metric> end_to_end(const Options& opt, const Results& res,
                               const RunData& run) {
  Primary p = primary(opt.workload, res, false);
  return {{"setup_s", median(run.setup_s), "s"},
          {"peak_rss_mib", run.peak_rss_mib, "MiB"},
          {"lat_us_p50", p.lat.p50, "us"},
          {"lat_us_p99", p.lat.p99, "us"},
          {"ops_per_s", p.ops_per_s, "1/s"},
          {"gib_per_s", p.gib_per_s, "GiB/s"}};
}

std::vector<Metric> per_layer(const Options& opt, const Results& res,
                              const RunData& run) {
  auto c = [&](Count k) { return static_cast<double>(total(res, k)); };
  const Primary untraced = primary(opt.workload, res, false);
  const Primary traced = primary(opt.workload, res, true);
  const SpanSummary spans = span_summary(res);
  const RankLog& r0 = res.log(0);
  std::vector<Metric> m;

  // core
  Timing post = timing(durations(spans, {SpanName::kIsend, SpanName::kIrecv}));
  m.push_back({"core.post_ns_p50", post.p50, "ns"});
  m.push_back({"core.post_ns_p99", post.p99, "ns"});
  m.push_back({"core.wait_ns_p50", median(durations(spans, {SpanName::kWaitall})), "ns"});
  const double msgs = c(cEagerSent) + c(cRndvSent);
  m.push_back({"core.progress_passes_per_msg", ratio(c(cProgressPasses), msgs), "1/msg"});
  m.push_back({"core.um_pool_hit_ratio",
               ratio(c(cUmPoolHits), c(cUmPoolHits) + c(cUmPoolMisses)), "ratio"});

  // shm
  const double cached_gibs = ratio(r0.copy_bytes / kGiB,
                                   span_total_ns(spans, SpanName::kCachedMemcpy) * 1e-9);
  m.push_back({"shm.fastbox_hit_ratio",
               ratio(c(cFastboxHits), c(cFastboxHits) + c(cFastboxFallbacks)), "ratio"});
  m.push_back({"shm.eager_queue_frac",
               ratio(c(cPathEager), c(cPathEager) + c(cPathFastbox)), "ratio"});
  m.push_back({"shm.drain_exhausted_per_pass",
               ratio(c(cDrainExhausted), c(cProgressPasses)), "1/pass"});
  m.push_back({"shm.ring_stalls_per_rndv", ratio(c(cRingStalls), c(cRndvSent)), "1/msg"});
  m.push_back({"shm.copy_gbps_cached", cached_gibs, "GiB/s"});
  m.push_back({"shm.copy_gbps_nt",
               ratio(r0.copy_bytes / kGiB, span_total_ns(spans, SpanName::kNtMemcpy) * 1e-9),
               "GiB/s"});
  m.push_back({"shm.copy_efficiency", ratio(untraced.gib_per_s, cached_gibs), "ratio"});

  // lmt
  m.push_back({"lmt.path.eager-fastbox", c(cPathFastbox), "count"});
  m.push_back({"lmt.path.eager-queue", c(cPathEager), "count"});
  m.push_back({"lmt.path.rndv-default", c(cPathDefault), "count"});
  m.push_back({"lmt.path.rndv-knem", c(cPathKnem), "count"});
  m.push_back({"lmt.path.rndv-cma", c(cPathCma), "count"});
  m.push_back({"lmt.path.rndv-vmsplice", c(cPathVmsplice) + c(cPathWritev), "count"});
  const std::vector<Rec> pp = res.select({kXferPingpong});
  const std::vector<Rec> bidir = res.select({kXferBidir});
  double log_ratio = 0;
  int bands_with_both = 0;
  for (const Band& b : kBands) {
    std::vector<double> one_way, exch;
    for (const Rec& r : pp)
      if (r.bytes() >= b.lo && r.bytes() < b.hi) one_way.push_back(r.ns / 2e3);
    for (const Rec& r : bidir)
      if (r.bytes() >= b.lo && r.bytes() < b.hi) exch.push_back(r.ns / 1e3);
    double p50 = median(one_way);
    m.push_back({std::string("lmt.rndv_us_p50.") + b.name, p50, "us"});
    if (!one_way.empty() && !exch.empty()) {
      log_ratio += std::log(median(exch) / (2 * p50));
      ++bands_with_both;
    }
  }
  m.push_back({"lmt.bidir_over_pingpong",
               bands_with_both == 0 ? 0 : std::exp(log_ratio / bands_with_both), "ratio"});
  m.push_back({"lmt.policy_ns",
               ratio(span_total_ns(spans, SpanName::kResolveKind),
                     static_cast<double>(r0.policy_calls)),
               "ns"});
  // Computed, not measured: single-copy bytes (KNEM, CMA) count once,
  // staged CMA and every other path (eager cells, fastbox, copy ring) twice.
  const double sent = c(cBytesSent);
  const double single = c(cKnemBytes) + c(cCmaBytes);
  const double staged = c(cCmaStageBytes);
  m.push_back({"lmt.copies_per_byte",
               ratio(single + 2 * staged + 2 * std::max(0.0, sent - single - staged), sent),
               "copies/B"});
  m.push_back({"lmt.ws_inflation",
               ratio(median(us(res.select({kChaseAfter}))),
                     median(us(res.select({kChaseIdle})))),
               "ratio"});

  // knem
  m.push_back({"knem.bytes_copied", c(cKnemBytes), "B"});
  m.push_back({"knem.cma_bytes", c(cCmaBytes), "B"});
  m.push_back({"knem.cma_stage_fallbacks", c(cCmaStageFallbacks), "count"});
  m.push_back({"knem.dma_recv_cmds", c(cDmaRecvCmds), "count"});

  // coll
  const std::pair<const char*, Tag> colls[] = {{"allreduce", kAllreduce},
                                               {"alltoall", kAlltoall},
                                               {"bcast", kBcast},
                                               {"barrier", kBarrier}};
  for (const auto& [name, tag] : colls)
    m.push_back({std::string("coll.") + name + "_us_p50",
                 median(us(res.select({tag}))), "us"});
  const double coll_ops = (c(cCollShmOps) + c(cCollP2pOps)) / res.nranks();
  m.push_back({"coll.shm_frac", ratio(c(cCollShmOps), c(cCollShmOps) + c(cCollP2pOps)),
               "ratio"});
  m.push_back({"coll.shm_bytes_per_op", ratio(c(cCollShmBytes), coll_ops), "B"});
  m.push_back({"coll.epoch_stalls_per_op", ratio(c(cCollEpochStalls), coll_ops), "1/op"});
  m.push_back({"coll.fallbacks", c(cCollFallbacks), "count"});

  // simd
  m.push_back({"simd.fold_gbps",
               ratio(r0.fold_bytes / kGiB, span_total_ns(spans, SpanName::kFold) * 1e-9),
               "GiB/s"});
  m.push_back({"simd.fold_bytes_per_op", ratio(c(cFoldBytes), c(cFoldOps)), "B"});

  // resil and failures
  m.push_back({"resil.peer_deaths", c(cPeerDeaths), "count"});
  m.push_back({"resil.timeout_aborts", c(cTimeoutAborts), "count"});
  m.push_back({"failed_frac",
               ratio(static_cast<double>(failed(res, run)),
                     static_cast<double>(attempted(res))),
               "ratio"});

  // The traced run itself: rank 0's step time split into each layer's self
  // time plus what no span covers, and what tracing cost.
  const double steps = static_cast<double>(std::max<std::uint64_t>(spans.steps, 1));
  m.push_back({"trace.spans", static_cast<double>(r0.nspan), "count"});
  m.push_back({"trace.step_us_mean", spans.step_ns / steps / 1e3, "us"});
  for (const char* layer : {"core", "coll", "app"}) {
    auto it = spans.self_ns.find(layer);
    double self = it == spans.self_ns.end() ? 0 : it->second;
    m.push_back({std::string("trace.self_us.") + layer, self / steps / 1e3, "us"});
  }
  m.push_back({"trace.uncovered_us", spans.uncovered_ns / steps / 1e3, "us"});
  m.push_back({"trace.uncovered_frac", ratio(spans.uncovered_ns, spans.step_ns), "ratio"});
  m.push_back({"trace.overhead_frac", ratio(untraced.ops_per_s, traced.ops_per_s) - 1,
               "ratio"});
  return m;
}

std::string report_text(const Options& opt, const Results& res,
                        const RunData& run) {
  const HostFacts& h = run.host;
  const Primary p = primary(opt.workload, res, false);
  std::string s;
  char line[512];
  std::snprintf(line, sizeof line,
                "perfbench %s seed=%llu seconds=%g trace=%d worlds=%d "
                "(traced %d) setup_samples=%zu\n",
                workload_name(opt.workload),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, run.worlds, run.traced_worlds,
                run.setup_s.size());
  s += line;
  std::snprintf(line, sizeof line,
                "host: nproc=%d affinity_cores=%d l2=%zu KiB l3=%zu KiB "
                "simd=%s cma=%s fastbox_max=%zu lmt_activation=%zu "
                "coll_activation=%zu nt_min=%zu\n",
                h.nproc, h.affinity_cores, h.l2_bytes >> 10, h.l3_bytes >> 10,
                h.simd_kernel.c_str(), h.cma_usable ? "usable" : "unusable",
                h.fastbox_max, h.lmt_activation, h.coll_activation, h.nt_min);
  s += line;
  s += "auto path:";
  for (const auto& [band, path] : h.auto_paths) s += " " + band + "=" + path;
  s += "\n";
  std::snprintf(line, sizeof line,
                "buffers: largest per-rank payload buffer %u KiB; L3 %zu KiB%s\n",
                run.max_buffer_bytes >> 10, h.l3_bytes >> 10,
                2ull * run.max_buffer_bytes * 2 <= h.l3_bytes
                    ? " (both ranks' buffers fit in L3: transfers run in "
                      "cache, not at DRAM bandwidth)"
                    : "");
  s += line;
  // Per-world spread, to tell a noisy host from a noisy world.
  std::string lat = "per-world lat_us_p50:", ops = "per-world ops_per_s:";
  for (int w = 0; w < res.worlds(); ++w) {
    Primary pw = primary_in(opt.workload, res, false, w);
    if (pw.lat.n == 0) continue;
    lat += fmt(" %.4g", pw.lat.p50);
    ops += fmt(" %.4g", pw.ops_per_s);
  }
  s += lat + "\n" + ops + "\n";

  struct Named {
    std::string name;
    double value;
    std::size_t n;
  };
  std::vector<Named> named;
  switch (opt.workload) {
    case Workload::kSmallStream:
      named = {{"small_lat_us_p50", p.lat.p50, p.lat.n},
               {"small_lat_us_p99", p.lat.p99, p.lat.n},
               {"small_msg_rate_mps", p.ops_per_s / 1e6, p.worlds}};
      break;
    case Workload::kBulkExchange:
      named = {{"bulk_gbps", p.gib_per_s, p.worlds},
               {"bulk_step_us_p50", p.lat.p50, p.lat.n},
               {"bulk_step_us_p99", p.lat.p99, p.lat.n}};
      break;
    case Workload::kCollMix:
      named = {{"coll_ops_per_s", p.ops_per_s, p.worlds},
               {"coll_op_us_p50", p.lat.p50, p.lat.n},
               {"coll_op_us_p99", p.lat.p99, p.lat.n}};
      break;
  }
  named.push_back({"setup_s", median(run.setup_s), run.setup_s.size()});
  named.push_back({"failed_frac",
                   ratio(static_cast<double>(failed(res, run)),
                         static_cast<double>(attempted(res))),
                   attempted(res)});
  for (const Named& n : named) {
    std::snprintf(line, sizeof line, "  %-20s %14.6g  (n=%zu)\n", n.name.c_str(),
                  n.value, n.n);
    s += line;
  }
  return s;
}

std::string result_json(bool correct, std::uint64_t attempted_ops,
                        std::uint64_t failed_ops,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted_ops);
  s += ", \"failed\": " + std::to_string(failed_ops);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    s += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
         fmt("%.17g", v) + ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
