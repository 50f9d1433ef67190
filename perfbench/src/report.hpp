// Turning the logs of one run into named metrics, the human-readable report
// and the one-line JSON result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// p50/p99 of a sample set, with its size.
struct Timing {
  double p50 = 0, p99 = 0;
  std::size_t n = 0;
};
Timing timing(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// Payloads verified by every rank, and those that failed (mismatches,
/// peer-death verdicts, worlds whose forked ranks exited badly).
std::uint64_t attempted(const Results& res);
std::uint64_t failed(const Results& res, const RunData& run);

/// The end-to-end metrics (names as in BENCHMARK.json), from untraced worlds.
std::vector<Metric> end_to_end(const Options& opt, const Results& res,
                               const RunData& run);
/// The per-layer metrics of a traced run (names as in BENCHMARK.json).
std::vector<Metric> per_layer(const Options& opt, const Results& res,
                              const RunData& run);
/// Human-readable report: host facts, each timing with its sample count,
/// the workload's metrics under their workload-specific names.
std::string report_text(const Options& opt, const Results& res,
                        const RunData& run);
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
