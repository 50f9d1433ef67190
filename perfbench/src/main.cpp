// nemo_perfbench: one seeded workload against the public nemo::core API.
//
//   nemo_perfbench --workload small_stream|bulk_exchange|coll_mix
//                  --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints a human-readable report (host facts, every timing with its sample
// count), then, as the last line, one JSON object: correct / attempted /
// failed and the end-to-end metrics (--trace 0) or the per-layer metrics
// of a traced run (--trace 1). Exits 0 only when every payload verified.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "report.hpp"

extern char** environ;

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "nemo_perfbench: %s\nusage: nemo_perfbench --workload "
               "small_stream|bulk_exchange|coll_mix --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Options* opt, std::string* err) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) {
      *err = "missing value for " + a;
      return false;
    }
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      have_workload = workload_from_name(v, &opt->workload);
      if (!have_workload) {
        *err = "unknown workload '" + v + "'";
        return false;
      }
    } else if (a == "--seed") {
      opt->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      opt->seconds = std::strtod(v.c_str(), &end);
      if (!(opt->seconds > 0 && opt->seconds <= 600)) end = nullptr;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") {
        *err = "--trace takes 0 or 1";
        return false;
      }
      opt->trace = v == "1";
      continue;
    } else if (a == "--out-dir") {
      opt->out_dir = v;
      continue;
    } else {
      *err = "unknown argument " + a;
      return false;
    }
    if (a != "--workload" && (end == nullptr || *end != '\0')) {
      *err = "bad value for " + a + ": '" + v + "'";
      return false;
    }
  }
  if (!have_workload) *err = "--workload is required";
  return have_workload;
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fputs(text.c_str(), f) < 0 || std::fclose(f) != 0)
    std::fprintf(stderr, "nemo_perfbench: could not write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string err;
  if (!parse(argc, argv, &opt, &err)) return usage(err.c_str());

  // Hermetic runs: every NEMO_* knob changes what the runtime does, so a
  // number taken with one set is not comparable to any other.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "NEMO_", 5) == 0) {
      std::fprintf(stderr,
                   "nemo_perfbench: refusing to run with %s set; unset every "
                   "NEMO_* variable first\n",
                   *e);
      return 2;
    }
  }

  try {
    const int nranks = workload_ranks(opt.workload);
    // Sample capacity: no workload takes 100k samples per measured second
    // (small_stream's sampled pingpong plus its windows stay near 60k).
    const auto rec_cap = static_cast<std::size_t>(opt.seconds * 100e3) + 50000;
    Results res(nranks, rec_cap, opt.trace ? 65536 : 0);
    RunData run = run_workload(opt, res);

    const std::uint64_t tried = attempted(res), bad = failed(res, run);
    const bool correct = tried > 0 && bad == 0;
    const std::string text = report_text(opt, res, run);
    const std::string json =
        result_json(correct, tried, bad,
                    opt.trace ? per_layer(opt, res, run) : end_to_end(opt, res, run));
    std::fputs(text.c_str(), stdout);

    if (!opt.out_dir.empty()) {
      const std::string stem = opt.out_dir + "/" + workload_name(opt.workload) +
                               "-seed" + std::to_string(opt.seed) + "-trace" +
                               (opt.trace ? "1" : "0");
      write_file(stem + ".txt", text + json + "\n");
      if (opt.trace) {
        std::vector<const Span*> spans;
        std::vector<std::size_t> counts;
        for (int r = 0; r < nranks; ++r) {
          spans.push_back(res.spans(r));
          counts.push_back(res.span_count(r));
        }
        const std::string path = opt.out_dir + "/spans-" +
                                 workload_name(opt.workload) + ".json";
        if (!write_trace_json(path, spans, counts))
          std::fprintf(stderr, "nemo_perfbench: could not write %s\n", path.c_str());
      }
    }
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    if (!correct)
      std::fprintf(stderr, "nemo_perfbench: %llu of %llu operations failed\n",
                   static_cast<unsigned long long>(bad),
                   static_cast<unsigned long long>(tried));
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nemo_perfbench: %s\n", e.what());
    return 2;
  }
}
