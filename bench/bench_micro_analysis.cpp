// Streaming behavioral analysis: wall time and peak memory.
//
// Every R2 is classified at capture time and folded into per-shard partial
// tables. This bench runs the full campaign at several scales and records
// wall seconds, peak RSS and the bytes retained to produce the tables into
// BENCH_analysis.json.
//
// Peak RSS is a *process-wide* high-water mark, so each configuration runs
// in a forked child: the child executes the campaign and reports wall/counts
// through a pipe, the parent reads the child's ru_maxrss from wait4. Running
// every scale in one process would let the largest set the high-water mark
// for all.
//
// --ci [path [year scale]]: one streaming run (default 2018 at scale 256),
// JSON to `path` (default BENCH_analysis.ci.json) — the pre-merge gate's
// memory probes, which write it into its build tree (see
// scripts/check_all.sh).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/paper_data.h"
#include "core/pipeline.h"

namespace {

using namespace orp;

/// What the child ships back over the pipe. Campaign outputs are
/// deterministic per configuration; only the wall varies run to run.
struct ChildReport {
  double wall_seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t r2 = 0;
  std::uint64_t correct = 0;
  std::uint64_t analysis_bytes = 0;
};

struct RunResult {
  ChildReport report;
  long peak_rss_kb = 0;  // ru_maxrss of the child (Linux: kilobytes)
  bool ok = false;
};

RunResult run_forked(int year, std::uint64_t scale) {
  RunResult result;
  int fds[2];
  if (pipe(fds) != 0) return result;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return result;
  }
  if (pid == 0) {
    close(fds[0]);
    core::PipelineConfig cfg;
    cfg.scale = scale;
    cfg.seed = 42;
    cfg.threads = 1;
    const auto t0 = std::chrono::steady_clock::now();
    const core::ScanOutcome o = core::run_measurement(
        year == 2013 ? core::paper_2013() : core::paper_2018(), cfg);
    const auto t1 = std::chrono::steady_clock::now();
    ChildReport r;
    r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    r.events = o.events_executed;
    r.r2 = o.scan.r2_received;
    r.correct = o.analysis.answers.correct;
    r.analysis_bytes = o.analysis_bytes;
    const ssize_t n = write(fds[1], &r, sizeof(r));
    _exit(n == sizeof(r) ? 0 : 1);
  }
  close(fds[1]);
  ssize_t got = 0;
  while (got < static_cast<ssize_t>(sizeof(ChildReport))) {
    const ssize_t n =
        read(fds[0], reinterpret_cast<char*>(&result.report) + got,
             sizeof(ChildReport) - static_cast<std::size_t>(got));
    if (n <= 0) break;
    got += n;
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  if (wait4(pid, &status, 0, &ru) != pid) return result;
  result.peak_rss_kb = ru.ru_maxrss;
  result.ok = got == sizeof(ChildReport) && WIFEXITED(status) &&
              WEXITSTATUS(status) == 0;
  return result;
}

/// Best-of-N: minimum wall (the unloaded estimate on a shared container)
/// and minimum RSS (fork-time noise — page-cache sharing — only inflates).
RunResult best_of(std::uint64_t scale, int runs) {
  RunResult best;
  for (int i = 0; i < runs; ++i) {
    const RunResult r = run_forked(2018, scale);
    if (!r.ok) continue;
    if (!best.ok || r.report.wall_seconds < best.report.wall_seconds)
      best.report = r.report;
    if (!best.ok || r.peak_rss_kb < best.peak_rss_kb)
      best.peak_rss_kb = r.peak_rss_kb;
    best.ok = true;
  }
  return best;
}

bool emit_json(const char* path, const std::string& json) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro_analysis: cannot open %s\n", path);
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed)
    std::fprintf(stderr, "bench_micro_analysis: short write to %s\n", path);
  return ok && closed;
}

/// CI probe: one streaming campaign, minimal JSON. The gate reads
/// peak_rss_kb and enforces its memory ceiling.
int run_ci(const char* path, int year, std::uint64_t scale) {
  const RunResult r = run_forked(year, scale);
  if (!r.ok) {
    std::fprintf(stderr, "bench_micro_analysis: ci campaign failed\n");
    return 1;
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"bench\": \"analysis_streaming_ci\",\n"
                "  \"year\": %d,\n  \"scale\": %llu,\n"
                "  \"mode\": \"streaming\",\n"
                "  \"wall_seconds\": %.3f,\n  \"peak_rss_kb\": %ld,\n"
                "  \"analysis_bytes\": %llu,\n  \"r2\": %llu\n}\n",
                year, static_cast<unsigned long long>(scale),
                r.report.wall_seconds, r.peak_rss_kb,
                static_cast<unsigned long long>(r.report.analysis_bytes),
                static_cast<unsigned long long>(r.report.r2));
  std::printf("ci: %d scale=%llu streaming  wall=%.3fs  peak_rss=%ld KB  "
              "analysis_bytes=%llu\n",
              year, static_cast<unsigned long long>(scale),
              r.report.wall_seconds, r.peak_rss_kb,
              static_cast<unsigned long long>(r.report.analysis_bytes));
  return emit_json(path, buf) ? 0 : 1;
}

int run_full(const char* path) {
  constexpr int kRuns = 5;
  const unsigned cores = std::thread::hardware_concurrency();
  std::string json =
      "{\n  \"bench\": \"analysis_streaming\",\n  \"year\": 2018,\n"
      "  \"seed\": 42,\n  \"threads\": 1,\n  \"runs_per_point\": " +
      std::to_string(kRuns) +
      ",\n  \"wall_seconds_is\": \"best_of_runs\",\n"
      "  \"peak_rss_is\": \"child_ru_maxrss_kb_min_of_runs\",\n"
      "  \"analysis_bytes_is\": \"bytes_retained_to_produce_the_tables\",\n"
      "  \"hardware_concurrency\": " +
      std::to_string(cores) + ",\n  \"results\": [\n";
  bool first = true;
  for (const std::uint64_t scale : {1024u, 256u, 64u}) {
    const RunResult r = best_of(scale, kRuns);
    if (!r.ok) {
      std::fprintf(stderr,
                   "bench_micro_analysis: campaign failed (scale %llu)\n",
                   static_cast<unsigned long long>(scale));
      return 1;
    }
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "%s    {\"scale\": %llu, \"mode\": \"streaming\", "
        "\"wall_seconds\": %.3f, \"peak_rss_kb\": %ld, "
        "\"analysis_bytes\": %llu, \"events\": %llu, \"r2\": %llu}",
        first ? "" : ",\n", static_cast<unsigned long long>(scale),
        r.report.wall_seconds, r.peak_rss_kb,
        static_cast<unsigned long long>(r.report.analysis_bytes),
        static_cast<unsigned long long>(r.report.events),
        static_cast<unsigned long long>(r.report.r2));
    json += row;
    first = false;
    std::printf("scale=%-5llu wall=%.3fs  peak_rss=%ld KB  "
                "analysis_bytes=%llu  r2=%llu\n",
                static_cast<unsigned long long>(scale),
                r.report.wall_seconds, r.peak_rss_kb,
                static_cast<unsigned long long>(r.report.analysis_bytes),
                static_cast<unsigned long long>(r.report.r2));
  }
  json += "\n  ]\n}\n";
  if (!emit_json(path, json)) return 1;
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--ci") continue;
    const char* path = i + 1 < argc ? argv[i + 1] : "BENCH_analysis.ci.json";
    const int year = i + 2 < argc ? std::atoi(argv[i + 2]) : 2018;
    const std::uint64_t scale =
        i + 3 < argc ? std::strtoull(argv[i + 3], nullptr, 10) : 256;
    if ((year != 2013 && year != 2018) || scale == 0) {
      std::fprintf(stderr, "usage: %s --ci [path [2013|2018 scale]]\n",
                   argv[0]);
      return 2;
    }
    return run_ci(path, year, scale);
  }
  return run_full("BENCH_analysis.json");
}
