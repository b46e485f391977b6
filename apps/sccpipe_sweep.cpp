// sccpipe_sweep — batch experiment runner: sweeps the configuration grid
// (scenarios x arrangements x pipeline counts x platforms) over one shared
// scene/workload and emits a CSV, one row per run. The building block for
// custom studies beyond the fixed paper harnesses.
//
// Runs execute in parallel on --jobs worker threads (default: all host
// cores; SCCPIPE_JOBS overrides). Each run is an independent deterministic
// simulation and rows print in grid order, so the CSV is byte-identical
// at every job count.
//
//   $ sccpipe_sweep --pipelines 1-7 --frames 400 > sweep.csv
//   $ sccpipe_sweep --scenarios mcpc,n-rend --platforms scc --pipelines 2-5
//   $ sccpipe_sweep --jobs 1 > a.csv && sccpipe_sweep --jobs 8 > b.csv
//   $ cmp a.csv b.csv   # identical
//
// Unless --bench-json none, a machine-readable perf record (wall-clock,
// events/sec, jobs used, per-run timings) is written for cross-PR
// comparison.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "sccpipe/core/run_flags.hpp"
#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/exec/executor.hpp"
#include "sccpipe/support/args.hpp"

using namespace sccpipe;

namespace {

/// Parse every item of a comma list flag with a name parser; an unknown
/// item or an empty list is an error, never skipped.
template <typename T>
Status parse_list(const ArgParser& args, const char* flag,
                  Status (*parse)(const std::string&, T*),
                  std::vector<T>* out) {
  for (const std::string& item : split_list(args.get(flag))) {
    T v{};
    if (const Status st = parse(item, &v); !st.ok()) {
      return Status(st.code(), std::string("--") + flag + ": " + st.message());
    }
    out->push_back(v);
  }
  if (!out->empty()) return Status();
  return Status(StatusCode::InvalidArgument,
                std::string("--") + flag + " names nothing to run");
}

struct GridRun {
  RunConfig cfg;
  double wall_sec = 0.0;  // host wall-clock of this run (perf record only)
  RunResult result;
};

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void write_bench_json(const std::string& path, int jobs, double wall_sec,
                      const std::vector<GridRun>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[sweep] cannot write %s\n", path.c_str());
    return;
  }
  std::uint64_t events = 0;
  for (const GridRun& r : runs) events += r.result.events_dispatched;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"sccpipe-bench-sweep-v1\",\n");
  std::fprintf(f, "  \"tool\": \"sccpipe_sweep\",\n");
  std::fprintf(f, "  \"jobs\": %d,\n", jobs);
  std::fprintf(f, "  \"runs\": %zu,\n", runs.size());
  std::fprintf(f, "  \"wall_clock_s\": %.3f,\n", wall_sec);
  std::fprintf(f, "  \"events_dispatched\": %llu,\n",
               static_cast<unsigned long long>(events));
  std::fprintf(f, "  \"events_per_sec\": %.0f,\n",
               wall_sec > 0.0 ? static_cast<double>(events) / wall_sec : 0.0);
  std::fprintf(f, "  \"grid\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const GridRun& r = runs[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"arrangement\": \"%s\", "
        "\"platform\": \"%s\", \"pipelines\": %d, \"walkthrough_s\": %.3f, "
        "\"events\": %llu, \"wall_s\": %.3f}%s\n",
        scenario_name(r.cfg.scenario), arrangement_name(r.cfg.arrangement),
        platform_name(r.cfg.platform), r.cfg.pipelines,
        r.result.walkthrough.to_sec(),
        static_cast<unsigned long long>(r.result.events_dispatched),
        r.wall_sec, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[sweep] perf record written: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_flag("scenarios", "comma list: 1-rend,n-rend,mcpc",
                "1-rend,n-rend,mcpc");
  args.add_flag("arrangements", "comma list: unordered,ordered,flipped",
                "ordered");
  args.add_flag("platforms", "comma list: scc,cluster", "scc");
  args.add_flag("pipelines", "range, e.g. 1-7 or 2,4,6", "1-7");
  args.add_flag("jobs",
                "parallel runs (0 = all cores; env SCCPIPE_JOBS overrides "
                "the default)",
                "0");
  args.add_flag("bench-json",
                "perf record path, or 'none' to disable",
                "BENCH_sweep.json");
  add_run_flags(args);
  args.add_flag("help", "show this help", "false");
  if (!args.parse(argc, argv) || args.get_bool("help")) {
    std::fprintf(stderr, "%s%s", args.error().empty() ? "" :
                 (args.error() + "\n").c_str(),
                 args.usage("sccpipe_sweep").c_str());
    return args.get_bool("help") ? 0 : 2;
  }

  // One fault plan + recovery config shared by every grid point (the seed
  // keeps each run deterministic regardless of worker interleaving).
  RunFlags shared;
  std::vector<Scenario> scenarios;
  std::vector<Arrangement> arrangements;
  std::vector<PlatformKind> platforms;
  std::vector<int> pipeline_list;
  int jobs = 0;
  Status st = parse_pipeline_list(args.get("pipelines"), &pipeline_list);
  int max_k = 1;
  for (const int k : pipeline_list) max_k = std::max(max_k, k);
  st.update(read_run_flags(args, CheckpointFiles::PerRun, max_k, &shared));
  st.update(parse_list(args, "scenarios", parse_scenario, &scenarios));
  st.update(parse_list(args, "arrangements", parse_arrangement, &arrangements));
  st.update(parse_list(args, "platforms", parse_platform, &platforms));
  st.update(args.get_int("jobs", &jobs));
  if (!st.ok()) {
    std::fprintf(stderr, "[sweep] error: %s\n", st.to_string().c_str());
    return 2;
  }
  if (jobs <= 0) jobs = exec::default_jobs();

  // Expand the grid up front and validate every run before any scene is
  // built; the runs are independent deterministic simulations, so they
  // execute in parallel and report in grid order.
  const CheckpointConfig& checkpoint = shared.cfg.checkpoint;
  std::vector<GridRun> runs;
  for (const Scenario scenario : scenarios) {
    for (const Arrangement arrangement : arrangements) {
      for (const PlatformKind platform : platforms) {
        for (const int k : pipeline_list) {
          GridRun gr;
          gr.cfg = shared.cfg;
          gr.cfg.scenario = scenario;
          gr.cfg.arrangement = arrangement;
          gr.cfg.platform = platform;
          gr.cfg.pipelines = k;
          if (checkpoint.enabled()) {
            gr.cfg.checkpoint.file =
                checkpoint.file + "." + std::to_string(runs.size());
            // Only runs whose previous attempt left a snapshot resume;
            // the rest start fresh (their file does not exist yet).
            gr.cfg.checkpoint.resume =
                checkpoint.resume &&
                access(gr.cfg.checkpoint.file.c_str(), F_OK) == 0;
          }
          if (const Status bad = validate(gr.cfg); !bad.ok()) {
            std::fprintf(stderr, "[sweep] error: run %zu: %s\n", runs.size(),
                         bad.to_string().c_str());
            return 2;
          }
          runs.push_back(std::move(gr));
        }
      }
    }
  }
  std::fprintf(stderr, "[sweep] scene + trace (%d frames, %dx%d, max k %d)\n",
               shared.frames, shared.size, shared.size, max_k);
  SceneBundle scene(CityParams{}, CameraConfig{}, shared.size, shared.frames);
  const WorkloadTrace trace =
      WorkloadTrace::build(scene, max_k, exec::trace_runner(jobs));

  std::fprintf(stderr, "[sweep] %zu runs on %d jobs\n", runs.size(), jobs);
  const double t0 = now_sec();
  exec::parallel_for(jobs, runs.size(), [&](std::size_t i) {
    const double rt0 = now_sec();
    runs[i].result = run_walkthrough(scene, trace, runs[i].cfg);
    runs[i].wall_sec = now_sec() - rt0;
  });
  const double wall = now_sec() - t0;

  // A planned crash or a checkpoint data error aborts the sweep before any
  // CSV is emitted — mirroring a real process death — so the caller can
  // rerun with --resume and still get a byte-identical, complete CSV.
  std::size_t crashed = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CheckpointReport& ck = runs[i].result.checkpoint;
    if (ck.error_code != StatusCode::Ok) {
      std::fprintf(stderr, "[sweep] run %zu checkpoint error: [%s] %s\n", i,
                   status_code_name(ck.error_code), ck.error.c_str());
      return 65;
    }
    if (ck.crashed) {
      ++crashed;
      std::fprintf(stderr,
                   "[sweep] run %zu crashed at %.3f s (%llu checkpoint(s) in "
                   "%s)\n",
                   i, ck.crashed_at_ms / 1000.0,
                   static_cast<unsigned long long>(ck.checkpoints_written),
                   runs[i].cfg.checkpoint.file.c_str());
    }
  }
  if (crashed > 0) {
    std::fprintf(stderr,
                 "[sweep] %zu run(s) crashed; rerun with --resume to "
                 "continue them\n",
                 crashed);
    return 70;
  }

  std::printf("scenario,arrangement,platform,pipelines,walkthrough_s,"
              "mean_watts,chip_energy_j,host_busy_s,host_extra_j,"
              "blur_wait_med_ms,failures_detected,failures_recovered,"
              "frames_replayed,frames_lost,spares_used,max_detect_ms,"
              "post_failure_fps,gray_flags,gray_dvfs,gray_migrations,"
              "gray_rebalances,gray_escalations,gray_drained,gray_shed,"
              "post_mitigation_fps,%s\n",
              TransportReport::csv_header().c_str());
  for (const GridRun& gr : runs) {
    const RunResult& r = gr.result;
    const StageReport* blur = r.stage(StageKind::Blur, 0);
    std::printf("%s,%s,%s,%d,%.3f,%.2f,%.1f,%.3f,%.1f,%.2f,"
                "%llu,%llu,%llu,%llu,%d,%.3f,%.2f,"
                "%d,%d,%d,%d,%d,%d,%llu,%.3f,%s\n",
                scenario_name(gr.cfg.scenario),
                arrangement_name(gr.cfg.arrangement),
                platform_name(gr.cfg.platform), gr.cfg.pipelines,
                r.walkthrough.to_sec(), r.mean_chip_watts,
                r.chip_energy_joules, r.host_busy_sec,
                r.host_extra_energy_joules,
                blur ? blur->wait_ms.median : 0.0,
                static_cast<unsigned long long>(r.recovery.failures_detected),
                static_cast<unsigned long long>(r.recovery.failures_recovered),
                static_cast<unsigned long long>(r.recovery.frames_replayed),
                static_cast<unsigned long long>(r.recovery.frames_lost),
                r.recovery.spares_used, r.recovery.max_detection_latency_ms,
                r.recovery.post_failure_fps, r.gray.flags_raised,
                r.gray.dvfs_boosts, r.gray.migrations, r.gray.rebalances,
                r.gray.escalations, r.gray.frames_drained,
                static_cast<unsigned long long>(r.gray.frames_shed),
                r.gray.post_mitigation_fps, r.transport.csv().c_str());
  }
  std::fflush(stdout);
  std::fprintf(stderr, "[sweep] %zu runs in %.2f s wall (%d jobs)\n",
               runs.size(), wall, jobs);

  const std::string json = args.get("bench-json");
  if (!json.empty() && json != "none") {
    write_bench_json(json, jobs, wall, runs);
  }
  return 0;
}
