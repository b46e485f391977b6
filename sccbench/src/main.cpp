// sccbench: one workload of the sccpipe benchmark, in one process with one
// simulation thread. Prints a log with each metric's repeat spread, one
// provenance line, and, as its last line, the result object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// and writes the spans file. Normally started through sccbench/run.py,
// which builds this binary first.

#include <sched.h>
#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

#ifndef SCCBENCH_BUILD_TYPE
#define SCCBENCH_BUILD_TYPE "unknown"
#endif

namespace sccbench {
namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s", "runs_per_s", "frames_per_s", "peak_rss_mb", "paper_mape_pct"};

const std::vector<std::string> kPerLayer = {
    "scene.build_s",
    "render.estimate_s",
    "render.estimate_us_per_strip",
    "render.strips_estimated",
    "render.nodes_visited",
    "render.tris_accepted",
    "render.projected_pixels",
    "render.raster_ms_per_frame",
    "render.pixels_filled",
    "filters.sepia_ms_per_frame",
    "filters.blur_ms_per_frame",
    "filters.scratch_ms_per_frame",
    "filters.flicker_ms_per_frame",
    "filters.vflip_ms_per_frame",
    "support.crc32_ms_per_frame",
    "sim.events",
    "sim.ns_per_event",
    "core.runs",
    "core.run_ms_p50",
    "core.run_ms_tail",
    "core.functional_ms_per_frame",
    "core.timed_ms_per_frame",
    "core.functional_residual_ms_per_frame",
    "scc.walkthrough_sim_s",
    "scc.chip_energy_j",
    "noc.mesh_bytes",
    "noc.max_link_bytes",
    "mem.mc_bytes",
    "mem.mc_latency_streams_peak",
    "rcce.drops",
    "rcce.retransmissions",
    "host.busy_s",
    "host.retransmissions",
    "host.frames_shed",
    "host.credit_stalls",
    "host.delivered_ratio",
    "core.recovery.frames_replayed",
    "core.recovery.max_detection_ms",
    "core.gray.actions",
    "core.checkpoint.writes",
    "trace.overhead_pct",
    "trace.coverage_pct",
    "trace.self_scene_s",
    "trace.self_render_s",
    "trace.self_core_s",
    "trace.self_filters_s",
    "trace.self_support_s",
    "trace.self_bench_s",
};

int usage(const char* why) {
  std::fprintf(stderr,
               "sccbench: %s\n"
               "usage: sccbench --workload figure_grid|functional_frames|"
               "chaos_mix [--seed N] [--seconds S] [--trace 0|1]\n"
               "       [--frames N --size PX] [--golden FILE] "
               "[--write-golden FILE] [--tamper RUN]\n"
               "       [--out DIR] [--git-describe STR] "
               "[--source-digest STR]\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string provenance(const Options& opt) {
  utsname u{};
  uname(&u);
  std::ostringstream o;
  o << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
    << ", \"frames\": " << opt.frames << ", \"image_side\": "
    << opt.image_side << ", \"seconds\": " << number(opt.seconds)
    << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"nproc\": "
    << cpu_count() << ", \"sim_threads\": 1, \"build_type\": \""
    << SCCBENCH_BUILD_TYPE << "\", \"compiler\": \""
    << json_escape(__VERSION__) << "\", \"machine\": \""
    << json_escape(std::string(u.machine) + " " + u.sysname + " " +
                   u.release)
    << "\", \"git_describe\": \"" << json_escape(opt.git_describe)
    << "\", \"source_digest\": \"" << json_escape(opt.source_digest)
    << "\"}";
  return o.str();
}

/// The final line: exactly correct/attempted/failed/metrics.
std::string result_line(const Report& rep,
                        const std::vector<std::string>& names) {
  std::ostringstream o;
  o << "{\"correct\": " << (rep.failed() == 0 ? "true" : "false")
    << ", \"attempted\": " << rep.attempted() << ", \"failed\": "
    << rep.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric* m = rep.find(names[i]);
    o << (i ? ", " : "") << "\"" << m->name << "\": {\"value\": "
      << number(m->value) << ", \"unit\": \"" << m->unit << "\"}";
  }
  o << "}}";
  return o.str();
}

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt->workload = v;
    } else if (a == "--seed") {
      opt->seed = std::strtoull(v, &end, 0);
    } else if (a == "--seconds") {
      opt->seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      opt->trace = std::strtol(v, &end, 10) != 0;
    } else if (a == "--frames") {
      opt->frames = static_cast<int>(std::strtol(v, &end, 10));
    } else if (a == "--size") {
      opt->image_side = static_cast<int>(std::strtol(v, &end, 10));
    } else if (a == "--golden") {
      opt->golden_file = v;
    } else if (a == "--write-golden") {
      opt->write_golden = v;
    } else if (a == "--tamper") {
      opt->tamper = v;
    } else if (a == "--out") {
      opt->out_dir = v;
    } else if (a == "--git-describe") {
      opt->git_describe = v;
    } else if (a == "--source-digest") {
      opt->source_digest = v;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == v)) return false;
  }
  return opt->seconds > 0.0 && opt->frames >= 0 && opt->image_side >= 16;
}

}  // namespace
}  // namespace sccbench

int main(int argc, char** argv) {
  using namespace sccbench;
  Options opt;
  if (!parse(argc, argv, &opt)) return usage("bad arguments");
  struct Workload {
    const char* name;
    void (*run)(const Options&, Tracer&, Report&);
    int frames;
  };
  // functional_frames: 24 frames spread over the whole walkthrough path,
  // about 1.3 s of pixel work per run, so 25 s hold about 17 repeats.
  constexpr Workload kWorkloads[] = {
      {"figure_grid", run_figure_grid, 400},
      {"functional_frames", run_functional_frames, 24},
      {"chaos_mix", run_chaos_mix, 400},
  };
  void (*workload)(const Options&, Tracer&, Report&) = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload != w.name) continue;
    workload = w.run;
    if (opt.frames == 0) opt.frames = w.frames;
    opt.reduced = opt.frames != w.frames || opt.image_side != 400;
  }
  if (workload == nullptr) return usage("unknown workload");

  Tracer tracer;
  Report report;
  const Clock::time_point t0 = Clock::now();
  try {
    std::filesystem::create_directories(opt.out_dir);
    workload(opt, tracer, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sccbench: %s aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  const double wall = seconds_between(t0, Clock::now());

  const std::vector<std::string>& names = opt.trace ? kPerLayer : kEndToEnd;
  for (const std::string& n : names) {
    const Metric* m = report.find(n);
    if (m == nullptr || !std::isfinite(m->value)) {
      std::fprintf(stderr, "sccbench: metric %s missing or not finite\n",
                   n.c_str());
      return 1;
    }
  }

  const std::string tag = opt.workload + "-seed" + std::to_string(opt.seed) +
                          "-trace" + (opt.trace ? "1" : "0");
  if (opt.trace) {
    const std::string spans = opt.out_dir + "/spans-" + tag + ".json";
    if (!tracer.write_json(spans)) {
      report.check(false, "could not write " + spans);
    }
    std::printf("spans: %s (%zu spans)\n", spans.c_str(),
                tracer.spans().size());
  }

  std::printf("sccbench %s: %.1f s wall, %d attempted, %d failed\n",
              opt.workload.c_str(), wall, report.attempted(),
              report.failed());
  for (const Metric& m : report.metrics()) {
    std::printf("  %-40s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& f : report.failures()) {
    std::printf("  failure: %s\n", f.c_str());
  }

  const std::string prov = provenance(opt);
  const std::string result = result_line(report, names);
  std::ofstream record(opt.out_dir + "/result-" + tag + ".json");
  record << "{\"provenance\": " << prov << ",\n \"wall_s\": " << number(wall)
         << ",\n \"failures\": [";
  for (std::size_t i = 0; i < report.failures().size(); ++i) {
    record << (i ? ", " : "") << "\"" << json_escape(report.failures()[i])
           << "\"";
  }
  record << "],\n \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics().size(); ++i) {
    const Metric& m = report.metrics()[i];
    record << (i ? ",\n  " : "\n  ") << "\"" << m.name
           << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
           << m.unit << "\", \"note\": \"" << json_escape(m.note) << "\"}";
  }
  record << "},\n \"result\": " << result << "}\n";
  std::printf("provenance: %s\n", prov.c_str());
  std::printf("%s\n", result.c_str());
  return 0;
}
