#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "sccpipe/exec/executor.hpp"

namespace sccpipe::bench {

World::World() {
  frames_ = 400;
  if (const char* env = std::getenv("SCCPIPE_BENCH_FRAMES")) {
    const int v = std::atoi(env);
    if (v > 0) frames_ = v;
  }
  std::fprintf(stderr, "[bench] building scene + workload trace (%d frames)...\n",
               frames_);
  scene_ = std::make_unique<SceneBundle>(CityParams{}, CameraConfig{}, 400,
                                         frames_);
  trace_ = std::make_unique<WorkloadTrace>(
      WorkloadTrace::build(*scene_, 8, exec::trace_runner()));
  std::fprintf(stderr, "[bench] scene ready: %zu triangles, octree %zu nodes\n",
               scene_->mesh().size(), scene_->octree().node_count());
}

const World& World::instance() {
  static World world;
  return world;
}

RunResult run(const RunConfig& cfg) {
  const World& w = World::instance();
  return run_walkthrough(w.scene(), w.trace(), cfg);
}

std::vector<RunResult> run_batch(const std::vector<RunConfig>& cfgs) {
  // Force the build on this thread so the workers share a finished,
  // immutable world.
  const World& w = World::instance();
  return exec::run_grid(w.scene(), w.trace(), cfgs);
}

double run_seconds(const RunConfig& cfg) {
  return run(cfg).walkthrough.to_sec() * World::instance().scale();
}

std::vector<double> run_batch_seconds(const std::vector<RunConfig>& cfgs) {
  const double scale = World::instance().scale();
  std::vector<double> secs;
  secs.reserve(cfgs.size());
  for (const RunResult& r : run_batch(cfgs)) {
    secs.push_back(r.walkthrough.to_sec() * scale);
  }
  return secs;
}

void print_banner(const std::string& experiment, const std::string& summary) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", summary.c_str());
  std::printf("(absolute numbers come from a calibrated model of the SCC; the\n");
  std::printf(" shapes — who wins, where curves saturate — are the result)\n");
  std::printf("================================================================\n\n");
}

void add_sweep_rows(TextTable& table, const SweepSpec& spec, int max_k,
                    SvgPlot* plot) {
  // One colour per sweep: the simulated (solid) and published (dashed)
  // curves of a configuration share it.
  static constexpr const char* kColors[] = {"#2f6fb2", "#c23b3b", "#3d9950",
                                            "#8b5cb5", "#c28a2f", "#3ba6a6"};
  const char* color =
      plot ? kColors[(plot->series_count() / 2) % 6] : "";

  PlotSeries sim_series;
  sim_series.color = color;
  sim_series.label = spec.label + " (sim)";
  table.row().add(spec.label + " (sim)");
  std::vector<RunConfig> cfgs;
  for (int k = 1; k <= max_k; ++k) {
    RunConfig cfg;
    cfg.scenario = spec.scenario;
    cfg.arrangement = spec.arrangement;
    cfg.platform = spec.platform;
    cfg.pipelines = k;
    cfgs.push_back(cfg);
  }
  const std::vector<double> secs = run_batch_seconds(cfgs);
  for (int k = 1; k <= max_k; ++k) {
    const double s = secs[static_cast<std::size_t>(k - 1)];
    table.add(s, 1);
    sim_series.x.push_back(k);
    sim_series.y.push_back(s);
  }
  if (plot) plot->add_series(sim_series);
  if (!spec.paper_seconds.empty()) {
    PlotSeries paper_series;
    paper_series.label = spec.label + " (paper)";
    paper_series.dashed = true;
    paper_series.markers = false;
    table.row().add(spec.label + " (paper)");
    for (int k = 0; k < max_k; ++k) {
      if (k < static_cast<int>(spec.paper_seconds.size())) {
        const double v = spec.paper_seconds[static_cast<std::size_t>(k)];
        table.add(v, 0);
        paper_series.x.push_back(k + 1);
        paper_series.y.push_back(v);
      } else {
        table.add("-");
      }
    }
    if (plot && !paper_series.x.empty()) {
      paper_series.color = color;  // pair with the simulated curve
      plot->add_series(paper_series);
    }
  }
}

void write_figure(const SvgPlot& plot, const std::string& name) {
  std::string dir = "figures";
  if (const char* env = std::getenv("SCCPIPE_FIGURE_DIR")) dir = env;
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + name + ".svg";
  plot.write(path);
  std::printf("figure written: %s\n", path.c_str());
}

}  // namespace sccpipe::bench
