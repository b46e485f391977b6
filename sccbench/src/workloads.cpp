#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sccpipe/filters/filters.hpp"
#include "sccpipe/support/crc.hpp"
#include "sccpipe/support/rng.hpp"

namespace sccbench {
namespace {

using namespace sccpipe;

constexpr int kPaperFrames = 400;
constexpr int kMinSetups = 3;
/// Every distinct run gets at least this many repeats. Only figure_grid,
/// whose pass takes 6-10 s, ever needs more passes than the time budget
/// gives: in a slow phase of the host it would otherwise get four
/// repeats, too few for the fastest one to escape the phase.
constexpr int kMinPasses = 6;
/// A traced pass whose top-level spans cover less of its wall time than
/// this has a gap the trace cannot attribute.
constexpr double kMinCoverage = 0.98;

// ------------------------------------------------------------------ set-up

struct World {
  std::unique_ptr<SceneBundle> scene;
  std::unique_ptr<WorkloadTrace> trace;
};

struct SetupTimes {
  std::vector<double> setup, scene, estimate;
};

/// Set-up as a CLI user pays it on every run: SceneBundle, then a serial,
/// uncached WorkloadTrace::build. Repeated at least three times; a
/// sub-second set-up repeats until it has used 1.5 s, so its fastest
/// repeat can be reported under the same rule as the runs.
World set_up(const Options& opt, Tracer& tracer, Report& report, int frames,
             int max_k, SetupTimes* times) {
  CityParams city;
  city.seed = opt.seed;
  World w;
  double total = 0.0;
  for (int i = 0;; ++i) {
    if (i >= kMinSetups &&
        (median(times->setup) >= 1.0 || total >= 1.5 || i >= 15)) {
      break;
    }
    w.trace.reset();
    w.scene.reset();
    report.attempt();
    Timed setup(tracer, "bench.setup");
    {
      Timed t(tracer, "scene.build");
      w.scene = std::make_unique<SceneBundle>(city, CameraConfig{},
                                              opt.image_side, frames);
      times->scene.push_back(t.stop());
    }
    {
      Timed t(tracer, "render.estimate");
      w.trace = std::make_unique<WorkloadTrace>(
          WorkloadTrace::build(*w.scene, max_k));
      times->estimate.push_back(t.stop());
    }
    times->setup.push_back(setup.stop());
    total += times->setup.back();
  }
  return w;
}

/// Median for set-ups of a second or more, else the fastest repeat.
double setup_statistic(const std::vector<double>& v) {
  const double med = median(v);
  return med >= 1.0 ? med : *std::min_element(v.begin(), v.end());
}

std::string setup_note(const std::vector<double>& v) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%zu set-ups, %s; q1 %.4f q2 %.4f q3 %.4f s",
                v.size(), median(v) >= 1.0 ? "median" : "fastest",
                percentile(v, 25), percentile(v, 50), percentile(v, 75));
  return buf;
}

struct TraceCounts {
  double strips = 0.0;
  double nodes = 0.0;
  double tris = 0.0;
  double pixels = 0.0;
};

TraceCounts count_trace(const WorkloadTrace& trace) {
  TraceCounts c;
  for (int f = 0; f < trace.frame_count(); ++f) {
    for (int k = 1; k <= trace.max_k(); ++k) {
      for (int s = 0; s < k; ++s) {
        const RenderLoad& l = trace.load(f, k, s);
        c.strips += 1.0;
        c.nodes += l.nodes_visited;
        c.tris += l.tris_accepted;
        c.pixels += l.projected_pixels;
      }
    }
  }
  return c;
}

// ---------------------------------------------------------------- rotation

/// The timed phase: round-robin passes over the distinct runs until the
/// time budget is spent and at least kMinPasses passes ran (so every run
/// also has repeats to agree with). A traced invocation traces every
/// second pass; the other passes give the untraced times that
/// trace.overhead_pct compares with.
class Rotation {
 public:
  Rotation(const Options& opt, Tracer& tracer, Report& report,
           std::size_t distinct)
      : opt_(opt), tracer_(tracer), report_(report), all_(distinct),
        plain_(distinct), traced_(distinct), t0_(Clock::now()) {}

  bool next_pass() {
    if (passes_ >= kMinPasses &&
        seconds_between(t0_, Clock::now()) >= opt_.seconds) {
      tracer_.set_enabled(false);
      return false;
    }
    tracer_.set_enabled(opt_.trace && passes_ % 2 == 1);
    pass_start_ = tracer_.now();
    return true;
  }

  void end_pass() {
    ++passes_;
    if (!tracer_.enabled()) return;
    const double end = tracer_.now();
    const double covered = tracer_.top_level_seconds(pass_start_, end);
    traced_wall_ += end - pass_start_;
    covered_ += covered;
    char buf[96];
    std::snprintf(buf, sizeof buf, "traced pass %d: spans cover %.2f%%",
                  passes_, 100.0 * covered / (end - pass_start_));
    report_.check(covered >= kMinCoverage * (end - pass_start_), buf);
  }

  void add(std::size_t run, double seconds) {
    all_.add(run, seconds);
    (tracer_.enabled() ? traced_ : plain_).add(run, seconds);
  }

  const Repeats& all() const { return all_; }
  double coverage_pct() const {
    return traced_wall_ > 0.0 ? 100.0 * covered_ / traced_wall_ : 0.0;
  }
  /// Traced minus untraced sum of fastest repeats, as a share of untraced.
  double overhead_pct() const {
    const double plain = plain_.sum_of_fastest();
    const double traced = traced_.sum_of_fastest();
    return plain > 0.0 && traced > 0.0 ? 100.0 * (traced - plain) / plain
                                       : 0.0;
  }

 private:
  const Options& opt_;
  Tracer& tracer_;
  Report& report_;
  Repeats all_, plain_, traced_;
  Clock::time_point t0_;
  int passes_ = 0;
  double pass_start_ = 0.0;
  double traced_wall_ = 0.0;
  double covered_ = 0.0;
};

// ------------------------------------------------------------------- runs

struct RunSpec {
  std::string name;
  RunConfig cfg;
};

/// Simulated counters summed over the distinct runs (first repeat each).
struct SimTotals {
  std::vector<bool> seen;
  double frames_shown = 0.0;
  double frames_offered = 0.0;
  double events = 0.0;
  double walkthrough_s = 0.0;
  double energy_j = 0.0;
  double mesh_bytes = 0.0;
  double max_link_bytes = 0.0;
  double mc_bytes = 0.0;
  double mc_streams_peak = 0.0;
  double rcce_drops = 0.0;
  double rcce_retransmissions = 0.0;
  double host_busy_s = 0.0;
  double host_retransmissions = 0.0;
  double frames_shed = 0.0;
  double credit_stalls = 0.0;
  double frames_replayed = 0.0;
  double max_detection_ms = 0.0;
  double gray_actions = 0.0;
  double checkpoint_writes = 0.0;

  explicit SimTotals(std::size_t distinct) : seen(distinct, false) {}

  void add(std::size_t run, const RunResult& r, int frames) {
    if (seen[run]) return;
    seen[run] = true;
    const TransportReport& t = r.transport;
    frames_shown += static_cast<double>(r.frame_done_ms.size());
    // A planned crash ends the run early; its missing frames were never
    // offered.
    frames_offered += r.checkpoint.crashed
                          ? static_cast<double>(r.frame_done_ms.size())
                          : frames;
    events += static_cast<double>(r.events_dispatched);
    walkthrough_s += r.walkthrough.to_sec();
    energy_j += r.chip_energy_joules;
    mesh_bytes += r.fabric.mesh_total_bytes;
    max_link_bytes = std::max(max_link_bytes, r.fabric.mesh_max_link_bytes);
    for (const double b : r.fabric.mc_bulk_bytes) mc_bytes += b;
    for (const std::uint64_t p : r.fabric.mc_latency_streams_peak) {
      mc_streams_peak = std::max(mc_streams_peak, static_cast<double>(p));
    }
    rcce_drops += static_cast<double>(r.fault.rcce_drops);
    rcce_retransmissions += static_cast<double>(r.fault.rcce_retransmissions);
    host_busy_s += r.host_busy_sec;
    host_retransmissions +=
        static_cast<double>(r.fault.host_retransmissions + t.retransmissions);
    frames_shed += static_cast<double>(t.shed_admission + t.shed_breaker +
                                       t.shed_deadline + t.shed_transport +
                                       static_cast<std::uint64_t>(
                                           r.recovery.frames_lost));
    credit_stalls += static_cast<double>(t.credit_stalls);
    frames_replayed += r.recovery.frames_replayed;
    max_detection_ms =
        std::max(max_detection_ms, r.recovery.max_detection_latency_ms);
    gray_actions += static_cast<double>(r.gray.actions.size());
    checkpoint_writes += static_cast<double>(r.checkpoint.checkpoints_written);
  }
};

/// Everything one timed run needs besides its spec.
struct RunContext {
  const World& world;
  Rotation& rotation;
  Tracer& tracer;
  Report& report;
  DigestBook& book;
  SimTotals& totals;
  int frames;
};

/// Times one walkthrough (the only timed call), then checks its ledger and
/// digest in a span of its own. Returns nothing when the run threw.
std::optional<RunResult> timed_run(RunContext& ctx, const RunSpec& spec,
                                   std::size_t id,
                                   bool expect_complete = true) {
  ctx.report.attempt();
  std::optional<RunResult> r;
  {
    Timed t(ctx.tracer, "core.run", static_cast<int>(id));
    try {
      r = run_walkthrough(*ctx.world.scene, *ctx.world.trace, spec.cfg);
    } catch (const std::exception& e) {
      t.stop();
      ctx.report.fail(spec.name + ": threw " + e.what());
      return std::nullopt;
    }
    ctx.rotation.add(id, t.stop());
  }
  Timed t(ctx.tracer, "bench.check", static_cast<int>(id));
  std::string err = expect_complete ? check_invariants(*r, ctx.frames) : "";
  if (err.empty()) err = ctx.book.check(spec.name, digest_run(*r));
  if (!err.empty()) ctx.report.fail(spec.name + ": " + err);
  ctx.totals.add(id, *r, ctx.frames);
  return r;
}

/// The benchmark seed moves the run's scratch/flicker and fault seeds by
/// the same offset it moves the city from the canonical one, so the
/// default seed runs exactly the library defaults that the Table 1
/// harness (bench/table1_overview) runs.
RunConfig seeded_config(const Options& opt) {
  RunConfig cfg;
  const std::uint64_t offset = opt.seed ^ kDefaultSeed;
  cfg.seed ^= offset;
  cfg.fault.seed ^= offset;
  return cfg;
}

RunConfig host_renderer_k4(const Options& opt) {
  RunConfig cfg = seeded_config(opt);
  cfg.scenario = Scenario::HostRenderer;
  cfg.arrangement = Arrangement::Ordered;
  cfg.pipelines = 4;
  return cfg;
}

// ---------------------------------------------------------------- metrics

enum Kernel { kRaster, kSepia, kBlur, kScratch, kFlicker, kVflip, kCrc, kKernels };
constexpr const char* kKernelSpan[kKernels] = {
    "render.raster",   "filters.sepia", "filters.blur", "filters.scratch",
    "filters.flicker", "filters.vflip", "support.crc32"};

/// Per-frame host time of each pixel kernel (functional_frames only).
struct Kernels {
  double ms[kKernels] = {};
  double pixels_filled = 0.0;
  double functional_ms_per_frame = 0.0;
  double timed_ms_per_frame = 0.0;
  double sum_ms() const {
    double s = 0.0;
    for (const double v : ms) s += v;
    return s;
  }
};

/// Workload-specific inputs to the shared metric set.
struct Outcome {
  double frames_per_s = 0.0;
  double paper_mape_pct = 0.0;
  std::string mape_note;
  Kernels kernels;
};

/// Self time of every span whose name starts with "<layer>.".
double layer_self_seconds(const Tracer& tracer, const std::string& layer) {
  const std::vector<double> self = tracer.self_seconds();
  const std::string prefix = layer + ".";
  double sum = 0.0;
  for (std::size_t i = 0; i < self.size(); ++i) {
    if (tracer.spans()[i].name.compare(0, prefix.size(), prefix) == 0) {
      sum += self[i];
    }
  }
  return sum;
}

/// Emits every end-to-end and per-layer metric. Metrics a workload does
/// not exercise are reported as the zero it measured.
void report_metrics(Report& rep, const Tracer& tracer, const SetupTimes& st,
                    const TraceCounts& tc, const Rotation& rot,
                    const SimTotals& sim, const Outcome& out) {
  const Repeats& all = rot.all();
  const double fastest = all.sum_of_fastest();
  const std::string spread = all.spread();

  rep.metric("setup_s", setup_statistic(st.setup), "s", setup_note(st.setup));
  rep.metric("runs_per_s",
             fastest > 0.0 ? static_cast<double>(all.distinct()) / fastest
                           : 0.0,
             "1/s", spread);
  rep.metric("frames_per_s", out.frames_per_s, "1/s", spread);
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM of this process");
  rep.metric("paper_mape_pct", out.paper_mape_pct, "%", out.mape_note);

  rep.metric("scene.build_s", setup_statistic(st.scene), "s",
             setup_note(st.scene));
  const double est = setup_statistic(st.estimate);
  rep.metric("render.estimate_s", est, "s", setup_note(st.estimate));
  rep.metric("render.estimate_us_per_strip",
             tc.strips > 0.0 ? est * 1e6 / tc.strips : 0.0, "us");
  rep.metric("render.strips_estimated", tc.strips, "count");
  rep.metric("render.nodes_visited", tc.nodes, "count");
  rep.metric("render.tris_accepted", tc.tris, "count");
  rep.metric("render.projected_pixels", tc.pixels, "count");

  const Kernels& k = out.kernels;
  rep.metric("render.raster_ms_per_frame", k.ms[kRaster], "ms");
  rep.metric("render.pixels_filled", k.pixels_filled, "count");
  rep.metric("filters.sepia_ms_per_frame", k.ms[kSepia], "ms");
  rep.metric("filters.blur_ms_per_frame", k.ms[kBlur], "ms");
  rep.metric("filters.scratch_ms_per_frame", k.ms[kScratch], "ms");
  rep.metric("filters.flicker_ms_per_frame", k.ms[kFlicker], "ms");
  rep.metric("filters.vflip_ms_per_frame", k.ms[kVflip], "ms");
  rep.metric("support.crc32_ms_per_frame", k.ms[kCrc], "ms");

  rep.metric("sim.events", sim.events, "count");
  rep.metric("sim.ns_per_event",
             sim.events > 0.0 ? fastest * 1e9 / sim.events : 0.0, "ns",
             spread);
  const std::vector<double> runs = all.all();
  const double tail_p = tail_percentile(runs.size());
  rep.metric("core.runs", static_cast<double>(runs.size()), "count");
  rep.metric("core.run_ms_p50", percentile(runs, 50) * 1e3, "ms");
  char tail_note[64];
  std::snprintf(tail_note, sizeof tail_note, "p%.0f of %zu runs", tail_p,
                runs.size());
  rep.metric("core.run_ms_tail", percentile(runs, tail_p) * 1e3, "ms",
             tail_note);
  rep.metric("core.functional_ms_per_frame", k.functional_ms_per_frame, "ms");
  rep.metric("core.timed_ms_per_frame", k.timed_ms_per_frame, "ms");
  rep.metric("core.functional_residual_ms_per_frame",
             k.functional_ms_per_frame > 0.0
                 ? k.functional_ms_per_frame - k.sum_ms() - k.timed_ms_per_frame
                 : 0.0,
             "ms", "functional - kernels - timed");

  rep.metric("scc.walkthrough_sim_s", sim.walkthrough_s, "s");
  rep.metric("scc.chip_energy_j", sim.energy_j, "J");
  rep.metric("noc.mesh_bytes", sim.mesh_bytes, "B");
  rep.metric("noc.max_link_bytes", sim.max_link_bytes, "B");
  rep.metric("mem.mc_bytes", sim.mc_bytes, "B");
  rep.metric("mem.mc_latency_streams_peak", sim.mc_streams_peak, "count");
  rep.metric("rcce.drops", sim.rcce_drops, "count");
  rep.metric("rcce.retransmissions", sim.rcce_retransmissions, "count");
  rep.metric("host.busy_s", sim.host_busy_s, "s");
  rep.metric("host.retransmissions", sim.host_retransmissions, "count");
  rep.metric("host.frames_shed", sim.frames_shed, "count");
  rep.metric("host.credit_stalls", sim.credit_stalls, "count");
  rep.metric("host.delivered_ratio",
             sim.frames_offered > 0.0 ? sim.frames_shown / sim.frames_offered
                                      : 0.0,
             "ratio");
  rep.metric("core.recovery.frames_replayed", sim.frames_replayed, "count");
  rep.metric("core.recovery.max_detection_ms", sim.max_detection_ms, "ms");
  rep.metric("core.gray.actions", sim.gray_actions, "count");
  rep.metric("core.checkpoint.writes", sim.checkpoint_writes, "count");

  rep.metric("trace.overhead_pct", rot.overhead_pct(), "%",
             "traced vs untraced passes, sum of fastest repeats");
  rep.metric("trace.coverage_pct", rot.coverage_pct(), "%",
             "top-level spans / traced pass wall time");
  for (const char* layer :
       {"scene", "render", "core", "filters", "support", "bench"}) {
    rep.metric(std::string("trace.self_") + layer + "_s",
               layer_self_seconds(tracer, layer), "s",
               "self time over all traced spans");
  }
}

// ------------------------------------------------------------ figure_grid

struct Table1Row {
  const char* name;
  Scenario scenario;
  Arrangement arrangement;
  PlatformKind platform;
  double paper_seconds[7];
};

/// Table 1 of the paper: 12 configurations at 1..7 pipelines (seconds).
constexpr Table1Row kTable1[] = {
    {"1rend-unordered", Scenario::SingleRenderer, Arrangement::Unordered,
     PlatformKind::Scc, {207, 107, 102, 102, 102, 101, 101}},
    {"1rend-ordered", Scenario::SingleRenderer, Arrangement::Ordered,
     PlatformKind::Scc, {208, 108, 104, 103, 102, 101, 101}},
    {"1rend-flipped", Scenario::SingleRenderer, Arrangement::Flipped,
     PlatformKind::Scc, {208, 107, 102, 102, 102, 101, 101}},
    {"nrend-unordered", Scenario::RendererPerPipeline, Arrangement::Unordered,
     PlatformKind::Scc, {235, 117, 78, 69, 65, 62, 58}},
    {"nrend-ordered", Scenario::RendererPerPipeline, Arrangement::Ordered,
     PlatformKind::Scc, {236, 118, 79, 68, 65, 61, 58}},
    {"nrend-flipped", Scenario::RendererPerPipeline, Arrangement::Flipped,
     PlatformKind::Scc, {236, 117, 79, 68, 65, 61, 59}},
    {"mcpc-unordered", Scenario::HostRenderer, Arrangement::Unordered,
     PlatformKind::Scc, {231, 113, 72, 54, 54, 55, 54}},
    {"mcpc-ordered", Scenario::HostRenderer, Arrangement::Ordered,
     PlatformKind::Scc, {231, 112, 70, 54, 53, 55, 54}},
    {"mcpc-flipped", Scenario::HostRenderer, Arrangement::Flipped,
     PlatformKind::Scc, {232, 113, 72, 54, 51, 54, 54}},
    {"hpc-external", Scenario::HostRenderer, Arrangement::Ordered,
     PlatformKind::Cluster, {32, 24, 20, 20, 19, 20, 18}},
    {"hpc-single", Scenario::SingleRenderer, Arrangement::Ordered,
     PlatformKind::Cluster, {26, 14, 10, 7, 6, 5, 4}},
    {"hpc-parallel", Scenario::RendererPerPipeline, Arrangement::Ordered,
     PlatformKind::Cluster, {25, 14, 10, 8, 6, 5, 4}},
};
constexpr int kTable1MaxK = 7;
/// Table 1's MCPC/ordered row at k=4, the published point for the two
/// HostRenderer k=4 workloads.
constexpr double kMcpcOrderedK4 = kTable1[7].paper_seconds[3];

void save_golden(const Options& opt, const DigestBook& book, Report& report) {
  if (!opt.write_golden.empty()) {
    report.check(book.save(opt.write_golden), "write " + opt.write_golden);
  }
}

double scaled_error_pct(double sim_seconds, int frames, double published) {
  const double scaled = sim_seconds * kPaperFrames / frames;
  return 100.0 * std::fabs(scaled - published) / published;
}

}  // namespace

void run_figure_grid(const Options& opt, Tracer& tracer, Report& report) {
  const int frames = opt.frames;
  SetupTimes st;
  tracer.set_enabled(opt.trace);
  const World world =
      set_up(opt, tracer, report, frames, kTable1MaxK, &st);
  const TraceCounts tc = count_trace(*world.trace);

  std::vector<RunSpec> specs;
  std::vector<double> published;
  for (const Table1Row& row : kTable1) {
    for (int k = 1; k <= kTable1MaxK; ++k) {
      RunSpec s{std::string(row.name) + "-k" + std::to_string(k),
                seeded_config(opt)};
      s.cfg.scenario = row.scenario;
      s.cfg.arrangement = row.arrangement;
      s.cfg.platform = row.platform;
      s.cfg.pipelines = k;
      specs.push_back(s);
      published.push_back(row.paper_seconds[k - 1]);
    }
  }

  Rotation rot(opt, tracer, report, specs.size());
  DigestBook book(opt, "figure_grid");
  SimTotals sim(specs.size());
  RunContext ctx{world, rot, tracer, report, book, sim, frames};
  std::vector<double> simulated(specs.size(), 0.0);
  while (rot.next_pass()) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (auto r = timed_run(ctx, specs[i], i)) {
        simulated[i] = r->walkthrough.to_sec();
      }
    }
    rot.end_pass();
  }

  Outcome out;
  const double fastest = rot.all().sum_of_fastest();
  out.frames_per_s = fastest > 0.0 ? sim.frames_shown / fastest : 0.0;
  double err = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    err += scaled_error_pct(simulated[i], frames, published[i]);
  }
  out.paper_mape_pct = err / static_cast<double>(specs.size());
  out.mape_note = "mean over the 84 Table 1 points";
  save_golden(opt, book, report);
  report_metrics(report, tracer, st, tc, rot, sim, out);
}

// -------------------------------------------------------- functional_frames

namespace {

/// Frame \p frame as the HostRenderer pipeline must deliver it: one
/// Renderer::render, divide_rows strips through the five filters, each
/// strip mirrored into place by the transfer stage. Every kernel call is
/// timed into \p seconds; \p strip_crcs receives one CRC-32 per strip.
Image reference_frame(const SceneBundle& scene, const RunConfig& cfg,
                      int frame, Tracer& tracer, double* seconds,
                      double* pixels_filled,
                      std::vector<std::uint32_t>* strip_crcs) {
  const int side = scene.image_side();
  const ScratchParams scratch =
      scratch_params_for_frame(cfg.seed, frame, side, cfg.cal.max_scratches);
  const FlickerParams flicker = flicker_params_for_frame(cfg.seed, frame);
  std::fill(seconds, seconds + kKernels, 0.0);
  RenderStats stats;
  Image full;
  {
    Timed t(tracer, kKernelSpan[kRaster]);
    full = scene.renderer().render(scene.path().view(frame), &stats);
    seconds[kRaster] = t.stop();
  }
  *pixels_filled = static_cast<double>(stats.raster.pixels_filled);
  Image out(side, side);
  strip_crcs->clear();
  for (const StripRange strip : divide_rows(side, cfg.pipelines)) {
    Image img = full.strip(strip);
    const auto kernel = [&](Kernel k, auto&& fn) {
      Timed t(tracer, kKernelSpan[k]);
      fn();
      seconds[k] += t.stop();
    };
    kernel(kSepia, [&] { apply_sepia(img); });
    kernel(kBlur, [&] { apply_blur(img); });
    kernel(kScratch, [&] { apply_scratches(img, scratch); });
    kernel(kFlicker, [&] { apply_flicker(img, flicker); });
    kernel(kVflip, [&] { apply_vflip(img); });
    kernel(kCrc, [&] {
      strip_crcs->push_back(crc32(img.data(), img.byte_size()));
    });
    out.paste(img, side - strip.y0 - strip.rows);
  }
  return out;
}

/// Compares a delivered frame with its reference, strip CRCs first.
std::string compare_frame(const Image& got, const Image& want, int pipelines,
                          const std::vector<std::uint32_t>& strip_crcs) {
  if (got.width() != want.width() || got.height() != want.height()) {
    return "frame size differs";
  }
  const std::vector<StripRange> strips = divide_rows(want.height(), pipelines);
  for (std::size_t i = 0; i < strips.size(); ++i) {
    const int y0 = want.height() - strips[i].y0 - strips[i].rows;
    const std::size_t bytes =
        static_cast<std::size_t>(strips[i].rows) * got.row_bytes();
    if (crc32(got.row(y0), bytes) != strip_crcs[i]) {
      return "strip " + std::to_string(i) + " CRC differs";
    }
  }
  return got == want ? "" : "pixels differ";
}

}  // namespace

void run_functional_frames(const Options& opt, Tracer& tracer,
                           Report& report) {
  const int frames = opt.frames;
  constexpr int kSampled = 4;
  SetupTimes st;
  tracer.set_enabled(opt.trace);
  const World world = set_up(opt, tracer, report, frames, 4, &st);
  const TraceCounts tc = count_trace(*world.trace);

  RunSpec functional{"functional", host_renderer_k4(opt)};
  functional.cfg.functional = true;
  const RunSpec timed{"timed", host_renderer_k4(opt)};
  std::vector<int> sampled;
  for (int i = 0; i < std::min(kSampled, frames); ++i) {
    sampled.push_back(i * frames / std::min(kSampled, frames));
  }

  Rotation rot(opt, tracer, report, 2);
  DigestBook book(opt, "functional_frames");
  SimTotals sim(2);
  RunContext ctx{world, rot, tracer, report, book, sim, frames};
  std::vector<Repeats> kernels(kKernels, Repeats(sampled.size()));
  Kernels out_kernels;
  std::vector<double> pixels(sampled.size(), 0.0);
  while (rot.next_pass()) {
    const std::optional<RunResult> f = timed_run(ctx, functional, 0);
    timed_run(ctx, timed, 1);
    for (std::size_t j = 0; j < sampled.size(); ++j) {
      double seconds[kKernels];
      std::vector<std::uint32_t> crcs;
      Image want;
      {
        Timed t(tracer, "bench.reference", sampled[j]);
        want = reference_frame(*world.scene, functional.cfg, sampled[j],
                               tracer, seconds, &pixels[j], &crcs);
      }
      for (int k = 0; k < kKernels; ++k) kernels[k].add(j, seconds[k]);
      Timed t(tracer, "bench.check", sampled[j]);
      const std::string name = "frame " + std::to_string(sampled[j]);
      if (!f) {
        report.check(false, name + ": functional run threw");
      } else if (f->frames.size() != static_cast<std::size_t>(frames)) {
        report.check(false, name + ": functional run delivered " +
                                std::to_string(f->frames.size()) + " frames");
      } else {
        const std::string err =
            compare_frame(f->frames[static_cast<std::size_t>(sampled[j])],
                          want, functional.cfg.pipelines, crcs);
        report.check(err.empty(), name + ": " + err);
      }
    }
    rot.end_pass();
  }

  Outcome out;
  const double fastest_functional = rot.all().fastest(0);
  out.frames_per_s =
      fastest_functional > 0.0 ? frames / fastest_functional : 0.0;
  Kernels& k = out.kernels;
  for (int i = 0; i < kKernels; ++i) {
    k.ms[i] = kernels[i].sum_of_fastest() * 1e3 /
              static_cast<double>(sampled.size());
  }
  for (const double p : pixels) k.pixels_filled += p;
  k.functional_ms_per_frame = fastest_functional * 1e3 / frames;
  k.timed_ms_per_frame = rot.all().fastest(1) * 1e3 / frames;
  // The timed twin is the same walkthrough without pixels: its simulated
  // length is the Table 1 MCPC/ordered k=4 point, scaled to 400 frames.
  out.paper_mape_pct =
      scaled_error_pct(sim.walkthrough_s / 2.0, frames, kMcpcOrderedK4);
  out.mape_note = "timed twin vs Table 1 MCPC ordered k=4, scaled to 400";
  save_golden(opt, book, report);
  report_metrics(report, tracer, st, tc, rot, sim, out);
}

// --------------------------------------------------------------- chaos_mix

void run_chaos_mix(const Options& opt, Tracer& tracer, Report& report) {
  const int frames = opt.frames;
  SetupTimes st;
  tracer.set_enabled(opt.trace);
  const World world = set_up(opt, tracer, report, frames, 4, &st);
  const TraceCounts tc = count_trace(*world.trace);

  // The clean run is timed with the others; this untimed copy only
  // supplies the placement and length that victims and onsets derive from.
  const RunConfig base = host_renderer_k4(opt);
  const RunResult probe = run_walkthrough(*world.scene, *world.trace, base);
  const double length_ms = probe.walkthrough.to_ms();
  const double capacity_fps = frames / probe.walkthrough.to_sec();
  // Victims and onsets come from the seed, in ranges narrow enough that
  // the work per pass hardly depends on it. The straggler is always a
  // scratch-stage core, as in bench/ablation_gray: a 4x slow blur core is
  // never flagged by the detector and stretches the run about 3x in
  // simulated time, so a seed that drew one would double this workload's
  // host time (README.md, "chaos_mix").
  Rng rng(opt.seed ^ 0xc4a05c4a05ULL);
  constexpr std::size_t kAnyStage = SIZE_MAX, kScratchStage = 2;
  const auto pick_core = [&](std::size_t stage) {
    const auto& pipe = probe.placement.pipeline_cores[rng.below(
        probe.placement.pipeline_cores.size())];
    return pipe[stage == kAnyStage ? rng.below(pipe.size()) : stage];
  };

  std::vector<RunSpec> specs;
  specs.push_back({"clean", base});

  RunSpec drop{"rcce-drop", base};
  drop.cfg.fault.rcce_drop_rate = 0.05;
  drop.cfg.rcce.retry.max_attempts = 12;
  drop.cfg.rcce.retry.timeout = SimTime::ms(5);
  drop.cfg.rcce.retry.backoff = SimTime::ms(1);
  specs.push_back(drop);

  // Lossy host link under the ARQ window at twice the closed-loop
  // capacity; frames older than two feeder-queue drains are shed.
  RunSpec lossy{"lossy-arq", base};
  lossy.cfg.rcce.retry.max_attempts = 8;
  lossy.cfg.rcce.retry.timeout = SimTime::ms(50);
  lossy.cfg.rcce.retry.backoff = SimTime::ms(1);
  lossy.cfg.overload.window = 8;
  lossy.cfg.overload.queue_depth = 4;
  lossy.cfg.overload.offered_fps = 2.0 * capacity_fps;
  lossy.cfg.overload.frame_deadline = SimTime::sec(
      2.0 * (lossy.cfg.overload.queue_depth + 1) / capacity_fps);
  const Status plan =
      lossy.cfg.fault.parse("host-drop=0.10;reorder=0.05:2ms;duplicate=0.05:1ms");
  if (!plan.ok()) throw std::runtime_error(plan.to_string());
  lossy.cfg.fault.seed = base.fault.seed;
  specs.push_back(lossy);

  RunSpec dead{"core-fail", base};
  dead.cfg.fault.core_failures.push_back(
      {pick_core(kAnyStage), SimTime::ms(length_ms * rng.uniform(0.3, 0.6))});
  specs.push_back(dead);

  RunSpec slow{"gray-slow", base};
  slow.cfg.fault.slow_cores.push_back(
      SlowCore{pick_core(kScratchStage), 4.0,
               SimTime::ms(length_ms * rng.uniform(0.2, 0.3))});
  slow.cfg.gray.detect_factor = 1.3;
  slow.cfg.gray.detect_windows = 3;
  slow.cfg.gray.policy = GrayPolicy::Rebalance;
  specs.push_back(slow);

  const std::filesystem::path tmp =
      std::filesystem::path(opt.out_dir) /
      ("tmp-chaos-" + std::to_string(::getpid()));
  std::filesystem::create_directories(tmp);
  RunSpec crash{"crash", base};
  crash.cfg.fault.crashes.push_back(
      SimTime::ms(length_ms * rng.uniform(0.4, 0.6)));
  crash.cfg.checkpoint.every_frames = std::max(1, frames / 8);
  crash.cfg.checkpoint.file = (tmp / "walkthrough.snap").string();
  specs.push_back(crash);
  RunSpec resume = crash;
  resume.name = "resume";
  resume.cfg.checkpoint.resume = true;
  specs.push_back(resume);
  const std::size_t kClean = 0, kCrash = 5, kResume = 6;

  Rotation rot(opt, tracer, report, specs.size());
  DigestBook book(opt, "chaos_mix");
  SimTotals sim(specs.size());
  RunContext ctx{world, rot, tracer, report, book, sim, frames};
  std::uint64_t clean_digest = 0;
  while (rot.next_pass()) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (i == kCrash) {
        Timed t(tracer, "bench.reset", static_cast<int>(i));
        std::filesystem::remove(crash.cfg.checkpoint.file);
      }
      const std::optional<RunResult> r =
          timed_run(ctx, specs[i], i, /*expect_complete=*/i != kCrash);
      if (!r) continue;
      Timed t(tracer, "bench.check", static_cast<int>(i));
      const CheckpointReport& c = r->checkpoint;
      if (i == kClean) clean_digest = digest_run(*r);
      if (i == kCrash) {
        report.check(c.crashed && c.error_code == StatusCode::Ok &&
                         c.checkpoints_written > 0,
                     "crash: expected a planned crash after a checkpoint; " +
                         c.error);
      }
      if (i == kResume) {
        report.check(c.resumed && c.resume_verified && !c.crashed &&
                         c.error_code == StatusCode::Ok,
                     "resume: not verified; " + c.error);
        report.check(digest_run(*r) == clean_digest,
                     "resume: digest differs from the uncrashed run");
      }
    }
    rot.end_pass();
  }
  std::filesystem::remove_all(tmp);

  Outcome out;
  const double fastest = rot.all().sum_of_fastest();
  out.frames_per_s = fastest > 0.0 ? sim.frames_shown / fastest : 0.0;
  out.paper_mape_pct =
      scaled_error_pct(probe.walkthrough.to_sec(), frames, kMcpcOrderedK4);
  out.mape_note = "clean run vs Table 1 MCPC ordered k=4, scaled to 400";
  save_golden(opt, book, report);
  report_metrics(report, tracer, st, tc, rot, sim, out);
}

}  // namespace sccbench
