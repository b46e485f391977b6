#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/filters/filters.hpp"
#include "sccpipe/support/crc.hpp"

namespace sccpipe {
namespace {

/// Shared scene for all integration tests: small city, 120x120 frames,
/// 12-frame walkthrough, up to 4 pipelines. Built once per binary.
class WalkthroughFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityParams city;
    city.blocks_x = 5;
    city.blocks_z = 5;
    scene_ = new SceneBundle(city, CameraConfig{}, 120, 12);
    trace_ = new WorkloadTrace(WorkloadTrace::build(*scene_, 4));
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete scene_;
    trace_ = nullptr;
    scene_ = nullptr;
  }

  static const SceneBundle& scene() { return *scene_; }
  static const WorkloadTrace& trace() { return *trace_; }

  static RunConfig config(Scenario s, int k,
                          Arrangement a = Arrangement::Ordered) {
    RunConfig cfg;
    cfg.scenario = s;
    cfg.pipelines = k;
    cfg.arrangement = a;
    return cfg;
  }

  static SceneBundle* scene_;
  static WorkloadTrace* trace_;
};

SceneBundle* WalkthroughFixture::scene_ = nullptr;
WorkloadTrace* WalkthroughFixture::trace_ = nullptr;

// ------------------------------------------------------------ WorkloadTrace

TEST_F(WalkthroughFixture, TraceDimensions) {
  EXPECT_EQ(trace().frame_count(), 12);
  EXPECT_EQ(trace().max_k(), 4);
  EXPECT_THROW(trace().load(0, 5, 0), CheckError);
  EXPECT_THROW(trace().load(12, 1, 0), CheckError);
  EXPECT_THROW(trace().load(0, 2, 2), CheckError);
}

TEST_F(WalkthroughFixture, TraceLoadsAreMeaningful) {
  const RenderLoad& whole = trace().whole(0);
  EXPECT_GT(whole.nodes_visited, 0.0);
  EXPECT_GT(whole.tris_accepted, 0.0);
  EXPECT_GT(whole.projected_pixels, 0.0);
  // Strips see no more triangles than the whole frame.
  for (int s = 0; s < 4; ++s) {
    EXPECT_LE(trace().load(3, 4, s).tris_accepted, 1.0 + whole.tris_accepted);
  }
}

// --------------------------------------------------------- one-core baseline

TEST_F(WalkthroughFixture, SingleCoreBreakdownCoversAllStages) {
  const SingleCoreBreakdown b =
      run_single_core(scene(), trace(), config(Scenario::SingleCore, 1));
  EXPECT_EQ(b.per_stage.size(), 7u);  // render + 5 filters + transfer
  SimTime sum = SimTime::zero();
  for (const auto& [kind, t] : b.per_stage) {
    EXPECT_GT(t, SimTime::zero()) << stage_name(kind);
    sum += t;
  }
  EXPECT_EQ(sum, b.total);
  // Blur dominates the filters (Fig. 8).
  EXPECT_GT(b.stage_time(StageKind::Blur), b.stage_time(StageKind::Sepia));
  EXPECT_GT(b.stage_time(StageKind::Blur), b.stage_time(StageKind::Swap));
}

TEST_F(WalkthroughFixture, SingleCoreReducedVariants) {
  const RunConfig cfg = config(Scenario::SingleCore, 1);
  const SingleCoreBreakdown full = run_single_core(scene(), trace(), cfg);
  const SingleCoreBreakdown rt =
      run_single_core(scene(), trace(), cfg, false, true);
  const SingleCoreBreakdown r =
      run_single_core(scene(), trace(), cfg, false, false);
  // Paper §VI-A: render+transfer ~104 s << full 382 s; render-only ~94 s.
  EXPECT_LT(rt.total, 0.5 * full.total);
  EXPECT_LT(r.total, rt.total);
  EXPECT_EQ(r.per_stage.size(), 1u);
}

// ------------------------------------------------------------ full pipeline

TEST_F(WalkthroughFixture, EveryScenarioCompletesAllFrames) {
  for (const Scenario s :
       {Scenario::SingleRenderer, Scenario::RendererPerPipeline,
        Scenario::HostRenderer}) {
    for (int k = 1; k <= 4; k += 3) {
      const RunResult r = run_walkthrough(scene(), trace(), config(s, k));
      EXPECT_EQ(r.frame_done_ms.size(), 12u) << scenario_name(s);
      EXPECT_GT(r.walkthrough, SimTime::zero());
      // Frames arrive in order.
      for (std::size_t i = 1; i < r.frame_done_ms.size(); ++i) {
        EXPECT_LT(r.frame_done_ms[i - 1], r.frame_done_ms[i]);
      }
    }
  }
}

TEST_F(WalkthroughFixture, PipeliningBeatsSingleCore) {
  const SingleCoreBreakdown base =
      run_single_core(scene(), trace(), config(Scenario::SingleCore, 1));
  const RunResult r =
      run_walkthrough(scene(), trace(), config(Scenario::SingleRenderer, 1));
  EXPECT_LT(r.walkthrough, base.total);
}

TEST_F(WalkthroughFixture, MorePipelinesNeverMuchSlower) {
  for (const Scenario s :
       {Scenario::RendererPerPipeline, Scenario::HostRenderer}) {
    SimTime prev = SimTime::zero();
    for (int k = 1; k <= 4; ++k) {
      const RunResult r = run_walkthrough(scene(), trace(), config(s, k));
      if (k > 1) {
        EXPECT_LT(r.walkthrough, prev * 1.1)
            << scenario_name(s) << " k=" << k;
      }
      prev = r.walkthrough;
    }
  }
}

TEST_F(WalkthroughFixture, RunsAreDeterministic) {
  const RunResult a =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 3));
  const RunResult b =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 3));
  EXPECT_EQ(a.walkthrough, b.walkthrough);
  EXPECT_EQ(a.frame_done_ms, b.frame_done_ms);
  EXPECT_EQ(a.chip_energy_joules, b.chip_energy_joules);
}

TEST_F(WalkthroughFixture, ArrangementsAreWithinNoiseOfEachOther) {
  // The paper's central null result (§VI-A): arrangement does not matter.
  for (const Scenario s :
       {Scenario::SingleRenderer, Scenario::RendererPerPipeline,
        Scenario::HostRenderer}) {
    const double t_unordered =
        run_walkthrough(scene(), trace(),
                        config(s, 3, Arrangement::Unordered))
            .walkthrough.to_sec();
    const double t_ordered =
        run_walkthrough(scene(), trace(), config(s, 3, Arrangement::Ordered))
            .walkthrough.to_sec();
    const double t_flipped =
        run_walkthrough(scene(), trace(), config(s, 3, Arrangement::Flipped))
            .walkthrough.to_sec();
    EXPECT_NEAR(t_unordered / t_ordered, 1.0, 0.06) << scenario_name(s);
    EXPECT_NEAR(t_flipped / t_ordered, 1.0, 0.06) << scenario_name(s);
  }
}

TEST_F(WalkthroughFixture, StageReportsAreComplete) {
  const RunResult r =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 2));
  // 2 pipelines x 5 filters + connect + transfer.
  EXPECT_EQ(r.stages.size(), 12u);
  const StageReport* blur = r.stage(StageKind::Blur, 1);
  ASSERT_NE(blur, nullptr);
  EXPECT_EQ(blur->frames, 12);
  EXPECT_GT(blur->busy_ms, 0.0);
  EXPECT_EQ(blur->wait_ms.count, 12u);
  const StageReport* connect = r.stage(StageKind::Connect);
  ASSERT_NE(connect, nullptr);
  EXPECT_GT(connect->busy_ms, 0.0);
}

// A run that fails early reports the frames its stages really rendered
// and delivered, so per-frame busy figures divide by work that happened.
TEST_F(WalkthroughFixture, FailedRunStageFramesCountWhatRan) {
  for (const Scenario s :
       {Scenario::SingleRenderer, Scenario::RendererPerPipeline,
        Scenario::HostRenderer}) {
    RunConfig cfg = config(s, 3);
    cfg.fault.seed = 3;
    cfg.fault.rcce_drop_rate = 0.05;
    cfg.rcce.retry.max_attempts = 1;
    const RunResult r = run_walkthrough(scene(), trace(), cfg);
    ASSERT_TRUE(r.fault.failed) << scenario_name(s);
    ASSERT_LT(r.fault.frames_completed, 12) << scenario_name(s);
    for (const StageReport& st : r.stages) {
      if (st.kind == StageKind::Transfer) {
        EXPECT_EQ(st.frames, r.fault.frames_completed) << scenario_name(s);
      }
      if (st.kind == StageKind::Render) {
        EXPECT_LT(st.frames, 12) << scenario_name(s) << " pl " << st.pipeline;
      }
    }
    // A complete run still reports every frame on every stage.
    const RunResult clean = run_walkthrough(scene(), trace(), config(s, 3));
    for (const StageReport& st : clean.stages) {
      EXPECT_EQ(st.frames, 12) << scenario_name(s) << " "
                               << stage_name(st.kind);
    }
  }
}

TEST_F(WalkthroughFixture, WalkthroughAtLeastMaxStageBusy) {
  // Lower bound: the pipeline can never beat its busiest stage.
  const RunResult r =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 2));
  for (const StageReport& st : r.stages) {
    EXPECT_GE(r.walkthrough.to_ms(), st.busy_ms);
  }
}

TEST_F(WalkthroughFixture, PowerAndEnergyAccounting) {
  const RunResult a =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 1));
  const RunResult b =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 4));
  // More pipelines -> more allocated cores -> higher mean power (Fig. 14).
  EXPECT_GT(b.mean_chip_watts, a.mean_chip_watts);
  // Energy == mean power x duration (definition consistency).
  EXPECT_NEAR(a.chip_energy_joules,
              a.mean_chip_watts * a.walkthrough.to_sec(),
              0.01 * a.chip_energy_joules);
  // The host worked (rendered) and its extra energy is accounted.
  EXPECT_GT(a.host_busy_sec, 0.0);
  EXPECT_NEAR(a.host_extra_energy_joules, a.host_busy_sec * 28.0, 1e-6);
}

TEST_F(WalkthroughFixture, HostSpendsLittleTimeBusy) {
  // §VI-B: the MCPC idles most of the run.
  const RunResult r =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 4));
  EXPECT_LT(r.host_busy_sec, 0.3 * r.walkthrough.to_sec());
}

TEST_F(WalkthroughFixture, DvfsBlurBoostSpeedsUpAndCostsPower) {
  RunConfig base = config(Scenario::HostRenderer, 1);
  base.isolate_blur_tile = true;
  RunConfig fast = base;
  fast.blur_mhz = 800;
  const RunResult r0 = run_walkthrough(scene(), trace(), base);
  const RunResult r1 = run_walkthrough(scene(), trace(), fast);
  EXPECT_LT(r1.walkthrough.to_sec(), 0.85 * r0.walkthrough.to_sec());
  EXPECT_GT(r1.mean_chip_watts, r0.mean_chip_watts + 1.0);
  // Fig. 16: the gain is clearly below the 1.5x frequency ratio.
  EXPECT_GT(r1.walkthrough.to_sec(), r0.walkthrough.to_sec() / 1.5);
}

TEST_F(WalkthroughFixture, DvfsTailSlowdownSavesPowerNotTime) {
  RunConfig fast = config(Scenario::HostRenderer, 1);
  fast.isolate_blur_tile = true;
  fast.blur_mhz = 800;
  RunConfig mixed = fast;
  mixed.tail_mhz = 400;
  const RunResult r1 = run_walkthrough(scene(), trace(), fast);
  const RunResult r2 = run_walkthrough(scene(), trace(), mixed);
  // §VI-D: performance similar, power lower.
  EXPECT_NEAR(r2.walkthrough.to_sec(), r1.walkthrough.to_sec(),
              0.12 * r1.walkthrough.to_sec());
  EXPECT_LT(r2.mean_chip_watts, r1.mean_chip_watts - 2.0);
}

TEST_F(WalkthroughFixture, ClusterIsMuchFasterThanScc) {
  // Fig. 13: modern HPC cores finish the walkthrough several times sooner.
  for (const Scenario s :
       {Scenario::SingleRenderer, Scenario::RendererPerPipeline}) {
    RunConfig scc = config(s, 3);
    RunConfig hpc = scc;
    hpc.platform = PlatformKind::Cluster;
    const RunResult a = run_walkthrough(scene(), trace(), scc);
    const RunResult b = run_walkthrough(scene(), trace(), hpc);
    EXPECT_LT(b.walkthrough.to_sec(), 0.3 * a.walkthrough.to_sec())
        << scenario_name(s);
  }
}

TEST_F(WalkthroughFixture, DownstreamStagesWaitOnTheirInput) {
  // Fig. 15's concept: with one pipeline, the cheap stages spend most of
  // the cycle waiting while blur works.
  const RunResult r =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 1));
  const StageReport* blur = r.stage(StageKind::Blur, 0);
  const StageReport* scratch = r.stage(StageKind::Scratch, 0);
  ASSERT_NE(blur, nullptr);
  ASSERT_NE(scratch, nullptr);
  EXPECT_GT(scratch->wait_ms.median, blur->wait_ms.median);
}

TEST_F(WalkthroughFixture, FabricReportAccountsTraffic) {
  const RunResult r =
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 3));
  // Every frame's strips cross the mesh and the controllers repeatedly.
  const double frame_bytes = 120.0 * 120.0 * 4.0;
  EXPECT_GT(r.fabric.mesh_total_bytes, 12.0 * frame_bytes);
  EXPECT_GT(r.fabric.mesh_max_link_bytes, 0.0);
  EXPECT_LE(r.fabric.mesh_max_link_bytes, r.fabric.mesh_total_bytes);
  ASSERT_EQ(r.fabric.mc_bulk_bytes.size(), 4u);
  double mc_sum = 0.0;
  for (const double b : r.fabric.mc_bulk_bytes) mc_sum += b;
  EXPECT_GT(mc_sum, 2.0 * 12.0 * frame_bytes);  // the DRAM bounce
}

TEST_F(WalkthroughFixture, RenderersRegisterAsLatencyStreams) {
  const RunResult r = run_walkthrough(
      scene(), trace(), config(Scenario::RendererPerPipeline, 4));
  std::uint64_t peak = 0;
  for (const std::uint64_t p : r.fabric.mc_latency_streams_peak) {
    peak = std::max(peak, p);
  }
  EXPECT_GE(peak, 1u);  // concurrent octree walkers were observed
}

TEST_F(WalkthroughFixture, LocalMemoryBanksReduceMcTraffic) {
  RunConfig base = config(Scenario::HostRenderer, 2);
  RunConfig banks = base;
  banks.rcce.local_memory_banks = true;
  const RunResult a = run_walkthrough(scene(), trace(), base);
  const RunResult b = run_walkthrough(scene(), trace(), banks);
  double mc_a = 0.0, mc_b = 0.0;
  for (const double v : a.fabric.mc_bulk_bytes) mc_a += v;
  for (const double v : b.fabric.mc_bulk_bytes) mc_b += v;
  EXPECT_LT(mc_b, 0.7 * mc_a);  // the bounce is gone
  EXPECT_LE(b.walkthrough, a.walkthrough);
}

TEST_F(WalkthroughFixture, TraceTooSmallRejected) {
  EXPECT_THROW(
      run_walkthrough(scene(), trace(), config(Scenario::HostRenderer, 5)),
      CheckError);
  EXPECT_THROW(run_walkthrough(scene(), trace(),
                               config(Scenario::SingleCore, 1)),
               CheckError);
}

// ------------------------------------------------------- functional pixels

/// Reference pipeline: what the viewer should see for frame f with k
/// strips — render, per-strip filters, mirrored assembly.
Image reference_frame(const SceneBundle& scene, int frame, int k,
                      std::uint64_t seed) {
  const Image whole = scene.renderer().render(scene.path().view(frame));
  const int side = scene.image_side();
  Image out(side, side);
  for (const StripRange& s : divide_rows(side, k)) {
    Image strip = whole.strip(s);
    apply_sepia(strip);
    apply_blur(strip);
    apply_scratches(strip, scratch_params_for_frame(seed, frame, side));
    apply_flicker(strip, flicker_params_for_frame(seed, frame));
    apply_vflip(strip);
    out.paste(strip, side - s.y0 - s.rows);
  }
  return out;
}

TEST_F(WalkthroughFixture, FunctionalPipelineMatchesReference) {
  for (const Scenario s :
       {Scenario::SingleRenderer, Scenario::HostRenderer}) {
    RunConfig cfg = config(s, 3);
    cfg.functional = true;
    const RunResult r = run_walkthrough(scene(), trace(), cfg);
    ASSERT_EQ(r.frames.size(), 12u) << scenario_name(s);
    for (const int f : {0, 5, 11}) {
      EXPECT_EQ(r.frames[static_cast<std::size_t>(f)],
                reference_frame(scene(), f, 3, cfg.seed))
          << scenario_name(s) << " frame " << f;
    }
  }
}

TEST_F(WalkthroughFixture, FunctionalRendererPerPipelineMatchesReference) {
  RunConfig cfg = config(Scenario::RendererPerPipeline, 2);
  cfg.functional = true;
  const RunResult r = run_walkthrough(scene(), trace(), cfg);
  ASSERT_EQ(r.frames.size(), 12u);
  // Per-strip rendering equals whole-frame rendering (sort-first), so the
  // same reference applies.
  EXPECT_EQ(r.frames[4], reference_frame(scene(), 4, 2, cfg.seed));
}

TEST_F(WalkthroughFixture, FunctionalOutputIndependentOfTiming) {
  // Same scenario, different arrangements: identical pixels.
  RunConfig a = config(Scenario::HostRenderer, 3, Arrangement::Unordered);
  RunConfig b = config(Scenario::HostRenderer, 3, Arrangement::Flipped);
  a.functional = b.functional = true;
  const RunResult ra = run_walkthrough(scene(), trace(), a);
  const RunResult rb = run_walkthrough(scene(), trace(), b);
  EXPECT_EQ(ra.frames[7], rb.frames[7]);
}

// Differential validation of the cheap model against the detailed one:
// carrying real pixels through the pipeline must not move a single event,
// so timed and functional runs agree on the whole schedule.
TEST_F(WalkthroughFixture, TimedAndFunctionalRunsAgreeOnTiming) {
  for (const Scenario s : {Scenario::SingleRenderer,
                           Scenario::RendererPerPipeline,
                           Scenario::HostRenderer}) {
    for (const int k : {1, 3, 4}) {
      RunConfig cfg = config(s, k);
      const RunResult timed = run_walkthrough(scene(), trace(), cfg);
      cfg.functional = true;
      const RunResult functional = run_walkthrough(scene(), trace(), cfg);
      const std::string label =
          std::string(scenario_name(s)) + " k=" + std::to_string(k);
      EXPECT_EQ(functional.frames.size(), 12u) << label;
      EXPECT_EQ(timed.events_dispatched, functional.events_dispatched)
          << label;
      EXPECT_EQ(timed.frame_done_ms, functional.frame_done_ms) << label;
      EXPECT_EQ(timed.walkthrough, functional.walkthrough) << label;
    }
  }
}

// ---------------------------------------------------------- event queue

// A walkthrough keeps a few dozen events pending at most, well inside the
// Simulator's default reservation, so a whole run never grows the event
// containers on either platform.
TEST_F(WalkthroughFixture, EventQueueNeverAllocatesInSteadyState) {
  for (const PlatformKind platform :
       {PlatformKind::Scc, PlatformKind::Cluster}) {
    RunConfig cfg = config(Scenario::HostRenderer, 3);
    cfg.platform = platform;
    const RunResult r = run_walkthrough(scene(), trace(), cfg);
    EXPECT_EQ(r.sim_stats.allocs, 0u) << "peak=" << r.sim_stats.peak_events;
    EXPECT_GT(r.sim_stats.peak_events, 0u);
  }
}


// ----------------------------------------------------------- golden runs

/// FNV-1a over everything the pipeline path decides: the benchmark
/// harness's run digest (timings, events, energy, fabric, fault/recovery/
/// transport/gray counters, frame CRCs) plus each stage's wait summary and
/// busy time and the failure text. Pins whole runs bit-for-bit, so a
/// refactor of the walkthrough driver must reproduce them exactly.
class RunDigest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(int v) {
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) add(static_cast<std::uint64_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t golden_digest(const RunResult& r) {
  RunDigest d;
  d.add(static_cast<std::uint64_t>(r.walkthrough.to_ns()));
  d.add(static_cast<std::uint64_t>(r.frame_done_ms.size()));
  for (const double ms : r.frame_done_ms) d.add(ms);
  d.add(r.events_dispatched);
  d.add(r.chip_energy_joules);
  d.add(r.host_busy_sec);
  d.add(r.fabric.mesh_total_bytes);
  d.add(r.fabric.mesh_max_link_bytes);
  for (const double b : r.fabric.mc_bulk_bytes) d.add(b);
  for (const std::uint64_t p : r.fabric.mc_latency_streams_peak) d.add(p);
  const FaultReport& f = r.fault;
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(f.failed),
        static_cast<std::uint64_t>(f.frames_completed), f.rcce_drops,
        f.rcce_delays, f.host_drops, f.host_delays, f.rcce_corrupts,
        f.host_corrupts, f.rcce_retransmissions, f.host_retransmissions,
        f.rcce_transfers_failed, f.fingerprint}) {
    d.add(v);
  }
  d.add(f.failure);
  for (const std::string& e : f.stage_errors) d.add(e);
  const RecoveryReport& rc = r.recovery;
  for (const int v : {rc.failures_detected, rc.failures_recovered,
                      rc.frames_replayed, rc.frames_lost, rc.spares_used,
                      rc.pipelines_lost}) {
    d.add(v);
  }
  d.add(rc.heartbeats_sent);
  d.add(rc.checkpoint_writes);
  d.add(rc.checkpoint_replays);
  d.add(rc.max_detection_latency_ms);
  d.add(r.transport.csv());
  const GrayReport& g = r.gray;
  for (const int v : {g.flags_raised, g.dvfs_boosts, g.migrations,
                      g.rebalances, g.escalations, g.frames_drained}) {
    d.add(v);
  }
  d.add(static_cast<std::uint64_t>(g.actions.size()));
  d.add(g.frames_offered);
  d.add(g.frames_delivered);
  d.add(g.frames_shed);
  for (const Image& img : r.frames) {
    d.add(static_cast<std::uint64_t>(crc32(img.data(), img.byte_size())));
  }
  // Stage rows, minus `frames` (a reporting field, not a pipeline output).
  for (const StageReport& st : r.stages) {
    d.add(static_cast<int>(st.kind));
    d.add(st.pipeline);
    d.add(st.core);
    for (const double v : {st.wait_ms.min, st.wait_ms.q1, st.wait_ms.median,
                           st.wait_ms.q3, st.wait_ms.max}) {
      d.add(v);
    }
    d.add(static_cast<std::uint64_t>(st.wait_ms.count));
    d.add(st.busy_ms);
  }
  return d.value();
}

/// One golden run: a scenario crossed with a feature mix that drives a
/// distinct path through the driver (plain, failed, remapped, degraded,
/// gray-mitigated, overload-controlled, functional).
struct GoldenCase {
  Scenario scenario;
  const char* variant;
  std::uint64_t digest;
};

class WalkthroughGolden : public WalkthroughFixture {
 protected:
  static RunConfig golden_config(Scenario s, const std::string& variant) {
    RunConfig cfg = config(s, 3);
    const RunResult clean = run_walkthrough(scene(), trace(), cfg);
    const auto at = [&clean](double fraction) {
      return SimTime::ms(clean.walkthrough.to_ms() * fraction);
    };
    const auto& cores = clean.placement.pipeline_cores;
    const auto fast_recovery = [&cfg] {
      cfg.recovery.heartbeat_period = SimTime::us(200);
      cfg.recovery.detection_deadline = SimTime::us(500);
    };
    const auto gray = [&](GrayPolicy policy) {
      // Windows wide enough for several stage cores to report in each
      // (a 12-frame run spends ~30 ms per frame).
      cfg.recovery.heartbeat_period = SimTime::ms(10);
      cfg.recovery.detection_deadline = SimTime::ms(25);
      cfg.gray.detect_factor = 1.2;
      cfg.gray.detect_windows = 2;
      cfg.gray.policy = policy;
      cfg.fault.seed = 11;
      cfg.fault.slow_cores.push_back(SlowCore{cores[1][2], 8.0, at(0.2)});
    };
    if (variant == "plain") {
    } else if (variant == "functional") {
      cfg.functional = true;
    } else if (variant == "rcce-drop-fails") {
      cfg.fault.seed = 3;
      cfg.fault.rcce_drop_rate = 0.05;
      cfg.rcce.retry.max_attempts = 1;
    } else if (variant == "remap" || variant == "remap-functional") {
      cfg.fault.seed = 4;
      cfg.fault.core_failures.push_back({cores[1][2], at(0.3)});
      fast_recovery();
      cfg.functional = variant == "remap-functional";
    } else if (variant == "remap-head") {
      cfg.fault.seed = 4;
      cfg.fault.core_failures.push_back({cores[1][0], at(0.3)});
      fast_recovery();
    } else if (variant == "degrade") {
      cfg.fault.seed = 4;
      cfg.fault.core_failures.push_back({cores[1][2], at(0.3)});
      fast_recovery();
      cfg.recovery.max_spares = 0;
    } else if (variant == "gray-migrate") {
      gray(GrayPolicy::Migrate);
    } else if (variant == "gray-rebalance") {
      gray(GrayPolicy::Rebalance);
      cfg.recovery.max_spares = 0;
    } else if (variant == "arq-closed-loop") {
      cfg.overload.window = 4;
      cfg.overload.queue_depth = 2;
      cfg.rcce.retry.max_attempts = 8;
      EXPECT_TRUE(cfg.fault.parse("host-drop=0.1;duplicate=0.05:500us").ok());
    } else if (variant == "arq-open-loop") {
      cfg.overload.window = 4;
      cfg.overload.queue_depth = 2;
      cfg.overload.offered_fps = 400.0;
      cfg.overload.frame_deadline = SimTime::ms(40);
      cfg.rcce.retry.max_attempts = 8;
      EXPECT_TRUE(cfg.fault.parse("host-drop=0.05;duplicate=0.05:500us").ok());
    } else {
      ADD_FAILURE() << "unknown golden variant " << variant;
    }
    return cfg;
  }

  /// The path each variant must actually have taken, so a digest can
  /// never be pinned on a run that silently skipped its feature.
  static void expect_variant_ran(Scenario s, const std::string& variant,
                                 const RunResult& r) {
    if (variant == "rcce-drop-fails") {
      EXPECT_TRUE(r.fault.failed);
    } else if (variant.rfind("remap", 0) == 0) {
      EXPECT_EQ(r.recovery.spares_used, 1);
      EXPECT_FALSE(r.fault.failed) << r.fault.failure;
    } else if (variant == "degrade") {
      // Per-pipeline renderers cannot degrade; the run fails instead.
      if (s == Scenario::RendererPerPipeline) {
        EXPECT_TRUE(r.fault.failed);
      } else {
        EXPECT_EQ(r.recovery.pipelines_lost, 1);
      }
    } else if (variant == "gray-migrate") {
      EXPECT_GE(r.gray.migrations, 1);
    } else if (variant == "gray-rebalance" &&
               s != Scenario::RendererPerPipeline) {
      EXPECT_GE(r.gray.rebalances, 1);
    } else if (variant.rfind("arq", 0) == 0) {
      EXPECT_TRUE(r.transport.enabled);
    } else {
      EXPECT_FALSE(r.fault.failed) << r.fault.failure;
      EXPECT_EQ(r.frame_done_ms.size(), 12u);
    }
    if (variant.find("functional") != std::string::npos) {
      EXPECT_EQ(r.frames.size(), 12u);
    }
  }
};

// Pinned digests: any driver change that alters one of these runs changes
// its digest. Re-record them only for a deliberate behaviour change.
TEST_F(WalkthroughGolden, RunsReproduceRecordedDigests) {
  constexpr Scenario k1 = Scenario::SingleRenderer;
  constexpr Scenario kN = Scenario::RendererPerPipeline;
  constexpr Scenario kH = Scenario::HostRenderer;
  const GoldenCase cases[] = {
      {k1, "plain", 0x2e0fa5d88a544e8cULL},
      {k1, "functional", 0xc11e3168b77c4b30ULL},
      {k1, "rcce-drop-fails", 0xd5c2f924741a66fdULL},
      {k1, "remap", 0x12908631e47c80daULL},
      {k1, "remap-head", 0x68c9a2e226166544ULL},
      {k1, "degrade", 0x312fb26ffdd11143ULL},
      {k1, "gray-migrate", 0xcc582f5993e59388ULL},
      {k1, "gray-rebalance", 0x08c62ad684ed8544ULL},
      {kN, "plain", 0xebfd9a064a197924ULL},
      {kN, "functional", 0x3e98c4260f4e8a18ULL},
      {kN, "rcce-drop-fails", 0x24ec04c4392e3cb4ULL},
      {kN, "remap", 0x2ca585deb78435edULL},
      {kN, "remap-head", 0xd612846a029c5ce4ULL},
      {kN, "degrade", 0x3a80f14dd57b682eULL},
      {kN, "gray-migrate", 0x43d90b36e229a96bULL},
      {kN, "gray-rebalance", 0x0ad679b9b6f9c5b3ULL},
      {kH, "plain", 0xe9f2b93e8e285b90ULL},
      {kH, "functional", 0x829de8f4c256ae54ULL},
      {kH, "rcce-drop-fails", 0xb26585050c4b8221ULL},
      {kH, "remap", 0x7038c321e8cda5caULL},
      {kH, "remap-functional", 0xe818584dd0530206ULL},
      {kH, "remap-head", 0x4932c249d1f52cc3ULL},
      {kH, "degrade", 0x3222eb7e270661b8ULL},
      {kH, "gray-migrate", 0x360fcfbb64fcb0cfULL},
      {kH, "gray-rebalance", 0x41eaface61780124ULL},
      {kH, "arq-closed-loop", 0x4a43fcce38ae932bULL},
      {kH, "arq-open-loop", 0x2bb95123d3b0524cULL},
  };
  for (const GoldenCase& c : cases) {
    const std::string label =
        std::string(scenario_name(c.scenario)) + "/" + c.variant;
    const RunResult r =
        run_walkthrough(scene(), trace(), golden_config(c.scenario, c.variant));
    expect_variant_ran(c.scenario, c.variant, r);
    char hex[24];
    std::snprintf(hex, sizeof hex, "0x%016llxULL",
                  static_cast<unsigned long long>(golden_digest(r)));
    EXPECT_EQ(golden_digest(r), c.digest) << label << " digest " << hex;
  }
}

}  // namespace
}  // namespace sccpipe
