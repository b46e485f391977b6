// Self-healing pipeline (core/recovery.hpp + walkthrough integration):
// fail-stop core faults are detected by heartbeat silence within a bounded
// latency, dead stages remap onto spare cores (or the run degrades to
// fewer pipelines when spares run out), undelivered strips replay from the
// per-stage checkpoint, and the whole recovery path is seeded-deterministic.
// Also covers the CRC-32 integrity net and the retry-backoff cap.

#include <gtest/gtest.h>

#include <cstring>

#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/sim/fault.hpp"
#include "sccpipe/support/crc.hpp"

namespace sccpipe {
namespace {

// Shared small scene (built once; the binary's only expensive setup).
const SceneBundle& shared_scene() {
  static SceneBundle* scene = [] {
    CityParams city;
    city.blocks_x = 4;
    city.blocks_z = 4;
    return new SceneBundle(city, CameraConfig{}, 80, 8);
  }();
  return *scene;
}

const WorkloadTrace& shared_trace() {
  static WorkloadTrace* trace =
      new WorkloadTrace(WorkloadTrace::build(shared_scene(), 4));
  return *trace;
}

RunConfig base_config() {
  RunConfig cfg;
  cfg.scenario = Scenario::HostRenderer;
  cfg.pipelines = 3;
  return cfg;
}

// Tight watchdog so failures land and resolve inside an 8-frame run.
RecoveryConfig fast_recovery() {
  RecoveryConfig rc;
  rc.heartbeat_period = SimTime::us(200);
  rc.detection_deadline = SimTime::us(500);
  return rc;
}

/// Worst-case detection latency for fast_recovery(): the deadline itself,
/// plus up to two heartbeat periods of tick quantisation, plus a generous
/// allowance for mesh transit of the liveness datagrams.
constexpr double kDetectBoundMs = 0.5 + 2 * 0.2 + 0.3;

// Clean reference run: supplies the deterministic placement (to pick
// victim cores) and the fault-free walkthrough length (to pick failure
// times that land mid-stream).
const RunResult& clean_run() {
  static RunResult* r = new RunResult(
      run_walkthrough(shared_scene(), shared_trace(), base_config()));
  return *r;
}

SimTime mid_run_instant(double fraction) {
  return SimTime::ms(clean_run().walkthrough.to_ms() * fraction);
}

RunConfig core_fail_config(CoreId victim, double fraction) {
  RunConfig cfg = base_config();
  cfg.fault.seed = 4;
  cfg.fault.core_failures.push_back({victim, mid_run_instant(fraction)});
  cfg.recovery = fast_recovery();
  return cfg;
}

// One remap run, reused by several assertions below.
const RunResult& remap_run() {
  static RunResult* r = [] {
    const CoreId victim = clean_run().placement.pipeline_cores[1][2];
    return new RunResult(run_walkthrough(shared_scene(), shared_trace(),
                                         core_fail_config(victim, 0.3)));
  }();
  return *r;
}

// ----------------------------------------------------------------- crc32

TEST(Crc32, MatchesTheIeeeCheckValue) {
  const char check[] = "123456789";
  EXPECT_EQ(crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const char data[] = "the quick brown fox jumps over the lazy dog";
  const std::size_t n = std::strlen(data);
  const std::uint32_t whole = crc32(data, n);
  // Seed chaining.
  EXPECT_EQ(crc32(data + 10, n - 10, crc32(data, 10)), whole);
  // Streaming helper.
  Crc32 acc;
  acc.update(data, 7);
  acc.update(data + 7, n - 7);
  EXPECT_EQ(acc.value(), whole);
  // Sensitivity: a single flipped byte changes the checksum.
  char mutated[sizeof(data)];
  std::memcpy(mutated, data, sizeof(data));
  mutated[3] ^= 0x01;
  EXPECT_NE(crc32(mutated, n), whole);
}

// ---------------------------------------------------------- retry backoff

TEST(RetryPolicy, BackoffIsCappedAtMaxBackoff) {
  RetryPolicy rp;
  rp.backoff = SimTime::ms(2);
  rp.backoff_factor = 10.0;
  rp.max_backoff = SimTime::ms(50);
  EXPECT_EQ(rp.backoff_after(1), SimTime::ms(2));
  EXPECT_EQ(rp.backoff_after(2), SimTime::ms(20));
  EXPECT_EQ(rp.backoff_after(3), SimTime::ms(50));   // 200 -> capped
  EXPECT_EQ(rp.backoff_after(10), SimTime::ms(50));  // no overflow blowup
  EXPECT_EQ(rp.backoff_after(64), SimTime::ms(50));  // 10^63 would overflow
}

// ------------------------------------------------------------- plan parse

TEST(FaultPlan, CoreFailEntriesAccumulate) {
  FaultPlan plan;
  ASSERT_TRUE(plan.parse("core-fail=5@100ms").ok());
  ASSERT_TRUE(plan.parse("core-fail=9@250ms").ok());  // repeatable flag
  ASSERT_EQ(plan.core_failures.size(), 2u);
  EXPECT_EQ(plan.core_failures[0].core, 5);
  EXPECT_EQ(plan.core_failures[0].at, SimTime::ms(100));
  EXPECT_EQ(plan.core_failures[1].core, 9);
  EXPECT_EQ(plan.core_failures[1].at, SimTime::ms(250));
  EXPECT_TRUE(plan.enabled());
}

// ----------------------------------------------------- detection + remap

TEST(Supervisor, DetectionLatencyIsBounded) {
  const RunResult& r = remap_run();
  ASSERT_TRUE(r.recovery.enabled);
  ASSERT_EQ(r.recovery.failures_detected, 1u);
  ASSERT_EQ(r.recovery.failures.size(), 1u);
  const FailureRecord& rec = r.recovery.failures[0];
  EXPECT_GT(rec.detection_latency_ms, 0.0);
  EXPECT_LE(rec.detection_latency_ms, kDetectBoundMs);
  EXPECT_DOUBLE_EQ(r.recovery.max_detection_latency_ms,
                   rec.detection_latency_ms);
  // Liveness traffic is paid for, not free.
  EXPECT_GT(r.recovery.heartbeats_sent, 0u);
  EXPECT_GT(r.recovery.heartbeat_bytes, 0.0);
}

TEST(Supervisor, RemapOntoSpareCompletesEveryFrame) {
  const RunResult& r = remap_run();
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  EXPECT_EQ(r.frame_done_ms.size(), 8u);
  EXPECT_EQ(r.recovery.frames_lost, 0u);
  EXPECT_EQ(r.recovery.failures_recovered, 1u);
  EXPECT_EQ(r.recovery.spares_used, 1);
  EXPECT_EQ(r.recovery.pipelines_lost, 0);
  const FailureRecord& rec = r.recovery.failures[0];
  EXPECT_GE(rec.remapped_to, 0);
  EXPECT_FALSE(rec.degraded);
  EXPECT_TRUE(rec.recovered);
  // The undelivered strips were re-read from the checkpoint and resent.
  EXPECT_GE(r.recovery.frames_replayed, 1u);
  EXPECT_GE(r.recovery.checkpoint_replays, r.recovery.frames_replayed);
  EXPECT_GT(r.recovery.checkpoint_writes, 0u);
  EXPECT_GT(r.recovery.checkpoint_bytes, 0.0);
  // Recovery costs simulated time relative to the clean run.
  EXPECT_GE(r.walkthrough, clean_run().walkthrough);
  EXPECT_GT(r.recovery.post_failure_fps, 0.0);
}

TEST(Supervisor, SpareExhaustionDegradesToFewerPipelines) {
  const CoreId victim = clean_run().placement.pipeline_cores[0][1];
  RunConfig cfg = core_fail_config(victim, 0.3);
  cfg.recovery.max_spares = 0;  // force the degrade path
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  EXPECT_EQ(r.recovery.pipelines_lost, 1);
  EXPECT_EQ(r.recovery.spares_used, 0);
  ASSERT_EQ(r.recovery.failures.size(), 1u);
  EXPECT_TRUE(r.recovery.failures[0].degraded);
  // Frames stuck in the dead pipeline are lost; everything else still
  // arrives, redistributed across the two survivors.
  EXPECT_GE(r.recovery.frames_lost, 1u);
  EXPECT_EQ(r.frame_done_ms.size() + r.recovery.frames_lost, 8u);
}

TEST(Supervisor, SecondFailureOnSamePipelineRemapsAgain) {
  const auto& cores = clean_run().placement.pipeline_cores;
  RunConfig cfg = base_config();
  cfg.fault.seed = 4;
  cfg.fault.core_failures.push_back({cores[2][0], mid_run_instant(0.25)});
  cfg.fault.core_failures.push_back({cores[2][4], mid_run_instant(0.55)});
  cfg.recovery = fast_recovery();
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  EXPECT_EQ(r.frame_done_ms.size(), 8u);
  EXPECT_EQ(r.recovery.failures_detected, 2u);
  EXPECT_EQ(r.recovery.failures_recovered, 2u);
  EXPECT_EQ(r.recovery.spares_used, 2);
  EXPECT_EQ(r.recovery.frames_lost, 0u);
}

// -------------------------------------------------- replay determinism

TEST(Supervisor, RecoveryRunsAreDeterministic) {
  const CoreId victim = clean_run().placement.pipeline_cores[1][2];
  const RunConfig cfg = core_fail_config(victim, 0.3);
  const RunResult a = run_walkthrough(shared_scene(), shared_trace(), cfg);
  const RunResult b = run_walkthrough(shared_scene(), shared_trace(), cfg);
  ASSERT_FALSE(a.fault.failed) << a.fault.failure;
  EXPECT_EQ(a.walkthrough, b.walkthrough);
  ASSERT_EQ(a.frame_done_ms.size(), b.frame_done_ms.size());
  for (std::size_t i = 0; i < a.frame_done_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.frame_done_ms[i], b.frame_done_ms[i]);
  }
  EXPECT_EQ(a.recovery.failures_detected, b.recovery.failures_detected);
  EXPECT_EQ(a.recovery.frames_replayed, b.recovery.frames_replayed);
  EXPECT_EQ(a.recovery.frames_lost, b.recovery.frames_lost);
  EXPECT_EQ(a.recovery.heartbeats_sent, b.recovery.heartbeats_sent);
  EXPECT_DOUBLE_EQ(a.recovery.max_detection_latency_ms,
                   b.recovery.max_detection_latency_ms);
  ASSERT_EQ(a.recovery.failures.size(), b.recovery.failures.size());
  EXPECT_DOUBLE_EQ(a.recovery.failures[0].detected_at_ms,
                   b.recovery.failures[0].detected_at_ms);
  EXPECT_EQ(a.recovery.failures[0].remapped_to,
            b.recovery.failures[0].remapped_to);
}

TEST(Supervisor, NoCoreFailurePlanLeavesRunsUntouched) {
  // A recovery config alone must change nothing: the supervisor only
  // attaches when the plan actually schedules a core failure, so every
  // other run — including PR 1 style drop/delay runs — stays bit-identical.
  RunConfig cfg = base_config();
  cfg.recovery = fast_recovery();
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  EXPECT_FALSE(r.recovery.enabled);
  EXPECT_EQ(r.recovery.heartbeats_sent, 0u);
  EXPECT_EQ(r.walkthrough, clean_run().walkthrough);
  ASSERT_EQ(r.frame_done_ms.size(), clean_run().frame_done_ms.size());
  for (std::size_t i = 0; i < r.frame_done_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.frame_done_ms[i], clean_run().frame_done_ms[i]);
  }
}

// ----------------------------------------------------------- chaos mix

TEST(Supervisor, ChaosCoreFailMixedWithDropsAndDelays) {
  const auto& cores = clean_run().placement.pipeline_cores;
  RunConfig cfg = base_config();
  cfg.fault.seed = 17;
  cfg.fault.rcce_drop_rate = 0.03;
  cfg.fault.rcce_delay_rate = 0.05;
  cfg.fault.rcce_delay = SimTime::ms(1);
  cfg.fault.rcce_corrupt_rate = 0.02;
  cfg.fault.core_failures.push_back({cores[0][3], mid_run_instant(0.25)});
  cfg.fault.core_failures.push_back({cores[1][1], mid_run_instant(0.6)});
  cfg.recovery = fast_recovery();
  cfg.rcce.retry.max_attempts = 16;
  cfg.rcce.retry.timeout = SimTime::ms(2);

  const RunResult a = run_walkthrough(shared_scene(), shared_trace(), cfg);
  const RunResult b = run_walkthrough(shared_scene(), shared_trace(), cfg);
  // Whatever the outcome, it is the *same* outcome: the chaos cocktail is
  // fully seeded.
  EXPECT_EQ(a.fault.failed, b.fault.failed);
  EXPECT_EQ(a.fault.fingerprint, b.fault.fingerprint);
  EXPECT_EQ(a.walkthrough, b.walkthrough);
  EXPECT_EQ(a.recovery.failures_detected, b.recovery.failures_detected);
  EXPECT_EQ(a.recovery.frames_replayed, b.recovery.frames_replayed);
  EXPECT_EQ(a.recovery.frames_lost, b.recovery.frames_lost);
  ASSERT_EQ(a.frame_done_ms.size(), b.frame_done_ms.size());
  for (std::size_t i = 0; i < a.frame_done_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.frame_done_ms[i], b.frame_done_ms[i]);
  }
  // Both failures remap (spares abound on a 48-core chip), and the run
  // still accounts for every frame.
  ASSERT_FALSE(a.fault.failed) << a.fault.failure;
  EXPECT_EQ(a.recovery.failures_recovered, 2u);
  EXPECT_EQ(static_cast<unsigned>(a.frame_done_ms.size()) +
                static_cast<unsigned>(a.recovery.frames_lost),
            8u);
}

// ------------------------------------------------------- n-rend scenario

const RunResult& clean_nrend_run() {
  static RunResult* r = [] {
    RunConfig cfg = base_config();
    cfg.scenario = Scenario::RendererPerPipeline;
    return new RunResult(run_walkthrough(shared_scene(), shared_trace(), cfg));
  }();
  return *r;
}

TEST(Supervisor, RendererCoreFailureRemapsInNRend) {
  const RunResult& clean = clean_nrend_run();
  RunConfig cfg = base_config();
  cfg.scenario = Scenario::RendererPerPipeline;
  cfg.fault.seed = 4;
  cfg.fault.core_failures.push_back(
      {clean.placement.pipeline_cores[1][0],  // a renderer core
       SimTime::ms(clean.walkthrough.to_ms() * 0.3)});
  cfg.recovery = fast_recovery();
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  EXPECT_EQ(r.frame_done_ms.size(), 8u);
  EXPECT_EQ(r.recovery.failures_recovered, 1u);
  EXPECT_EQ(r.recovery.spares_used, 1);
  EXPECT_EQ(r.recovery.frames_lost, 0u);
  EXPECT_GE(r.walkthrough, clean.walkthrough);
}

TEST(Supervisor, NRendWithoutSparesFailsGracefully) {
  const RunResult& clean = clean_nrend_run();
  RunConfig cfg = base_config();
  cfg.scenario = Scenario::RendererPerPipeline;
  cfg.fault.seed = 4;
  cfg.fault.core_failures.push_back(
      {clean.placement.pipeline_cores[1][0],
       SimTime::ms(clean.walkthrough.to_ms() * 0.3)});
  cfg.recovery = fast_recovery();
  cfg.recovery.max_spares = 0;
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  // Degrading n-rend would need surviving renderers to re-render with new
  // frusta mid-stream; the run fails with a typed error instead of hanging.
  EXPECT_TRUE(r.fault.failed);
  EXPECT_EQ(r.fault.failure_code, StatusCode::Unavailable);
}

// -------------------------------------------- unrecoverable single points

TEST(Supervisor, ProducerDeathFailsGracefully) {
  const CoreId victim = clean_run().placement.producer;
  const RunConfig cfg = core_fail_config(victim, 0.3);
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  EXPECT_TRUE(r.fault.failed);
  EXPECT_EQ(r.fault.failure_code, StatusCode::Unavailable);
  EXPECT_EQ(r.recovery.failures_detected, 1u);
  EXPECT_EQ(r.recovery.failures_recovered, 0u);
}

TEST(Supervisor, TransferDeathFailsGracefully) {
  // The transfer core doubles as the watchdog monitor; its death is
  // noticed by the run driver rather than by on-chip heartbeats, and the
  // run ends with a typed error instead of a silent hang.
  const CoreId victim = clean_run().placement.transfer;
  const RunConfig cfg = core_fail_config(victim, 0.3);
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  EXPECT_TRUE(r.fault.failed);
  EXPECT_EQ(r.fault.failure_code, StatusCode::Unavailable);
}

// ------------------------------------------------------- crc end-to-end

TEST(Supervisor, CorruptionIsCaughtAndRetriedNeverDeliveredSilently) {
  RunConfig cfg = base_config();
  cfg.fault.seed = 23;
  cfg.fault.rcce_corrupt_rate = 0.1;
  cfg.fault.host_corrupt_rate = 0.1;
  cfg.rcce.retry.max_attempts = 16;
  cfg.rcce.retry.timeout = SimTime::ms(2);
  const RunResult r = run_walkthrough(shared_scene(), shared_trace(), cfg);
  ASSERT_FALSE(r.fault.failed) << r.fault.failure;
  // Every frame still arrives — corruption behaves exactly like loss...
  EXPECT_EQ(r.frame_done_ms.size(), 8u);
  EXPECT_GT(r.fault.rcce_corrupts, 0u);
  EXPECT_GT(r.fault.host_corrupts, 0u);
  // ...because each detected corruption triggered a retransmission. (Were
  // any corrupt payload delivered as-is, the transport's CRC verification
  // would abort the run.)
  EXPECT_GE(r.fault.rcce_retransmissions, r.fault.rcce_corrupts);
  EXPECT_GE(r.fault.host_retransmissions, r.fault.host_corrupts);
}

// -------------------------------------------------------- config validation

// The CLI-facing guard: a detection deadline under two heartbeat periods
// declares a core dead after a single late heartbeat, which is a config
// mistake, not a tighter setting. It must be rejected before a run starts,
// with a typed error naming the flags.
TEST(RecoveryValidation, DeadlineUnderTwoHeartbeatsRejected) {
  RunConfig cfg;
  cfg.recovery.heartbeat_period = SimTime::ms(10);
  cfg.recovery.detection_deadline = SimTime::ms(15);
  const Status st = validate(cfg);
  EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
  EXPECT_NE(st.message().find("--detect-ms"), std::string::npos);
  EXPECT_NE(st.message().find("--heartbeat-ms"), std::string::npos);
}

TEST(RecoveryValidation, ExactlyTwoHeartbeatsAccepted) {
  RunConfig cfg;
  cfg.recovery.heartbeat_period = SimTime::ms(10);
  cfg.recovery.detection_deadline = SimTime::ms(20);
  EXPECT_TRUE(validate(cfg).ok());
}

TEST(RecoveryValidation, DefaultsAccepted) {
  EXPECT_TRUE(validate(RunConfig{}).ok());
}

TEST(RecoveryValidation, NonPositiveHeartbeatRejected) {
  RunConfig cfg;
  cfg.recovery.heartbeat_period = SimTime::zero();
  EXPECT_EQ(validate(cfg).code(), StatusCode::InvalidArgument);
}

}  // namespace
}  // namespace sccpipe
