// Tests for the run-configuration front door: validate(RunConfig), the one
// table of illegal feature combinations (every rule has a rejected config
// whose message names the flag, and an accepted neighbour), and the shared
// flag module core/run_flags that both apps parse their command lines with.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sccpipe/core/run_flags.hpp"
#include "sccpipe/core/run_snapshot.hpp"
#include "sccpipe/core/walkthrough.hpp"

namespace sccpipe {
namespace {

/// The CLI's defaults: host renderer, four ordered pipelines on the SCC.
RunConfig cli_default() {
  RunConfig cfg;
  cfg.pipelines = 4;
  return cfg;
}

void expect_rejected(const RunConfig& cfg, const std::string& flag) {
  const Status st = validate(cfg);
  EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << st.to_string();
  EXPECT_NE(st.message().find(flag), std::string::npos)
      << "message should name " << flag << ": " << st.message();
}

void expect_accepted(const RunConfig& cfg) {
  const Status st = validate(cfg);
  EXPECT_TRUE(st.ok()) << st.to_string();
}

// ----------------------------------------------------------- validate rules

TEST(Validate, DefaultsAreValid) {
  expect_accepted(RunConfig{});
  expect_accepted(cli_default());
}

TEST(Validate, SingleCoreScenarioIsNotAWalkthrough) {
  RunConfig cfg = cli_default();
  cfg.scenario = Scenario::SingleCore;
  expect_rejected(cfg, "--scenario");
  cfg.scenario = Scenario::SingleRenderer;
  expect_accepted(cfg);
}

TEST(Validate, PipelinesAtLeastOne) {
  RunConfig cfg = cli_default();
  cfg.pipelines = 0;
  expect_rejected(cfg, "--pipelines");
  cfg.pipelines = -3;
  expect_rejected(cfg, "--pipelines");
  cfg.pipelines = 1;
  expect_accepted(cfg);
}

TEST(Validate, PlacementMustFitThePlatformsChip) {
  RunConfig cfg = cli_default();
  cfg.pipelines = 9;  // ordered: 10 row slots needed, the SCC has 8
  expect_rejected(cfg, "--pipelines");
  cfg.pipelines = 7;
  expect_accepted(cfg);
  cfg.pipelines = 9;
  cfg.platform = PlatformKind::Cluster;  // 12 row slots on the 8x4 node
  expect_accepted(cfg);

  RunConfig nrend = cli_default();  // the sweep's --scenarios n-rend
  nrend.scenario = Scenario::RendererPerPipeline;
  nrend.pipelines = 9;
  expect_rejected(nrend, "--pipelines");
  nrend.pipelines = 7;
  expect_accepted(nrend);

  RunConfig huge = cli_default();
  huge.pipelines = 2'000'000'000;  // refused before anything is sized by it
  expect_rejected(huge, "--pipelines");
}

TEST(Validate, IsolatedBlurNeedsItsOwnTile) {
  RunConfig cfg = cli_default();
  cfg.scenario = Scenario::RendererPerPipeline;
  cfg.arrangement = Arrangement::Unordered;
  cfg.isolate_blur_tile = true;
  cfg.pipelines = 7;
  expect_rejected(cfg, "--isolate-blur");
  cfg.pipelines = 5;
  expect_accepted(cfg);
}

TEST(Validate, AcceptedPlacementsAreBuildable) {
  // validate() and make_placement() share placement_fit(): whatever the
  // former accepts, the latter builds without a CheckError.
  for (const PlatformKind platform :
       {PlatformKind::Scc, PlatformKind::Cluster}) {
    const MeshTopology topo(platform == PlatformKind::Scc
                                ? ChipConfig::scc().mesh_layout
                                : ChipConfig::mogon_node().mesh_layout);
    for (const Scenario s : {Scenario::SingleRenderer,
                             Scenario::RendererPerPipeline,
                             Scenario::HostRenderer}) {
      for (const Arrangement a : {Arrangement::Unordered,
                                  Arrangement::Ordered,
                                  Arrangement::Flipped}) {
        for (const bool isolate : {false, true}) {
          for (int k = 1; k <= 14; ++k) {
            RunConfig cfg;
            cfg.platform = platform;
            cfg.scenario = s;
            cfg.arrangement = a;
            cfg.isolate_blur_tile = isolate;
            cfg.pipelines = k;
            PlacementRequest req;
            req.pipelines = k;
            req.stages_per_pipeline =
                s == Scenario::RendererPerPipeline ? 6 : 5;
            req.needs_producer = s != Scenario::RendererPerPipeline;
            req.isolate_blur_tile = isolate;
            const bool valid = validate(cfg).ok();
            EXPECT_EQ(valid, placement_fit(topo, a, req).ok());
            if (valid) {
              EXPECT_NO_THROW(make_placement(topo, a, req))
                  << platform_name(platform) << " " << scenario_name(s)
                  << " " << arrangement_name(a) << " k=" << k;
            } else {
              EXPECT_THROW(make_placement(topo, a, req), CheckError);
            }
          }
        }
      }
    }
  }
}

TEST(Validate, DvfsLevelsOnly) {
  RunConfig cfg = cli_default();
  cfg.blur_mhz = 700;
  expect_rejected(cfg, "--blur-mhz");
  cfg.blur_mhz = 800;
  expect_accepted(cfg);
  cfg.tail_mhz = 450;
  expect_rejected(cfg, "--tail-mhz");
  cfg.tail_mhz = -400;
  expect_rejected(cfg, "--tail-mhz");
  cfg.tail_mhz = 400;
  expect_accepted(cfg);
}

TEST(Validate, CoreFailTargetsACoreOfThePlatform) {
  RunConfig cfg = cli_default();
  cfg.fault.core_failures.push_back({999, SimTime::ms(10)});
  expect_rejected(cfg, "--core-fail");
  cfg.fault.core_failures[0].core = 47;
  expect_accepted(cfg);
  cfg.fault.core_failures[0].core = 63;  // exists on the 64-core node only
  expect_rejected(cfg, "--core-fail");
  cfg.platform = PlatformKind::Cluster;
  expect_accepted(cfg);
}

TEST(Validate, SlowCoreTargetsACoreOfThePlatform) {
  RunConfig cfg = cli_default();
  cfg.fault.slow_cores.push_back(SlowCore{999, 2.0, SimTime::ms(10)});
  expect_rejected(cfg, "--slow-core");
  cfg.fault.slow_cores[0].core = 14;
  expect_accepted(cfg);
}

TEST(Validate, StallTargetsACoreOfThePlatform) {
  RunConfig cfg = cli_default();
  cfg.fault.stalls.push_back(StallSpec{99, SimTime::ms(5), SimTime::ms(1)});
  expect_rejected(cfg, "--stall");
  cfg.fault.stalls[0].core = 26;
  expect_accepted(cfg);
}

TEST(Validate, DegradedLinkJoinsAdjacentTilesOfTheMesh) {
  RunConfig cfg = cli_default();
  cfg.fault.degraded_links.push_back(DegradedLink{0, 99, 2.0, SimTime::ms(10)});
  expect_rejected(cfg, "--degraded-link");
  cfg.fault.degraded_links[0].tile_b = 7;  // (0,0) and (1,1): no link
  expect_rejected(cfg, "--degraded-link");
  cfg.fault.degraded_links[0].tile_b = 6;  // (0,0) and (0,1)
  expect_accepted(cfg);
}

TEST(Validate, OverloadOnlyOnTheHostFeedPath) {
  RunConfig cfg = cli_default();
  cfg.scenario = Scenario::RendererPerPipeline;
  cfg.overload.offered_fps = 5.0;
  expect_rejected(cfg, "--offered-fps");
  cfg.overload = OverloadConfig{};
  cfg.overload.window = 4;
  cfg.scenario = Scenario::SingleRenderer;
  expect_rejected(cfg, "--window");
  cfg.scenario = Scenario::HostRenderer;
  expect_accepted(cfg);
}

TEST(Validate, OverloadExcludesPlannedCoreFailures) {
  RunConfig cfg = cli_default();
  cfg.overload.offered_fps = 5.0;
  cfg.fault.core_failures.push_back({5, SimTime::ms(10)});
  expect_rejected(cfg, "--core-fail");
  cfg.overload = OverloadConfig{};
  expect_accepted(cfg);
}

TEST(Validate, GrayExcludesOverload) {
  RunConfig cfg = cli_default();
  cfg.gray.detect_factor = 2.0;
  cfg.overload.queue_depth = 3;
  expect_rejected(cfg, "--gray-detect-factor");
  cfg.overload = OverloadConfig{};
  expect_accepted(cfg);
}

TEST(Validate, ReorderAndDuplicateFatesNeedTheWindow) {
  RunConfig cfg = cli_default();
  cfg.fault.host_reorder_rate = 0.1;
  expect_rejected(cfg, "--window");
  cfg.fault.host_reorder_rate = 0.0;
  cfg.fault.host_duplicate_rate = 0.1;
  expect_rejected(cfg, "--window");
  cfg.overload.window = 4;
  expect_accepted(cfg);
  // Without a host feed the fates have nothing to act on.
  RunConfig nrend = cli_default();
  nrend.scenario = Scenario::RendererPerPipeline;
  nrend.fault.host_duplicate_rate = 0.1;
  expect_accepted(nrend);
}

TEST(Validate, TransportRetriesNeedOneAttemptAndATimeout) {
  RunConfig cfg = cli_default();
  cfg.overload.window = 4;
  cfg.rcce.retry.max_attempts = 0;
  expect_rejected(cfg, "--rcce-retries");
  cfg.rcce.retry.max_attempts = 1;
  expect_accepted(cfg);
  cfg.rcce.retry.timeout = SimTime::ms(-5);
  expect_rejected(cfg, "--rcce-timeout-ms");
  cfg.rcce.retry.timeout = SimTime::zero();
  expect_accepted(cfg);
}

TEST(Validate, OfferedLoadIsClosedLoopOrARealRate) {
  RunConfig cfg = cli_default();
  cfg.overload.offered_fps = 1e-9;  // a period no simulated clock can hold
  expect_rejected(cfg, "--offered-fps");
  cfg.overload.offered_fps = -5.0;
  expect_rejected(cfg, "--offered-fps");
  cfg.overload.offered_fps = 0.01;
  expect_accepted(cfg);
}

TEST(Validate, RecoveryTuningMustDetectRealDeaths) {
  RunConfig cfg = cli_default();
  cfg.recovery.detection_deadline = SimTime::ms(15);  // < 2 x 10 ms
  expect_rejected(cfg, "--detect-ms");
  cfg.recovery.detection_deadline = SimTime::ms(20);
  expect_accepted(cfg);
  cfg.recovery.heartbeat_period = SimTime::zero();
  expect_rejected(cfg, "--heartbeat-ms");
}

TEST(Validate, GrayTuningMustExceedTheMedian) {
  RunConfig cfg = cli_default();
  cfg.gray.detect_factor = 1.0;
  expect_rejected(cfg, "--gray-detect-factor");
  cfg.gray.detect_factor = 1.3;
  expect_accepted(cfg);
  cfg.gray.detect_windows = 0;
  expect_rejected(cfg, "--gray-detect-windows");
}

// ------------------------------------------------------------- name parsers

TEST(RunNames, ParsersRoundTripAndRejectUnknownNames) {
  Scenario s{};
  EXPECT_TRUE(parse_scenario("host", &s).ok());
  EXPECT_EQ(s, Scenario::HostRenderer);
  EXPECT_TRUE(parse_scenario("n-rend", &s).ok());
  EXPECT_EQ(s, Scenario::RendererPerPipeline);
  EXPECT_EQ(parse_scenario("foo", &s).code(), StatusCode::InvalidArgument);
  EXPECT_EQ(s, Scenario::RendererPerPipeline);

  Arrangement a{};
  EXPECT_TRUE(parse_arrangement("flipped", &a).ok());
  EXPECT_EQ(a, Arrangement::Flipped);
  EXPECT_EQ(parse_arrangement("sideways", &a).code(),
            StatusCode::InvalidArgument);

  for (const PlatformKind p : {PlatformKind::Scc, PlatformKind::Cluster}) {
    PlatformKind back{};
    EXPECT_TRUE(parse_platform(platform_name(p), &back).ok());
    EXPECT_EQ(back, p);
  }
  PlatformKind p = PlatformKind::Scc;
  EXPECT_EQ(parse_platform("clustr", &p).code(), StatusCode::InvalidArgument);
  EXPECT_EQ(p, PlatformKind::Scc);
}

TEST(RunNames, PipelineListsExpandOrFail) {
  std::vector<int> ks;
  EXPECT_TRUE(parse_pipeline_list("1-3,5", &ks).ok());
  EXPECT_EQ(ks, (std::vector<int>{1, 2, 3, 5}));
  for (const char* bad : {"7-1", "abc", "", ",", "2-x", "1-5000"}) {
    std::vector<int> out;
    const Status st = parse_pipeline_list(bad, &out);
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << bad;
    EXPECT_NE(st.message().find("--pipelines"), std::string::npos);
  }
  EXPECT_EQ(split_list(",a,,b,"), (std::vector<std::string>{"a", "b"}));
}

// --------------------------------------------------------------- run_flags

/// The flags of one app as far as these tests need them: the shared set
/// plus the app's own names.
ArgParser parser_for(const std::vector<std::string>& own_flags) {
  ArgParser args;
  for (const std::string& f : own_flags) args.add_flag(f, "", "");
  add_run_flags(args);
  return args;
}

ArgParser cli_parser() {
  return parser_for({"scenario", "pipelines", "csv"});
}

ArgParser sweep_parser() {
  return parser_for({"scenarios", "pipelines", "jobs", "bench-json"});
}

Status read(ArgParser& args, const std::vector<std::string>& argv,
            CheckpointFiles files, RunFlags* out) {
  std::vector<const char*> raw{"prog"};
  for (const std::string& a : argv) raw.push_back(a.c_str());
  if (!args.parse(static_cast<int>(raw.size()), raw.data())) {
    return Status(StatusCode::InvalidArgument, args.error());
  }
  return read_run_flags(args, files, 1, out);
}

TEST(RunFlags, DefaultsMatchAPlainRunConfig) {
  ArgParser args = cli_parser();
  RunFlags flags;
  ASSERT_TRUE(read(args, {}, CheckpointFiles::Single, &flags).ok());
  EXPECT_EQ(flags.frames, 400);
  EXPECT_EQ(flags.size, 400);
  EXPECT_EQ(run_config_fingerprint(flags.cfg),
            run_config_fingerprint(RunConfig{}));
  EXPECT_FALSE(flags.cfg.checkpoint.enabled());
}

TEST(RunFlags, MalformedNumbersNameTheirFlag) {
  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"--window", "8x"}, {"--frames", "abc"}, {"--offered-fps", "5fps"},
           {"--heartbeat-ms", ""}}) {
    ArgParser args = cli_parser();
    RunFlags flags;
    const Status st =
        read(args, {flag + "=" + value}, CheckpointFiles::Single, &flags);
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << flag;
    EXPECT_NE(st.message().find(flag), std::string::npos) << st.message();
  }
}

TEST(RunFlags, SceneMustBeNonEmptyAndTallEnough) {
  for (const char* flag : {"--frames", "--size"}) {
    ArgParser args = cli_parser();
    RunFlags flags;
    const Status st = read(args, {flag, "0"}, CheckpointFiles::Single, &flags);
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
    EXPECT_NE(st.message().find(flag), std::string::npos);
  }
  // Each of k pipeline strips needs a row of the frame.
  ArgParser args = cli_parser();
  const char* argv[] = {"prog", "--size", "4"};
  ASSERT_TRUE(args.parse(3, argv));
  RunFlags flags;
  EXPECT_TRUE(read_run_flags(args, CheckpointFiles::Single, 4, &flags).ok());
  const Status st = read_run_flags(args, CheckpointFiles::Single, 5, &flags);
  EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
  EXPECT_NE(st.message().find("--size"), std::string::npos);
}

TEST(RunFlags, FaultListsAppendThroughThePlanGrammar) {
  ArgParser args = cli_parser();
  RunFlags flags;
  ASSERT_TRUE(read(args, {"--core-fail", "5@100,,9@250ms"},
                   CheckpointFiles::Single, &flags)
                  .ok());
  ASSERT_EQ(flags.cfg.fault.core_failures.size(), 2u);
  EXPECT_EQ(flags.cfg.fault.core_failures[1].core, 9);
  EXPECT_EQ(flags.cfg.fault.core_failures[1].at, SimTime::ms(250));

  ArgParser bad = cli_parser();
  RunFlags out;
  const Status st =
      read(bad, {"--stall", "26:1:5"}, CheckpointFiles::Single, &out);
  EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
  EXPECT_NE(st.message().find("--stall"), std::string::npos);
}

TEST(RunFlags, CheckpointFilesAreReadPerApp) {
  const std::string base = ::testing::TempDir() + "run_config_test.snap";
  std::remove(base.c_str());
  const std::vector<std::string> resume = {
      "--checkpoint-every", "5", "--checkpoint-file", base, "--resume"};
  // The CLI resumes from the file itself, so it must exist ...
  ArgParser cli = cli_parser();
  RunFlags flags;
  EXPECT_EQ(read(cli, resume, CheckpointFiles::Single, &flags).code(),
            StatusCode::NotFound);
  // ... while the sweep resumes '<base>.<i>' runs and needs only the base.
  ArgParser sweep = sweep_parser();
  ASSERT_TRUE(read(sweep, resume, CheckpointFiles::PerRun, &flags).ok());
  EXPECT_TRUE(flags.cfg.checkpoint.resume);

  ArgParser orphan = cli_parser();
  EXPECT_EQ(read(orphan, {"--checkpoint-every", "5"}, CheckpointFiles::Single,
                 &flags)
                .code(),
            StatusCode::InvalidArgument);
}

/// One CI invocation: the shared flags it passes and the config they must
/// produce, spelled out field by field.
struct CiCase {
  const char* name;
  std::vector<std::string> argv;
  RunConfig want;
  int frames;
  int size;
};

RunConfig with_k(Scenario s, int k) {
  RunConfig cfg;
  cfg.scenario = s;
  cfg.pipelines = k;
  return cfg;
}

TEST(RunFlags, CiInvocationsParseToTheirHandBuiltConfigs) {
  std::vector<CiCase> cases;
  {
    CiCase c{"cli crash+resume", {"--scenario", "mcpc", "--pipelines", "4",
             "--frames", "48", "--size", "120", "--csv", "--fault-plan",
             "crash-at=400ms"}, with_k(Scenario::HostRenderer, 4), 48, 120};
    c.want.fault.crashes.push_back(SimTime::ms(400));
    cases.push_back(c);
  }
  cases.push_back({"cli kill", {"--scenario", "mcpc", "--pipelines", "4",
                   "--frames", "200", "--size", "160", "--csv"},
                   with_k(Scenario::HostRenderer, 4), 200, 160});
  cases.push_back({"sweep smoke", {"--frames", "24", "--size", "120",
                   "--jobs", "1", "--bench-json", "none"},
                   with_k(Scenario::SingleRenderer, 1), 24, 120});
  {
    CiCase c{"sweep core-failure", {"--frames", "24", "--size", "80",
             "--scenarios", "mcpc,n-rend", "--pipelines", "2-3",
             "--core-fail", "13@40,26@90", "--heartbeat-ms", "1",
             "--detect-ms", "3", "--jobs", "2", "--bench-json", "none"},
             with_k(Scenario::HostRenderer, 2), 24, 80};
    c.want.fault.core_failures = {{13, SimTime::ms(40)}, {26, SimTime::ms(90)}};
    c.want.recovery.heartbeat_period = SimTime::ms(1);
    c.want.recovery.detection_deadline = SimTime::ms(3);
    cases.push_back(c);
  }
  {
    CiCase c{"sweep overload", {"--frames", "24", "--size", "80",
             "--scenarios", "mcpc", "--pipelines", "2-3", "--window", "8",
             "--queue-depth", "4", "--offered-fps", "400",
             "--frame-deadline-ms", "120", "--rcce-retries", "8",
             "--fault-plan",
             "host-drop=0.1;reorder=0.05:2ms;duplicate=0.05:1ms",
             "--jobs", "2", "--bench-json", "none"},
             with_k(Scenario::HostRenderer, 2), 24, 80};
    c.want.overload.window = 8;
    c.want.overload.queue_depth = 4;
    c.want.overload.offered_fps = 400.0;
    c.want.overload.frame_deadline = SimTime::ms(120);
    c.want.rcce.retry.max_attempts = 8;
    c.want.fault.host_drop_rate = 0.1;
    c.want.fault.host_reorder_rate = 0.05;
    c.want.fault.host_reorder_delay = SimTime::ms(2);
    c.want.fault.host_duplicate_rate = 0.05;
    c.want.fault.host_duplicate_lag = SimTime::ms(1);
    cases.push_back(c);
  }
  {
    CiCase c{"sweep gray", {"--frames", "24", "--size", "80", "--scenarios",
             "mcpc,n-rend", "--pipelines", "2-3", "--slow-core", "14:6@40",
             "--stall", "26:5:1", "--degraded-link", "1-2:3@10",
             "--heartbeat-ms", "1", "--detect-ms", "3",
             "--gray-detect-factor", "1.3", "--gray-detect-windows", "2",
             "--gray-policy", "rebalance", "--bench-json", "none"},
             with_k(Scenario::HostRenderer, 2), 24, 80};
    c.want.fault.slow_cores.push_back(SlowCore{14, 6.0, SimTime::ms(40)});
    c.want.fault.stalls.push_back(
        StallSpec{26, SimTime::ms(5), SimTime::ms(1)});
    c.want.fault.degraded_links.push_back(
        DegradedLink{1, 2, 3.0, SimTime::ms(10)});
    c.want.recovery.heartbeat_period = SimTime::ms(1);
    c.want.recovery.detection_deadline = SimTime::ms(3);
    c.want.gray.detect_factor = 1.3;
    c.want.gray.detect_windows = 2;
    c.want.gray.policy = GrayPolicy::Rebalance;
    cases.push_back(c);
  }
  {
    CiCase c{"sweep crash+resume", {"--scenarios", "mcpc", "--pipelines",
             "2-3", "--frames", "24", "--size", "80", "--bench-json", "none",
             "--fault-plan", "crash-at=150ms"},
             with_k(Scenario::HostRenderer, 2), 24, 80};
    c.want.fault.crashes.push_back(SimTime::ms(150));
    cases.push_back(c);
  }

  for (const CiCase& c : cases) {
    const bool sweep = std::string(c.name).rfind("sweep", 0) == 0;
    ArgParser args = sweep ? sweep_parser() : cli_parser();
    RunFlags flags;
    const Status st = read(args, c.argv,
                           sweep ? CheckpointFiles::PerRun
                                 : CheckpointFiles::Single,
                           &flags);
    ASSERT_TRUE(st.ok()) << c.name << ": " << st.to_string();
    // The app's own flags: the first grid point for the sweep.
    RunConfig& got = flags.cfg;
    got.scenario = c.want.scenario;
    got.pipelines = c.want.pipelines;
    EXPECT_TRUE(validate(got).ok()) << c.name;
    EXPECT_EQ(run_config_fingerprint(got), run_config_fingerprint(c.want))
        << c.name;
    EXPECT_EQ(got.fault.crashes, c.want.fault.crashes) << c.name;
    EXPECT_EQ(got.fault.enabled(), c.want.fault.enabled()) << c.name;
    EXPECT_EQ(flags.frames, c.frames) << c.name;
    EXPECT_EQ(flags.size, c.size) << c.name;
  }
}

}  // namespace
}  // namespace sccpipe
