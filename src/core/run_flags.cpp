#include "sccpipe/core/run_flags.hpp"

#include <cerrno>
#include <cstring>
#include <string>

#include <unistd.h>

namespace sccpipe {

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    if (comma > pos) out.push_back(text.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

void add_run_flags(ArgParser& args) {
  static const char* const kFlags[][3] = {
      {"frames", "walkthrough length", "400"},
      {"size", "frame side length in pixels", "400"},
      {"fault-plan", "fault plan, e.g. 'rcce-drop=0.01;link-down=2' "
                     "(grammar: docs/MODEL.md)", ""},
      {"core-fail", "fail-stop core(s): '<core>@<ms>,...'", ""},
      {"slow-core", "fail-slow core(s): '<core>:<factor>@<ms>,...'", ""},
      {"degraded-link", "degraded mesh link(s) between adjacent tiles: "
                        "'<tileA>-<tileB>:<factor>@<ms>,...'", ""},
      {"stall", "core stall train(s): '<core>:<period_ms>:<duration_ms>,...'",
       ""},
      {"heartbeat-ms", "supervisor heartbeat period [ms]", "10"},
      {"detect-ms", "heartbeat silence declared a failure [ms]", "25"},
      {"max-spares", "spare cores recovery may consume (-1 = all)", "-1"},
      {"gray-detect-factor", "flag a core whose normalized service time "
                             "exceeds this multiple of the median (0 = off)",
       "0"},
      {"gray-detect-windows", "consecutive windows over the factor", "3"},
      {"gray-policy", "mitigation ceiling: off | dvfs | migrate | rebalance",
       "rebalance"},
      {"rcce-retries", "transport attempts per message", "1"},
      {"rcce-timeout-ms", "per-attempt loss-detection timeout [ms]", "50"},
      {"offered-fps", "open-loop load at the host feeder (0 = closed loop)",
       "0"},
      {"window", "ARQ send window on the host link (0 = stop-and-wait)", "0"},
      {"queue-depth", "bounded feeder/receiver/channel queues (0 = "
                      "rendezvous)", "0"},
      {"frame-deadline-ms", "shed frames older than this (0 = off)", "0"},
      {"breaker-threshold", "host-transport failures that trip the breaker "
                            "(0 = off)", "0"},
      {"breaker-cooldown-ms", "open-breaker cooldown [ms]", "250"},
      {"checkpoint-every", "snapshot every N delivered frames (0 = off)", "0"},
      {"checkpoint-file", "snapshot path (the sweep adds '.<run>')", ""},
      {"resume", "replay-verify the snapshot and continue past its crash",
       "false"},
  };
  for (const auto& f : kFlags) args.add_flag(f[0], f[1], f[2]);
}

Status read_run_flags(const ArgParser& args, CheckpointFiles files,
                      int max_pipelines, RunFlags* out) {
  Status st;
  const auto integer = [&](const char* flag) {
    int v = 0;
    st.update(args.get_int(flag, &v));
    return v;
  };
  const auto number = [&](const char* flag) {
    double v = 0.0;
    st.update(args.get_double(flag, &v));
    return v;
  };
  const auto ms = [&](const char* flag) { return SimTime::ms(number(flag)); };
  const auto bad = [&](const std::string& flag, const std::string& why,
                       StatusCode code = StatusCode::InvalidArgument) {
    st.update(Status(code, "--" + flag + why));
  };

  for (const auto& [flag, v] : {std::pair{"frames", &out->frames},
                                std::pair{"size", &out->size}}) {
    *v = integer(flag);
    if (*v < 1) bad(flag, " must be positive, got " + std::to_string(*v));
  }
  if (out->size < max_pipelines) {
    bad("size", " " + std::to_string(out->size) + " leaves no row for some "
                "of " + std::to_string(max_pipelines) + " pipeline strips");
  }

  // The plan text and the four comma-list shorthands all go through the
  // plan's own grammar; each shorthand item becomes "<key>=<item>".
  RunConfig& cfg = out->cfg;
  const auto plan = [&](const char* flag, const std::string& text) {
    if (const Status p = cfg.fault.parse(text); !p.ok()) {
      bad(flag, ": " + p.message());
    }
  };
  if (const std::string text = args.get("fault-plan"); !text.empty()) {
    plan("fault-plan", text);
  }
  for (const auto& [flag, key] : {std::pair{"core-fail", "core-fail"},
                                  std::pair{"slow-core", "slow-core"},
                                  std::pair{"degraded-link", "degraded-link"},
                                  std::pair{"stall", "intermittent-stall"}}) {
    for (const std::string& item : split_list(args.get(flag))) {
      plan(flag, std::string(key) + "=" + item);
    }
  }

  cfg.recovery.heartbeat_period = ms("heartbeat-ms");
  cfg.recovery.detection_deadline = ms("detect-ms");
  cfg.recovery.max_spares = integer("max-spares");
  cfg.gray.detect_factor = number("gray-detect-factor");
  cfg.gray.detect_windows = integer("gray-detect-windows");
  st.update(parse_gray_policy(args.get("gray-policy"), &cfg.gray.policy));
  cfg.rcce.retry.max_attempts = integer("rcce-retries");
  cfg.rcce.retry.timeout = ms("rcce-timeout-ms");
  cfg.overload.offered_fps = number("offered-fps");
  cfg.overload.window = integer("window");
  cfg.overload.queue_depth = integer("queue-depth");
  cfg.overload.frame_deadline = ms("frame-deadline-ms");
  cfg.overload.breaker_threshold = integer("breaker-threshold");
  cfg.overload.breaker_cooldown = ms("breaker-cooldown-ms");

  // Checkpoint flags fail here, before a run starts, not one checkpoint
  // interval into it. The file may not exist yet, so writing probes its
  // directory; only the CLI's --resume reads the file itself.
  CheckpointConfig& ck = cfg.checkpoint;
  ck.every_frames = integer("checkpoint-every");
  ck.file = args.get("checkpoint-file");
  ck.resume = args.get_bool("resume");
  const std::size_t slash = ck.file.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : ck.file.substr(0, slash == 0 ? 1 : slash);
  if (args.has("checkpoint-every") && ck.every_frames <= 0) {
    bad("checkpoint-every", " must be a positive frame count, got " +
                                std::to_string(ck.every_frames));
  } else if (ck.file.empty() && (ck.every_frames > 0 || ck.resume)) {
    bad("checkpoint-file", " is required with --checkpoint-every/--resume");
  } else if (!ck.file.empty() && ck.every_frames <= 0 && !ck.resume) {
    bad("checkpoint-file", " without --checkpoint-every/--resume would "
                           "never be read or written");
  } else if (ck.every_frames > 0 && access(dir.c_str(), W_OK | X_OK) != 0) {
    bad("checkpoint-file", ": directory '" + dir + "' is not writable: " +
                               std::strerror(errno));
  } else if (ck.resume && files == CheckpointFiles::Single &&
             access(ck.file.c_str(), R_OK) != 0) {
    bad("resume", " needs an existing readable snapshot at '" + ck.file +
                      "': " + std::strerror(errno),
        StatusCode::NotFound);
  }
  return st;
}

Status parse_pipeline_list(const std::string& text, std::vector<int>* out) {
  const auto bad = [&text](const std::string& why) {
    return Status(StatusCode::InvalidArgument,
                  "--pipelines '" + text + "': " + why);
  };
  for (const std::string& part : split_list(text)) {
    const auto dash = part.find('-', 1);  // from 1: "-3" is a number
    int lo = 0;
    int hi = 0;
    if (!parse_int(part.substr(0, dash), &lo) ||
        !parse_int(dash == std::string::npos ? part : part.substr(dash + 1),
                   &hi)) {
      return bad("expected a range like 1-7 or 2,4,6");
    }
    if (hi < lo || static_cast<long long>(hi) - lo >= 1024) {
      return bad(part + " is empty or too long");
    }
    for (long long v = lo; v <= hi; ++v) out->push_back(static_cast<int>(v));
  }
  return out->empty() ? bad("no pipeline count") : Status();
}

}  // namespace sccpipe
