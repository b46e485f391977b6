#pragma once

/// \file run_flags.hpp
/// The command-line flags sccpipe and sccpipe_sweep share, registered and
/// read in one place so each flag means the same in both apps: the
/// walkthrough size, the fault plan and its four comma-list shorthands, and
/// the recovery, gray, RCCE retry, overload and checkpoint knobs. Which
/// combinations are illegal is decided by validate() (core/walkthrough.hpp),
/// not here: this module only turns text into a RunConfig.

#include <string>
#include <vector>

#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/support/args.hpp"
#include "sccpipe/support/status.hpp"

namespace sccpipe {

struct RunFlags {
  RunConfig cfg;   ///< shared fields only; the app sets the rest
  int frames = 0;  ///< --frames
  int size = 0;    ///< --size
};

/// How an app uses --checkpoint-file. The CLI reads and writes that one
/// file, so --resume needs it to exist; the sweep gives run i the file
/// '<path>.<i>' and resumes only the runs whose file exists.
enum class CheckpointFiles { Single, PerRun };

void add_run_flags(ArgParser& args);

/// Read the shared flags. Typed InvalidArgument naming the flag on
/// malformed text, a non-positive --frames/--size, a --size with fewer rows
/// than \p max_pipelines (the app's largest pipeline count), or an
/// inconsistent checkpoint flag set; NotFound when the CLI's --resume
/// snapshot is missing.
Status read_run_flags(const ArgParser& args, CheckpointFiles files,
                      int max_pipelines, RunFlags* out);

/// Items of a comma list, empty items dropped ("a,,b" -> {a, b}).
std::vector<std::string> split_list(const std::string& text);

/// The sweep's --pipelines list: "1-7", "3" or "2,4,6". An item that is not
/// a number, a range that expands to nothing ("7-1") or one longer than
/// 1024 values, and an empty list are typed InvalidArgument.
Status parse_pipeline_list(const std::string& text, std::vector<int>* out);

}  // namespace sccpipe
