#pragma once

/// \file workloads.hpp
/// The benchmark's three workloads. Each runs in its own process, with one
/// simulation thread, and fills the report with every end-to-end and
/// per-layer metric (see sccbench/README.md for what each one stresses).

#include "harness.hpp"

namespace sccbench {

/// Cold start, then the 84 Table 1 walkthroughs round-robin.
void run_figure_grid(const Options& opt, Tracer& tracer, Report& report);

/// HostRenderer k=4 with real pixels, checked against Renderer::render
/// plus the apply_* filters on sampled frames.
void run_functional_frames(const Options& opt, Tracer& tracer,
                           Report& report);

/// HostRenderer k=4 under drops, a lossy ARQ link at 2x offered load, a
/// fail-stop core, a 4x slow core and a crash + checkpoint/resume pair.
void run_chaos_mix(const Options& opt, Tracer& tracer, Report& report);

}  // namespace sccbench
