#pragma once

/// \file reference.hpp
/// Naive reference rasterizer — the per-pixel edge-function form the
/// optimised inner loop in rasterizer.cpp replaced — and the per-strip
/// workload estimator that Renderer::estimate_strips replaced. Kept
/// compiled for the golden-equivalence tests (bit-identical framebuffers on
/// seeded random triangle batches, bit-identical RenderStats on walkthrough
/// frames) and the perf baseline's optimised-vs-reference ratios. See
/// filters/reference.hpp for the rationale; the same "do not optimise
/// this" rule applies.

#include "sccpipe/render/rasterizer.hpp"
#include "sccpipe/render/renderer.hpp"

namespace sccpipe::reference {

void draw_triangle_clip(Framebuffer& fb, const Viewport& vp, Vec4 c0, Vec4 c1,
                        Vec4 c2, Color col, RasterStats* stats = nullptr);

/// One strip's workload estimate: cull with the strip frustum, then
/// transform every accepted triangle through the full strip matrix.
RenderStats estimate_strip(const Renderer& renderer, const Mat4& view,
                           StripRange strip);

}  // namespace sccpipe::reference
