#include "sccpipe/render/renderer.hpp"

#include <algorithm>
#include <cmath>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

Renderer::Renderer(const Mesh& mesh, const Octree& octree, CameraConfig camera,
                   int frame_width, int frame_height, LightingConfig lighting)
    : mesh_(mesh),
      octree_(octree),
      camera_(camera),
      width_(frame_width),
      height_(frame_height),
      lighting_(lighting),
      light_dir_(normalize(lighting.direction)) {
  SCCPIPE_CHECK(frame_width > 0 && frame_height > 0);
  SCCPIPE_CHECK(octree.built());
}

Color Renderer::shade(const Triangle& t) const {
  if (!lighting_.enabled) return t.color;
  // Two-sided flat Lambert: CAD geometry is not consistently wound.
  const Vec3 n = normalize(cross(t.v1 - t.v0, t.v2 - t.v0));
  const float lambert = std::fabs(dot(n, light_dir_));
  const float f = clamp01(lighting_.ambient + (1.0f - lighting_.ambient) * lambert);
  auto scale = [f](std::uint8_t c) {
    return static_cast<std::uint8_t>(std::lround(static_cast<float>(c) * f));
  };
  return Color{scale(t.color.r), scale(t.color.g), scale(t.color.b),
               t.color.a};
}

Image Renderer::render_strip(const Mat4& view, StripRange strip,
                             RenderStats* stats) const {
  // Cull with the strip-adjusted frustum (the sort-first "adjust the
  // viewing frustum" step of §V)...
  const Mat4 strip_vp = strip_projection(camera_, width_, height_, strip) * view;
  const Frustum frustum(strip_vp);

  std::vector<std::uint32_t> visible;
  octree_.cull(frustum, visible, stats ? &stats->cull : nullptr);

  // ...but rasterise in full-frame screen coordinates with a row window,
  // so strips assemble into exactly the whole-frame image.
  const Mat4 full_vp =
      strip_projection(camera_, width_, height_, StripRange{0, height_}) *
      view;
  Framebuffer fb(width_, strip.rows);
  fb.clear();
  const Viewport vp{width_, height_, strip.y0};
  const auto& tris = mesh_.triangles();
  for (const std::uint32_t ti : visible) {
    const Triangle& t = tris[ti];
    const Vec4 c0 = full_vp * Vec4{t.v0, 1.0f};
    const Vec4 c1 = full_vp * Vec4{t.v1, 1.0f};
    const Vec4 c2 = full_vp * Vec4{t.v2, 1.0f};
    if (stats) ++stats->triangles_transformed;
    draw_triangle_clip(fb, vp, c0, c1, c2, shade(t),
                       stats ? &stats->raster : nullptr);
  }
  return std::move(fb.color());
}

Image Renderer::render(const Mat4& view, RenderStats* stats) const {
  return render_strip(view, StripRange{0, height_}, stats);
}

namespace {

/// Row \p r of m * Vec4{v, 1}: the sums of operator*(Mat4, Vec4) in the
/// same order (the product with w = 1 is exact, so it is left out).
float clip_row(const Mat4& m, int r, Vec3 v) {
  return m.m[0][r] * v.x + m.m[1][r] * v.y + m.m[2][r] * v.z + m.m[3][r];
}

/// The part of a triangle's projection that every strip of one frame
/// shares: clip x and w come from rows 0 and 3 of the strip matrix, which
/// do not depend on the strip (only row 1, clip y, does).
struct SharedProjection {
  float x[3];    ///< screen x of each vertex
  float w[3];    ///< clip w clamped to a small positive value
  bool behind;   ///< all three vertices behind the eye: clipped away whole
};

}  // namespace

void Renderer::estimate_strips(const Mat4& view,
                               std::span<const StripRange> strips,
                               std::span<RenderStats> out) const {
  SCCPIPE_CHECK(out.size() == strips.size());
  const auto& tris = mesh_.triangles();
  const float width = static_cast<float>(width_);

  // Rows 0 and 3 of Mat4::frustum depend only on left/right and near/far,
  // so every strip's clip x and w equal the full frame's bit for bit.
  const Mat4 frame_vp =
      strip_projection(camera_, width_, height_, StripRange{0, height_}) *
      view;
  std::vector<SharedProjection> shared(tris.size());
  for (std::size_t ti = 0; ti < tris.size(); ++ti) {
    const Triangle& t = tris[ti];
    SharedProjection& p = shared[ti];
    const Vec3 v[3] = {t.v0, t.v1, t.v2};
    p.behind = true;
    for (int i = 0; i < 3; ++i) {
      const float cx = clip_row(frame_vp, 0, v[i]);
      const float cw = clip_row(frame_vp, 3, v[i]);
      p.behind = p.behind && cw <= 1e-4f;
      // Vertices behind the eye are clamped to a small positive w — good
      // enough for a workload count.
      p.w[i] = std::max(cw, 1e-2f);
      p.x[i] = (cx / p.w[i] * 0.5f + 0.5f) * width;
    }
  }

  std::vector<std::uint32_t> visible;
  for (std::size_t si = 0; si < strips.size(); ++si) {
    const StripRange strip = strips[si];
    RenderStats& stats = out[si];
    stats = RenderStats{};
    const Mat4 vp = strip_projection(camera_, width_, height_, strip) * view;
    visible.clear();
    octree_.cull(Frustum(vp), visible, &stats.cull);

    const float rows = static_cast<float>(strip.rows);
    const double strip_pixels =
        static_cast<double>(width_) * static_cast<double>(strip.rows);
    double area = 0.0;
    for (const std::uint32_t ti : visible) {
      ++stats.triangles_transformed;
      ++stats.raster.triangles_submitted;
      const SharedProjection& p = shared[ti];
      if (p.behind) {
        ++stats.raster.triangles_clipped_away;
        continue;
      }
      // Screen-space area of the projection; only y is strip-specific.
      const Triangle& t = tris[ti];
      const float y0 = (0.5f - clip_row(vp, 1, t.v0) / p.w[0] * 0.5f) * rows;
      const float y1 = (0.5f - clip_row(vp, 1, t.v1) / p.w[1] * 0.5f) * rows;
      const float y2 = (0.5f - clip_row(vp, 1, t.v2) / p.w[2] * 0.5f) * rows;
      const double tri_area = 0.5 * std::fabs(static_cast<double>(
          (p.x[1] - p.x[0]) * (y2 - y0) - (y1 - y0) * (p.x[2] - p.x[0])));
      // A triangle cannot cover more than the strip.
      area += std::min(tri_area, strip_pixels);
    }
    // Overdraw discounted: roughly half of drawn area survives the z-test
    // in depth-complex city scenes, and total coverage is bounded by the
    // strip.
    stats.projected_pixels = std::min(area, 2.5 * strip_pixels);
  }
}

RenderStats Renderer::estimate_strip(const Mat4& view,
                                     StripRange strip) const {
  RenderStats stats;
  estimate_strips(view, {&strip, 1}, {&stats, 1});
  return stats;
}

}  // namespace sccpipe
