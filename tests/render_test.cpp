#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sccpipe/render/reference.hpp"
#include "sccpipe/render/renderer.hpp"
#include "sccpipe/scene/city.hpp"

namespace sccpipe {
namespace {

// -------------------------------------------------------------- Framebuffer

TEST(Framebuffer, ClearSetsColorAndDepth) {
  Framebuffer fb(4, 4);
  fb.clear(Color{9, 9, 9, 255}, 1.0f);
  EXPECT_EQ(fb.color().get(2, 2), (Color{9, 9, 9, 255}));
  EXPECT_FLOAT_EQ(fb.depth(2, 2), 1.0f);
  fb.set_pixel(1, 1, 0.25f, Color{1, 2, 3, 255});
  EXPECT_FLOAT_EQ(fb.depth(1, 1), 0.25f);
  EXPECT_EQ(fb.color().get(1, 1).g, 2);
}

// --------------------------------------------------------------- Rasterizer

/// Clip-space helper: place a triangle directly in NDC (w = 1).
Vec4 ndc(float x, float y, float z = 0.0f) { return Vec4{x, y, z, 1.0f}; }

TEST(Rasterizer, FillsCoveringTriangle) {
  Framebuffer fb(16, 16);
  fb.clear();
  RasterStats stats;
  // Huge triangle covering the whole NDC square.
  draw_triangle_clip(fb, Viewport::full(fb), ndc(-4, -4), ndc(4, -4), ndc(0, 6),
                     Color{200, 0, 0, 255}, &stats);
  EXPECT_EQ(stats.pixels_filled, 16u * 16u);
  EXPECT_EQ(fb.color().get(8, 8).r, 200);
}

TEST(Rasterizer, WindingOrderDoesNotMatter) {
  Framebuffer a(8, 8), b(8, 8);
  a.clear();
  b.clear();
  draw_triangle_clip(a, Viewport::full(a), ndc(-2, -2), ndc(2, -2), ndc(0, 3), Color{5, 6, 7, 255});
  draw_triangle_clip(b, Viewport::full(b), ndc(0, 3), ndc(2, -2), ndc(-2, -2), Color{5, 6, 7, 255});
  EXPECT_EQ(a.color(), b.color());
}

TEST(Rasterizer, ZBufferKeepsNearest) {
  Framebuffer fb(8, 8);
  fb.clear();
  draw_triangle_clip(fb, Viewport::full(fb), ndc(-2, -2, 0.5f), ndc(2, -2, 0.5f), ndc(0, 3, 0.5f),
                     Color{10, 0, 0, 255});
  // A farther triangle must not overwrite.
  draw_triangle_clip(fb, Viewport::full(fb), ndc(-2, -2, 0.8f), ndc(2, -2, 0.8f), ndc(0, 3, 0.8f),
                     Color{20, 0, 0, 255});
  EXPECT_EQ(fb.color().get(4, 4).r, 10);
  // A nearer one does.
  draw_triangle_clip(fb, Viewport::full(fb), ndc(-2, -2, 0.1f), ndc(2, -2, 0.1f), ndc(0, 3, 0.1f),
                     Color{30, 0, 0, 255});
  EXPECT_EQ(fb.color().get(4, 4).r, 30);
}

TEST(Rasterizer, FullyBehindEyeIsClipped) {
  Framebuffer fb(8, 8);
  fb.clear();
  RasterStats stats;
  draw_triangle_clip(fb, Viewport::full(fb), Vec4{0, 0, 0, -1}, Vec4{1, 0, 0, -1},
                     Vec4{0, 1, 0, -2}, Color{255, 0, 0, 255}, &stats);
  EXPECT_EQ(stats.triangles_clipped_away, 1u);
  EXPECT_EQ(stats.pixels_filled, 0u);
}

TEST(Rasterizer, PartialClipStillDraws) {
  Framebuffer fb(16, 16);
  fb.clear();
  RasterStats stats;
  // One vertex behind the eye; the clipper must emit geometry.
  draw_triangle_clip(fb, Viewport::full(fb), Vec4{0, -8, 0, 8}, Vec4{8, 8, 0, 8},
                     Vec4{-2, 0, 0, -1}, Color{99, 0, 0, 255}, &stats);
  EXPECT_EQ(stats.triangles_clipped_away, 0u);
  EXPECT_GT(stats.pixels_filled, 0u);
}

TEST(Rasterizer, DegenerateTriangleDrawsNothing) {
  Framebuffer fb(8, 8);
  fb.clear();
  RasterStats stats;
  draw_triangle_clip(fb, Viewport::full(fb), ndc(0, 0), ndc(1, 1), ndc(0.5f, 0.5f),
                     Color{1, 1, 1, 255}, &stats);
  EXPECT_EQ(stats.pixels_filled, 0u);
}

TEST(Rasterizer, TopRowOfNdcIsRowZero) {
  Framebuffer fb(4, 4);
  fb.clear(Color{0, 0, 0, 255});
  // Small triangle near NDC y = +1 (top).
  draw_triangle_clip(fb, Viewport::full(fb), ndc(-1, 1.0f), ndc(1, 1.0f), ndc(0, 0.4f),
                     Color{77, 0, 0, 255});
  EXPECT_EQ(fb.color().get(1, 0).r, 77);   // top row hit
  EXPECT_EQ(fb.color().get(1, 3).r, 0);    // bottom row untouched
}

// ----------------------------------------------------------------- Renderer

struct RendererFixture : ::testing::Test {
  static CityParams params() {
    CityParams p;
    p.blocks_x = 5;
    p.blocks_z = 5;
    return p;
  }
  Mesh city = generate_city(params());
  Octree octree{city};
  CameraConfig cam;
  Renderer renderer{city, octree, cam, 120, 120};
  WalkthroughPath path{city.bounds(), 40};
};

TEST_F(RendererFixture, ProducesNonTrivialImage) {
  RenderStats stats;
  const Image img = renderer.render(path.view(0), &stats);
  EXPECT_EQ(img.width(), 120);
  EXPECT_EQ(img.height(), 120);
  EXPECT_GT(stats.raster.pixels_filled, 100u);
  EXPECT_GT(stats.cull.tris_accepted, 10u);
  // Image is not a single flat colour.
  const Color c0 = img.get(0, 0);
  bool varied = false;
  for (int y = 0; y < 120 && !varied; y += 7) {
    for (int x = 0; x < 120 && !varied; x += 7) {
      varied = !(img.get(x, y) == c0);
    }
  }
  EXPECT_TRUE(varied);
}

TEST_F(RendererFixture, StripsAssembleToFullFrame) {
  // Sort-first correctness: rendering each strip with its adjusted frustum
  // and pasting the strips reproduces the full-frame rendering exactly.
  const Mat4 view = path.view(7);
  const Image whole = renderer.render(view);
  for (const int k : {2, 3, 5}) {
    Image assembled(120, 120);
    for (const StripRange& s : divide_rows(120, k)) {
      assembled.paste(renderer.render_strip(view, s), s.y0);
    }
    EXPECT_EQ(assembled, whole) << "k=" << k;
  }
}

TEST_F(RendererFixture, DeterministicAcrossCalls) {
  const Mat4 view = path.view(3);
  EXPECT_EQ(renderer.render(view), renderer.render(view));
}

TEST_F(RendererFixture, EstimateTracksRasterWorkload) {
  const Mat4 view = path.view(11);
  RenderStats real;
  renderer.render(view, &real);
  const RenderStats est = renderer.estimate_strip(view, {0, 120});
  // Same culling.
  EXPECT_EQ(est.cull.tris_accepted, real.cull.tris_accepted);
  EXPECT_EQ(est.cull.nodes_visited, real.cull.nodes_visited);
  // Pixel estimate within the same order of magnitude as filled pixels.
  EXPECT_GT(est.projected_pixels, 0.2 * static_cast<double>(real.raster.pixels_filled));
}

TEST_F(RendererFixture, EstimateIsCappedByStripArea) {
  const RenderStats est = renderer.estimate_strip(path.view(1), {0, 120});
  EXPECT_LE(est.projected_pixels, 2.5 * 120.0 * 120.0 + 1.0);
}

TEST_F(RendererFixture, StripWorkloadsShrinkWithK) {
  const Mat4 view = path.view(5);
  const RenderStats whole = renderer.estimate_strip(view, {0, 120});
  double strip_sum_pixels = 0.0;
  for (const StripRange& s : divide_rows(120, 4)) {
    const RenderStats st = renderer.estimate_strip(view, s);
    EXPECT_LE(st.cull.tris_accepted, whole.cull.tris_accepted);
    strip_sum_pixels += st.projected_pixels;
  }
  EXPECT_GT(strip_sum_pixels, 0.0);
}

// ---------------------------------------------------- estimator equivalence

/// Every RenderStats field the estimators write must match exactly: the
/// counts by value, projected_pixels by its bytes (a last-bit or signed-zero
/// difference would change the workload trace).
void expect_same_estimate(const RenderStats& ref, const RenderStats& opt) {
  EXPECT_EQ(opt.cull.nodes_visited, ref.cull.nodes_visited);
  EXPECT_EQ(opt.cull.tris_accepted, ref.cull.tris_accepted);
  EXPECT_EQ(opt.cull.nodes_total, ref.cull.nodes_total);
  EXPECT_EQ(opt.triangles_transformed, ref.triangles_transformed);
  EXPECT_EQ(opt.raster.triangles_submitted, ref.raster.triangles_submitted);
  EXPECT_EQ(opt.raster.triangles_clipped_away,
            ref.raster.triangles_clipped_away);
  EXPECT_EQ(std::memcmp(&opt.projected_pixels, &ref.projected_pixels,
                        sizeof(double)),
            0)
      << "reference " << ref.projected_pixels << ", optimised "
      << opt.projected_pixels;
}

/// What a comparison exercised: triangles that took the clipped-away
/// branch, and strips whose estimate is the area sum rather than the
/// 2.5x-strip cap (a capped strip compares equal whatever the sum was).
struct Exercised {
  std::uint64_t clipped = 0;
  int uncapped = 0;
};

/// Runs both estimators over every strip of \p view and compares them.
Exercised compare_estimators(const Renderer& renderer, const Mat4& view,
                             const std::vector<StripRange>& strips) {
  std::vector<RenderStats> out(strips.size());
  renderer.estimate_strips(view, strips, out);
  Exercised ex;
  for (std::size_t i = 0; i < strips.size(); ++i) {
    SCOPED_TRACE("strip " + std::to_string(strips[i].y0) + "+" +
                 std::to_string(strips[i].rows));
    expect_same_estimate(reference::estimate_strip(renderer, view, strips[i]),
                         out[i]);
    ex.clipped += out[i].raster.triangles_clipped_away;
    const double cap = 2.5 * renderer.frame_width() * strips[i].rows;
    if (out[i].projected_pixels < cap) ++ex.uncapped;
  }
  return ex;
}

TEST(EstimatorEquivalence, FrameEstimateMatchesReferenceBitForBit) {
  // Odd side and k up to 9: divide_rows leaves remainder rows.
  const int side = 121;
  const std::vector<StripRange> strips = divide_rows_up_to(side, 9);
  for (const std::uint64_t seed : {1ull, 3ull, 7ull, 0x5cc91234ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CityParams p;
    p.blocks_x = 5;
    p.blocks_z = 5;
    p.seed = seed;
    const Mesh city = generate_city(p);
    const Octree octree(city);
    const Renderer renderer(city, octree, CameraConfig{}, side, side);
    const WalkthroughPath path(city.bounds(), 24);
    for (int frame = 0; frame < path.frame_count(); frame += 5) {
      SCOPED_TRACE("frame " + std::to_string(frame));
      compare_estimators(renderer, path.view(frame), strips);
    }
    // Walkthrough strips all reach the cap, so the area sum is compared
    // on an overview from outside the city, where whole strips are not.
    const Vec3 c = city.bounds().center();
    const Vec3 e = city.bounds().extent();
    const Mat4 overview = Mat4::look_at(c + Vec3{3.0f * e.x, e.y, 0.0f}, c,
                                        Vec3{0.0f, 1.0f, 0.0f});
    EXPECT_GT(compare_estimators(renderer, overview, strips).uncapped, 0);
  }
}

TEST(EstimatorEquivalence, MatchesReferenceWithTrianglesBehindTheEye) {
  // Eye at street level in the middle of the city: the octree accepts
  // nodes that straddle the eye, so whole triangles behind it reach the
  // clip test — the branch that skips the strip's y projection.
  CityParams p;
  p.blocks_x = 5;
  p.blocks_z = 5;
  const Mesh city = generate_city(p);
  const Octree octree(city);
  const int side = 121;
  const Renderer renderer(city, octree, CameraConfig{}, side, side);
  const Vec3 c = city.bounds().center();
  const Vec3 eye{c.x, city.bounds().lo.y + 2.0f, c.z};
  const Mat4 view =
      Mat4::look_at(eye, eye + Vec3{10.0f, 0.0f, 3.0f}, Vec3{0.0f, 1.0f, 0.0f});
  EXPECT_GT(compare_estimators(renderer, view, divide_rows_up_to(side, 9)).clipped,
            0u);
}

}  // namespace
}  // namespace sccpipe
