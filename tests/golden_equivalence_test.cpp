// Golden-equivalence tests: the optimised kernels in filters.cpp and
// rasterizer.cpp must be BIT-identical to the naive reference
// transcriptions of the paper's §IV formulas — not approximately equal.
// Seeded random images over a size grid that includes every degenerate
// shape (1x1, single row, single column, odd sizes) so the edge-clamp
// paths of the running-sum blur and the row hoisting of the rasterizer are
// all exercised. The slicing-by-16 CRC-32 is held to the byte-at-a-time
// loop it replaced the same way: equal on every length, offset and seed
// chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sccpipe/filters/filters.hpp"
#include "sccpipe/filters/reference.hpp"
#include "sccpipe/render/rasterizer.hpp"
#include "sccpipe/render/reference.hpp"
#include "sccpipe/support/crc.hpp"
#include "sccpipe/support/reference.hpp"
#include "sccpipe/support/rng.hpp"

namespace sccpipe {
namespace {

Image random_image(Rng& rng, int w, int h) {
  Image img(w, h);
  std::uint8_t* d = img.data();
  for (std::size_t i = 0; i < img.byte_size(); ++i) {
    d[i] = static_cast<std::uint8_t>(rng.below(256));
  }
  return img;
}

// Sizes covering the degenerate shapes: the blur's horizontal window
// collapses at w=1, its vertical window at h=1, and odd sizes leave a
// non-empty interior plus both edge columns.
const std::vector<std::pair<int, int>> kSizes = {
    {1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 3}, {2, 5},
    {5, 2}, {17, 13}, {64, 48}, {101, 37}};

void expect_images_equal(const Image& got, const Image& want, int w, int h,
                         const char* what) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  EXPECT_EQ(got, want) << what << " diverged from reference on " << w << 'x'
                       << h;
}

TEST(GoldenFilters, SepiaBitIdentical) {
  Rng rng{0x5e91a001};
  for (const auto& [w, h] : kSizes) {
    Image opt = random_image(rng, w, h);
    Image ref = opt;
    apply_sepia(opt);
    reference::apply_sepia(ref);
    expect_images_equal(opt, ref, w, h, "sepia");
  }
}

TEST(GoldenFilters, BlurBitIdentical) {
  Rng rng{0xb10b1002};
  for (const auto& [w, h] : kSizes) {
    Image opt = random_image(rng, w, h);
    Image ref = opt;
    apply_blur(opt);
    reference::apply_blur(ref);
    expect_images_equal(opt, ref, w, h, "blur");
  }
}

TEST(GoldenFilters, BlurRepeatedApplicationsStayIdentical) {
  // The in-place ring must keep reading original rows; applying the filter
  // several times amplifies any stale-row mistake into a visible diff.
  Rng rng{0xb10b1003};
  Image opt = random_image(rng, 33, 21);
  Image ref = opt;
  for (int i = 0; i < 4; ++i) {
    apply_blur(opt);
    reference::apply_blur(ref);
    ASSERT_EQ(opt, ref) << "pass " << i;
  }
}

TEST(GoldenFilters, ScratchesBitIdentical) {
  Rng rng{0x5c8a7c03};
  for (const auto& [w, h] : kSizes) {
    Image opt = random_image(rng, w, h);
    Image ref = opt;
    const ScratchParams p = scratch_params_for_frame(0xfeed, 7, w);
    apply_scratches(opt, p);
    reference::apply_scratches(ref, p);
    expect_images_equal(opt, ref, w, h, "scratches");
  }
}

TEST(GoldenFilters, FlickerBitIdentical) {
  Rng rng{0xf11c4004};
  for (const auto& [w, h] : kSizes) {
    Image opt = random_image(rng, w, h);
    Image ref = opt;
    const FlickerParams p = flicker_params_for_frame(0xfeed, 11);
    apply_flicker(opt, p);
    reference::apply_flicker(ref, p);
    expect_images_equal(opt, ref, w, h, "flicker");
  }
}

TEST(GoldenFilters, OrientedScratchesBitIdentical) {
  Rng rng{0x0513a005};
  for (const auto& [w, h] : kSizes) {
    for (const int strip_y0 : {0, 3}) {
      Image opt = random_image(rng, w, h);
      Image ref = opt;
      const OrientedScratchParams p =
          oriented_scratch_params_for_frame(0xfeed, 3, w, h * 2);
      apply_oriented_scratches(opt, p, strip_y0);
      reference::apply_oriented_scratches(ref, p, strip_y0);
      expect_images_equal(opt, ref, w, h, "oriented scratches");
    }
  }
}

TEST(GoldenFilters, VflipBitIdentical) {
  Rng rng{0x0f11b006};
  for (const auto& [w, h] : kSizes) {
    Image opt = random_image(rng, w, h);
    Image ref = opt;
    apply_vflip(opt);
    reference::apply_vflip(ref);
    expect_images_equal(opt, ref, w, h, "vflip");
  }
}

TEST(GoldenFilters, FullPipelineBitIdentical) {
  // The five stages composed, as the walkthrough applies them.
  Rng rng{0x91e11007};
  Image opt = random_image(rng, 57, 43);
  Image ref = opt;
  const ScratchParams sp = scratch_params_for_frame(1, 2, 57);
  const FlickerParams fp = flicker_params_for_frame(1, 2);
  apply_sepia(opt);
  apply_blur(opt);
  apply_scratches(opt, sp);
  apply_flicker(opt, fp);
  apply_vflip(opt);
  reference::apply_sepia(ref);
  reference::apply_blur(ref);
  reference::apply_scratches(ref, sp);
  reference::apply_flicker(ref, fp);
  reference::apply_vflip(ref);
  EXPECT_EQ(opt, ref);
}

// ------------------------------------------------------------ rasterizer

Vec4 random_clip_vertex(Rng& rng) {
  // Mostly in front of the eye, some behind to exercise near clipping.
  const float w = static_cast<float>(rng.uniform(-0.5, 4.0));
  return Vec4{static_cast<float>(rng.uniform(-2.0, 2.0)) * w,
              static_cast<float>(rng.uniform(-2.0, 2.0)) * w,
              static_cast<float>(rng.uniform(-1.5, 1.5)) * w, w};
}

TEST(GoldenRaster, TriangleBatchBitIdentical) {
  Rng rng{0x7a57e008};
  for (const auto& [w, h] : std::vector<std::pair<int, int>>{
           {1, 1}, {9, 1}, {1, 9}, {31, 17}, {64, 64}}) {
    Framebuffer fb_opt(w, h);
    Framebuffer fb_ref(w, h);
    fb_opt.clear();
    fb_ref.clear();
    RasterStats st_opt, st_ref;
    const Viewport vp = Viewport::full(fb_opt);
    for (int i = 0; i < 60; ++i) {
      const Vec4 a = random_clip_vertex(rng);
      const Vec4 b = random_clip_vertex(rng);
      const Vec4 c = random_clip_vertex(rng);
      const Color col{static_cast<std::uint8_t>(rng.below(256)),
                      static_cast<std::uint8_t>(rng.below(256)),
                      static_cast<std::uint8_t>(rng.below(256)), 255};
      draw_triangle_clip(fb_opt, vp, a, b, c, col, &st_opt);
      reference::draw_triangle_clip(fb_ref, vp, a, b, c, col, &st_ref);
    }
    EXPECT_EQ(fb_opt.color(), fb_ref.color()) << w << 'x' << h;
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        ASSERT_EQ(fb_opt.depth(x, y), fb_ref.depth(x, y))
            << "depth (" << x << ',' << y << ") on " << w << 'x' << h;
      }
    }
    EXPECT_EQ(st_opt.pixels_tested, st_ref.pixels_tested);
    EXPECT_EQ(st_opt.pixels_filled, st_ref.pixels_filled);
    EXPECT_EQ(st_opt.triangles_submitted, st_ref.triangles_submitted);
    EXPECT_EQ(st_opt.triangles_clipped_away, st_ref.triangles_clipped_away);
  }
}

TEST(GoldenRaster, StripWindowBitIdentical) {
  // Sort-first strip rendering: a strip viewport with y_offset must paint
  // the same rows the full-frame pass paints.
  Rng rng{0x57e1b009};
  constexpr int kW = 40, kH = 30, kStripY0 = 10, kStripRows = 8;
  Framebuffer full_opt(kW, kH);
  Framebuffer strip_ref(kW, kStripRows);
  full_opt.clear();
  strip_ref.clear();
  const Viewport vp_full = Viewport::full(full_opt);
  const Viewport vp_strip{kW, kH, kStripY0};
  for (int i = 0; i < 40; ++i) {
    const Vec4 a = random_clip_vertex(rng);
    const Vec4 b = random_clip_vertex(rng);
    const Vec4 c = random_clip_vertex(rng);
    const Color col{static_cast<std::uint8_t>(rng.below(256)), 100, 50, 255};
    draw_triangle_clip(full_opt, vp_full, a, b, c, col);
    reference::draw_triangle_clip(strip_ref, vp_strip, a, b, c, col);
  }
  EXPECT_EQ(full_opt.color().strip(StripRange{kStripY0, kStripRows}),
            strip_ref.color());
}

// ----------------------------------------------------------------- crc32

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

TEST(GoldenCrc32, EveryLengthAndOffsetMatchesReference) {
  // Lengths 0..256 cover an empty buffer, the byte tail alone (< 16),
  // whole 16-byte steps and every step + tail mix; offsets 0..15 put the
  // 16-byte loads at every alignment.
  Rng rng{0xc3c32001};
  const std::vector<std::uint8_t> buf = random_bytes(rng, 256 + 16);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      ASSERT_EQ(crc32(buf.data() + offset, len),
                reference::crc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(GoldenCrc32, ChainedSeedsMatchAtEverySplit) {
  Rng rng{0xc3c32002};
  const std::vector<std::uint8_t> buf = random_bytes(rng, 100);
  const std::uint32_t whole = reference::crc32(buf.data(), buf.size());
  EXPECT_EQ(crc32(buf.data(), buf.size()), whole);
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = crc32(buf.data(), split);
    ASSERT_EQ(head, reference::crc32(buf.data(), split)) << "split " << split;
    ASSERT_EQ(crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split " << split;
    ASSERT_EQ(reference::crc32(buf.data() + split, buf.size() - split, head),
              whole)
        << "split " << split;
  }
}

TEST(GoldenCrc32, IncrementalUnevenChunksMatchReference) {
  Rng rng{0xc3c32003};
  const std::vector<std::uint8_t> buf = random_bytes(rng, 1000);
  const std::uint32_t want = reference::crc32(buf.data(), buf.size());
  Crc32 acc;
  std::size_t pos = 0;
  for (std::size_t chunk = 0; pos < buf.size(); ++chunk) {
    // 0, 1, 2, ... 36, then wrap: empty, tail-only and multi-step chunks.
    const std::size_t n = std::min(chunk % 37, buf.size() - pos);
    acc.update(buf.data() + pos, n);
    pos += n;
    ASSERT_EQ(acc.value(), reference::crc32(buf.data(), pos)) << "at " << pos;
  }
  EXPECT_EQ(acc.value(), want);
}

TEST(GoldenCrc32, PaperFrameMatchesReference) {
  // One 400x400 RGBA frame: the size every functional Channel crossing
  // checksums.
  Rng rng{0xc3c32004};
  const Image img = random_image(rng, 400, 400);
  EXPECT_EQ(crc32(img.data(), img.byte_size()),
            reference::crc32(img.data(), img.byte_size()));
}

}  // namespace
}  // namespace sccpipe
