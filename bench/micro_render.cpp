// Google-benchmark microbenchmarks of the render substrate: octree build,
// frustum culling, strip and whole-frame estimation and full rasterization.

#include <benchmark/benchmark.h>

#include <vector>

#include "sccpipe/render/renderer.hpp"
#include "sccpipe/scene/city.hpp"

namespace {

using namespace sccpipe;

const Mesh& city() {
  static const Mesh mesh = generate_city();
  return mesh;
}

const Octree& octree() {
  static const Octree tree{city()};
  return tree;
}

void BM_OctreeBuild(benchmark::State& state) {
  for (auto _ : state) {
    Octree tree(city());
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.counters["triangles"] = static_cast<double>(city().size());
}
BENCHMARK(BM_OctreeBuild)->Unit(benchmark::kMillisecond);

void BM_FrustumCull(benchmark::State& state) {
  const CameraConfig cam;
  const WalkthroughPath path(city().bounds(), 40);
  int frame = 0;
  std::vector<std::uint32_t> visible;
  for (auto _ : state) {
    visible.clear();
    const Mat4 vp =
        strip_projection(cam, 400, 400, {0, 400}) * path.view(frame);
    octree().cull(Frustum(vp), visible);
    benchmark::DoNotOptimize(visible.size());
    frame = (frame + 1) % 40;
  }
}
BENCHMARK(BM_FrustumCull);

void BM_EstimateStrip(benchmark::State& state) {
  const CameraConfig cam;
  const Renderer renderer(city(), octree(), cam, 400, 400);
  const WalkthroughPath path(city().bounds(), 40);
  const int k = static_cast<int>(state.range(0));
  const auto strips = divide_rows(400, k);
  int frame = 0;
  for (auto _ : state) {
    const RenderStats st = renderer.estimate_strip(
        path.view(frame), strips[static_cast<std::size_t>(frame) % strips.size()]);
    benchmark::DoNotOptimize(st.projected_pixels);
    frame = (frame + 1) % 40;
  }
}
BENCHMARK(BM_EstimateStrip)->Arg(1)->Arg(7);

// One frame of WorkloadTrace::build: all 28 strips of k = 1..7 in a single
// estimate_strips call.
void BM_EstimateFrame(benchmark::State& state) {
  const CameraConfig cam;
  const Renderer renderer(city(), octree(), cam, 400, 400);
  const WalkthroughPath path(city().bounds(), 40);
  const std::vector<StripRange> strips = divide_rows_up_to(400, 7);
  std::vector<RenderStats> out(strips.size());
  int frame = 0;
  for (auto _ : state) {
    renderer.estimate_strips(path.view(frame), strips, out);
    benchmark::DoNotOptimize(out.data());
    frame = (frame + 1) % 40;
  }
  state.counters["strips"] = static_cast<double>(strips.size());
}
BENCHMARK(BM_EstimateFrame)->Unit(benchmark::kMillisecond);

void BM_RenderFrame(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const CameraConfig cam;
  const Renderer renderer(city(), octree(), cam, side, side);
  const WalkthroughPath path(city().bounds(), 40);
  int frame = 0;
  for (auto _ : state) {
    const Image img = renderer.render(path.view(frame));
    benchmark::DoNotOptimize(img.data());
    frame = (frame + 1) % 40;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RenderFrame)->Arg(120)->Arg(400)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
