#include "sccpipe/core/workload.hpp"

#include "sccpipe/support/check.hpp"

namespace sccpipe {

SceneBundle::SceneBundle(CityParams city, CameraConfig camera, int image_side,
                         int frame_count)
    : city_(city),
      camera_(camera),
      side_(image_side),
      frames_(frame_count),
      mesh_(generate_city(city)),
      octree_(mesh_),
      renderer_(mesh_, octree_, camera, image_side, image_side),
      path_(mesh_.bounds(), frame_count) {
  SCCPIPE_CHECK(image_side > 0 && frame_count > 0);
}

WorkloadTrace::WorkloadTrace(int frames, int max_k)
    : frames_(frames), max_k_(max_k) {
  SCCPIPE_CHECK(frames > 0 && max_k > 0);
  // Per frame we store strips for k = 1..max_k: sum_{k=1..K} k entries.
  k_offset_.assign(static_cast<std::size_t>(max_k) + 1, 0);
  std::size_t off = 0;
  for (int k = 1; k <= max_k; ++k) {
    k_offset_[static_cast<std::size_t>(k)] = off;
    off += static_cast<std::size_t>(k);
  }
  per_frame_ = off;
  loads_.resize(static_cast<std::size_t>(frames) * per_frame_);
}

std::size_t WorkloadTrace::index(int frame, int k, int strip) const {
  SCCPIPE_CHECK_MSG(frame >= 0 && frame < frames_, "frame " << frame);
  SCCPIPE_CHECK_MSG(k >= 1 && k <= max_k_, "k " << k);
  SCCPIPE_CHECK_MSG(strip >= 0 && strip < k, "strip " << strip << " of " << k);
  return static_cast<std::size_t>(frame) * per_frame_ +
         k_offset_[static_cast<std::size_t>(k)] +
         static_cast<std::size_t>(strip);
}

const RenderLoad& WorkloadTrace::load(int frame, int k, int strip) const {
  return loads_[index(frame, k, strip)];
}

WorkloadTrace WorkloadTrace::build(const SceneBundle& scene, int max_k,
                                   const ForEachFrame& for_each) {
  WorkloadTrace trace(scene.frame_count(), max_k);
  const Renderer& renderer = scene.renderer();
  // In trace order (k, then strip), so a frame's slice of loads_ lines up
  // with the strips index for index.
  const std::vector<StripRange> strips =
      divide_rows_up_to(scene.image_side(), max_k);
  // Frames are independent (the estimator is const, each frame writes its
  // own slice of loads_), so the pass parallelises per frame when a runner
  // is supplied.
  const auto estimate_frame = [&](std::size_t f) {
    const int frame = static_cast<int>(f);
    std::vector<RenderStats> stats(strips.size());
    renderer.estimate_strips(scene.path().view(frame), strips, stats);
    RenderLoad* loads = &trace.loads_[trace.index(frame, 1, 0)];
    for (std::size_t i = 0; i < stats.size(); ++i) {
      loads[i].nodes_visited = stats[i].cull.nodes_visited;
      loads[i].tris_accepted = stats[i].cull.tris_accepted;
      loads[i].projected_pixels = stats[i].projected_pixels;
    }
  };
  const std::size_t frames = static_cast<std::size_t>(scene.frame_count());
  if (for_each) {
    for_each(frames, estimate_frame);
  } else {
    for (std::size_t f = 0; f < frames; ++f) estimate_frame(f);
  }
  return trace;
}

}  // namespace sccpipe
