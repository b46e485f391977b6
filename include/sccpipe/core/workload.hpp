#pragma once

/// \file workload.hpp
/// Scene construction and the per-frame/per-strip workload trace. The timed
/// benches never rasterize: the trace carries the octree-cull statistics
/// and projected coverage for every frame at every strip count, measured
/// once by the real culling code, and the discrete-event model prices them.

#include <functional>
#include <memory>
#include <vector>

#include "sccpipe/core/stage.hpp"
#include "sccpipe/render/renderer.hpp"
#include "sccpipe/scene/camera.hpp"
#include "sccpipe/scene/city.hpp"
#include "sccpipe/scene/octree.hpp"

namespace sccpipe {

/// Owns the scene and everything derived from it. Build once, share across
/// runs (immutable afterwards).
class SceneBundle {
 public:
  SceneBundle(CityParams city, CameraConfig camera, int image_side,
              int frame_count);

  const Mesh& mesh() const { return mesh_; }
  const Octree& octree() const { return octree_; }
  const Renderer& renderer() const { return renderer_; }
  const WalkthroughPath& path() const { return path_; }
  const CameraConfig& camera() const { return camera_; }
  const CityParams& city() const { return city_; }
  int image_side() const { return side_; }
  int frame_count() const { return frames_; }
  double frame_bytes() const {
    return static_cast<double>(side_) * side_ * 4.0;
  }

 private:
  CityParams city_;
  CameraConfig camera_;
  int side_;
  int frames_;
  Mesh mesh_;
  Octree octree_;
  Renderer renderer_;
  WalkthroughPath path_;
};

/// Render workload for every (frame, strip) pair at strip counts 1..max_k.
class WorkloadTrace {
 public:
  /// Optional parallelism hook for build(): invoked as for_each(n, fn) and
  /// must call fn(i) exactly once for every i in [0, n) before returning
  /// (any order, any thread — frames write disjoint slices, and the result
  /// is bit-identical to a serial build). exec::trace_runner() adapts the
  /// parallel executor to this shape; core itself stays thread-free.
  using ForEachFrame =
      std::function<void(std::size_t, const std::function<void(std::size_t)>&)>;

  /// Runs the estimation pass of the real renderer: one
  /// Renderer::estimate_strips call per frame covering all sum(k) strips.
  /// The full paper trace (400 frames, 400x400, max_k 7: 11,200 strips)
  /// takes about a second serially (docs/PERF.md §5).
  static WorkloadTrace build(const SceneBundle& scene, int max_k,
                             const ForEachFrame& for_each = {});

  int frame_count() const { return frames_; }
  int max_k() const { return max_k_; }

  /// Workload of strip \p strip (0-based) when the frame is divided into
  /// \p k strips.
  const RenderLoad& load(int frame, int k, int strip) const;

  /// Whole-frame workload (k = 1).
  const RenderLoad& whole(int frame) const { return load(frame, 1, 0); }

 private:
  WorkloadTrace(int frames, int max_k);
  std::size_t index(int frame, int k, int strip) const;

  int frames_;
  int max_k_;
  std::size_t per_frame_ = 0;
  std::vector<RenderLoad> loads_;  // frame-major, then k (1..max), then strip
  std::vector<std::size_t> k_offset_;
};

}  // namespace sccpipe
