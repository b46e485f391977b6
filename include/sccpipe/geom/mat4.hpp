#pragma once

/// \file mat4.hpp
/// Column-major 4x4 matrix with the usual graphics constructors
/// (perspective, look-at, translate/scale). Conventions match OpenGL:
/// right-handed eye space, clip space -w..w, NDC -1..1.

#include "sccpipe/geom/vec.hpp"

namespace sccpipe {

struct Mat4 {
  // m[column][row]
  float m[4][4] = {};

  static Mat4 identity();
  static Mat4 translate(Vec3 t);
  static Mat4 scale(Vec3 s);
  static Mat4 rotate_y(float radians);

  /// Right-handed perspective projection; fovy in radians.
  static Mat4 perspective(float fovy, float aspect, float z_near, float z_far);

  /// Off-axis (asymmetric) frustum projection — needed to adjust the view
  /// frustum per image strip in the sort-first renderer (paper §V, "the
  /// extra computations ... to adjust the viewing frustum of the camera").
  static Mat4 frustum(float left, float right, float bottom, float top,
                      float z_near, float z_far);

  static Mat4 look_at(Vec3 eye, Vec3 center, Vec3 up);

  friend Mat4 operator*(const Mat4& a, const Mat4& b);
};

/// Inline: the workload estimator and the rasterizer transform every
/// visible vertex through this, and an out-of-line call costs more than
/// the sixteen multiplies (docs/PERF.md §5).
inline Vec4 operator*(const Mat4& a, const Vec4& v) {
  Vec4 r;
  r.x = a.m[0][0] * v.x + a.m[1][0] * v.y + a.m[2][0] * v.z + a.m[3][0] * v.w;
  r.y = a.m[0][1] * v.x + a.m[1][1] * v.y + a.m[2][1] * v.z + a.m[3][1] * v.w;
  r.z = a.m[0][2] * v.x + a.m[1][2] * v.y + a.m[2][2] * v.z + a.m[3][2] * v.w;
  r.w = a.m[0][3] * v.x + a.m[1][3] * v.y + a.m[2][3] * v.z + a.m[3][3] * v.w;
  return r;
}

}  // namespace sccpipe
