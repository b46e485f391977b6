#include "sccpipe/geom/mat4.hpp"

#include <cmath>

namespace sccpipe {

Mat4 Mat4::identity() {
  Mat4 r;
  for (int i = 0; i < 4; ++i) r.m[i][i] = 1.0f;
  return r;
}

Mat4 Mat4::translate(Vec3 t) {
  Mat4 r = identity();
  r.m[3][0] = t.x;
  r.m[3][1] = t.y;
  r.m[3][2] = t.z;
  return r;
}

Mat4 Mat4::scale(Vec3 s) {
  Mat4 r;
  r.m[0][0] = s.x;
  r.m[1][1] = s.y;
  r.m[2][2] = s.z;
  r.m[3][3] = 1.0f;
  return r;
}

Mat4 Mat4::rotate_y(float radians) {
  Mat4 r = identity();
  const float c = std::cos(radians);
  const float s = std::sin(radians);
  r.m[0][0] = c;
  r.m[0][2] = -s;
  r.m[2][0] = s;
  r.m[2][2] = c;
  return r;
}

Mat4 Mat4::perspective(float fovy, float aspect, float z_near, float z_far) {
  const float f = 1.0f / std::tan(fovy * 0.5f);
  Mat4 r;
  r.m[0][0] = f / aspect;
  r.m[1][1] = f;
  r.m[2][2] = (z_far + z_near) / (z_near - z_far);
  r.m[2][3] = -1.0f;
  r.m[3][2] = (2.0f * z_far * z_near) / (z_near - z_far);
  return r;
}

Mat4 Mat4::frustum(float left, float right, float bottom, float top,
                   float z_near, float z_far) {
  Mat4 r;
  r.m[0][0] = 2.0f * z_near / (right - left);
  r.m[1][1] = 2.0f * z_near / (top - bottom);
  r.m[2][0] = (right + left) / (right - left);
  r.m[2][1] = (top + bottom) / (top - bottom);
  r.m[2][2] = (z_far + z_near) / (z_near - z_far);
  r.m[2][3] = -1.0f;
  r.m[3][2] = (2.0f * z_far * z_near) / (z_near - z_far);
  return r;
}

Mat4 Mat4::look_at(Vec3 eye, Vec3 center, Vec3 up) {
  const Vec3 f = normalize(center - eye);
  const Vec3 s = normalize(cross(f, up));
  const Vec3 u = cross(s, f);
  Mat4 r = identity();
  r.m[0][0] = s.x;
  r.m[1][0] = s.y;
  r.m[2][0] = s.z;
  r.m[0][1] = u.x;
  r.m[1][1] = u.y;
  r.m[2][1] = u.z;
  r.m[0][2] = -f.x;
  r.m[1][2] = -f.y;
  r.m[2][2] = -f.z;
  r.m[3][0] = -dot(s, eye);
  r.m[3][1] = -dot(u, eye);
  r.m[3][2] = dot(f, eye);
  return r;
}

Mat4 operator*(const Mat4& a, const Mat4& b) {
  Mat4 r;
  for (int c = 0; c < 4; ++c) {
    for (int row = 0; row < 4; ++row) {
      float sum = 0.0f;
      for (int k = 0; k < 4; ++k) sum += a.m[k][row] * b.m[c][k];
      r.m[c][row] = sum;
    }
  }
  return r;
}

}  // namespace sccpipe
