#include "sccpipe/filters/image.hpp"

#include <cstring>
#include <fstream>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

std::vector<StripRange> divide_rows(int height, int k) {
  SCCPIPE_CHECK_MSG(height > 0 && k > 0, "height=" << height << " k=" << k);
  SCCPIPE_CHECK_MSG(k <= height, "more strips than rows");
  std::vector<StripRange> strips;
  strips.reserve(static_cast<std::size_t>(k));
  const int base = height / k;
  const int extra = height % k;
  int y = 0;
  for (int i = 0; i < k; ++i) {
    const int rows = base + (i < extra ? 1 : 0);
    strips.push_back(StripRange{y, rows});
    y += rows;
  }
  return strips;
}

std::vector<StripRange> divide_rows_up_to(int height, int max_k) {
  std::vector<StripRange> strips;
  for (int k = 1; k <= max_k; ++k) {
    const std::vector<StripRange> ks = divide_rows(height, k);
    strips.insert(strips.end(), ks.begin(), ks.end());
  }
  return strips;
}

std::vector<StripRange> divide_rows_weighted(
    int height, const std::vector<double>& weights) {
  const int k = static_cast<int>(weights.size());
  SCCPIPE_CHECK_MSG(height > 0 && k > 0, "height=" << height << " k=" << k);
  SCCPIPE_CHECK_MSG(k <= height, "more strips than rows");
  double total = 0.0;
  for (const double w : weights) {
    SCCPIPE_CHECK_MSG(w > 0.0, "strip weight " << w);
    total += w;
  }
  // Largest-remainder apportionment: floor shares first, then hand the
  // leftover rows to the largest fractional parts (ties to lower index —
  // with equal weights this is exactly divide_rows' "earlier strips take
  // the remainder" rule).
  std::vector<int> rows(static_cast<std::size_t>(k), 0);
  std::vector<double> frac(static_cast<std::size_t>(k), 0.0);
  int assigned = 0;
  for (int i = 0; i < k; ++i) {
    const double ideal =
        static_cast<double>(height) * weights[static_cast<std::size_t>(i)] /
        total;
    rows[static_cast<std::size_t>(i)] = static_cast<int>(ideal);
    frac[static_cast<std::size_t>(i)] =
        ideal - static_cast<double>(rows[static_cast<std::size_t>(i)]);
    assigned += rows[static_cast<std::size_t>(i)];
  }
  for (int left = height - assigned; left > 0; --left) {
    int best = 0;
    for (int i = 1; i < k; ++i) {
      if (frac[static_cast<std::size_t>(i)] >
          frac[static_cast<std::size_t>(best)]) {
        best = i;
      }
    }
    ++rows[static_cast<std::size_t>(best)];
    frac[static_cast<std::size_t>(best)] = -1.0;
  }
  // A tiny weight can floor to zero rows; every pipeline must still get a
  // strip (k <= height guarantees a donor with at least two rows exists).
  for (int i = 0; i < k; ++i) {
    while (rows[static_cast<std::size_t>(i)] == 0) {
      int donor = 0;
      for (int j = 1; j < k; ++j) {
        if (rows[static_cast<std::size_t>(j)] >
            rows[static_cast<std::size_t>(donor)]) {
          donor = j;
        }
      }
      --rows[static_cast<std::size_t>(donor)];
      ++rows[static_cast<std::size_t>(i)];
    }
  }
  std::vector<StripRange> strips;
  strips.reserve(static_cast<std::size_t>(k));
  int y = 0;
  for (int i = 0; i < k; ++i) {
    strips.push_back(StripRange{y, rows[static_cast<std::size_t>(i)]});
    y += rows[static_cast<std::size_t>(i)];
  }
  SCCPIPE_CHECK(y == height);
  return strips;
}

Image::Image(int width, int height, Color fill)
    : width_(width), height_(height) {
  SCCPIPE_CHECK_MSG(width > 0 && height > 0,
                    "image " << width << 'x' << height);
  data_.resize(static_cast<std::size_t>(width) * static_cast<std::size_t>(height) * 4);
  for (std::size_t i = 0; i < data_.size(); i += 4) {
    data_[i] = fill.r;
    data_[i + 1] = fill.g;
    data_[i + 2] = fill.b;
    data_[i + 3] = fill.a;
  }
}

std::size_t Image::index(int x, int y) const {
  SCCPIPE_CHECK_MSG(x >= 0 && x < width_ && y >= 0 && y < height_,
                    "pixel (" << x << ',' << y << ") outside " << width_ << 'x'
                              << height_);
  return (static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
          static_cast<std::size_t>(x)) *
         4;
}

Color Image::get(int x, int y) const {
  const std::size_t i = index(x, y);
  return Color{data_[i], data_[i + 1], data_[i + 2], data_[i + 3]};
}

void Image::set(int x, int y, Color c) {
  const std::size_t i = index(x, y);
  data_[i] = c.r;
  data_[i + 1] = c.g;
  data_[i + 2] = c.b;
  data_[i + 3] = c.a;
}

Image Image::strip(StripRange r) const {
  SCCPIPE_CHECK_MSG(r.y0 >= 0 && r.rows > 0 && r.y0 + r.rows <= height_,
                    "strip [" << r.y0 << ", " << r.y0 + r.rows << ") of height "
                              << height_);
  Image out(width_, r.rows);
  std::memcpy(out.row(0), row(r.y0),
              static_cast<std::size_t>(r.rows) * row_bytes());
  return out;
}

void Image::paste(const Image& src, int y0) {
  SCCPIPE_CHECK_MSG(src.width_ == width_, "paste width mismatch");
  SCCPIPE_CHECK_MSG(y0 >= 0 && y0 + src.height_ <= height_,
                    "paste rows [" << y0 << ", " << y0 + src.height_
                                   << ") of height " << height_);
  std::memcpy(row(y0), src.row(0),
              static_cast<std::size_t>(src.height_) * row_bytes());
}

std::string Image::to_ppm() const {
  std::string out = "P6\n" + std::to_string(width_) + ' ' +
                    std::to_string(height_) + "\n255\n";
  out.reserve(out.size() +
              static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_) * 3);
  for (std::size_t i = 0; i < data_.size(); i += 4) {
    out.push_back(static_cast<char>(data_[i]));
    out.push_back(static_cast<char>(data_[i + 1]));
    out.push_back(static_cast<char>(data_[i + 2]));
  }
  return out;
}

void Image::write_ppm(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  SCCPIPE_CHECK_MSG(f.is_open(), "cannot open " << path);
  const std::string ppm = to_ppm();
  f.write(ppm.data(), static_cast<std::streamsize>(ppm.size()));
  SCCPIPE_CHECK_MSG(f.good(), "write failed: " << path);
}

}  // namespace sccpipe
