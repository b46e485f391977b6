#include "sccpipe/support/snapshot.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "sccpipe/support/crc.hpp"

namespace sccpipe::snapshot {

namespace {

constexpr std::size_t kHeaderBytes = 20;

double bits_to_f64(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::uint64_t f64_to_bits(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

void append_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void append_u64_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t load_u32_le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t load_u64_le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

Status data_loss(const std::string& what) {
  return Status(StatusCode::DataLoss, "snapshot " + what);
}

}  // namespace

// ------------------------------------------------------------------ Writer

void Writer::tag(Tag t) { payload_.push_back(static_cast<std::uint8_t>(t)); }
void Writer::raw_u32(std::uint32_t v) { append_u32_le(payload_, v); }
void Writer::raw_u64(std::uint64_t v) { append_u64_le(payload_, v); }

void Writer::u32(std::uint32_t v) {
  tag(Tag::U32);
  raw_u32(v);
}

void Writer::u64(std::uint64_t v) {
  tag(Tag::U64);
  raw_u64(v);
}

void Writer::i64(std::int64_t v) {
  tag(Tag::I64);
  raw_u64(static_cast<std::uint64_t>(v));
}

void Writer::f64(double v) {
  tag(Tag::F64);
  raw_u64(f64_to_bits(v));
}

void Writer::bytes(const void* data, std::size_t size) {
  tag(Tag::Bytes);
  raw_u64(size);
  const auto* p = static_cast<const std::uint8_t*>(data);
  payload_.insert(payload_.end(), p, p + size);
}

void Writer::str(const std::string& s) {
  tag(Tag::Str);
  raw_u64(s.size());
  payload_.insert(payload_.end(), s.begin(), s.end());
}

std::vector<std::uint8_t> Writer::finish() const {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload_.size());
  append_u32_le(out, kMagic);
  append_u32_le(out, kSnapshotVersion);
  append_u64_le(out, payload_.size());
  append_u32_le(out, crc32(payload_.data(), payload_.size()));
  out.insert(out.end(), payload_.begin(), payload_.end());
  return out;
}

// ------------------------------------------------------------------ Reader

Status Reader::open(const std::vector<std::uint8_t>& data) {
  payload_.clear();
  pos_ = 0;
  if (data.size() < kHeaderBytes) {
    return data_loss("truncated: " + std::to_string(data.size()) +
                     " bytes is shorter than the frame header");
  }
  if (load_u32_le(data.data()) != kMagic) {
    return data_loss("has a bad magic number");
  }
  const std::uint32_t version = load_u32_le(data.data() + 4);
  if (version != kSnapshotVersion) {
    return Status(StatusCode::VersionSkew,
                  "snapshot format version " + std::to_string(version) +
                      " (this build reads version " +
                      std::to_string(kSnapshotVersion) + ")");
  }
  const std::uint64_t len = load_u64_le(data.data() + 8);
  if (len != data.size() - kHeaderBytes) {
    return data_loss("length field says " + std::to_string(len) +
                     " payload bytes but the file holds " +
                     std::to_string(data.size() - kHeaderBytes));
  }
  const std::uint32_t want_crc = load_u32_le(data.data() + 16);
  const std::uint32_t got_crc =
      crc32(data.data() + kHeaderBytes, static_cast<std::size_t>(len));
  if (want_crc != got_crc) {
    return data_loss("payload fails its CRC-32 check");
  }
  payload_.assign(data.begin() + kHeaderBytes, data.end());
  return Status();
}

Status Reader::need(std::size_t n) const {
  if (payload_.size() - pos_ < n) {
    return data_loss("payload ends mid-field");
  }
  return Status();
}

Status Reader::expect_tag(Tag want) {
  Status s = need(1);
  if (!s.ok()) return s;
  const auto got = static_cast<Tag>(payload_[pos_]);
  if (got != want) {
    return data_loss("field tag mismatch: expected " +
                     std::to_string(static_cast<int>(want)) + ", found " +
                     std::to_string(static_cast<int>(got)));
  }
  ++pos_;
  return Status();
}

Status Reader::raw_u64(std::uint64_t* out) {
  Status s = need(8);
  if (!s.ok()) return s;
  *out = load_u64_le(payload_.data() + pos_);
  pos_ += 8;
  return Status();
}

Status Reader::u32(std::uint32_t* out) {
  Status s = expect_tag(Tag::U32);
  if (!s.ok()) return s;
  s = need(4);
  if (!s.ok()) return s;
  *out = load_u32_le(payload_.data() + pos_);
  pos_ += 4;
  return Status();
}

Status Reader::u64(std::uint64_t* out) {
  Status s = expect_tag(Tag::U64);
  if (!s.ok()) return s;
  return raw_u64(out);
}

Status Reader::i64(std::int64_t* out) {
  Status s = expect_tag(Tag::I64);
  if (!s.ok()) return s;
  std::uint64_t bits = 0;
  s = raw_u64(&bits);
  if (!s.ok()) return s;
  *out = static_cast<std::int64_t>(bits);
  return Status();
}

Status Reader::f64(double* out) {
  Status s = expect_tag(Tag::F64);
  if (!s.ok()) return s;
  std::uint64_t bits = 0;
  s = raw_u64(&bits);
  if (!s.ok()) return s;
  *out = bits_to_f64(bits);
  return Status();
}

Status Reader::bytes(std::vector<std::uint8_t>* out) {
  Status s = expect_tag(Tag::Bytes);
  if (!s.ok()) return s;
  std::uint64_t len = 0;
  s = raw_u64(&len);
  if (!s.ok()) return s;
  s = need(static_cast<std::size_t>(len));
  if (!s.ok()) return s;
  out->assign(payload_.begin() + static_cast<std::ptrdiff_t>(pos_),
              payload_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += static_cast<std::size_t>(len);
  return Status();
}

Status Reader::str(std::string* out) {
  Status s = expect_tag(Tag::Str);
  if (!s.ok()) return s;
  std::uint64_t len = 0;
  s = raw_u64(&len);
  if (!s.ok()) return s;
  s = need(static_cast<std::size_t>(len));
  if (!s.ok()) return s;
  out->assign(payload_.begin() + static_cast<std::ptrdiff_t>(pos_),
              payload_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += static_cast<std::size_t>(len);
  return Status();
}

// ---------------------------------------------------------------- file I/O

Status write_file_atomic(const std::string& path,
                         const std::vector<std::uint8_t>& framed) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status(StatusCode::InvalidArgument,
                  "cannot create checkpoint file '" + tmp +
                      "': " + std::strerror(errno));
  }
  const std::size_t written = framed.empty()
                                  ? 0
                                  : std::fwrite(framed.data(), 1,
                                                framed.size(), f);
  // fflush + fclose before rename: the rename must publish complete bytes.
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != framed.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    return Status(StatusCode::InvalidArgument,
                  "short write to checkpoint file '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status(StatusCode::InvalidArgument,
                  "cannot publish checkpoint file '" + path +
                      "': " + std::strerror(errno));
  }
  return Status();
}

Status read_file(const std::string& path, std::vector<std::uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status(StatusCode::NotFound,
                  "snapshot file '" + path + "': " + std::strerror(errno));
  }
  out->clear();
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->insert(out->end(), buf, buf + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status(StatusCode::NotFound,
                  "snapshot file '" + path + "' is unreadable");
  }
  return Status();
}

}  // namespace sccpipe::snapshot
