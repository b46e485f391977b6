#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sccpipe/support/crc.hpp"

namespace sccbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------------ spans

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now() const { return seconds_between(origin_, Clock::now()); }

int Tracer::open(const char* name, int run) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start = now();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double Tracer::top_level_seconds(double from, double to) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == -1 && s.start >= from && s.start < to) {
      sum += s.end - s.start;
    }
  }
  return sum;
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  }
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d, \"run\": %d}}%s\n",
                  s.name.c_str(), s.start * 1e6, (s.end - s.start) * 1e6, i,
                  s.parent, s.run, i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Timed::Timed(Tracer& tracer, const char* name, int run)
    : tracer_(tracer), id_(tracer.open(name, run)), t0_(Clock::now()) {}

Timed::~Timed() { stop(); }

double Timed::stop() {
  if (elapsed_ < 0.0) {
    elapsed_ = seconds_between(t0_, Clock::now());
    tracer_.close(id_);
  }
  return elapsed_;
}

// ------------------------------------------------------ fastest-repeat rule

void Repeats::add(std::size_t run, double seconds) {
  times_.at(run).push_back(seconds);
}

double Repeats::fastest(std::size_t run) const {
  const auto& t = times_.at(run);
  return t.empty() ? 0.0 : *std::min_element(t.begin(), t.end());
}

double Repeats::sum_of_fastest() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < times_.size(); ++i) sum += fastest(i);
  return sum;
}

std::vector<double> Repeats::all() const {
  std::vector<double> v;
  for (const auto& t : times_) v.insert(v.end(), t.begin(), t.end());
  return v;
}

std::string Repeats::spread() const {
  std::vector<double> ratios;
  std::size_t min_repeats = SIZE_MAX;
  for (std::size_t i = 0; i < times_.size(); ++i) {
    const double f = fastest(i);
    min_repeats = std::min(min_repeats, times_[i].size());
    for (const double t : times_[i]) {
      if (f > 0.0) ratios.push_back(t / f);
    }
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%zu runs x >=%zu repeats; repeat/fastest q1 %.3f q2 %.3f "
                "q3 %.3f",
                times_.size(), min_repeats == SIZE_MAX ? 0 : min_repeats,
                percentile(ratios, 25), percentile(ratios, 50),
                percentile(ratios, 75));
  return buf;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double tail_percentile(std::size_t n) {
  if (n == 0) return 50.0;
  const double p = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
  return std::max(50.0, std::floor(p));
}

// --------------------------------------------------------------- digests

namespace {

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte((v >> (8 * i)) & 0xffu);
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::uint64_t digest_run(const sccpipe::RunResult& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.walkthrough.to_ns()));
  d.add(static_cast<std::uint64_t>(r.frame_done_ms.size()));
  for (const double ms : r.frame_done_ms) d.add(ms);
  d.add(r.events_dispatched);
  d.add(r.chip_energy_joules);
  d.add(r.host_busy_sec);
  d.add(r.fabric.mesh_total_bytes);
  d.add(r.fabric.mesh_max_link_bytes);
  for (const double b : r.fabric.mc_bulk_bytes) d.add(b);
  for (const std::uint64_t p : r.fabric.mc_latency_streams_peak) d.add(p);

  const sccpipe::FaultReport& f = r.fault;
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(f.failed),
        static_cast<std::uint64_t>(f.frames_completed), f.rcce_drops,
        f.rcce_delays, f.host_drops, f.host_delays, f.rcce_corrupts,
        f.host_corrupts, f.rcce_retransmissions, f.host_retransmissions,
        f.rcce_transfers_failed, f.fingerprint}) {
    d.add(v);
  }
  const sccpipe::RecoveryReport& rc = r.recovery;
  for (const int v : {rc.failures_detected, rc.failures_recovered,
                      rc.frames_replayed, rc.frames_lost, rc.spares_used,
                      rc.pipelines_lost}) {
    d.add(static_cast<std::uint64_t>(v));
  }
  d.add(rc.heartbeats_sent);
  d.add(rc.checkpoint_writes);
  d.add(rc.checkpoint_replays);
  d.add(rc.max_detection_latency_ms);
  d.add(r.transport.csv());
  const sccpipe::GrayReport& g = r.gray;
  for (const int v : {g.flags_raised, g.dvfs_boosts, g.migrations,
                      g.rebalances, g.escalations, g.frames_drained}) {
    d.add(static_cast<std::uint64_t>(v));
  }
  d.add(static_cast<std::uint64_t>(g.actions.size()));
  d.add(g.frames_offered);
  d.add(g.frames_delivered);
  d.add(g.frames_shed);
  for (const sccpipe::Image& img : r.frames) {
    d.add(static_cast<std::uint64_t>(
        sccpipe::crc32(img.data(), img.byte_size())));
  }
  return d.value();
}

std::string check_invariants(const sccpipe::RunResult& r, int frames) {
  std::ostringstream err;
  if (r.fault.failed) {
    err << "run failed: " << r.fault.failure;
    return err.str();
  }
  for (std::size_t i = 1; i < r.frame_done_ms.size(); ++i) {
    if (r.frame_done_ms[i] < r.frame_done_ms[i - 1]) {
      err << "frame_done_ms not monotone at frame " << i;
      return err.str();
    }
  }
  const auto delivered = static_cast<std::uint64_t>(r.frame_done_ms.size());
  std::uint64_t shed = static_cast<std::uint64_t>(r.recovery.frames_lost);
  const sccpipe::TransportReport& t = r.transport;
  if (t.enabled) {
    if (t.frames_offered !=
        t.frames_admitted + t.shed_admission + t.shed_breaker) {
      return "transport ledger: offered != admitted + shed at admission";
    }
    if (t.frames_admitted !=
        t.frames_delivered + t.shed_deadline + t.shed_transport) {
      return "transport ledger: admitted != delivered + shed in flight";
    }
    if (t.frames_delivered != delivered) {
      return "transport ledger: delivered != frames shown";
    }
    shed += t.shed_admission + t.shed_breaker + t.shed_deadline +
            t.shed_transport;
  }
  const sccpipe::GrayReport& g = r.gray;
  if (g.enabled) {
    if (g.frames_offered != g.frames_delivered + g.frames_shed) {
      return "gray ledger: offered != delivered + shed";
    }
    if (g.frames_delivered != delivered) {
      return "gray ledger: delivered != frames shown";
    }
  }
  if (delivered + shed != static_cast<std::uint64_t>(frames)) {
    err << "frames: " << delivered << " delivered + " << shed
        << " shed != " << frames << " offered";
    return err.str();
  }
  return {};
}

// ---------------------------------------------------------- result record

void Report::fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(why);
  std::fprintf(stderr, "[sccbench] FAILED: %s\n", why.c_str());
}

bool Report::check(bool ok, const std::string& what) {
  attempt();
  if (!ok) fail(what);
  return ok;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics_.push_back(Metric{name, value, unit, note});
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Options::size_tag() const {
  if (!reduced) return "full";
  return "f" + std::to_string(frames) + "s" + std::to_string(image_side);
}

DigestBook::DigestBook(const Options& opt, const std::string& workload)
    : workload_(workload), size_(opt.size_tag()) {
  if (opt.seed != kDefaultSeed) return;
  std::ifstream in(opt.golden_file);
  std::string w, size, run, digest;
  while (in >> w >> size >> run >> digest) {
    if (w != workload_ || size != size_) continue;
    std::uint64_t v = std::stoull(digest, nullptr, 16);
    if (run == opt.tamper) v ^= 1;  // self-test: the check must be able to fail
    golden_.emplace_back(run, v);
  }
}

std::string DigestBook::check(const std::string& run, std::uint64_t digest) {
  for (const auto& [name, first] : seen_) {
    if (name == run) {
      if (first == digest) return {};
      return run + ": repeat digest " + hex(digest) + " != first " + hex(first);
    }
  }
  seen_.emplace_back(run, digest);
  if (golden_.empty()) return {};  // no golden for this seed or size
  for (const auto& [name, want] : golden_) {
    if (name == run) {
      if (want == digest) return {};
      return run + ": digest " + hex(digest) + " != golden " + hex(want);
    }
  }
  return run + ": no golden digest stored";
}

bool DigestBook::save(const std::string& path) const {
  std::ofstream out(path, std::ios::app);
  for (const auto& [name, digest] : seen_) {
    out << workload_ << ' ' << size_ << ' ' << name << ' ' << hex(digest)
        << '\n';
  }
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  // getrusage's ru_maxrss survives execve, so it would report the
  // launcher's peak when that was larger; VmHWM belongs to this image.
  std::ifstream status("/proc/self/status");
  std::string key;
  double kib = 0.0;
  while (status >> key) {
    if (key == "VmHWM:" && status >> kib) return kib / 1024.0;
    status.ignore(1 << 12, '\n');
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace sccbench
