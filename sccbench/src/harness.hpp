#pragma once

/// \file harness.hpp
/// Plumbing shared by the three benchmark workloads: the wall clock, span
/// recording, the fastest-repeat timing rule, run digests and the result
/// record. Everything here sits outside the library: the benchmark only
/// times calls into public sccpipe functions and never reaches inside.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sccpipe/core/walkthrough.hpp"

namespace sccbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);

/// The paper's canonical city; the only seed with stored golden digests.
constexpr std::uint64_t kDefaultSeed = 0x5cc91234;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// The workload's own frame count unless --frames or --size ask for
  /// the reduced size the self-test runs. Golden digests are keyed by
  /// size_tag().
  int frames = 0;
  int image_side = 400;
  bool reduced = false;
  std::string golden_file;
  std::string write_golden;  ///< record this run's digests here
  std::string tamper;        ///< run name whose golden digest is perturbed
  std::string out_dir = ".bench_out";
  std::string git_describe = "unknown";
  std::string source_digest = "unknown";

  std::string size_tag() const;
};

// ------------------------------------------------------------------ spans

/// One span around a call into a library layer. Times are seconds since
/// the tracer's origin; `parent` indexes spans(), -1 for a top-level span.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int run = -1;  ///< distinct-run id, -1 outside the timed rotation
};

/// Spans stay in memory while the benchmark runs and are written once at
/// exit. A disabled tracer records nothing, so untraced passes pay only
/// for the clock reads the timing rule needs anyway.
class Tracer {
 public:
  Tracer();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  double now() const;

  int open(const char* name, int run);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Sum of top-level span durations that start inside [from, to).
  double top_level_seconds(double from, double to) const;
  /// Span duration minus the part covered by its direct children.
  std::vector<double> self_seconds() const;
  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call, and records it as a span when tracing is on.
class Timed {
 public:
  Timed(Tracer& tracer, const char* name, int run = -1);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Seconds since construction; closes the span on first call.
  double stop();

 private:
  Tracer& tracer_;
  int id_;
  Clock::time_point t0_;
  double elapsed_ = -1.0;
};

// ------------------------------------------------------ fastest-repeat rule

/// Repeat times per distinct run. Host time on a shared guest swings 2x in
/// slow phases lasting seconds, so a host-time figure is the sum over the
/// distinct runs of each run's fastest repeat; callers interleave the
/// repeats round-robin so one slow phase cannot hit every repeat of a run.
class Repeats {
 public:
  explicit Repeats(std::size_t distinct = 0) : times_(distinct) {}

  void add(std::size_t run, double seconds);
  std::size_t distinct() const { return times_.size(); }
  double fastest(std::size_t run) const;
  double sum_of_fastest() const;
  /// Every sample in one list (for run-latency percentiles).
  std::vector<double> all() const;
  /// "n=.. repeat/fastest q1/q2/q3": each repeat as a multiple of its own
  /// run's fastest time, so steadiness reads the same for any run length.
  std::string spread() const;

 private:
  std::vector<std::vector<double>> times_;
};

double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
/// The highest percentile with at least ten samples beyond it (never below
/// the median): the tail figure that the sample count can support.
double tail_percentile(std::size_t n);

// --------------------------------------------------------------- digests

/// FNV-1a digest of everything a run simulates: walkthrough time,
/// frame_done_ms, events, energy, fabric bytes and the fault, recovery,
/// transport and gray counters, doubles by exact bit pattern; functional
/// runs add one CRC-32 per assembled frame. The checkpoint report is left
/// out, so a resumed run digests like the uninterrupted one.
std::uint64_t digest_run(const sccpipe::RunResult& r);

/// Ledger and ordering invariants of one completed run; returns the first
/// violation, or an empty string.
std::string check_invariants(const sccpipe::RunResult& r, int frames);

// ---------------------------------------------------------- result record

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count and repeat quartiles, for the log
};

/// Attempts, failures and metrics of one benchmark process.
class Report {
 public:
  void attempt() { ++attempted_; }
  /// Counts one failed operation (its attempt must already be counted).
  void fail(const std::string& why);
  /// attempt() plus fail() when \p ok is false.
  bool check(bool ok, const std::string& what);

  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  const Metric* find(const std::string& name) const;

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
};

/// Checks each run's digest against its own first repeat and, at the
/// default seed, against the golden digest stored for the run's size.
class DigestBook {
 public:
  DigestBook(const Options& opt, const std::string& workload);

  /// Returns an empty string or the mismatch.
  std::string check(const std::string& run, std::uint64_t digest);
  /// Appends "<workload> <size> <run> <digest>" lines (--write-golden).
  bool save(const std::string& path) const;

 private:
  std::string workload_;
  std::string size_;
  std::vector<std::pair<std::string, std::uint64_t>> golden_;
  std::vector<std::pair<std::string, std::uint64_t>> seen_;
};

/// Peak resident set of this process image, in MB.
double peak_rss_mb();

}  // namespace sccbench
