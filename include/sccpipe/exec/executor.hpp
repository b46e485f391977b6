#pragma once

/// \file executor.hpp
/// Parallel experiment execution. Every sccpipe run is an independent,
/// deterministic, single-threaded simulation over immutable inputs
/// (SceneBundle / WorkloadTrace are built once and never mutated), so a
/// sweep of N configurations parallelises embarrassingly: one Simulator
/// per task, no shared mutable state, results keyed by configuration
/// index.
///
/// Determinism guarantee: run_grid()/parallel_map() return results in
/// input order regardless of the job count or completion order, and each
/// task's computation is bit-identical to a serial run — so any consumer
/// that formats results in index order (the sweep CSV, the bench tables)
/// produces byte-identical output at --jobs 1 and --jobs N.
///
/// jobs semantics everywhere in this header: 0 = default_jobs();
/// 1 = run inline on the calling thread (no pool, no thread creation);
/// N > 1 = fixed pool of N worker threads.

#include <cstddef>
#include <functional>
#include <vector>

#include "sccpipe/core/walkthrough.hpp"

namespace sccpipe::exec {

/// Worker count used when a caller passes jobs = 0: the SCCPIPE_JOBS
/// environment variable if set to a positive integer, otherwise
/// std::thread::hardware_concurrency() (at least 1).
int default_jobs();

/// Fixed-size thread pool. Threads start in the constructor and join in
/// the destructor; submit() never blocks (unbounded queue).
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const;

  /// Enqueue one task. Tasks must not throw (wrap user work that can).
  void submit(std::function<void()> fn);

 private:
  struct Impl;
  Impl* impl_;
};

/// Run fn(0..n-1), spreading indices across \p jobs workers. Blocks until
/// every index has run. If any invocation throws, the exception from the
/// lowest index is rethrown after all tasks finish (deterministic error
/// reporting); later indices still run.
void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Map fn over [0, n) into a vector ordered by index.
template <typename T>
std::vector<T> parallel_map(int jobs, std::size_t n,
                            const std::function<T(std::size_t)>& fn) {
  std::vector<T> out(n);
  parallel_for(jobs, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Batch experiment executor: run every configuration against one shared
/// scene/trace and return results in configuration order. The scene and
/// trace must outlive the call and are shared read-only across workers;
/// each RunConfig must carry its own timeline recorder (or none) — a
/// recorder shared between configs would race.
std::vector<RunResult> run_grid(const SceneBundle& scene,
                                const WorkloadTrace& trace,
                                const std::vector<RunConfig>& configs,
                                int jobs = 0);

/// Adapter for WorkloadTrace::build's parallelism hook: runs the per-frame
/// estimation pass across \p jobs workers (0 = default_jobs()).
WorkloadTrace::ForEachFrame trace_runner(int jobs = 0);

}  // namespace sccpipe::exec
