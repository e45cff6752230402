// A fixed-size thread pool for function-granular parallelism in the
// recompilation pipeline (lifting and per-function optimization).
//
// Work distribution is self-scheduling: ParallelFor publishes an index range
// and every worker (plus the calling thread) claims indices through a shared
// atomic cursor, so uneven per-function costs balance automatically without
// explicit stealing. Determinism is the caller's contract — items must not
// depend on each other or on claim order; the pool guarantees only that every
// index runs exactly once and that the *reported* error is the one a serial
// run would have returned first (lowest index), regardless of scheduling.
//
// With jobs == 1 no threads are created and ParallelFor degenerates to a
// plain loop on the calling thread.
#ifndef POLYNIMA_SUPPORT_THREAD_POOL_H_
#define POLYNIMA_SUPPORT_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/support/status.h"

namespace polynima {

class ThreadPool {
 public:
  // jobs <= 0 selects one worker per hardware thread.
  explicit ThreadPool(int jobs);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int jobs() const { return jobs_; }

  // Runs fn(i) for every i in [0, n), distributing items across the pool and
  // the calling thread. Blocks until all items finish. Every item runs even
  // if some fail; the returned Status is Ok iff all items succeeded, and
  // otherwise the error of the lowest failing index (what a serial loop
  // returns when earlier items succeed). Exceptions thrown by items are
  // captured and rethrown on the calling thread, lowest index first.
  // Not reentrant: one ParallelFor at a time per pool.
  Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn);

  // Resolves a jobs knob: value itself if > 0, else hardware concurrency.
  static int ResolveJobs(int jobs);

 private:
  void WorkerLoop();
  // Claims indices from the current batch until exhausted.
  void Drain();

  int jobs_;
  std::vector<std::thread> workers_;  // jobs_ - 1 threads; caller is the last

  std::mutex mu_;
  std::condition_variable work_cv_;   // signals a new batch (or shutdown)
  std::condition_variable done_cv_;   // signals all workers left the batch
  uint64_t generation_ = 0;           // bumped per batch
  int active_ = 0;                    // workers still inside the batch
  bool shutdown_ = false;

  // Current batch (valid while active_ > 0 or the caller drains).
  const std::function<Status(size_t)>* fn_ = nullptr;
  size_t n_ = 0;
  std::atomic<size_t> next_{0};
  std::vector<std::pair<size_t, Status>> errors_;
  std::vector<std::pair<size_t, std::exception_ptr>> exceptions_;
};

}  // namespace polynima

#endif  // POLYNIMA_SUPPORT_THREAD_POOL_H_
