// A small fixed thread pool with fork-join dispatch, sized once at construction.
//
// This is the execution substrate for the batch engine (batch_engine.h): a batch is
// split into one job per contiguous range, Run() hands the jobs to the pool, and the
// calling thread works alongside the workers instead of blocking — with W workers the
// pool runs W+1 jobs at once and a width-1 pool is simply the caller, serial.  Workers
// are started once and parked on a condition variable between batches, so steady-state
// dispatch costs two lock handoffs per batch, not a thread spawn per range.
//
// Concurrency contract: Run() may not be called concurrently with itself (the engine
// serializes batches; one engine per serving thread).  Jobs must not call Run() on
// their own pool.  Job indices are claimed from an atomic counter, so callers may
// submit more jobs than the pool has lanes — the surplus queues naturally.

#ifndef SRC_EXEC_THREAD_POOL_H_
#define SRC_EXEC_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/support/annotated_mutex.h"
#include "src/support/thread_annotations.h"

namespace pathalias {
namespace exec {

class ThreadPool {
 public:
  // `width` is total parallelism including the caller: width-1 workers are spawned.
  // width < 1 is clamped to 1 (no workers; Run degenerates to a serial loop).
  explicit ThreadPool(int width);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int width() const { return width_; }

  // Runs job(0) … job(jobs-1) across the pool and returns when all have finished.
  // The caller participates, so the pool is never idle while the caller spins.
  void Run(int jobs, const std::function<void(int)>& job) EXCLUDES(mu_);

  // The width to use when the caller asked for "all cores".
  static int HardwareWidth();

 private:
  void WorkerLoop() EXCLUDES(mu_);
  // Claims and runs jobs until the current batch's indices are exhausted; returns the
  // number of jobs this thread completed.  Runs unlocked: `job` and `jobs` are the
  // caller's local copies of the batch, never the guarded members.
  int Drain(const std::function<void(int)>& job, int jobs) EXCLUDES(mu_);

  const int width_;
  support::Mutex mu_;
  support::CondVar work_cv_;  // batch posted (generation_ advanced) or stop
  support::CondVar done_cv_;  // all jobs of the current batch completed
  // Valid while a batch is in flight; workers copy it out under mu_ and call
  // through the copy unlocked (Run's rendezvous keeps the pointee alive).
  const std::function<void(int)>* job_ GUARDED_BY(mu_) = nullptr;
  int job_count_ GUARDED_BY(mu_) = 0;
  std::atomic<int> next_index_{0};  // job-index ticket counter, claimed unlocked
  int completed_ GUARDED_BY(mu_) = 0;  // jobs finished this batch
  int drained_ GUARDED_BY(mu_) = 0;    // workers that left Drain this batch
  uint64_t generation_ GUARDED_BY(mu_) = 0;  // advanced once per Run()
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // written by the constructor only
};

}  // namespace exec
}  // namespace pathalias

#endif  // SRC_EXEC_THREAD_POOL_H_
