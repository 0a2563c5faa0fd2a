// Persistent worker pool for the parallel loop execution runtime.
//
// One pool serves every parallel dispatch of an interpreter run: the
// threads are spawned on first use and kept between dispatches.  run()
// publishes a job by bumping an atomic generation counter.  An idle
// worker spins on that counter for a bounded time (kSpin, tens of µs),
// so back-to-back dispatches cost a cache-line hand-off rather than a
// futex wake, and only then parks on a condition variable.  The spin
// yields the core every few µs and is bounded: with more lanes than
// cores an unyielding spin would starve the very lanes it waits for.
// The join in run() waits the same way.  The calling thread participates
// as worker 0, so a pool configured for W workers spawns only W-1
// threads.
//
// run() is a barrier: it returns after every worker finished the job.
// A job exception is captured (first one wins) and rethrown on the
// calling thread after the join, so interpreter faults inside a chunk
// (memory range, division by zero) surface with the serial message.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace hli::backend::parexec {

class WorkerPool {
 public:
  /// `workers` >= 1 total lanes (including the caller); spawns workers-1
  /// threads lazily on the first run().
  explicit WorkerPool(unsigned workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] unsigned workers() const { return workers_; }

  /// Executes job(w) for every lane w in [0, workers); the caller runs
  /// lane 0.  Rethrows the first job exception after all lanes finish.
  void run(const std::function<void(unsigned)>& job);

  /// How long a waiter spins before it parks.
  static constexpr std::chrono::microseconds kSpin{50};

 private:
  void worker_main(unsigned lane);
  void capture(const std::exception& e);
  /// Spins on `ready` for up to kSpin, then parks on `cv` until it holds.
  template <typename Ready>
  void await(std::condition_variable& cv, const Ready& ready);

  const unsigned workers_;
  /// Guards every change to what a parked waiter's predicate reads, and
  /// error_.  The spinning side reads the atomics without it.
  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< Parked workers wait for a generation.
  std::condition_variable done_cv_;   ///< A parked run() waits for the join.
  const std::function<void(unsigned)>* job_ = nullptr;
  std::atomic<std::uint64_t> generation_{0};  ///< Release-publishes job_.
  std::atomic<unsigned> remaining_{0};  ///< Spawned lanes still in this job.
  std::atomic<bool> shutdown_{false};
  bool error_set_ = false;
  std::string error_;                 ///< First captured job exception.
  std::vector<std::thread> threads_;  ///< Last: they use every member above.
};

}  // namespace hli::backend::parexec
