#include "backend/parexec/pool.hpp"

#include <exception>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hli::backend::parexec {

namespace {

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

}  // namespace

WorkerPool::WorkerPool(unsigned workers) : workers_(workers == 0 ? 1 : workers) {}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

template <typename Ready>
void WorkerPool::await(std::condition_variable& cv, const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (unsigned spins = 1; !ready(); ++spins) {
    cpu_relax();
    if (spins % 64 != 0) continue;
    // Every 64 rounds, let a lane that shares this core make progress.
    std::this_thread::yield();
    if (std::chrono::steady_clock::now() >= deadline) {
      // Park.  `ready` is re-checked under the mutex, and every notifier
      // makes it true under the mutex, so no wake-up is lost.
      std::unique_lock<std::mutex> lock(mutex_);
      cv.wait(lock, ready);
      return;
    }
  }
}

void WorkerPool::capture(const std::exception& e) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!error_set_) {
    error_set_ = true;
    error_ = e.what();
  }
}

void WorkerPool::run(const std::function<void(unsigned)>& job) {
  if (workers_ <= 1) {
    job(0);
    return;
  }
  if (threads_.empty()) {
    threads_.reserve(workers_ - 1);
    for (unsigned lane = 1; lane < workers_; ++lane) {
      threads_.emplace_back([this, lane] { worker_main(lane); });
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    error_set_ = false;
    error_.clear();
    remaining_.store(workers_ - 1, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.notify_all();

  // The caller is lane 0: it does a full share of the work instead of
  // blocking, so a "4-thread" run really uses 4 execution lanes.
  try {
    job(0);
  } catch (const std::exception& e) {
    capture(e);
  }

  await(done_cv_, [this] {
    return remaining_.load(std::memory_order_acquire) == 0;
  });
  job_ = nullptr;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (error_set_) throw std::runtime_error(error_);
}

void WorkerPool::worker_main(unsigned lane) {
  std::uint64_t seen = 0;
  for (;;) {
    await(work_cv_, [this, seen] {
      return shutdown_.load(std::memory_order_acquire) ||
             generation_.load(std::memory_order_acquire) != seen;
    });
    if (shutdown_.load(std::memory_order_acquire)) return;
    seen = generation_.load(std::memory_order_acquire);
    try {
      (*job_)(lane);
    } catch (const std::exception& e) {
      capture(e);
    }
    bool last = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      last = remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1;
    }
    if (last) done_cv_.notify_one();
  }
}

}  // namespace hli::backend::parexec
