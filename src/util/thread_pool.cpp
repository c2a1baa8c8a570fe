#include "util/thread_pool.h"

namespace upec::util {

ThreadPool::ThreadPool(unsigned threads) {
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    std::size_t index = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || next_ < tasks_.size(); });
      // Drain before honoring stop_: a batch in flight is always finished and
      // its exceptions delivered through run_all — teardown never strands a
      // caller blocked on done_cv_ with tasks nobody will claim.
      if (next_ >= tasks_.size()) {
        if (stop_) return;
        continue;
      }
      index = next_++;
      task = std::move(tasks_[index]);
    }
    // The task body is the only uncontrolled code on this thread. Catch
    // *everything* (including non-std::exception payloads like
    // sat::SolverInterrupted): an exception escaping a std::thread body is
    // std::terminate, which would take the whole verifier down with the
    // batch's results. The first error (in task order) is rethrown on the
    // caller's thread by run_all after the batch barrier.
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (error) errors_[index] = error;
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_all(std::vector<std::function<void()>> tasks,
                         const std::function<void()>& on_caller) {
  std::exception_ptr caller_error;
  auto run_on_caller = [&] {
    if (!on_caller) return;
    try {
      on_caller();
    } catch (...) {
      caller_error = std::current_exception();
    }
  };

  if (workers_.empty() || tasks.empty()) {
    // Degenerate pool (or nothing to dispatch): run the batch inline, then
    // the caller's own work, same all-or-nothing semantics.
    std::exception_ptr first;
    for (auto& task : tasks) {
      try {
        task();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    run_on_caller();
    if (!first) first = caller_error;
    if (first) std::rethrow_exception(first);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_ = std::move(tasks);
    errors_.assign(tasks_.size(), nullptr);
    next_ = 0;
    pending_ = tasks_.size();
  }
  work_cv_.notify_all();
  run_on_caller();

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  tasks_.clear();
  next_ = 0;
  for (const std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
  if (caller_error) std::rethrow_exception(caller_error);
}

} // namespace upec::util
