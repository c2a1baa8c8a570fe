// Fixed-size thread pool with a batch-barrier API.
//
// The check scheduler's unit of work is a *batch*: one task per active worker
// solver, dispatched together and joined before the (single-threaded) encoder
// is allowed to touch the shared clause store again. run_all() is exactly
// that barrier — it returns only after every task of the batch finished, and
// its return edge establishes a happens-before between the workers' writes
// (solver models, statistics) and the caller's subsequent reads, so result
// merging needs no further synchronization. The caller can hand run_all its
// own piece of work to do while it would otherwise wait at the barrier.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace upec::util {

class ThreadPool {
public:
  // Spawns `threads` workers. 0 is allowed and means "no worker threads";
  // run_all() then executes tasks inline on the caller.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Runs all tasks and blocks until every one finished. Tasks may run on any
  // worker thread in any order. `on_caller` (optional) runs on the calling
  // thread while the batch is in flight — the caller would otherwise idle at
  // the barrier — and run_all returns only after both it and every task
  // finished. With no worker threads the tasks run inline first and
  // `on_caller` runs after them.
  //
  // Exception contract: a throwing task can never std::terminate the pool —
  // workers catch everything (including non-std::exception payloads), the
  // remaining tasks of the batch still run, and the first exception in task
  // order is rethrown here, on the caller's thread, after the batch
  // completed. An exception from `on_caller` is held the same way and
  // rethrown after the barrier if no task threw. The pool stays fully usable
  // for subsequent batches. Teardown is drain-first: the destructor lets an
  // in-flight batch finish rather than stranding a caller blocked on the
  // barrier.
  void run_all(std::vector<std::function<void()>> tasks,
               const std::function<void()>& on_caller = {});

private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for tasks
  std::condition_variable done_cv_;  // run_all waits for the batch
  std::vector<std::function<void()>> tasks_;
  std::vector<std::exception_ptr> errors_;  // per task-index, set on throw
  std::size_t next_ = 0;                    // next unclaimed task index
  std::size_t pending_ = 0;                 // claimed-or-unclaimed tasks not yet finished
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

} // namespace upec::util
