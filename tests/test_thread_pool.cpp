// util::ThreadPool — the batch-barrier substrate under the check scheduler.
// The contract the scheduler depends on: run_all returns only after every
// task ran (happens-before for result merging), batches can be issued
// back-to-back, task exceptions surface after the batch completed instead
// of abandoning it, and the caller's own work (`on_caller`) overlaps the
// batch under the same barrier.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace upec::util {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> runs(64);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    tasks.push_back([&runs, i] { runs[i].fetch_add(1); });
  }
  pool.run_all(std::move(tasks));
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPool, BarrierMakesWorkerWritesVisible) {
  ThreadPool pool(3);
  // Plain (non-atomic) per-task slots: legal because each slot is written by
  // exactly one task and read only after the run_all barrier.
  std::vector<int> out(100, 0);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < out.size(); ++i) {
    tasks.push_back([&out, i] { out[i] = static_cast<int>(i) + 1; });
  }
  pool.run_all(std::move(tasks));
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 100 * 101 / 2);
}

TEST(ThreadPool, BackToBackBatchesReuseWorkers) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 50; ++batch) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 5; ++i) tasks.push_back([&total] { total.fetch_add(1); });
    pool.run_all(std::move(tasks));
  }
  EXPECT_EQ(total.load(), 250);
}

TEST(ThreadPool, ExceptionSurfacesAfterBatchCompletes) {
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] { throw std::runtime_error("task 0 failed"); });
  for (int i = 0; i < 8; ++i) tasks.push_back([&finished] { finished.fetch_add(1); });
  EXPECT_THROW(pool.run_all(std::move(tasks)), std::runtime_error);
  // The batch is never abandoned half-finished.
  EXPECT_EQ(finished.load(), 8);
}

TEST(ThreadPool, FirstExceptionInTaskOrderWinsAcrossMultipleThrowers) {
  // Several tasks throw; the contract is "first exception in *task order*"
  // regardless of which worker finishes first, so the caller sees a
  // deterministic error. Task 2 throws logic_error, task 5 runtime_error:
  // logic_error must surface.
  ThreadPool pool(3);
  std::atomic<int> finished{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    if (i == 2) {
      tasks.push_back([] { throw std::logic_error("task 2"); });
    } else if (i == 5) {
      tasks.push_back([] { throw std::runtime_error("task 5"); });
    } else {
      tasks.push_back([&finished] { finished.fetch_add(1); });
    }
  }
  EXPECT_THROW(pool.run_all(std::move(tasks)), std::logic_error);
  EXPECT_EQ(finished.load(), 6);
}

TEST(ThreadPool, NonStdExceptionPayloadIsCapturedNotTerminate) {
  // Solver backends throw sat::SolverInterrupted, which is NOT derived from
  // std::exception. If the worker's catch were `catch (const std::exception&)`
  // this would escape the thread body and std::terminate the process.
  struct Interrupted {
    int code;
  };
  ThreadPool pool(2);
  bool caught = false;
  try {
    pool.run_all({[] { throw Interrupted{42}; }});
  } catch (const Interrupted& e) {
    caught = true;
    EXPECT_EQ(e.code, 42);
  }
  EXPECT_TRUE(caught);
}

TEST(ThreadPool, PoolStaysUsableAfterThrowingBatch) {
  // A throwing batch must not poison the pool: subsequent batches run
  // normally and deliver their own results (the scheduler reuses one pool
  // across every sweep of a verification run).
  ThreadPool pool(2);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.run_all({[] { throw std::runtime_error("boom"); }}), std::runtime_error);
    std::atomic<int> ok{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 6; ++i) tasks.push_back([&ok] { ok.fetch_add(1); });
    pool.run_all(std::move(tasks));
    EXPECT_EQ(ok.load(), 6);
  }
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  int ran = 0;
  pool.run_all({[&ran] { ++ran; }, [&ran] { ++ran; }});
  EXPECT_EQ(ran, 2);
  EXPECT_THROW(pool.run_all({[] { throw std::logic_error("inline"); }}), std::logic_error);
}

TEST(ThreadPool, EmptyBatchIsANoOp) {
  ThreadPool pool(2);
  pool.run_all({});
}

// Spins until `flag` is set or a generous timeout passes; returns the flag.
bool await(const std::atomic<bool>& flag) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!flag.load() && std::chrono::steady_clock::now() < until) std::this_thread::yield();
  return flag.load();
}

TEST(ThreadPool, OnCallerRunsOnCallingThreadWhileTasksRun) {
  // The task holds the batch open until on_caller releases it, so on_caller
  // can only see it running (and release it) if it overlaps the batch.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> started{false}, released{false}, finished{false};
  bool task_saw_release = false;
  bool caller_saw_task_running = false;
  std::thread::id on_caller_thread;
  pool.run_all(
      {[&] {
        started = true;
        task_saw_release = await(released);
        finished = true;
      }},
      [&] {
        on_caller_thread = std::this_thread::get_id();
        caller_saw_task_running = await(started) && !finished.load();
        released = true;
      });
  EXPECT_EQ(on_caller_thread, caller);
  EXPECT_TRUE(caller_saw_task_running);
  EXPECT_TRUE(task_saw_release);
  EXPECT_TRUE(finished.load());  // the barrier still covers the tasks
}

TEST(ThreadPool, ZeroWorkersRunTasksInlineBeforeOnCaller) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  std::vector<std::thread::id> threads;
  auto step = [&](int i) {
    order.push_back(i);
    threads.push_back(std::this_thread::get_id());
  };
  pool.run_all({[&] { step(1); }, [&] { step(2); }}, [&] { step(3); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  for (const std::thread::id& t : threads) EXPECT_EQ(t, caller);
  // No tasks at all: on_caller still runs.
  pool.run_all({}, [&] { step(4); });
  EXPECT_EQ(order.back(), 4);
}

TEST(ThreadPool, OnCallerExceptionSurfacesAfterBarrier) {
  for (unsigned threads : {0u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    std::atomic<int> finished{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 6; ++i) {
      tasks.push_back([&finished] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        finished.fetch_add(1);
      });
    }
    EXPECT_THROW(pool.run_all(std::move(tasks), [] { throw std::runtime_error("caller"); }),
                 std::runtime_error);
    EXPECT_EQ(finished.load(), 6);  // thrown only after every task finished

    // The pool stays usable for the next batch.
    std::atomic<int> ok{0};
    pool.run_all({[&ok] { ok.fetch_add(1); }, [&ok] { ok.fetch_add(1); }},
                 [&ok] { ok.fetch_add(10); });
    EXPECT_EQ(ok.load(), 12);
  }
}

TEST(ThreadPool, TaskExceptionStillSurfacesWithOnCaller) {
  // A task's exception wins over on_caller's and surfaces after the barrier;
  // on_caller still ran to completion.
  for (unsigned threads : {0u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    std::atomic<bool> caller_ran{false};
    EXPECT_THROW(pool.run_all({[] { throw std::logic_error("task"); }},
                              [&caller_ran] {
                                caller_ran = true;
                                throw std::runtime_error("caller");
                              }),
                 std::logic_error);
    EXPECT_TRUE(caller_ran.load());
    std::atomic<int> ok{0};
    pool.run_all({[&ok] { ok.fetch_add(1); }});
    EXPECT_EQ(ok.load(), 1);
  }
}

} // namespace
} // namespace upec::util
