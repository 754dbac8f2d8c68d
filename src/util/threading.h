// Small threading utilities shared by the cluster harness, tests and benches.

#ifndef SRC_UTIL_THREADING_H_
#define SRC_UTIL_THREADING_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tango {

// Names the calling thread for /proc/<pid>/task/<tid>/comm, debuggers and
// profilers (15-char limit on Linux; silently truncated).  Every long-lived
// background thread in the codebase names itself so a thread listing of a
// wedged process reads as a component inventory.
void SetCurrentThreadName(const char* name);

// True on a thread that must never block: an EventLoop thread, which serves
// the RPC methods a service declared non-blocking.  Code that would have to
// wait there (an fsync, a contended group write, a nested RPC) returns
// StatusCode::kWouldBlock without side effects instead, and the transport
// reruns the request on a thread that may block.
bool MustNotBlock();
void SetMustNotBlock(bool must_not_block);

// One-shot event: threads block in WaitForNotification() until Notify().
class Notification {
 public:
  void Notify() {
    // Broadcast under the lock: a waiter may destroy this object the moment
    // it observes notified_, which must not race the broadcast itself.
    std::lock_guard<std::mutex> lock(mu_);
    notified_ = true;
    cv_.notify_all();
  }

  bool HasBeenNotified() const {
    std::lock_guard<std::mutex> lock(mu_);
    return notified_;
  }

  void WaitForNotification() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return notified_; });
  }

  template <typename Rep, typename Period>
  bool WaitForNotificationWithTimeout(
      std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return notified_; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool notified_ = false;
};

// Reusable barrier for starting N workers simultaneously.
class StartBarrier {
 public:
  explicit StartBarrier(int parties) : remaining_(parties) {}

  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--remaining_ == 0) {
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int remaining_;
};

// A fixed-size worker-pool executor, the concurrency substrate shared by the
// log client's vectored chain reads, the runtime's parallel playback engine,
// and (eventually) the event-driven transport.  Tasks are independent: a
// submitted task must never block on another *queued* task, or the pool can
// stall — ordering between tasks belongs to a scheduler layered on top (see
// src/runtime/playback.h).  The destructor drains the queue (every submitted
// task runs) before joining the workers.
class Executor {
 public:
  explicit Executor(int num_threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  void Submit(std::function<void()> task);
  int size() const { return static_cast<int>(threads_.size()); }

  // Process-wide pool shared by all log clients; sized to the machine.
  static Executor& Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// Runs blocking callables under a deadline without wedging the caller: the
// callable executes on a cached helper thread while the caller waits up to
// `deadline_us` for it to finish.  On timeout the caller unblocks immediately
// and the helper keeps running the (possibly wedged) callable in the
// background, re-parking into the idle cache once it completes.  Steady state
// is one condvar handoff per Run; threads are spawned only on first use or
// when a timeout has stranded every cached helper.
//
// Because a timed-out callable is still executing, it must own everything it
// touches (capture by value / shared_ptr) — never by reference to the
// caller's stack.  The destructor blocks until every outstanding callable
// (including timed-out strays) has finished, so objects owned by the
// DeadlineRunner's owner stay valid for stragglers.
class DeadlineRunner {
 public:
  DeadlineRunner();
  ~DeadlineRunner();

  DeadlineRunner(const DeadlineRunner&) = delete;
  DeadlineRunner& operator=(const DeadlineRunner&) = delete;

  // Returns true if `fn` completed within the deadline, false if it is still
  // running when the deadline expires (it continues in the background).
  // deadline_us == 0 runs `fn` inline with no deadline.
  bool Run(std::function<void()> fn, uint64_t deadline_us);

  // Helper threads currently alive (idle + busy).  Test/introspection hook.
  int thread_count() const;

 private:
  struct TaskState;
  struct Worker;

  void WorkerLoop(std::shared_ptr<Worker> worker);

  mutable std::mutex mu_;
  bool stopping_ = false;
  std::vector<std::shared_ptr<Worker>> idle_;
  std::vector<std::shared_ptr<Worker>> all_;
};

// Tracks completion of tasks fanned out to an executor: Launch() submits the
// task and Wait() blocks until every launched task has finished.  The group
// must outlive its tasks — the destructor waits for stragglers.
class TaskGroup {
 public:
  explicit TaskGroup(Executor* executor) : executor_(executor) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Launch(std::function<void()> fn);
  void Wait();

 private:
  Executor* executor_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t outstanding_ = 0;
};

// Runs `fn(0..n-1)` and returns when all n legs complete.  It submits n-1
// pool tasks; each leg is claimed exactly once, in index order, by whichever
// thread reaches it first.  The caller claims and runs legs until none is
// left unclaimed, then waits only for legs a worker has already started —
// never for a queued task, so a slow wake-up (or a busy pool) costs nothing
// on the caller's path.  A pool task that finds every leg claimed returns
// without touching `fn`.  Safe to call from many threads at once — tasks
// from concurrent callers interleave on the shared workers.
void ParallelDispatch(Executor& pool, size_t n,
                      const std::function<void(size_t)>& fn);

// Runs `fn(worker_index)` on `n` threads and joins them all.
void RunParallel(int n, const std::function<void(int)>& fn);

// Runs `fn(worker_index, stop_flag)` on `n` threads for `duration`, then sets
// the stop flag and joins.  Used by the open-loop bench drivers.
void RunParallelFor(int n, std::chrono::milliseconds duration,
                    const std::function<void(int, std::atomic<bool>*)>& fn);

// Monotonic clock helpers.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t NowMicros() { return NowNanos() / 1000; }

}  // namespace tango

#endif  // SRC_UTIL_THREADING_H_
