#include "src/util/threading.h"

#include <pthread.h>

#include <algorithm>

#include "src/obs/metrics.h"

namespace tango {

void SetCurrentThreadName(const char* name) {
#if defined(__linux__)
  pthread_setname_np(pthread_self(), name);
#else
  (void)name;
#endif
}

namespace {
thread_local bool t_must_not_block = false;
}  // namespace

bool MustNotBlock() { return t_must_not_block; }

void SetMustNotBlock(bool must_not_block) {
  t_must_not_block = must_not_block;
}

namespace {

// Aggregate occupancy gauges across every Executor in the process (the
// shared pool plus any private ones): tasks waiting in queues and tasks
// currently running.  A queue depth that stays above zero means the pools
// are saturated — overload is visible here before completion latency blows
// up.  Updated with +/- deltas so concurrent executors compose.
struct ExecutorGauges {
  obs::Gauge* queue_depth;
  obs::Gauge* active;
};

ExecutorGauges& TheExecutorGauges() {
  static ExecutorGauges g = [] {
    auto& reg = obs::MetricsRegistry::Default();
    return ExecutorGauges{reg.GetGauge("util.executor.queue_depth"),
                          reg.GetGauge("util.executor.active")};
  }();
  return g;
}

obs::Gauge* DeadlineStrayGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Default().GetGauge("util.deadline_runner.strays");
  return g;
}

}  // namespace

Executor::Executor(int num_threads) {
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void Executor::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  TheExecutorGauges().queue_depth->Add(1);
  cv_.notify_one();
}

void Executor::WorkerLoop() {
  SetCurrentThreadName("tgo-exec");
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ set and queue drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    ExecutorGauges& gauges = TheExecutorGauges();
    gauges.queue_depth->Add(-1);
    gauges.active->Add(1);
    task();
    gauges.active->Add(-1);
  }
}

Executor& Executor::Shared() {
  static Executor pool(std::max(4u, std::thread::hardware_concurrency()));
  return pool;
}

// Completion handshake between a Run() caller and the helper thread.  Heap
// allocated and shared: the caller may abandon it on timeout while the
// helper is still running the callable.
struct DeadlineRunner::TaskState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool abandoned = false;  // caller timed out and walked away
};

struct DeadlineRunner::Worker {
  std::mutex mu;
  std::condition_variable cv;
  std::function<void()> fn;  // set by Run(), consumed by WorkerLoop()
  std::shared_ptr<TaskState> state;
  bool exit = false;
  std::thread thread;
};

DeadlineRunner::DeadlineRunner() = default;

DeadlineRunner::~DeadlineRunner() {
  std::vector<std::shared_ptr<Worker>> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    workers = all_;
    idle_.clear();
  }
  for (auto& w : workers) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->exit = true;
    }
    w->cv.notify_all();
  }
  // Joining waits for busy helpers to finish their callables — including
  // strays whose caller timed out — so anything those callables reference
  // outlives them.
  for (auto& w : workers) {
    if (w->thread.joinable()) {
      w->thread.join();
    }
  }
}

int DeadlineRunner::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(all_.size());
}

bool DeadlineRunner::Run(std::function<void()> fn, uint64_t deadline_us) {
  if (deadline_us == 0) {
    fn();
    return true;
  }
  auto state = std::make_shared<TaskState>();
  std::shared_ptr<Worker> worker;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_.empty()) {
      worker = std::move(idle_.back());
      idle_.pop_back();
    } else {
      worker = std::make_shared<Worker>();
      all_.push_back(worker);
      worker->thread =
          std::thread([this, worker] { WorkerLoop(worker); });
    }
  }
  {
    std::lock_guard<std::mutex> lock(worker->mu);
    worker->fn = std::move(fn);
    worker->state = state;
  }
  worker->cv.notify_one();

  std::unique_lock<std::mutex> lock(state->mu);
  if (state->cv.wait_for(lock, std::chrono::microseconds(deadline_us),
                         [&] { return state->done; })) {
    return true;
  }
  state->abandoned = true;
  DeadlineStrayGauge()->Add(1);
  return false;
}

void DeadlineRunner::WorkerLoop(std::shared_ptr<Worker> worker) {
  SetCurrentThreadName("tgo-deadline");
  for (;;) {
    std::function<void()> fn;
    std::shared_ptr<TaskState> state;
    {
      std::unique_lock<std::mutex> lock(worker->mu);
      worker->cv.wait(lock,
                      [&] { return worker->exit || worker->fn != nullptr; });
      if (worker->fn == nullptr) {
        return;  // exit requested while idle
      }
      fn = std::move(worker->fn);
      worker->fn = nullptr;
      state = std::move(worker->state);
    }
    fn();
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->done = true;
      if (state->abandoned) {
        DeadlineStrayGauge()->Add(-1);
      }
      state->cv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        return;  // destructor owns the join; don't re-park
      }
      idle_.push_back(worker);
    }
  }
}

void TaskGroup::Launch(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
  }
  executor_->Submit([this, fn = std::move(fn)] {
    fn();
    std::lock_guard<std::mutex> lock(mu_);
    if (--outstanding_ == 0) {
      cv_.notify_all();
    }
  });
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return outstanding_ == 0; });
}

namespace {

// Shared by a ParallelDispatch caller and the pool tasks it submits.  A task
// whose claim fails may be dequeued after the caller has returned, so the
// state lives on the heap and `fn` is dereferenced only under a claim (the
// caller is then still waiting for that leg).
struct DispatchState {
  const size_t n;
  const std::function<void(size_t)>* const fn;
  std::atomic<size_t> next{0};  // lowest unclaimed leg
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;  // legs finished, guarded by mu
};

// Claims and runs the next unclaimed leg; false once every leg is claimed.
bool RunNextLeg(DispatchState& state) {
  size_t leg = state.next.fetch_add(1, std::memory_order_relaxed);
  if (leg >= state.n) {
    return false;
  }
  (*state.fn)(leg);
  std::lock_guard<std::mutex> lock(state.mu);
  if (++state.done == state.n) {
    state.cv.notify_one();
  }
  return true;
}

}  // namespace

void ParallelDispatch(Executor& pool, size_t n,
                      const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (n == 1) {
    fn(0);
    return;
  }
  auto state = std::make_shared<DispatchState>(n, &fn);
  for (size_t i = 0; i + 1 < n; ++i) {
    pool.Submit([state] { RunNextLeg(*state); });
  }
  while (RunNextLeg(*state)) {
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done == n; });
}

void RunParallel(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&fn, i] { fn(i); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

void RunParallelFor(int n, std::chrono::milliseconds duration,
                    const std::function<void(int, std::atomic<bool>*)>& fn) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&fn, &stop, i] { fn(i, &stop); });
  }
  std::this_thread::sleep_for(duration);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) {
    t.join();
  }
}

}  // namespace tango
