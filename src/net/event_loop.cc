#include "src/net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/util/logging.h"
#include "src/util/threading.h"

namespace tango {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  TANGO_CHECK(epoll_fd_ >= 0) << "epoll_create1 failed: " << strerror(errno);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  TANGO_CHECK(wake_fd_ >= 0) << "eventfd failed: " << strerror(errno);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // nullptr marks the wake fd
  TANGO_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);
  thread_ = std::thread([this] { Run(); });
}

EventLoop::~EventLoop() {
  Stop();
  if (thread_.joinable()) {
    thread_.join();
  }
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EventLoop::Stop() {
  bool expected = false;
  if (stopping_.compare_exchange_strong(expected, true)) {
    Wake();
  }
}

void EventLoop::Wake() {
  uint64_t one = 1;
  ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  (void)n;  // EAGAIN means a wake is already pending — equally good
}

bool EventLoop::Post(std::function<void()> fn) {
  bool need_wake;
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    // `finished_` (not `stopping_`) is the accept/reject line: a task that
    // makes it into the queue before the loop's final drain is guaranteed
    // to run, so PostAndWait can never strand its waiter.
    if (finished_) {
      return false;
    }
    tasks_.push_back(std::move(fn));
    need_wake = !wake_pending_;
    wake_pending_ = true;
  }
  if (need_wake) {
    Wake();
  }
  return true;
}

bool EventLoop::PostAndWait(std::function<void()> fn) {
  TANGO_CHECK(!InLoop()) << "PostAndWait from the loop thread would deadlock";
  Notification done;
  if (!Post([&fn, &done] {
        fn();
        done.Notify();
      })) {
    return false;
  }
  done.WaitForNotification();
  return true;
}

void EventLoop::Add(int fd, uint32_t events, FdHandler handler) {
  auto state = std::make_shared<FdState>();
  state->fd = fd;
  state->events = events;
  state->handler = std::move(handler);
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = state.get();
  TANGO_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0)
      << "epoll add fd " << fd << ": " << strerror(errno);
  fds_[fd] = std::move(state);
}

void EventLoop::Update(int fd, uint32_t events) {
  auto it = fds_.find(fd);
  if (it == fds_.end() || it->second->events == events) {
    return;
  }
  it->second->events = events;
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = it->second.get();
  TANGO_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0)
      << "epoll mod fd " << fd << ": " << strerror(errno);
}

void EventLoop::Remove(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return;
  }
  it->second->dead = true;
  // Park the state until the current dispatch batch finishes: epoll_wait may
  // already have handed us more events whose data.ptr points at it.
  dying_.push_back(std::move(it->second));
  fds_.erase(it);
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::Run() {
  SetCurrentThreadName("tgo-loop");
  SetMustNotBlock(true);
  loop_tid_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      TANGO_LOG(kError) << "epoll_wait failed: " << strerror(errno);
      break;
    }
    bool woken = false;
    for (int i = 0; i < n; ++i) {
      auto* state = static_cast<FdState*>(events[i].data.ptr);
      if (state == nullptr) {
        woken = true;
        uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (!state->dead) {
        state->handler(events[i].events);
      }
    }
    (void)woken;
    dying_.clear();
    // Drain posted tasks.  Tasks posted *by* tasks run in the same drain,
    // so a post-from-loop never waits for another epoll wakeup.
    std::deque<std::function<void()>> batch;
    while (true) {
      {
        std::lock_guard<std::mutex> lock(tasks_mu_);
        if (tasks_.empty()) {
          wake_pending_ = false;
          break;
        }
        batch.swap(tasks_);
      }
      for (auto& task : batch) {
        task();
      }
      batch.clear();
      dying_.clear();
    }
  }
  // Final drain, after which Post rejects: releases PostAndWait callers that
  // raced Stop().
  while (true) {
    std::deque<std::function<void()>> batch;
    {
      std::lock_guard<std::mutex> lock(tasks_mu_);
      if (tasks_.empty()) {
        finished_ = true;
        break;
      }
      batch.swap(tasks_);
    }
    for (auto& task : batch) {
      task();
    }
    dying_.clear();
  }
}

}  // namespace tango
