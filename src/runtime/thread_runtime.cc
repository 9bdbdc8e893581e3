#include "src/runtime/thread_runtime.h"

#include <algorithm>
#include <chrono>

#include "src/log/durability.h"
#include "src/util/logging.h"

namespace reactdb {

ThreadRuntime::~ThreadRuntime() { Stop(); }

void ThreadRuntime::CreateExecutors() {
  int total = dc_.total_executors();
  for (int i = 0; i < total; ++i) {
    auto exec = std::make_unique<ThreadExecutor>();
    RegisterExecutor(exec.get());
    threads_.push_back(std::move(exec));
  }
}

Status ThreadRuntime::Start(uint64_t epoch_tick_ms) {
  if (started_) return Status::Internal("already started");
  if (def_ == nullptr) return Status::Internal("Bootstrap first");
  started_ = true;
  accepting_.store(true, std::memory_order_seq_cst);  // reopened after Stop
  for (auto& exec : threads_) {
    ThreadExecutor* e = exec.get();
    {
      // Restart support: a previous Stop left the flag set.
      std::lock_guard<std::mutex> lock(e->mu);
      e->stop = false;
    }
    e->hook.schedule = [this, e](void* frame, std::coroutine_handle<> h) {
      PostReady(e->id, [this, frame, h]() {
        RunCoroutine(static_cast<TxnFrame*>(frame), h);
      });
    };
    e->thread = std::thread([this, e] { ExecutorLoop(e); });
  }
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timer_stop_ = false;
  }
  timer_thread_ = std::thread([this] { TimerLoop(); });
  epochs_.StartTicker(epoch_tick_ms);
  return Status::OK();
}

void ThreadRuntime::Stop() {
  if (!started_) return;
  // Deterministic teardown: no new work, then drain — every root already
  // submitted finalizes (its completion callback runs, so session futures
  // resolve) before the executors go away. Nothing is abandoned in a lane.
  StopAccepting();
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t to_drain = outstanding_roots();
  ClientWait([this] { return outstanding_roots() == 0; });
  if (to_drain > 0) {
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    REACTDB_LOG(kInfo) << "stop drain: " << to_drain
                       << " outstanding roots finalized in " << elapsed_ms
                       << " ms";
  }
  // Timers stay live through the drain above (a held FaultyLink batch or a
  // backoff retry may be the only thing standing between an outstanding
  // root and its finalization); only then is the timer thread retired —
  // firing whatever is still pending so no callback is silently lost.
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  epochs_.StopTicker();
  for (auto& exec : threads_) {
    {
      std::lock_guard<std::mutex> lock(exec->mu);
      exec->stop = true;
    }
    exec->cv.notify_all();
  }
  for (auto& exec : threads_) {
    if (exec->thread.joinable()) exec->thread.join();
  }
  started_ = false;
}

void ThreadRuntime::ExecutorLoop(ThreadExecutor* exec) {
  internal::SetCurrentResumeHook(&exec->hook);
  while (true) {
    std::function<void()> task;
    bool is_root = false;
    {
      std::unique_lock<std::mutex> lock(exec->mu);
      exec->cv.wait(lock, [this, exec] {
        if (exec->stop) return true;
        if (!exec->ready.empty()) return true;
        return !exec->admission.empty() &&
               (dc_.mpl == 0 || exec->active_roots < dc_.mpl);
      });
      if (exec->stop) break;
      exec->heartbeat.fetch_add(1, std::memory_order_relaxed);
      if (!exec->ready.empty()) {
        task = std::move(exec->ready.front());
        exec->ready.pop_front();
      } else {
        task = std::move(exec->admission.front());
        exec->admission.pop_front();
        is_root = true;
      }
      if (is_root) exec->active_roots++;
    }
    task();
    // Scheduling boundary: everything the task produced for one
    // destination container leaves as one batched link transfer.
    transport_->Flush(exec->id);
  }
  // Nothing may linger in a lane batch past executor death (its in-process
  // ctx state would leak); Stop drained every root already, so teardown
  // reclaims whatever envelopes are left.
  transport_->Flush(exec->id);
  internal::SetCurrentResumeHook(nullptr);
}

void ThreadRuntime::SampleExecutors(
    std::vector<obs::ExecutorHealthSample>* out) const {
  out->clear();
  out->reserve(threads_.size());
  for (const auto& exec : threads_) {
    obs::ExecutorHealthSample s;
    s.heartbeat = exec->heartbeat.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(exec->mu);
      s.has_work = !exec->ready.empty() ||
                   (!exec->admission.empty() &&
                    (dc_.mpl == 0 || exec->active_roots < dc_.mpl));
    }
    out->push_back(s);
  }
}

void ThreadRuntime::PostReady(uint32_t executor, std::function<void()> task) {
  ThreadExecutor* exec = threads_[executor].get();
  {
    std::lock_guard<std::mutex> lock(exec->mu);
    exec->ready.push_back(std::move(task));
  }
  exec->cv.notify_one();
}

void ThreadRuntime::PostRoot(uint32_t executor, std::function<void()> task) {
  ThreadExecutor* exec = threads_[executor].get();
  {
    std::lock_guard<std::mutex> lock(exec->mu);
    exec->admission.push_back(std::move(task));
  }
  exec->cv.notify_one();
}

void ThreadRuntime::OnRootRetired(uint32_t executor) {
  ThreadExecutor* exec = threads_[executor].get();
  {
    std::lock_guard<std::mutex> lock(exec->mu);
    exec->active_roots--;
  }
  exec->cv.notify_one();
}

void ThreadRuntime::Compute(double micros) {
  auto until = std::chrono::steady_clock::now() +
               std::chrono::nanoseconds(static_cast<int64_t>(micros * 1000));
  // Busy-wait to model CPU-bound work (sim_risk-style calculations).
  volatile uint64_t sink = 0;
  while (std::chrono::steady_clock::now() < until) {
    sink = sink + 1;
  }
}

void ThreadRuntime::ClientWait(const std::function<bool()>& ready) {
  client_waiters_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(client_mu_);
    client_cv_.wait(lock, ready);
  }
  client_waiters_.fetch_sub(1, std::memory_order_seq_cst);
}

void ThreadRuntime::NotifyClientProgress() {
  if (client_waiters_.load(std::memory_order_seq_cst) == 0) return;
  // Empty critical section: orders this notification after a waiter that
  // already registered but has not yet gone to sleep, closing the missed
  // wakeup window (its predicate state changed before we got here).
  { std::lock_guard<std::mutex> lock(client_mu_); }
  client_cv_.notify_all();
}

void ThreadRuntime::PostDelayed(double delay_us, std::function<void()> fn) {
  auto later = [](const TimerEntry& a, const TimerEntry& b) {
    return a.when > b.when;
  };
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    if (timer_thread_.joinable() && !timer_stop_) {
      timer_heap_.push_back(
          {std::chrono::steady_clock::now() +
               std::chrono::nanoseconds(static_cast<int64_t>(delay_us * 1000)),
           std::move(fn)});
      std::push_heap(timer_heap_.begin(), timer_heap_.end(), later);
      timer_cv_.notify_one();
      return;
    }
  }
  fn();  // no timer thread (not started, or stopping): zero-delay fallback
}

void ThreadRuntime::TimerLoop() {
  auto later = [](const TimerEntry& a, const TimerEntry& b) {
    return a.when > b.when;
  };
  std::unique_lock<std::mutex> lock(timer_mu_);
  auto fire_front = [&] {
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), later);
    std::function<void()> fn = std::move(timer_heap_.back().fn);
    timer_heap_.pop_back();
    lock.unlock();
    fn();
    lock.lock();
  };
  while (!timer_stop_) {
    if (timer_heap_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    auto when = timer_heap_.front().when;
    if (std::chrono::steady_clock::now() < when) {
      timer_cv_.wait_until(lock, when);
      continue;
    }
    fire_front();
  }
  // Shutdown: everything still queued fires immediately (see PostDelayed's
  // contract) — resubmits fail fast against the closed runtime rather than
  // leaving a session waiting on a timer that will never come.
  while (!timer_heap_.empty()) fire_front();
}

double ThreadRuntime::SessionNowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace reactdb
