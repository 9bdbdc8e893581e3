// ThreadRuntime: ReactDB on OS threads.
//
// One thread per transaction executor, each with a two-lane request queue
// (ready lane for resumes/sub-transactions/finalization; admission lane for
// new roots, gated by the MPL). Cooperative multitasking comes from the
// coroutine procedures: awaiting a pending cross-container future returns
// control to the executor loop, which picks the next request — the paper's
// Section 3.2.3 thread management without kernel context switches.
//
// This runtime is fully functional on any core count and backs the unit and
// integration tests; the paper-figure benchmarks use SimRuntime (see
// DESIGN.md Section 3 on the hardware substitution).

#ifndef REACTDB_RUNTIME_THREAD_RUNTIME_H_
#define REACTDB_RUNTIME_THREAD_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "src/runtime/runtime_base.h"

namespace reactdb {

class ThreadRuntime : public RuntimeBase {
 public:
  ThreadRuntime() = default;
  ~ThreadRuntime() override;

  /// Starts executor threads and the epoch ticker. Call after Bootstrap.
  Status Start(uint64_t epoch_tick_ms = 10);
  /// Deterministic teardown: refuses new submissions, drains every
  /// already-submitted root (so every session future resolves), then joins
  /// the executor threads. Must not be called from an executor thread.
  void Stop();

  // Blocking Execute lives on RuntimeBase (a single-slot client::Session);
  // ThreadRuntime only provides the client blocking primitives below.

  // --- Client blocking support ---------------------------------------------
  void ClientWait(const std::function<bool()>& ready) override;
  void NotifyClientProgress() override;
  double SessionNowUs() const override;

  /// Real-time delay on a dedicated timer thread (session retry backoff,
  /// FaultyLink holds). Runs `fn` inline when the runtime is not started —
  /// there is no timer to hand it to, and callers tolerate zero delay. On
  /// Stop, still-pending timers fire immediately before the thread joins:
  /// a backoff resubmit then fails fast against the closed runtime, so
  /// sessions never hang on a timer that would otherwise be lost.
  void PostDelayed(double delay_us, std::function<void()> fn) override;

  // --- CallBridge ----------------------------------------------------------
  void Compute(double micros) override;
  void ChargeStorage(StorageOpKind kind, uint64_t n) override {
    (void)kind;
    (void)n;  // real time elapses by itself
  }

 protected:
  void PostReady(uint32_t executor, std::function<void()> task) override;
  void PostRoot(uint32_t executor, std::function<void()> task) override;
  void OnRootRetired(uint32_t executor) override;
  void CreateExecutors() override;
  /// has_work = queued work an executor should be making progress on
  /// (ready lane non-empty, or an admissible root under the MPL);
  /// heartbeats advance once per ExecutorLoop iteration.
  void SampleExecutors(
      std::vector<obs::ExecutorHealthSample>* out) const override;

 private:
  struct ThreadExecutor : ExecutorInfo {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> ready;
    std::deque<std::function<void()>> admission;
    int active_roots = 0;
    bool stop = false;
    std::thread thread;
    ResumeHook hook;
  };

  void ExecutorLoop(ThreadExecutor* exec);
  void TimerLoop();

  std::vector<std::unique_ptr<ThreadExecutor>> threads_;
  bool started_ = false;

  /// PostDelayed timer wheel: a min-heap of (fire time, fn) serviced by one
  /// thread that sleeps to the earliest deadline.
  struct TimerEntry {
    std::chrono::steady_clock::time_point when;
    std::function<void()> fn;
  };
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::vector<TimerEntry> timer_heap_;
  bool timer_stop_ = false;
  std::thread timer_thread_;

  /// Client-side blocking (sessions, Execute, Stop's drain): callers park
  /// on one condition variable, kicked after every root finalization and
  /// session delivery. The waiter count gates the notification so the
  /// submit hot path pays one relaxed atomic load when nobody waits.
  std::mutex client_mu_;
  std::condition_variable client_cv_;
  std::atomic<int> client_waiters_{0};
};

}  // namespace reactdb

#endif  // REACTDB_RUNTIME_THREAD_RUNTIME_H_
