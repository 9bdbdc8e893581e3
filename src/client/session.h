// Session-based asynchronous client API (paper Section 2.2.1: clients
// invoke transactions on reactors asynchronously and consume the results
// as they complete).
//
// A Session binds a client to a runtime and owns pipelined submission:
//
//   client::Session session(&db, {.max_outstanding = 8});
//   client::SessionFuture f = session.Submit(reactor, proc, args);
//   ...                                  // keep submitting, up to the window
//   client::TxnOutcome out = f.Wait();   // or f.Then(callback)
//
// Semantics:
//  * Pipelining with FIFO delivery — up to `max_outstanding` transactions
//    are in flight per session; results are *delivered* (futures become
//    ready, Then-callbacks run) strictly in submission order, regardless of
//    the order in which the runtime finalizes them.
//  * Backpressure — Submit blocks while the window is full (real time under
//    ThreadRuntime, pumping virtual time under SimRuntime); TrySubmit
//    instead rejects with StatusCode::kOverloaded.
//  * Auto-retry — an opt-in RetryPolicy resubmits concurrency-control (and
//    optionally safety) aborts up to a bounded attempt count; the future
//    resolves with the final outcome and the attempt count.
//  * Telemetry — per-session committed/aborted/retried counters and a
//    latency histogram over the session clock (virtual or steady time).
//
// Threading: a Session may be shared by multiple client threads (all state
// is mutex-guarded), though the intended shape is one session per client.
// Blocking calls (Submit on a full window, Wait, Drain, Execute) must not
// be made from an executor thread or from inside a procedure. Every future
// must be consumed exactly once, via Wait()/Get() or Then(); delivered but
// never-consumed results are retained by the session until consumed or the
// session is destroyed.

#ifndef REACTDB_CLIENT_SESSION_H_
#define REACTDB_CLIENT_SESSION_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/runtime_base.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"

namespace reactdb {
namespace client {

/// Bounded automatic resubmission of system aborts.
struct RetryPolicy {
  /// Total attempts including the first; 1 disables retry.
  int max_attempts = 1;
  /// Also retry active-set safety aborts (like CC aborts they are artifacts
  /// of concurrent scheduling, not of application logic). User aborts are
  /// never retried, and neither are deadline expiries (the budget covers
  /// retries, so an expired transaction is terminally expired).
  bool retry_safety_aborts = true;
  /// Also retry kOverloaded shed by the runtime's admission control — with
  /// backoff, this converts fast-shed rejections into delayed completion.
  /// Session-window TrySubmit rejections are never auto-retried (the
  /// window IS the caller).
  bool retry_overloaded = true;

  /// Exponential backoff between attempts, on the session clock (virtual
  /// microseconds under SimRuntime — chaos runs stay deterministic; steady
  /// clock under ThreadRuntime). Resubmission k waits
  /// min(max_backoff_us, initial_backoff_us * multiplier^(k-1)), jittered
  /// down to [50%, 100%] of nominal so colliding sessions desynchronize.
  /// A backoff by default: immediate resubmission of a CC conflict tends
  /// to hit the same conflict window again and storms the executor.
  /// Set initial_backoff_us = 0 for the old immediate-resubmit behavior.
  double initial_backoff_us = 100;
  double max_backoff_us = 10000;
  double backoff_multiplier = 2.0;
  /// Seed of the per-session jitter RNG stream.
  uint64_t jitter_seed = 1;
};

struct SessionOptions {
  /// Max undelivered transactions in flight; the backpressure window.
  size_t max_outstanding = 1;
  RetryPolicy retry{};
  /// Default end-to-end deadline budget, in session-clock microseconds
  /// from submission (0 = none). The budget covers the whole transaction
  /// including retries and backoff waits; expiry aborts with
  /// kDeadlineExceeded and is never retried. Overridable per call via
  /// Submit's budget_us parameter.
  double default_budget_us = 0;
  /// Opt-in group-commit semantics: a committed transaction's future only
  /// becomes ready (and its Then-callback only runs) once the commit's
  /// epoch is durable on disk — the caller observes group-commit latency
  /// but never a commit a crash could erase. FIFO delivery is preserved:
  /// later results wait behind a not-yet-durable commit. No effect when
  /// the database was opened without a data_dir; if the durability
  /// subsystem halts (I/O error, simulated crash), gated results are
  /// released so nothing hangs, and the error is on
  /// DurabilityManager::io_status.
  bool wait_durable = false;
};

/// Per-session outcome counters and latency telemetry.
struct SessionStats {
  uint64_t submitted = 0;       // accepted submissions (retries not counted)
  uint64_t committed = 0;
  uint64_t aborted_cc = 0;      // final outcome after any retries
  uint64_t aborted_user = 0;
  uint64_t aborted_safety = 0;
  uint64_t failed = 0;          // non-abort failures (bad target, shutdown)
  uint64_t deadline_exceeded = 0;  // final kDeadlineExceeded outcomes
  uint64_t shed = 0;            // final kOverloaded outcomes (runtime shed)
  uint64_t retried = 0;         // resubmissions performed
  uint64_t overloaded = 0;      // TrySubmit rejections
  /// Submit-to-completion latency of committed transactions, on the
  /// session clock (virtual microseconds under SimRuntime, steady-clock
  /// microseconds under ThreadRuntime).
  Histogram latency_us;
  /// wait_durable telemetry: commits whose delivery was held for the
  /// durable epoch, and the lag from commit to durable delivery (the
  /// group-commit penalty), on the session clock.
  uint64_t durable_waits = 0;
  Histogram durable_lag_us;
  /// Retry-backoff waits actually scheduled, in session-clock microseconds
  /// (one sample per delayed resubmission).
  Histogram backoff_us;

  uint64_t total_aborted() const {
    return aborted_cc + aborted_user + aborted_safety;
  }
};

/// Everything the session knows about one finished transaction.
struct TxnOutcome {
  ProcResult result{Status::Internal("pending")};
  /// Fig. 6 cost attribution copied from the root (SimRuntime).
  RootTxn::Profile profile;
  uint64_t commit_tid = 0;
  /// Attempts performed (> 1 when the retry policy resubmitted).
  int attempts = 0;
  /// True when the submission never reached the runtime (unknown target,
  /// stopped runtime): `result` is the synchronous Submit error, not a
  /// transaction outcome. Lets drivers tell a dead target apart from a
  /// procedure that legitimately returned the same status code.
  bool rejected = false;
  double submit_us = 0;
  double complete_us = 0;

  bool ok() const { return result.ok(); }
  Status status() const { return result.status(); }
  double latency_us() const { return complete_us - submit_us; }
};

class Session;

/// Handle to one submitted transaction. Cheap to copy; consuming the
/// outcome (Wait/Get/Then) through any copy invalidates the others.
class SessionFuture {
 public:
  SessionFuture() = default;

  bool valid() const { return session_ != nullptr; }
  /// True once the outcome is deliverable: the transaction completed and
  /// every earlier submission of the session was delivered (FIFO).
  bool Ready() const;
  /// Blocks until deliverable, consumes and returns the outcome.
  TxnOutcome Wait();
  /// Wait() keeping only the procedure result.
  ProcResult Get() { return std::move(Wait().result); }
  /// Attaches a continuation invoked at FIFO delivery time — on the
  /// finalizing executor thread under ThreadRuntime, inside the completing
  /// event under SimRuntime. Consumes the outcome (at most one of
  /// Then/Wait per transaction). If already delivered, runs immediately on
  /// the calling thread.
  void Then(std::function<void(TxnOutcome)> fn);

 private:
  friend class Session;
  SessionFuture(Session* session, uint64_t ticket)
      : session_(session), ticket_(ticket) {}

  Session* session_ = nullptr;
  uint64_t ticket_ = 0;
};

class Session {
 public:
  /// `rt` must outlive the session.
  explicit Session(RuntimeBase* rt, SessionOptions options = SessionOptions());
  /// Drains in-flight work (see Drain) and waits out an active deliverer
  /// before destruction so no completion callback can touch a dead session.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Pipelined submission; blocks while the window is full. The handle
  /// overload is the hot path; the name overload resolves once per call.
  /// `budget_us` is a per-transaction end-to-end deadline budget in
  /// session-clock microseconds from now (0 = use
  /// SessionOptions::default_budget_us); it rides in the submit envelope,
  /// is inherited by every cross-container sub-transaction, and expiry
  /// aborts with kDeadlineExceeded (terminal — never retried).
  SessionFuture Submit(ReactorId reactor, ProcId proc, Row args,
                       double budget_us = 0);
  SessionFuture Submit(const std::string& reactor_name,
                       const std::string& proc_name, Row args);
  /// Non-blocking submission: kOverloaded when the window is full.
  StatusOr<SessionFuture> TrySubmit(ReactorId reactor, ProcId proc, Row args,
                                    double budget_us = 0);

  /// Blocking convenience — the single-slot session form that replaced the
  /// runtimes' bespoke Execute machinery: Submit + Wait.
  TxnOutcome Execute(ReactorId reactor, ProcId proc, Row args);
  TxnOutcome Execute(const std::string& reactor_name,
                     const std::string& proc_name, Row args);

  /// Blocks until no submission is in flight (all delivered). Retained
  /// unconsumed results remain readable through their futures.
  void Drain();

  /// Transactions in flight (submitted, not yet delivered).
  size_t outstanding() const;
  const SessionOptions& options() const { return options_; }
  /// Snapshot of the telemetry counters.
  SessionStats stats() const;
  RuntimeBase* runtime() const { return rt_; }

 private:
  friend class SessionFuture;

  static constexpr size_t kNpos = ~size_t{0};

  /// One window slot, recycled across transactions (steady-state
  /// submission reuses slots instead of allocating per-transaction state).
  struct Slot {
    enum class State : uint8_t {
      kFree,
      kInFlight,    // submitted, outcome pending
      kCompleted,   // outcome recorded, awaiting FIFO delivery
      kDelivered,   // delivered, outcome parked here for a blocked waiter
    };
    State state = State::kFree;
    bool has_then = false;
    bool waited = false;  // a Wait() is (or was) blocked on this ticket
    /// wait_durable: completed but deliverable only once the durable epoch
    /// reaches this (0 = not gated).
    uint64_t durable_epoch_required = 0;
    /// True once the durable gate actually held this slot back (telemetry:
    /// only such deliveries count as durable waits).
    bool durable_held = false;
    uint64_t ticket = 0;
    int attempts = 0;
    /// Absolute session-clock deadline of this transaction (0 = none).
    /// Fixed at first submission: retries inherit it unchanged, so the
    /// budget spans the whole retry sequence including backoff waits.
    double deadline_us = 0;
    ReactorId reactor;
    ProcId proc;
    Row retry_args;  // populated only when the retry policy is active
    TxnOutcome outcome;
    std::function<void(TxnOutcome)> then;
  };

  /// A delivered-but-unconsumed outcome whose slot was recycled.
  struct Retained {
    uint64_t ticket = 0;
    TxnOutcome outcome;
  };

  size_t TryClaimLocked();
  SessionFuture SubmitClaimed(size_t idx, ReactorId reactor, ProcId proc,
                              Row args, double budget_us);
  /// Backoff of the next resubmission after `completed_attempts` tries
  /// (exponential with jitter; 0 when backoff is disabled). Caller holds
  /// mu_ (the jitter RNG is mu_-guarded).
  double BackoffDelayLocked(int completed_attempts);
  /// Resubmits slot `idx` (a retry: bypasses admission control, keeps the
  /// original deadline). Failure feeds back into OnSubmitFailed.
  void ResubmitSlot(size_t idx);
  /// A Submit that never reached the runtime (shed by admission control,
  /// unknown target, stopped runtime): retries shed submissions under the
  /// policy, finalizes everything else as rejected.
  void OnSubmitFailed(size_t idx, Status st);
  /// Final completion of slot `idx` (after any retries). `profile` /
  /// `commit_tid` come from the finalized root; `rejected` marks a
  /// synthesized failure that never reached the runtime.
  void Complete(size_t idx, ProcResult result, const RootTxn::Profile& profile,
                uint64_t commit_tid, bool rejected = false);
  /// Runtime completion callback: retry or finalize.
  void OnRootDone(size_t idx, ProcResult result, const RootTxn& root);
  /// Delivers completed slots in ticket order. At most one deliverer runs
  /// at a time so Then-callbacks observe FIFO order even when completions
  /// race on different executor threads.
  void RunDeliveries();
  /// The delivery loop, entered with delivering_ already claimed.
  void DeliverClaimed();

  TxnOutcome WaitTicket(uint64_t ticket);
  bool ReadyTicket(uint64_t ticket) const;
  void ThenTicket(uint64_t ticket, std::function<void(TxnOutcome)> fn);
  /// Consumes a delivered outcome (slot in kDelivered or retained list).
  /// Returns an errored outcome when the ticket was already consumed.
  TxnOutcome ConsumeLocked(uint64_t ticket);
  size_t InFlightLocked() const;
  size_t SlotOfTicketLocked(uint64_t ticket) const;

  RuntimeBase* rt_;
  SessionOptions options_;
  /// Durable-epoch listener id (wait_durable sessions re-run deliveries
  /// when the watermark advances); 0 when unregistered.
  size_t durable_listener_ = 0;

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::vector<Retained> retained_;
  uint64_t next_ticket_ = 1;
  /// FIFO delivery cursor: every ticket below it has been delivered.
  uint64_t next_deliver_ = 1;
  bool delivering_ = false;
  SessionStats stats_;
  /// Backoff jitter stream (guarded by mu_; seeded for determinism).
  Rng jitter_;
};

}  // namespace client
}  // namespace reactdb

#endif  // REACTDB_CLIENT_SESSION_H_
