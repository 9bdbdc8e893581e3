#include "src/client/session.h"

#include "src/log/durability.h"
#include "src/storage/tid.h"
#include "src/util/logging.h"

namespace reactdb {
namespace client {

// Locking protocol: mu_ guards all slot/retained/stats state and is never
// held across a call into the runtime (Submit, ClientWait,
// NotifyClientProgress) or a user callback — ThreadRuntime's client
// condition variable evaluates wait predicates that take mu_, so holding it
// while notifying would invert the lock order.

Session::Session(RuntimeBase* rt, SessionOptions options)
    : rt_(rt), options_(options) {
  REACTDB_CHECK(rt_ != nullptr);
  if (options_.max_outstanding == 0) options_.max_outstanding = 1;
  if (options_.retry.max_attempts < 1) options_.retry.max_attempts = 1;
  jitter_.Seed(options_.retry.jitter_seed);
  if (rt_->durability() == nullptr) options_.wait_durable = false;
  slots_.resize(options_.max_outstanding);
  retained_.reserve(options_.max_outstanding);
  if (options_.wait_durable) {
    // Gated slots deliver when the watermark catches up, not when a new
    // completion happens to run deliveries — so the session listens.
    durable_listener_ = rt_->durability()->AddListener(
        [this](uint64_t) { RunDeliveries(); });
  }
}

Session::~Session() {
  // Drain, and also wait out an active deliverer: it may free the last slot
  // and still be inside its delivery loop when the outcome is consumed.
  rt_->ClientWait([this] {
    std::lock_guard<std::mutex> lock(mu_);
    return InFlightLocked() == 0 && !delivering_;
  });
  if (durable_listener_ != 0) {
    // Blocks until any in-flight watermark callback finished.
    rt_->durability()->RemoveListener(durable_listener_);
  }
}

size_t Session::TryClaimLocked() {
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (s.state != Slot::State::kFree) continue;
    s.state = Slot::State::kInFlight;
    s.has_then = false;
    s.waited = false;
    s.durable_epoch_required = 0;
    s.ticket = next_ticket_++;
    s.attempts = 0;
    s.then = nullptr;
    return i;
  }
  return kNpos;
}

size_t Session::SlotOfTicketLocked(uint64_t ticket) const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].state != Slot::State::kFree && slots_[i].ticket == ticket) {
      return i;
    }
  }
  return kNpos;
}

size_t Session::InFlightLocked() const {
  size_t n = 0;
  for (const Slot& s : slots_) {
    if (s.state == Slot::State::kInFlight ||
        s.state == Slot::State::kCompleted) {
      ++n;
    }
  }
  return n;
}

SessionFuture Session::Submit(ReactorId reactor, ProcId proc, Row args,
                              double budget_us) {
  size_t idx = kNpos;
  // Backpressure: park until a window slot frees (virtual time advances
  // under SimRuntime). The claim happens inside the predicate so two client
  // threads cannot race for the same slot.
  rt_->ClientWait([this, &idx] {
    std::lock_guard<std::mutex> lock(mu_);
    idx = TryClaimLocked();
    return idx != kNpos;
  });
  return SubmitClaimed(idx, reactor, proc, std::move(args), budget_us);
}

SessionFuture Session::Submit(const std::string& reactor_name,
                              const std::string& proc_name, Row args) {
  // One-time resolution shim; invalid names resolve to invalid handles and
  // the future then carries the runtime's NotFound.
  ReactorId reactor = rt_->ResolveReactor(reactor_name);
  ProcId proc = rt_->ResolveProc(reactor, proc_name);
  return Submit(reactor, proc, std::move(args));
}

StatusOr<SessionFuture> Session::TrySubmit(ReactorId reactor, ProcId proc,
                                           Row args, double budget_us) {
  size_t idx;
  {
    std::lock_guard<std::mutex> lock(mu_);
    idx = TryClaimLocked();
    if (idx == kNpos) {
      ++stats_.overloaded;
      rt_->metrics()->AddShared(rt_->metric_ids().session_overloaded);
      return Status::Overloaded("session window full (" +
                                std::to_string(slots_.size()) +
                                " outstanding)");
    }
  }
  return SubmitClaimed(idx, reactor, proc, std::move(args), budget_us);
}

SessionFuture Session::SubmitClaimed(size_t idx, ReactorId reactor,
                                     ProcId proc, Row args, double budget_us) {
  uint64_t ticket;
  double deadline;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Slot& s = slots_[idx];
    ticket = s.ticket;
    s.reactor = reactor;
    s.proc = proc;
    s.outcome = TxnOutcome{};
    s.outcome.submit_us = rt_->SessionNowUs();
    // The deadline is absolute from here on: retries inherit it, so the
    // budget covers the whole attempt sequence including backoff waits.
    double budget = budget_us > 0 ? budget_us : options_.default_budget_us;
    s.deadline_us = budget > 0 ? s.outcome.submit_us + budget : 0;
    deadline = s.deadline_us;
    if (options_.retry.max_attempts > 1) s.retry_args = args;
    ++stats_.submitted;
  }
  // Registry mirror (shared shard: sessions live on client threads).
  rt_->metrics()->AddShared(rt_->metric_ids().session_submitted);
  rt_->metrics()->GaugeAddShared(rt_->metric_ids().session_inflight, 1);
  // The completion callback captures only {this, idx}: it fits the
  // std::function inline buffer, so steady-state submission does not
  // allocate in the session layer.
  SubmitOptions submit_options;
  submit_options.deadline_us = deadline;
  Status st = rt_->Submit(reactor, proc, std::move(args), submit_options,
                          [this, idx](ProcResult r, const RootTxn& root) {
                            OnRootDone(idx, std::move(r), root);
                          });
  if (!st.ok()) OnSubmitFailed(idx, std::move(st));
  return SessionFuture(this, ticket);
}

double Session::BackoffDelayLocked(int completed_attempts) {
  const RetryPolicy& p = options_.retry;
  if (p.initial_backoff_us <= 0) return 0;
  double d = p.initial_backoff_us;
  for (int i = 1; i < completed_attempts && d < p.max_backoff_us; ++i) {
    d *= p.backoff_multiplier;
  }
  if (d > p.max_backoff_us) d = p.max_backoff_us;
  // Jitter to [50%, 100%] of nominal: desynchronizes sessions that shed
  // or conflicted together without ever collapsing the wait to zero.
  return d * (0.5 + 0.5 * jitter_.NextDouble());
}

void Session::ResubmitSlot(size_t idx) {
  ReactorId reactor;
  ProcId proc;
  Row args;
  double deadline;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Slot& s = slots_[idx];
    reactor = s.reactor;
    proc = s.proc;
    args = s.retry_args;  // copy — later attempts may need it again
    deadline = s.deadline_us;
  }
  SubmitOptions submit_options;
  submit_options.deadline_us = deadline;
  // A retry is admitted work being finished, not new load: it skips the
  // shed watermarks so backoff converges instead of re-shedding forever.
  submit_options.bypass_admission = true;
  Status st = rt_->Submit(reactor, proc, std::move(args), submit_options,
                          [this, idx](ProcResult r, const RootTxn& root) {
                            OnRootDone(idx, std::move(r), root);
                          });
  if (!st.ok()) OnSubmitFailed(idx, std::move(st));
}

void Session::OnSubmitFailed(size_t idx, Status st) {
  // Never reached the runtime. Shed submissions (kOverloaded from
  // admission control) are retryable under the policy — with backoff, so
  // the storm the watermark deflected does not reform; anything else
  // (unknown target, stopped runtime) resolves deterministically.
  bool retry = false;
  double delay = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Slot& s = slots_[idx];
    ++s.attempts;
    if (st.IsOverloaded() && options_.retry.retry_overloaded &&
        s.attempts < options_.retry.max_attempts && rt_->AcceptingSubmits()) {
      retry = true;
      delay = BackoffDelayLocked(s.attempts);
      ++stats_.retried;
      if (delay > 0) stats_.backoff_us.Add(delay);
    }
  }
  if (retry) {
    rt_->metrics()->AddShared(rt_->metric_ids().session_retried);
    if (delay > 0) {
      rt_->PostDelayed(delay, [this, idx] { ResubmitSlot(idx); });
    } else {
      ResubmitSlot(idx);
    }
    return;
  }
  Complete(idx, ProcResult(std::move(st)), RootTxn::Profile{}, 0,
           /*rejected=*/true);
}

void Session::OnRootDone(size_t idx, ProcResult result, const RootTxn& root) {
  bool retry = false;
  double delay = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Slot& s = slots_[idx];
    ++s.attempts;
    if (!result.ok() && s.attempts < options_.retry.max_attempts &&
        rt_->AcceptingSubmits()) {
      const Status& st = result.status();
      // kDeadlineExceeded is deliberately absent: the budget covered the
      // retries too, so an expired transaction is terminally expired.
      if (st.IsAborted() ||
          (st.IsSafetyAbort() && options_.retry.retry_safety_aborts) ||
          (st.IsOverloaded() && options_.retry.retry_overloaded)) {
        retry = true;
        delay = BackoffDelayLocked(s.attempts);
        ++stats_.retried;
        if (delay > 0) stats_.backoff_us.Add(delay);
      }
    }
  }
  if (retry) {
    rt_->metrics()->AddShared(rt_->metric_ids().session_retried);
    if (delay > 0) {
      // The slot stays kInFlight through the wait: Drain and the window
      // bound both see the retry as outstanding work.
      rt_->PostDelayed(delay, [this, idx] { ResubmitSlot(idx); });
    } else {
      ResubmitSlot(idx);
    }
    return;
  }
  Complete(idx, std::move(result), root.profile, root.commit_tid);
}

void Session::Complete(size_t idx, ProcResult result,
                       const RootTxn::Profile& profile, uint64_t commit_tid,
                       bool rejected) {
  rt_->metrics()->GaugeAddShared(rt_->metric_ids().session_inflight, -1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    Slot& s = slots_[idx];
    REACTDB_CHECK(s.state == Slot::State::kInFlight);
    s.outcome.result = std::move(result);
    s.outcome.profile = profile;
    s.outcome.commit_tid = commit_tid;
    s.outcome.attempts = s.attempts;
    s.outcome.rejected = rejected;
    s.outcome.complete_us = rt_->SessionNowUs();
    s.durable_epoch_required = 0;
    s.durable_held = false;
    if (s.outcome.result.ok()) {
      ++stats_.committed;
      stats_.latency_us.Add(s.outcome.latency_us());
      if (options_.wait_durable && commit_tid != 0) {
        // Group-commit gate: deliverable once the commit's epoch is
        // durable (RunDeliveries enforces it, the watermark listener
        // re-runs deliveries as the epoch advances).
        s.durable_epoch_required = TidWord::Epoch(commit_tid);
      }
    } else {
      const Status& st = s.outcome.result.status();
      if (st.IsAborted()) {
        ++stats_.aborted_cc;
      } else if (st.IsUserAbort()) {
        ++stats_.aborted_user;
      } else if (st.IsSafetyAbort()) {
        ++stats_.aborted_safety;
      } else if (st.IsDeadlineExceeded()) {
        ++stats_.deadline_exceeded;
      } else if (st.IsOverloaded()) {
        ++stats_.shed;
      } else {
        ++stats_.failed;
      }
    }
    s.state = Slot::State::kCompleted;
    // Claim delivery in the same critical section: once mu_ drops, an
    // active deliverer may deliver this slot and the owner destroy the
    // session, so this thread must not touch it again.
    if (delivering_) return;  // the active deliverer picks this up
    delivering_ = true;
  }
  DeliverClaimed();
}

void Session::RunDeliveries() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (delivering_) return;  // the active deliverer picks this up
    delivering_ = true;
  }
  DeliverClaimed();
}

void Session::DeliverClaimed() {
  // ~Session waits for !delivering_; once it drops the session may be gone,
  // so nothing after the loop touches a member.
  RuntimeBase* rt = rt_;
  while (true) {
    std::function<void(TxnOutcome)> then;
    TxnOutcome outcome;
    {
      std::lock_guard<std::mutex> lock(mu_);
      size_t idx = SlotOfTicketLocked(next_deliver_);
      if (idx == kNpos || slots_[idx].state != Slot::State::kCompleted) {
        delivering_ = false;
        break;
      }
      Slot& s = slots_[idx];
      if (s.durable_epoch_required > 0) {
        log::DurabilityManager* d = rt->durability();
        if (d != nullptr && !d->halted() &&
            d->durable_epoch() < s.durable_epoch_required) {
          // Not durable yet: hold this and (FIFO) everything behind it.
          // The durable listener resumes delivery.
          s.durable_held = true;
          delivering_ = false;
          break;
        }
        // Telemetry counts only deliveries the gate actually held back —
        // a commit already durable on arrival is not a durable wait.
        if (s.durable_held) {
          ++stats_.durable_waits;
          stats_.durable_lag_us.Add(rt->SessionNowUs() -
                                    s.outcome.complete_us);
          rt->metrics()->AddShared(rt->metric_ids().session_durable_waits);
        }
        s.durable_epoch_required = 0;
        s.durable_held = false;
      }
      ++next_deliver_;
      if (s.has_then) {
        then = std::move(s.then);
        s.then = nullptr;
        outcome = std::move(s.outcome);
        s.state = Slot::State::kFree;
      } else if (s.waited) {
        // Park the outcome for the blocked waiter; the slot frees when the
        // waiter consumes it.
        s.state = Slot::State::kDelivered;
        continue;
      } else {
        retained_.push_back({s.ticket, std::move(s.outcome)});
        s.state = Slot::State::kFree;
      }
    }
    if (then) then(std::move(outcome));
  }
  // Slots freed / cursor advanced: blocked Submit / Wait / Drain callers
  // re-evaluate.
  rt->NotifyClientProgress();
}

TxnOutcome Session::WaitTicket(uint64_t ticket) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t idx = SlotOfTicketLocked(ticket);
    if (idx != kNpos) slots_[idx].waited = true;
  }
  rt_->ClientWait([this, ticket] {
    std::lock_guard<std::mutex> lock(mu_);
    return ticket < next_deliver_;
  });
  TxnOutcome out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = ConsumeLocked(ticket);
  }
  rt_->NotifyClientProgress();  // consuming may have freed a window slot
  return out;
}

bool Session::ReadyTicket(uint64_t ticket) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ticket != 0 && ticket < next_deliver_;
}

void Session::ThenTicket(uint64_t ticket, std::function<void(TxnOutcome)> fn) {
  TxnOutcome out;
  bool run_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t idx = SlotOfTicketLocked(ticket);
    if (idx != kNpos && (slots_[idx].state == Slot::State::kInFlight ||
                         slots_[idx].state == Slot::State::kCompleted)) {
      slots_[idx].then = std::move(fn);
      slots_[idx].has_then = true;
    } else {
      // Already delivered (parked or retained) — consume and run inline.
      out = ConsumeLocked(ticket);
      run_now = true;
    }
  }
  if (run_now) {
    rt_->NotifyClientProgress();
    fn(std::move(out));
  } else {
    // Defensive: if the ticket became deliverable between completion and
    // the attach, make sure a deliverer runs.
    RunDeliveries();
  }
}

TxnOutcome Session::ConsumeLocked(uint64_t ticket) {
  size_t idx = SlotOfTicketLocked(ticket);
  if (idx != kNpos && slots_[idx].state == Slot::State::kDelivered) {
    TxnOutcome out = std::move(slots_[idx].outcome);
    slots_[idx].state = Slot::State::kFree;
    return out;
  }
  for (size_t i = 0; i < retained_.size(); ++i) {
    if (retained_[i].ticket == ticket) {
      TxnOutcome out = std::move(retained_[i].outcome);
      retained_[i] = std::move(retained_.back());
      retained_.pop_back();
      return out;
    }
  }
  TxnOutcome out;
  out.result = ProcResult(Status::Internal("session result already consumed"));
  return out;
}

TxnOutcome Session::Execute(ReactorId reactor, ProcId proc, Row args) {
  return Submit(reactor, proc, std::move(args)).Wait();
}

TxnOutcome Session::Execute(const std::string& reactor_name,
                            const std::string& proc_name, Row args) {
  return Submit(reactor_name, proc_name, std::move(args)).Wait();
}

void Session::Drain() {
  rt_->ClientWait([this] {
    std::lock_guard<std::mutex> lock(mu_);
    return InFlightLocked() == 0;
  });
}

size_t Session::outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return InFlightLocked();
}

SessionStats Session::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool SessionFuture::Ready() const {
  return session_ != nullptr && session_->ReadyTicket(ticket_);
}

TxnOutcome SessionFuture::Wait() {
  if (session_ == nullptr) {
    TxnOutcome out;
    out.result = ProcResult(Status::Internal("invalid session future"));
    return out;
  }
  return session_->WaitTicket(ticket_);
}

void SessionFuture::Then(std::function<void(TxnOutcome)> fn) {
  if (session_ == nullptr) return;
  session_->ThenTicket(ticket_, std::move(fn));
}

}  // namespace client
}  // namespace reactdb
