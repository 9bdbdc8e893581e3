// SimRuntime: ReactDB on a discrete-event simulated multi-core machine.
//
// Every transaction executor is a virtual core with its own request lanes
// and a busy-until horizon on a shared virtual clock. Application logic,
// storage operations, and concurrency control all execute for real — the
// simulator only accounts *time*: per-operation storage costs, explicit
// Compute() work, commit/2PC costs, and the asymmetric communication costs
// Cs (charged to the sender's segment) and Cr (charged when a parked
// coroutine is resumed by a remote fulfillment), matching the cost model of
// paper Section 2.4. Queueing delays and overload behavior emerge from the
// busy-until mechanics.
//
// This substitutes for the paper's 8- and 32-hardware-thread evaluation
// machines (see DESIGN.md Section 3); it is single-threaded and fully
// deterministic given workload seeds.

#ifndef REACTDB_RUNTIME_SIM_RUNTIME_H_
#define REACTDB_RUNTIME_SIM_RUNTIME_H_

#include <deque>

#include "src/runtime/runtime_base.h"
#include "src/sim/cost_params.h"
#include "src/sim/event_queue.h"

namespace reactdb {

class SimRuntime : public RuntimeBase {
 public:
  static constexpr uint32_t kNoExecutor = ~0u;

  explicit SimRuntime(CostParams params = CostParams());

  EventQueue& events() { return events_; }
  const CostParams& params() const { return params_; }

  /// Current virtual time, segment-aware: inside an executor segment this
  /// is segment start plus cost accumulated so far.
  double NowUs() const;

  /// Runs the simulation until no events remain.
  void RunAll() { events_.RunAll(); }

  // Blocking Execute lives on RuntimeBase (a single-slot client::Session):
  // it submits at the current virtual time, pumps the event queue until the
  // outcome arrives, and ClientSettle() drains the rest — the same trace as
  // the old submit-then-RunAll convenience.

  /// Charges `us` of a given kind to the current segment (public so the
  /// benchmark harness can model client-side work).
  void Charge(ChargeKind kind, double us);

  // --- Client blocking support ---------------------------------------------
  //
  // The simulator is single-threaded: a "blocked" client advances virtual
  // time by pumping the event queue until its predicate holds. Must only be
  // called from top-level client code, never from inside an event.
  void ClientWait(const std::function<bool()>& ready) override;
  void ClientSettle() override { events_.RunAll(); }
  double SessionNowUs() const override { return NowUs(); }

  /// Virtual-time delay: `fn` becomes an event `delay_us` ahead of the
  /// segment-aware now, so a ClientWait pump keeps advancing while session
  /// backoffs and FaultyLink holds are pending — and chaos runs replay
  /// deterministically, the hold being an ordinary queue event.
  void PostDelayed(double delay_us, std::function<void()> fn) override {
    events_.Schedule(NowUs() + delay_us, std::move(fn));
  }

  // --- CallBridge ----------------------------------------------------------
  void Compute(double micros) override { Charge(ChargeKind::kProc, micros); }
  void ChargeStorage(StorageOpKind kind, uint64_t n) override;

 protected:
  void PostReady(uint32_t executor, std::function<void()> task) override;
  /// Only DrainInbox posts roots, from inside the link's delivery event:
  /// enqueued directly (an extra event at the same virtual time would
  /// double-schedule the delivery).
  void PostRoot(uint32_t executor, std::function<void()> task) override;
  void OnRootRetired(uint32_t executor) override;
  void CreateExecutors() override;
  void ChargeCs() override { Charge(ChargeKind::kCs, params_.cs_us); }
  void ChargeCommitCost(RootTxn* root) override;
  /// has_work = a lane has an eligible task or a dispatch event is already
  /// in flight; heartbeats advance once per ProcessTask segment.
  void SampleExecutors(
      std::vector<obs::ExecutorHealthSample>* out) const override;

  // --- Transport (virtual-time integration) --------------------------------
  //
  // The simulator routes cross-container traffic through the same
  // mailbox/serialization path as the thread runtime, but each message is
  // sent eagerly (per-message costs are the SimLink's job, not a batching
  // boundary's) and deliveries are woven into the event queue so that zero
  // link costs add no virtual time:
  //  * requests/submits are delivered by a link event at the segment-aware
  //    send time and drained straight into the executor lanes;
  //  * responses are fulfilled at the send point inside the callee's
  //    segment (SimLink::Send delivers them inline), so the caller's resume
  //    is scheduled at that same virtual time (and pays Cr).
  std::unique_ptr<transport::Link> MakeLink() override;
  void PostEnvelope(uint32_t src_lane, transport::Envelope e) override;
  void OnInboxReady(uint32_t container) override { DrainInbox(container); }
  void DeliverReady(uint32_t executor, std::function<void()> task) override;

  // --- Durability (virtual-time integration) --------------------------------
  //
  // The log writer is a simulated device: a kick (commit, bulk load,
  // WaitDurable) schedules at most one flush event
  // DurabilityOptions::flush_interval_us of virtual time ahead — the
  // group-commit window. The event performs the real file I/O, then the
  // durable-epoch watermark publishes only after CostParams::log_fsync_us /
  // log_per_byte_us of virtual device time — zero by default, so enabling
  // durability with zero costs leaves every calibrated trace unchanged
  // (and with durability off, no event is ever scheduled).
  void KickDurability(bool force = false) override;

 private:
  struct SimTask {
    std::function<void()> fn;
    bool charge_cr = false;
    /// Frame the Cr charge is attributed to (remote wakeups).
    void* cr_frame = nullptr;
  };

  struct SimExecutor : ExecutorInfo {
    std::deque<SimTask> ready;
    std::deque<SimTask> admission;
    int active_roots = 0;
    bool dispatch_scheduled = false;
    double busy_until = 0;
    double busy_total = 0;  // for utilization reporting
    ResumeHook hook;
  };

  /// Delivers a task to an executor's ready lane at the current
  /// (segment-aware) virtual time.
  void Deliver(uint32_t executor, SimTask task);
  bool HasEligible(const SimExecutor& exec) const;
  void TryDispatch(uint32_t executor);
  void Dispatch(uint32_t executor);
  void ProcessTask(SimExecutor* exec, SimTask task);

 public:
  /// Fraction of virtual time executor `id` was busy in [from_us, now].
  double Utilization(uint32_t id, double from_us) const;

  /// Cumulative busy time of executor `id` since construction (harness
  /// computes utilization over a window from deltas).
  double BusyTotalUs(uint32_t id) const { return sim_execs_[id]->busy_total; }

 private:
  void RunDurabilityFlush();

  CostParams params_;
  EventQueue events_;
  std::vector<std::unique_ptr<SimExecutor>> sim_execs_;
  bool durability_flush_scheduled_ = false;

  // Segment state (single-threaded simulation).
  uint32_t current_executor_ = kNoExecutor;
  double segment_start_ = 0;
  double segment_cost_ = 0;
};

}  // namespace reactdb

#endif  // REACTDB_RUNTIME_SIM_RUNTIME_H_
