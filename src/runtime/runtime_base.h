// RuntimeBase: shared machinery of both ReactDB runtimes.
//
// Implements everything that does not depend on how time passes:
//  * bootstrap (containers, catalogs, reactor placement, table binding),
//  * the Call semantics of the programming model — direct self-calls are
//    inlined into the caller's frame; same-container calls run
//    synchronously on the caller's executor; cross-container calls are
//    dispatched through the transport to the target reactor's home
//    executor (paper Sections 2.2.4 and 3.2),
//  * the dynamic active-set safety condition,
//  * frame completion propagation (a (sub-)transaction completes only when
//    all nested sub-transactions complete) and root finalization
//    (single-container Silo commit, or 2PC-structured multi-container
//    commit).
//
// Subclasses (ThreadRuntime, SimRuntime) provide scheduling: how tasks are
// posted to executors and how costs are charged.

#ifndef REACTDB_RUNTIME_RUNTIME_BASE_H_
#define REACTDB_RUNTIME_RUNTIME_BASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/obs/flight.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/reactor/context.h"
#include "src/reactor/frame.h"
#include "src/reactor/reactor.h"
#include "src/runtime/deployment.h"
#include "src/storage/catalog.h"
#include "src/transport/transport.h"
#include "src/txn/epoch.h"

namespace reactdb {

namespace log {
class DurabilityManager;
struct DurabilityOptions;
}  // namespace log

namespace fault {
class FaultInjector;
}  // namespace fault

namespace audit {
class OnlineAuditor;
struct OnlineAuditorOptions;
struct AuditorStatus;
}  // namespace audit

/// Cost categories for simulated-time charging and Fig. 6 style profiling.
enum class ChargeKind : uint8_t { kProc, kCs, kCr, kCommit, kInputGen };

/// Operational-plane configuration (Database::Options::monitor): the
/// periodic sampler, its time-series windows, and the health watchdog.
/// The flight recorder is always on (it is passive until events happen);
/// sampling and health evaluation run only when `enabled`.
struct MonitorOptions {
  bool enabled = false;
  /// Sampling cadence on the session clock (virtual microseconds under
  /// SimRuntime — deterministic; steady-clock microseconds under
  /// ThreadRuntime).
  uint64_t sample_interval_us = 100000;
  /// Points retained per metric time series.
  size_t window = 64;
  obs::HealthOptions health;
  /// Flight-recorder ring capacity (events per ring).
  size_t flight_ring = 256;
};

/// Per-submission options of the handle-path Submit overload.
struct SubmitOptions {
  /// Absolute end-to-end deadline on the session clock (SessionNowUs:
  /// virtual microseconds under SimRuntime, steady-clock microseconds
  /// under ThreadRuntime); 0 = none. The budget is checked at the
  /// dispatch, call, and validate boundaries and inherited by every
  /// cross-container sub-transaction; expiry aborts the root with
  /// kDeadlineExceeded (rolled back like any abort — no partial effects).
  double deadline_us = 0;
  /// Skips the overload-shedding watermarks: admission control sheds *new*
  /// work only — session retries of already-admitted transactions (and
  /// everything in flight) keep running.
  bool bypass_admission = false;
};

/// Dense handles of the runtime-registered metrics (see RegisterMetrics in
/// runtime_base.cc for the registration and the ROADMAP "Observability"
/// section for the naming scheme). Exposed so sessions and tests update /
/// assert against the same interned ids the hot path uses.
struct RuntimeMetricIds {
  obs::MetricId txn_committed;       // reactdb_txn_committed_total
  obs::MetricId txn_aborted;         // reactdb_txn_aborted_total{reason=...}
                                     //   members: 0=cc, 1=user, 2=safety,
                                     //   3=deadline
  obs::MetricId txn_shed;            // reactdb_txn_shed_total
  obs::MetricId txn_multi_container; // reactdb_txn_multi_container_total
  obs::MetricId txn_latency_us;      // reactdb_txn_latency_us (histogram)
  obs::MetricId arena_reserved;      // reactdb_arena_reserved_bytes (max)
  obs::MetricId arena_used_hw;       // reactdb_arena_used_bytes_hw (max)
  obs::MetricId session_inflight;    // reactdb_session_inflight (gauge)
  obs::MetricId session_submitted;   // reactdb_session_submitted_total
  obs::MetricId session_retried;     // reactdb_session_retried_total
  obs::MetricId session_overloaded;  // reactdb_session_overloaded_total
  obs::MetricId session_durable_waits;  // reactdb_session_durable_waits_total
};

class RuntimeBase : public CallBridge {
 public:
  // Out of line: inline special members would instantiate the destructor
  // of the forward-declared audit::OnlineAuditor member.
  RuntimeBase();
  ~RuntimeBase() override;

  RuntimeBase(const RuntimeBase&) = delete;
  RuntimeBase& operator=(const RuntimeBase&) = delete;

  /// Creates containers, catalogs, executors, and reactor placements.
  /// `def` must outlive the runtime.
  Status Bootstrap(const ReactorDatabaseDef* def, const DeploymentConfig& dc);

  /// Submits a root transaction. `done` is invoked exactly once with the
  /// procedure result (on commit) or the abort status. Non-blocking.
  /// The handle overload is the hot path; the name overload resolves once
  /// and delegates. When the deployment's shed watermarks are set (or an
  /// "admission.reject" fault fires), an over-watermark submission is
  /// refused fast with kOverloaded before any root state is allocated.
  Status Submit(ReactorId reactor, ProcId proc, Row args,
                const SubmitOptions& options,
                std::function<void(ProcResult, const RootTxn&)> done);
  Status Submit(ReactorId reactor, ProcId proc, Row args,
                std::function<void(ProcResult, const RootTxn&)> done) {
    return Submit(reactor, proc, std::move(args), SubmitOptions{},
                  std::move(done));
  }
  Status Submit(const std::string& reactor_name, const std::string& proc_name,
                Row args, std::function<void(ProcResult, const RootTxn&)> done);

  /// Runs `fn` as a direct single-threaded transaction against the storage
  /// layer (bulk loading, invariant inspection in tests). Commits on OK.
  Status RunDirect(const std::function<Status(SiloTxn&)>& fn);

  /// Blocking convenience: submits and waits for the outcome — a
  /// single-slot client::Session (src/client/session.h), which is where the
  /// shared implementation lives. Must not be called from an executor
  /// thread. The handle overload dispatches without any string lookup; the
  /// name overload resolves once and delegates.
  ProcResult Execute(ReactorId reactor, ProcId proc, Row args);
  ProcResult Execute(const std::string& reactor_name,
                     const std::string& proc_name, Row args);

  // --- Client blocking support (sessions, Execute) --------------------------

  /// Blocks the calling client thread until `ready()` returns true.
  /// `ready` may take locks but must not block; it is re-evaluated after
  /// every completion. ThreadRuntime parks the caller on a client condition
  /// variable kicked by NotifyClientProgress; SimRuntime pumps the event
  /// queue (single-threaded virtual time — "blocking" means advancing the
  /// simulation).
  virtual void ClientWait(const std::function<bool()>& ready) = 0;
  /// Wakes blocked ClientWait callers. Invoked after every root
  /// finalization and by sessions after delivering completions. No-op where
  /// ClientWait is a pump (SimRuntime).
  virtual void NotifyClientProgress() {}
  /// Called by Execute after its outcome arrived: lets SimRuntime drain the
  /// remaining events of the quiesced simulation so back-to-back Execute
  /// calls observe the same virtual-time trace as the pre-session
  /// `ExecuteVia(RunAll)` implementation did.
  virtual void ClientSettle() {}
  /// Session clock in microseconds: virtual time under SimRuntime, steady
  /// real time under ThreadRuntime. Used for session latency telemetry,
  /// transaction deadlines, and retry backoff.
  virtual double SessionNowUs() const = 0;
  /// Runs `fn` once after `delay_us` on the session clock, off-executor.
  /// SimRuntime schedules a virtual-time event (keeping ClientWait's pump
  /// alive while a backoff is pending); ThreadRuntime uses its timer
  /// thread. The base default runs `fn` inline (no delay) so runtimes
  /// without a timer still make progress. Used by session retry backoff
  /// and the fault-injection link decorator.
  virtual void PostDelayed(double delay_us, std::function<void()> fn) {
    (void)delay_us;
    fn();
  }
  /// False once the runtime stopped accepting work (after
  /// ThreadRuntime::Stop / Database::Shutdown): Submit fails fast with
  /// Unavailable instead of queueing work nobody will run, so session
  /// futures resolve deterministically.
  bool AcceptingSubmits() const {
    return accepting_.load(std::memory_order_seq_cst);
  }
  /// Refuses new submissions (teardown; re-armed by ThreadRuntime::Start).
  /// seq_cst pairs with Submit's counter-then-flag sequence so Stop's
  /// drain cannot miss a submission that passed the accepting check.
  void StopAccepting() { accepting_.store(false, std::memory_order_seq_cst); }

  /// Roots submitted and not yet finalized (drained by ThreadRuntime::Stop
  /// for deterministic teardown).
  uint64_t outstanding_roots() const {
    return submitted_roots_.load(std::memory_order_seq_cst) -
           finalized_roots_.load(std::memory_order_seq_cst);
  }

  // --- One-time handle resolution (client load time) ------------------------

  /// Interned handle of a declared reactor; invalid when unknown.
  ReactorId ResolveReactor(const std::string& reactor_name) const override;
  /// Interned handle of a procedure of `reactor`'s type; invalid when
  /// unknown (or when the reactor handle itself is invalid).
  ProcId ResolveProc(ReactorId reactor,
                     const std::string& proc_name) const override;
  /// Interned slot of a relation of `reactor`'s type; invalid when unknown.
  TableSlot ResolveTable(ReactorId reactor,
                         const std::string& table_name) const;

  Reactor* FindReactor(ReactorId id) const {
    return id.value < reactors_.size() ? reactors_[id.value].get() : nullptr;
  }
  Reactor* FindReactor(const std::string& name) const;
  /// The reactor's relation inside its container's catalog.
  StatusOr<Table*> FindTable(ReactorId reactor, TableSlot slot) const;
  StatusOr<Table*> FindTable(const std::string& reactor_name,
                             const std::string& table_name) const;

  // --- Durability (src/log/) ------------------------------------------------

  /// Creates the durability subsystem (epoch group-commit logging to
  /// DurabilityOptions::data_dir) and scans existing on-disk state. Call
  /// after Bootstrap and before any transaction; Database::Open orchestrates
  /// the full sequence (recovery replay, fresh segments, writers).
  Status EnableDurability(const log::DurabilityOptions& options);
  /// Null when durability is off (the default).
  log::DurabilityManager* durability() const { return durability_.get(); }
  /// Blocks until the durable epoch reaches `epoch` (group-commit wait) or
  /// the durability subsystem halted; returns the final durable epoch.
  /// 0 and a no-op when durability is off.
  uint64_t WaitDurable(uint64_t epoch);

  // --- Isolation auditing (src/audit/) --------------------------------------

  /// Turns on isolation-audit mode: every logged transaction appends a
  /// kTxnAudit read-set digest next to its redo records, and a trailing
  /// online auditor re-checks serializability as the durable epoch
  /// advances (see ROADMAP "Isolation auditing"). Requires durability;
  /// call after EnableDurability and before the writers start.
  Status EnableAudit(const audit::OnlineAuditorOptions& options);
  /// Null unless EnableAudit ran.
  audit::OnlineAuditor* auditor() const { return auditor_.get(); }

  // --- Fault injection (src/fault/) -----------------------------------------

  /// Installs a deterministic fault plan. Call before Bootstrap; the
  /// injector must outlive the runtime. With `wrap_link` the transport's
  /// link is decorated with a FaultyLink (drop/delay/dup/reorder) using
  /// the given magnitudes; installing any injector also turns on
  /// receiver-side wire-id dedup (duplicate deliveries are dropped before
  /// their continuation state is touched) and "admission.reject" draws in
  /// Submit.
  void InstallFaultInjector(fault::FaultInjector* injector, bool wrap_link,
                            double retransmit_delay_us, double max_delay_us);
  /// Null unless a fault plan is installed.
  fault::FaultInjector* fault_injector() const { return fault_injector_; }

  // --- Observability (src/obs/) ---------------------------------------------

  /// The system-wide metrics registry: registered and frozen at Bootstrap,
  /// updated from every layer (see ROADMAP "Observability" for the metric
  /// list and naming scheme).
  obs::MetricsRegistry* metrics() { return &metrics_; }
  const RuntimeMetricIds& metric_ids() const { return metric_ids_; }
  /// Consistent point-in-time snapshot: sums every sharded metric over its
  /// executor shards and runs the snapshot-time collectors (transport
  /// mailbox depths, epoch age, durability watermarks, per-proc outcomes).
  /// Dump with StatsSnapshot::ToPrometheus() / ToJson().
  obs::StatsSnapshot Stats() const { return metrics_.Collect(); }

  /// Opt-in per-transaction tracing. Call after Bootstrap and before any
  /// transaction; with tracing off (the default) the per-root cost is one
  /// null test and the simulator's virtual-time traces are untouched.
  Status EnableTracing(const obs::TraceOptions& options);
  /// Never null after Bootstrap; disabled store unless EnableTracing ran.
  obs::TraceStore* tracer() const { return tracer_.get(); }

  /// Turns on the operational plane: the time-series store and the health
  /// watchdog (see ROADMAP "Operational plane"). Call after Bootstrap,
  /// EnableDurability, and EnableAudit; the sampler *driver* — a real
  /// thread under ThreadRuntime, the EventQueue ticker under SimRuntime —
  /// is installed by Database::Open and calls MonitorTick per interval.
  Status EnableMonitoring(const MonitorOptions& options);
  /// One monitor sample: registry snapshot → time-series fold → health
  /// evaluation → flight event + auto dump on a transition to kUnhealthy.
  /// No-op unless EnableMonitoring ran. Single sampler context only.
  void MonitorTick();
  /// Null unless EnableMonitoring ran.
  obs::TimeSeriesStore* series() const { return series_.get(); }
  obs::HealthMonitor* health() const { return health_.get(); }
  /// Never null after Bootstrap (the black box is always armed).
  obs::FlightRecorder* flight() const { return flight_.get(); }
  const MonitorOptions& monitor_options() const { return monitor_options_; }

  EpochManager* epochs() { return &epochs_; }
  const DeploymentConfig& deployment() const { return dc_; }
  /// Never null after Bootstrap.
  const transport::Transport* transport() const { return transport_.get(); }
  size_t num_reactors() const { return reactors_.size(); }
  uint32_t HomeExecutorOf(ReactorId reactor) const;
  uint32_t HomeExecutorOf(const std::string& reactor_name) const;

  // --- CallBridge ----------------------------------------------------------
  Future Call(TxnFrame* caller, ReactorId reactor, ProcId proc,
              Row args) override;

 protected:
  struct ExecutorInfo {
    uint32_t id = 0;
    uint32_t container = 0;
    TidSource tids;
    size_t epoch_slot = 0;
    std::atomic<int> open_frames{0};
    /// Liveness heartbeat: bumped (single-writer, relaxed) by every pump
    /// iteration of the owning executor — ThreadRuntime's ExecutorLoop,
    /// SimRuntime's ProcessTask. The health watchdog reads it per sample;
    /// a frozen value with work pending means a stalled executor.
    std::atomic<uint64_t> heartbeat{0};
    /// Transaction arenas owned by this executor: one is bound to each root
    /// it starts and reclaimed when that root finalizes (both on this
    /// executor, so the pool needs no locking). See ROADMAP "Allocation
    /// discipline".
    ArenaPool arenas;
  };

  // --- Scheduling primitives (subclass-provided) ----------------------------

  /// Posts to the executor's ready lane (resumes, sub-transaction arrivals,
  /// finalization) — always processed.
  virtual void PostReady(uint32_t executor, std::function<void()> task) = 0;
  /// Posts to the admission lane (new root transactions) — processed only
  /// while the executor is below its MPL. Called by DrainInbox when a
  /// SubmitRequest arrives; SimRuntime enqueues directly (the link event
  /// is the delivery).
  virtual void PostRoot(uint32_t executor, std::function<void()> task) = 0;
  /// MPL bookkeeping after a root retires on `executor`.
  virtual void OnRootRetired(uint32_t executor) = 0;
  /// Creates the concrete executors and registers their ExecutorInfo via
  /// RegisterExecutor.
  virtual void CreateExecutors() = 0;

  // --- Cost hooks (no-ops in the thread runtime) ----------------------------

  virtual void ChargeCs() {}
  virtual void ChargeCommitCost(RootTxn* root) { (void)root; }

  // --- Transport hooks ------------------------------------------------------

  /// Sender lane id of client threads (no batch buffer; sends flush
  /// immediately).
  static constexpr uint32_t kClientLane = 0xffffffffu;

  /// Creates the link the transport sends through. Default: in-process
  /// loopback. SimRuntime substitutes the latency-modeling SimLink.
  virtual std::unique_ptr<transport::Link> MakeLink();
  /// Hands an outgoing envelope to the transport. Default: batch on the
  /// sending executor's lane (flushed at its next scheduling boundary),
  /// immediate for client-lane sends. SimRuntime sends eagerly and tags
  /// envelopes for the SimLink's synchronous-delivery rule.
  virtual void PostEnvelope(uint32_t src_lane, transport::Envelope e);
  /// Signaled when a container's inbox became non-empty. Default: schedule
  /// a drain pump on the container's first executor (at most one in
  /// flight). SimRuntime drains inline — link events already run at the
  /// right virtual time.
  virtual void OnInboxReady(uint32_t container);
  /// Dispatches a decoded sub-transaction arrival to an executor. Default
  /// posts through the ready lane; SimRuntime enqueues directly to avoid
  /// double-scheduling (the link event is the delivery).
  virtual void DeliverReady(uint32_t executor, std::function<void()> task) {
    PostReady(executor, std::move(task));
  }
  /// Nudges the durability writers after work was logged (a commit, a
  /// direct bulk load). ThreadRuntime wakes the per-container writer
  /// threads; SimRuntime schedules a flush event on the virtual clock.
  /// `force` requests a flush even with auto_flush off (WaitDurable,
  /// checkpoint fences).
  virtual void KickDurability(bool force = false);

  /// Fills one liveness sample per executor for the health watchdog:
  /// its heartbeat counter and whether it had runnable work at sample
  /// time. The base fills heartbeats with has_work=false; the runtimes
  /// override to consult their queues.
  virtual void SampleExecutors(
      std::vector<obs::ExecutorHealthSample>* out) const;

  /// Decodes and dispatches every queued envelope of `container`. Must run
  /// on the container's drain context (single consumer per mailbox).
  void DrainInbox(uint32_t container);
  /// Frees the in-process state of undelivered envelopes (teardown).
  void DiscardInflightTransport();

  // --- Shared logic ---------------------------------------------------------

  void RegisterExecutor(ExecutorInfo* info);
  ExecutorInfo* executor_info(uint32_t id) { return executors_[id]; }
  size_t num_executors() const { return executors_.size(); }

  void StartRoot(RootTxn* root, Reactor* reactor, const ProcFn* fn,
                 uint32_t executor, Row args);
  void StartFrameCoroutine(TxnFrame* frame, const ProcFn* fn, Row args);
  void OnProcBodyFinished(TxnFrame* frame);
  void OnFramePartDone(TxnFrame* frame);
  void FinalizeRoot(TxnFrame* root_frame);
  /// Resumes `h` with the execution-context TLS pointing at `frame`.
  void RunCoroutine(TxnFrame* frame, std::coroutine_handle<> h);

  uint32_t RouteRoot(Reactor* reactor);
  /// Pins the executor's epoch slot while it has open frames.
  void PinExecutor(uint32_t executor);
  void UnpinExecutor(uint32_t executor);

  const ReactorDatabaseDef* def_ = nullptr;
  DeploymentConfig dc_;
  EpochManager epochs_;
  std::vector<std::unique_ptr<Catalog>> catalogs_;
  /// Reactor registry, indexed by ReactorId (home executor routing lives on
  /// the Reactor itself) — no string-keyed lookups on the dispatch path.
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::vector<ExecutorInfo*> executors_;  // owned by subclass
  /// Inter-container message transport, the only way a root submission or a
  /// cross-container call leaves its container. Created at Bootstrap with
  /// MakeLink().
  std::unique_ptr<transport::Transport> transport_;
  /// Per-container "drain pump scheduled" flags for the default
  /// OnInboxReady (coalesces wakeups to one pending pump per container).
  std::vector<std::unique_ptr<std::atomic<bool>>> drain_scheduled_;
  std::atomic<uint64_t> next_call_id_{1};
  std::atomic<uint64_t> next_root_id_{1};
  std::atomic<uint64_t> rr_counter_{0};
  std::atomic<uint64_t> submitted_roots_{0};
  std::atomic<uint64_t> finalized_roots_{0};
  std::atomic<bool> accepting_{true};
  /// Fault plan (null = no injection anywhere on the hot path).
  fault::FaultInjector* fault_injector_ = nullptr;
  bool fault_wrap_link_ = false;
  double fault_retransmit_delay_us_ = 50;
  double fault_max_delay_us_ = 200;
  /// Receiver-side duplicate suppression, active only with a fault plan
  /// installed: wire keys of delivered kSubmit/kCall/kResponse messages.
  std::mutex dedup_mu_;
  std::unordered_set<uint64_t> delivered_wire_keys_;
  TidSource direct_tids_;  // for RunDirect (bootstrap loading)
  /// Epoch group-commit logging; null when durability is off.
  std::unique_ptr<log::DurabilityManager> durability_;
  /// Trailing serializability auditor; null unless EnableAudit ran.
  /// Declared after durability_ so it is destroyed first (it unhooks its
  /// frame tee and durable listener from the manager).
  std::unique_ptr<audit::OnlineAuditor> auditor_;
  /// When set, StartRoot/RunDirect switch every logged transaction into
  /// audit-capture mode (read-set digests appended at commit).
  bool audit_capture_ = false;
  /// RunDirect transactions log through the manager's direct shard while
  /// holding this mutex and pinning this epoch slot (so the group-commit
  /// seal covers them like executor commits).
  std::mutex direct_mu_;
  size_t direct_epoch_slot_ = 0;

  // --- Observability state --------------------------------------------------
  /// Registers every runtime metric (RuntimeMetricIds), initializes the
  /// per-(reactor, proc) outcome table, installs the snapshot-time sample
  /// collectors, and freezes the registry with one shard per executor.
  /// Runs at the end of Bootstrap.
  void RegisterMetrics();
  /// The snapshot-time collector: samples subsystems that keep their own
  /// atomic stats (transport + mailboxes, epochs, durability watermarks,
  /// per-(reactor, proc) outcomes). Runs only inside Stats().
  void CollectRuntimeSamples(std::vector<obs::MetricSample>* out) const;

  obs::MetricsRegistry metrics_;
  RuntimeMetricIds metric_ids_;
  obs::ProcOutcomeTable proc_outcomes_;
  /// Constructed (disabled) at Bootstrap; EnableTracing swaps in an enabled
  /// store. Executors only ever see it through root->trace null tests.
  std::unique_ptr<obs::TraceStore> tracer_;

  // --- Operational plane (see ROADMAP "Operational plane") ------------------
  /// Always-on black box, constructed at Bootstrap; every emitter
  /// (durability, faults, traces, epoch advances, sheds) records into it.
  std::unique_ptr<obs::FlightRecorder> flight_;
  /// Null unless EnableMonitoring ran.
  std::unique_ptr<obs::TimeSeriesStore> series_;
  std::unique_ptr<obs::HealthMonitor> health_;
  MonitorOptions monitor_options_;
  /// Session time of the last epoch advance (for the stuck-epoch rule).
  std::atomic<uint64_t> last_epoch_advance_us_{0};
};

}  // namespace reactdb

#endif  // REACTDB_RUNTIME_RUNTIME_BASE_H_
