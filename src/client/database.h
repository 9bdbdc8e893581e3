// Database: the runtime-agnostic client facade.
//
// Erases the ThreadRuntime/SimRuntime split behind one handle so examples,
// tests, and benches are written once and run on OS threads or on the
// discrete-event simulator by flipping an Options field:
//
//   client::Database db;
//   REACTDB_CHECK_OK(db.Open(&def, DeploymentConfig::SharedNothing(4)));
//   auto session = db.CreateSession({.max_outstanding = 8});
//   auto f = session->Submit(reactor, proc, args);
//   ...
//   db.Shutdown();   // drains outstanding work deterministically
//
// Open() bootstraps (and, for the thread runtime, starts executors and the
// epoch ticker); Shutdown() drains every outstanding root before stopping —
// no session future is left pending, no completion callback leaks.

#ifndef REACTDB_CLIENT_DATABASE_H_
#define REACTDB_CLIENT_DATABASE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/audit/online_auditor.h"
#include "src/client/session.h"
#include "src/fault/fault.h"
#include "src/log/checkpoint.h"
#include "src/log/durability.h"
#include "src/log/recovery.h"
#include "src/obs/exporter.h"
#include "src/runtime/sim_runtime.h"
#include "src/runtime/thread_runtime.h"

namespace reactdb {
namespace client {

class Database {
 public:
  enum class Mode {
    kThreads,  // ThreadRuntime: one OS thread per transaction executor
    kSim,      // SimRuntime: deterministic discrete-event virtual time
  };

  struct Options {
    Mode mode = Mode::kThreads;
    /// Cost calibration, kSim only.
    CostParams sim_params;
    /// Epoch ticker cadence, kThreads only.
    uint64_t epoch_tick_ms = 10;
    /// Durability root. Empty (default) = fully volatile, exactly the
    /// pre-durability behavior. Non-empty enables epoch group-commit
    /// logging to <data_dir>/log and checkpoints to <data_dir>/ckpt_*;
    /// Open() then detects existing state and recovers it (load the latest
    /// checkpoint, replay the log to the durable epoch, rebuild secondary
    /// indexes, re-seed the epoch clock) before accepting transactions —
    /// check recovered() to know whether to bulk-load initial data. Open
    /// surfaces corrupt segments/checkpoints as StatusCode::kIOError.
    std::string data_dir;
    /// Group-commit cadence: writer-thread wakeup interval (real us,
    /// kThreads) or kick-to-flush delay (virtual us, kSim). This is the
    /// latency a wait_durable session pays.
    double log_flush_interval_us = 2000;
    /// Test hook (see log::DurabilityOptions::auto_flush): false = flush
    /// only on WaitDurable/Checkpoint/Shutdown, which makes "crash before
    /// fsync" deterministic in the recovery tests.
    bool log_auto_flush = true;
    /// Per-transaction tracing (src/obs/trace.h). Disabled by default:
    /// tracing off costs one null test per root and leaves the simulator's
    /// virtual-time traces bit-identical. Set `trace.enabled` (and a
    /// `trace.slow_threshold_us`) to record lifecycle spans — submit,
    /// dispatch, per-subtxn call/response, validate, install/abort,
    /// log-append, finalize, durable — into per-executor rings; slow
    /// transactions are promoted into a retained ring dumpable as JSON via
    /// DumpTraces().
    obs::TraceOptions trace;
    /// Isolation-audit mode (src/audit/; requires data_dir). Every logged
    /// transaction appends a checksummed read-set digest (kTxnAudit) next
    /// to its redo records, and a trailing online auditor rebuilds the
    /// direct serialization graph epoch by epoch as the durable horizon
    /// advances, latching any serializability violation into
    /// AuditStatus()/Stats() (reactdb_audit_* metrics). The same log is
    /// independently checkable offline with the reactdb_audit tool. Digest
    /// capture stays on the transaction arena — the warmed logged hot path
    /// remains allocation-free (alloc_test; cost in bench_overhead).
    bool audit = false;
    /// Version-history window (epochs) retained by the online auditor;
    /// 0 = unbounded (memory grows with history — test use only).
    uint64_t audit_window_epochs = 8;
    /// Seeded deterministic fault injection (src/fault/): link-level
    /// perturbation (drop-as-retransmit, delay, duplicate, reorder),
    /// file-op faults in the log writer and checkpointing (failed fsync,
    /// short write, ENOSPC — latched exactly like a real device error),
    /// and admission-level rejection bursts. Off by default; with
    /// `fault.enabled` every fault draw comes from per-site RNGs seeded
    /// from `fault.seed`, so a kSim chaos run replays byte-identically.
    fault::FaultOptions fault;
    /// Operational plane (src/obs/, ROADMAP "Operational plane"): the
    /// periodic sampler that folds metric snapshots into bounded
    /// time-series windows (Series()) and drives the health watchdog
    /// (Health()). Off by default — with `monitor.enabled` false no
    /// sampler runs, no ticker is installed, and the simulator's
    /// calibrated virtual-time traces stay byte-identical. Under kSim the
    /// sampler is an EventQueue ticker on virtual time (two same-seed runs
    /// produce identical sample timelines); under kThreads it is a real
    /// thread on the steady clock. The flight recorder is always armed
    /// regardless (DumpFlight()).
    MonitorOptions monitor;
    /// Live HTTP exposition, kThreads only (the simulator has no wall
    /// clock to serve on; non-zero under kSim warns and is ignored).
    /// Non-zero binds 127.0.0.1:<port> and serves GET /metrics
    /// (Prometheus text), /healthz (200 iff healthy, else 503 + reasons),
    /// /vars, /series, /traces, /flight. 0 (the default) means off — use
    /// HttpExporter directly for an ephemeral-port server.
    uint16_t exporter_port = 0;
  };

  static Options Threads() { return Options{}; }
  static Options Sim(CostParams params = CostParams()) {
    Options o;
    o.mode = Mode::kSim;
    o.sim_params = params;
    return o;
  }

  Database() = default;
  ~Database() { Shutdown(); }

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates the runtime, bootstraps the deployment, and (thread mode)
  /// starts the executors. `def` must outlive the database.
  Status Open(const ReactorDatabaseDef* def, const DeploymentConfig& dc,
              Options options);
  Status Open(const ReactorDatabaseDef* def, const DeploymentConfig& dc) {
    return Open(def, dc, Options());
  }

  /// Deterministic teardown: drains every outstanding root (thread mode
  /// stops executors afterwards; sim mode runs the event queue to
  /// quiescence). The runtime object stays alive — sessions created from
  /// this database remain safe to drain/consume after Shutdown, and new
  /// submissions fail fast with Unavailable instead of hanging. Idempotent.
  void Shutdown();

  bool is_open() const { return rt_ != nullptr && !closed_; }

  // --- Durability (only meaningful when Options::data_dir was set) ----------

  /// True when Open() found persistent state and recovered it (the caller
  /// must not bulk-load initial data again).
  bool recovered() const { return recovery_.recovered; }
  /// Details of what recovery replayed.
  const log::RecoveryResult& recovery() const { return recovery_; }
  /// Current durable epoch: every commit whose TID epoch is at or below
  /// this survives a crash. 0 when durability is off.
  uint64_t durable_epoch() const {
    auto* d = rt_ == nullptr ? nullptr : rt_->durability();
    return d == nullptr ? 0 : d->durable_epoch();
  }
  /// Blocks until the durable epoch reaches `epoch` (0 = everything
  /// committed so far); returns the final durable epoch.
  uint64_t WaitDurable(uint64_t epoch = 0);
  /// Writes an epoch-consistent checkpoint of every table and truncates
  /// the log segments it covers. Call from client context.
  Status Checkpoint(log::CheckpointResult* result = nullptr);
  /// Simulates a machine crash for recovery testing: unflushed log buffers
  /// are dropped, files close as-is (possibly mid-frame), the durable
  /// watermark freezes, and the runtime then shuts down. State on disk is
  /// exactly what a kill at this moment would leave.
  void CrashForTest();
  log::DurabilityManager* durability() const {
    return rt_ == nullptr ? nullptr : rt_->durability();
  }

  // --- Isolation auditing (only with Options::audit) ------------------------

  /// Point-in-time status of the trailing online auditor: records and
  /// frames consumed, audited vs durable epoch (lag), and the latched
  /// violation flag with the first violation formatted. Default-constructed
  /// zeros when audit mode is off.
  audit::AuditorStatus AuditStatus() const;
  /// Null unless Options::audit was set.
  audit::OnlineAuditor* auditor() const {
    return rt_ == nullptr ? nullptr : rt_->auditor();
  }

  /// Opens a pipelined client session. The session must not outlive the
  /// database (Shutdown drains it first — destroy sessions before calling
  /// Shutdown, or let ~Database handle both in order).
  std::unique_ptr<Session> CreateSession(
      SessionOptions options = SessionOptions()) {
    return std::make_unique<Session>(rt_.get(), options);
  }

  // --- Blocking conveniences (single-slot session) --------------------------
  ProcResult Execute(ReactorId reactor, ProcId proc, Row args) {
    return rt_->Execute(reactor, proc, std::move(args));
  }
  ProcResult Execute(const std::string& reactor_name,
                     const std::string& proc_name, Row args) {
    return rt_->Execute(reactor_name, proc_name, std::move(args));
  }

  // --- Pass-throughs --------------------------------------------------------
  Status RunDirect(const std::function<Status(SiloTxn&)>& fn) {
    return rt_->RunDirect(fn);
  }
  ReactorId ResolveReactor(const std::string& name) const {
    return rt_->ResolveReactor(name);
  }
  ProcId ResolveProc(ReactorId reactor, const std::string& proc) const {
    return rt_->ResolveProc(reactor, proc);
  }
  TableSlot ResolveTable(ReactorId reactor, const std::string& table) const {
    return rt_->ResolveTable(reactor, table);
  }
  Reactor* FindReactor(const std::string& name) const {
    return rt_->FindReactor(name);
  }
  StatusOr<Table*> FindTable(const std::string& reactor_name,
                             const std::string& table_name) const {
    return rt_->FindTable(reactor_name, table_name);
  }

  // --- Observability (src/obs/) ---------------------------------------------

  /// Consistent point-in-time snapshot of every metric: sharded hot-path
  /// counters/gauges/histograms summed over their executor shards, plus
  /// snapshot-time samples (transport mailbox depths, epoch age, durable
  /// lag, per-procedure outcomes). Serialize with
  /// StatsSnapshot::ToPrometheus() (exposition text) or ToJson(); query
  /// with Find()/Value(). Cheap enough for periodic scraping — it never
  /// blocks transaction execution.
  obs::StatsSnapshot Stats() const { return rt_->Stats(); }
  /// The trace store (never null while open; disabled unless
  /// Options::trace.enabled was set).
  obs::TraceStore* tracer() const { return rt_->tracer(); }
  /// Retained (slow) and recent traces as JSON; "{}"-ish empty dump when
  /// tracing is off.
  std::string DumpTraces() const { return rt_->tracer()->DumpJson(); }

  // --- Operational plane (Options::monitor / exporter_port) -----------------

  /// Metric time-series windows as JSON: per-series point rings (value +
  /// rate) and rolling histogram windows, one point per
  /// monitor.sample_interval_us. "{}" when monitoring is off.
  std::string Series() const;
  /// Latest health-watchdog verdict (state, active rule violations with
  /// reasons, transition count). A default kOk report when monitoring is
  /// off — the watchdog only evaluates on sampler ticks.
  obs::HealthReport Health() const;
  /// Flight-recorder ("black box") dump: every retained system event —
  /// epoch advances, durable watermark moves, checkpoints, segment rolls,
  /// sheds, fault fires, IO-error latches, trace promotions, health
  /// transitions — merged time-ordered as JSON. Always armed while open;
  /// also dumped automatically (once) on the first transition to
  /// kUnhealthy, audit violation, or IO-error latch.
  std::string DumpFlight() const { return rt_->flight()->DumpJson(); }
  /// The live HTTP server (null unless Options::exporter_port was set).
  obs::HttpExporter* exporter() const { return exporter_.get(); }

  const DeploymentConfig& deployment() const { return rt_->deployment(); }
  /// Session clock: virtual microseconds in sim mode, steady real time in
  /// thread mode.
  double NowUs() const { return rt_->SessionNowUs(); }

  /// The underlying runtime (never null while open). sim()/threads() are
  /// null when the database runs in the other mode — mode-specific code
  /// (event-queue access, cost params) should gate on them.
  RuntimeBase* runtime() const { return rt_.get(); }
  SimRuntime* sim() const { return sim_; }
  ThreadRuntime* threads() const { return threads_; }
  /// The fault injector (null unless Options::fault.enabled): chaos tests
  /// read fire counts, the fire log, and the replay digest from here.
  fault::FaultInjector* fault_injector() const { return injector_.get(); }

 private:
  Status OpenDurable(const Options& options);
  /// Routes automatic flight dumps to <data_dir>/flight_<reason>.json
  /// (durable runs only; the default sink logs instead).
  void InstallDumpSink(const Options& options);
  /// Thread-mode sampler driver: one background thread calling
  /// MonitorTick every interval until Shutdown.
  void StartSampler(uint64_t interval_us);
  void StopSampler();
  /// Binds the exporter and registers the endpoint handlers.
  Status StartExporter(uint16_t port);
  /// Creates and arms the injector, wires it into the runtime (link wrap,
  /// admission site) before Bootstrap. No-op when faults are disabled.
  void InstallFaults(const Options& options);
  /// Checkpoint taken right after recovering existing state: supersedes and
  /// truncates every pre-crash segment, so records recovery dropped as
  /// beyond the durable horizon can never be resurrected by a later crash
  /// (new seals will move past their epochs).
  Status RecoveryCheckpoint();

  /// Owned chaos state, declared before rt_ on purpose: the runtime keeps
  /// a raw pointer and still consults it while tearing down in-flight
  /// transport state, so the injector must destruct after the runtime.
  /// Null when faults are off.
  std::unique_ptr<fault::FaultInjector> injector_;
  fault::FaultOptions fault_options_;

  std::unique_ptr<RuntimeBase> rt_;
  SimRuntime* sim_ = nullptr;
  ThreadRuntime* threads_ = nullptr;
  bool closed_ = false;
  log::RecoveryResult recovery_;

  // Operational plane (thread mode): sampler thread + HTTP exporter, both
  // stopped first in Shutdown so no tick or scrape races teardown.
  std::unique_ptr<obs::HttpExporter> exporter_;
  std::thread sampler_thread_;
  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;
};

}  // namespace client
}  // namespace reactdb

#endif  // REACTDB_CLIENT_DATABASE_H_
