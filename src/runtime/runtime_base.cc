#include "src/runtime/runtime_base.h"

#include <algorithm>
#include <chrono>

#include "src/audit/online_auditor.h"
#include "src/client/session.h"
#include "src/fault/faulty_link.h"
#include "src/log/durability.h"
#include "src/storage/tid.h"
#include "src/util/logging.h"

namespace reactdb {

namespace {

// In-process continuation state carried through Envelope::ctx (see
// src/transport/message.h). A future TCP link replaces these with a
// pending-call table keyed by the (root_id, call_id) already on the wire.

/// ctx of a SubmitRequest: the root awaiting its StartRoot.
struct PendingRoot {
  RootTxn* root;
  Reactor* reactor;
  const ProcFn* fn;
};

/// ctx of a CallRequest: the callee frame created at the sender.
struct PendingCall {
  TxnFrame* frame;
  const ProcFn* fn;
};

/// ctx of a CallResponse: the caller-side future to fulfill.
using PendingReply = std::shared_ptr<FutureState>;

/// Wire identity of a message: root ids are unique across roots and call
/// ids across calls, so (kind tag | id) is exact — no hashing ambiguity.
uint64_t EnvelopeWireKey(const transport::Message& m) {
  if (const auto* s = std::get_if<transport::SubmitRequest>(&m)) {
    return (s->root_id << 2) | 0;
  }
  if (const auto* c = std::get_if<transport::CallRequest>(&m)) {
    return (c->call_id << 2) | 1;
  }
  return (std::get<transport::CallResponse>(m).call_id << 2) | 2;
}

}  // namespace

void RuntimeBase::InstallFaultInjector(fault::FaultInjector* injector,
                                       bool wrap_link,
                                       double retransmit_delay_us,
                                       double max_delay_us) {
  REACTDB_CHECK(def_ == nullptr);  // before Bootstrap (link wrap point)
  fault_injector_ = injector;
  fault_wrap_link_ = wrap_link;
  fault_retransmit_delay_us_ = retransmit_delay_us;
  fault_max_delay_us_ = max_delay_us;
}

Status RuntimeBase::Bootstrap(const ReactorDatabaseDef* def,
                              const DeploymentConfig& dc) {
  if (def_ != nullptr) return Status::Internal("already bootstrapped");
  if (dc.num_containers < 1 || dc.executors_per_container < 1) {
    return Status::InvalidArgument("deployment needs >= 1 container/executor");
  }
  if (dc.mailbox_capacity < 1) {
    return Status::InvalidArgument("deployment needs mailbox_capacity >= 1");
  }
  def_ = def;
  dc_ = dc;
  // The transport comes first, before anything below can fail: a
  // bootstrapped runtime always has one (the destructor relies on it).
  transport_ = std::make_unique<transport::Transport>(
      static_cast<uint32_t>(dc_.num_containers),
      static_cast<uint32_t>(dc_.total_executors()),
      static_cast<size_t>(dc_.mailbox_capacity), dc_.transport_max_batch);
  for (int c = 0; c < dc_.num_containers; ++c) {
    drain_scheduled_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  transport_->set_on_inbox_ready(
      [this](uint32_t container) { OnInboxReady(container); });
  std::unique_ptr<transport::Link> link = MakeLink();
  if (fault_injector_ != nullptr && fault_wrap_link_) {
    // Chaos harness: perturb batches between the runtime's link and the
    // mailboxes. The hold timer is PostDelayed, so held batches live on
    // the same clock (and, under SimRuntime, the same event queue) as
    // everything else — replayable from the plan seed.
    link = std::make_unique<fault::FaultyLink>(
        std::move(link), fault_injector_,
        fault::FaultyLink::Params{fault_retransmit_delay_us_,
                                  fault_max_delay_us_},
        [this](double delay_us, std::function<void()> fn) {
          PostDelayed(delay_us, std::move(fn));
        });
  }
  transport_->set_link(std::move(link));
  for (int c = 0; c < dc_.num_containers; ++c) {
    catalogs_.push_back(std::make_unique<Catalog>());
  }
  CreateExecutors();
  REACTDB_CHECK(executors_.size() ==
                static_cast<size_t>(dc_.total_executors()));
  for (ExecutorInfo* info : executors_) {
    info->epoch_slot = epochs_.RegisterSlot();
  }

  // Place reactors and create their relations. Placement iterates names in
  // lexicographic order (range placement relies on it); the registry is
  // indexed by the dense ReactorId interned at declaration time.
  std::vector<std::string> names = def->ReactorNames();
  reactors_.resize(def->num_reactors());
  std::vector<uint32_t> per_container_count(
      static_cast<size_t>(dc_.num_containers), 0);
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    ReactorId id = def->FindReactorId(name);
    REACTDB_CHECK(id.valid());
    const ReactorType* type = def->TypeOf(id);
    REACTDB_CHECK(type != nullptr);
    uint32_t container = dc_.PlaceReactor(name, i, names.size());
    auto reactor = std::make_unique<Reactor>(id, name, type, container);
    const std::vector<Schema>& schemas = type->schemas();
    for (size_t slot = 0; slot < schemas.size(); ++slot) {
      REACTDB_ASSIGN_OR_RETURN(
          Table * table, catalogs_[container]->CreateTable(name, schemas[slot]));
      reactor->BindTable(TableSlot{static_cast<uint32_t>(slot)}, table);
      // Durable identity: the handle pair redo log records address the
      // relation by (stable across restarts — interned from declaration
      // order, which the application reproduces before reopening).
      table->BindDurableId(id, TableSlot{static_cast<uint32_t>(slot)});
    }
    // Affinity: reactors of a container are spread over its executors in
    // placement order.
    uint32_t local =
        per_container_count[container]++ %
        static_cast<uint32_t>(dc_.executors_per_container);
    uint32_t home =
        container * static_cast<uint32_t>(dc_.executors_per_container) + local;
    reactor->set_home_executor(home);
    // Slot-indexed catalog binding: transport-delivered calls resolve
    // relations by (ReactorId, TableSlot) without touching the
    // qualified-name map.
    catalogs_[container]->BindReactorTables(id, reactor->bound_tables());
    reactors_[id.value] = std::move(reactor);
  }

  RegisterMetrics();
  return Status::OK();
}

void RuntimeBase::RegisterMetrics() {
  // Registration order is snapshot order; names follow the ROADMAP
  // "Observability" scheme (reactdb_<subsystem>_<what>, `_total` counters,
  // unit suffixes).
  metric_ids_.txn_committed = metrics_.Counter(
      "reactdb_txn_committed_total", "Root transactions committed");
  metric_ids_.txn_aborted = metrics_.CounterFamily(
      "reactdb_txn_aborted_total", "Root transactions aborted, by reason",
      {{{"reason", "cc"}},
       {{"reason", "user"}},
       {{"reason", "safety"}},
       {{"reason", "deadline"}}});
  metric_ids_.txn_shed = metrics_.Counter(
      "reactdb_txn_shed_total",
      "Submissions refused fast by overload admission control");
  metric_ids_.txn_multi_container =
      metrics_.Counter("reactdb_txn_multi_container_total",
                       "Committed roots that touched multiple containers");
  metric_ids_.txn_latency_us = metrics_.Histo(
      "reactdb_txn_latency_us",
      "Root end-to-end latency in session-clock microseconds");
  metric_ids_.arena_reserved = metrics_.Gauge(
      "reactdb_arena_reserved_bytes",
      "High-water bytes reserved by any root's transaction arena", {},
      obs::Aggregation::kMax);
  metric_ids_.arena_used_hw = metrics_.Gauge(
      "reactdb_arena_used_bytes_hw",
      "High-water bytes used by any single root's transaction arena", {},
      obs::Aggregation::kMax);
  metric_ids_.session_inflight = metrics_.Gauge(
      "reactdb_session_inflight",
      "Session transactions submitted and not yet completed");
  metric_ids_.session_submitted = metrics_.Counter(
      "reactdb_session_submitted_total",
      "Transactions submitted through client sessions");
  metric_ids_.session_retried = metrics_.Counter(
      "reactdb_session_retried_total",
      "Session-level retries of concurrency-control aborts");
  metric_ids_.session_overloaded = metrics_.Counter(
      "reactdb_session_overloaded_total",
      "Session submissions refused by window backpressure");
  metric_ids_.session_durable_waits = metrics_.Counter(
      "reactdb_session_durable_waits_total",
      "Session completions that waited for the durable epoch");

  std::vector<uint32_t> procs_per_reactor(reactors_.size(), 0);
  for (size_t r = 0; r < reactors_.size(); ++r) {
    if (reactors_[r] != nullptr) {
      procs_per_reactor[r] =
          static_cast<uint32_t>(reactors_[r]->type().num_procedures());
    }
  }
  proc_outcomes_.Init(procs_per_reactor);

  metrics_.AddSampleCollector(
      [this](std::vector<obs::MetricSample>* out) {
        CollectRuntimeSamples(out);
      });

  metrics_.Freeze(executors_.size());
  // Disabled store: root->trace stays null everywhere until EnableTracing
  // swaps in an enabled one.
  tracer_ = std::make_unique<obs::TraceStore>(obs::TraceOptions{},
                                              executors_.size());

  // The flight recorder is always armed: emitters are all off the
  // transaction hot path (epoch advances, durability flushes, sheds, fault
  // fires), so a disabled-monitor run records the same black box for free.
  flight_ = std::make_unique<obs::FlightRecorder>(
      executors_.size(), monitor_options_.flight_ring);
  flight_->set_clock([this] { return SessionNowUs(); });
  tracer_->set_flight(flight_.get());
  epochs_.set_on_advance([this](uint64_t epoch) {
    last_epoch_advance_us_.store(static_cast<uint64_t>(SessionNowUs()),
                                 std::memory_order_relaxed);
    flight_->RecordShared(obs::FlightEventKind::kEpochAdvance, epoch);
  });
  if (fault_injector_ != nullptr) fault_injector_->set_flight(flight_.get());
}

Status RuntimeBase::EnableMonitoring(const MonitorOptions& options) {
  if (def_ == nullptr) return Status::Internal("Bootstrap first");
  if (series_ != nullptr) return Status::Internal("monitoring already on");
  monitor_options_ = options;
  if (!options.enabled) return Status::OK();
  if (options.flight_ring != flight_->ring_capacity()) {
    // Re-arm the black box at the requested capacity (drops bootstrap-era
    // events) and re-wire the emitters that hold raw pointers. Runs before
    // any transaction, so the swap is unobserved.
    flight_ = std::make_unique<obs::FlightRecorder>(executors_.size(),
                                                    options.flight_ring);
    flight_->set_clock([this] { return SessionNowUs(); });
    tracer_->set_flight(flight_.get());
    if (fault_injector_ != nullptr) {
      fault_injector_->set_flight(flight_.get());
    }
    if (durability_ != nullptr) durability_->set_flight(flight_.get());
  }
  series_ = std::make_unique<obs::TimeSeriesStore>(options.window);
  health_ = std::make_unique<obs::HealthMonitor>(options.health);
  last_epoch_advance_us_.store(static_cast<uint64_t>(SessionNowUs()),
                               std::memory_order_relaxed);
  return Status::OK();
}

void RuntimeBase::MonitorTick() {
  if (series_ == nullptr || health_ == nullptr) return;
  double now = SessionNowUs();
  obs::StatsSnapshot snap = metrics_.Collect();
  series_->Sample(now, snap);

  obs::HealthInputs in;
  in.now_us = now;
  in.epoch_current = epochs_.current();
  uint64_t last_advance =
      last_epoch_advance_us_.load(std::memory_order_relaxed);
  in.epoch_age_us = now > static_cast<double>(last_advance)
                        ? now - static_cast<double>(last_advance)
                        : 0;
  if (durability_ != nullptr) {
    in.durability_enabled = true;
    in.durable_epoch = durability_->durable_epoch();
    in.max_appended_epoch = durability_->max_appended_epoch();
    in.io_halted = durability_->halted();
    if (in.io_halted) in.io_status = durability_->io_status().ToString();
  }
  if (auditor_ != nullptr) in.audit_violation = auditor_->status().violation;
  for (uint32_t c = 0; c < transport_->num_containers(); ++c) {
    in.mailbox_depth_max =
        std::max<uint64_t>(in.mailbox_depth_max, transport_->mailbox(c).size());
  }
  in.mailbox_capacity = static_cast<uint64_t>(dc_.mailbox_capacity);
  in.outstanding_roots = outstanding_roots();
  in.admission_watermark = static_cast<uint64_t>(
      dc_.shed_outstanding_roots > 0 ? dc_.shed_outstanding_roots : 0);
  in.shed_total = static_cast<uint64_t>(snap.Value("reactdb_txn_shed_total"));
  in.deadline_total = static_cast<uint64_t>(
      snap.Value("reactdb_txn_aborted_total", {{"reason", "deadline"}}));
  SampleExecutors(&in.executors);

  obs::HealthState prev = health_->last().state;
  obs::HealthReport report = health_->Evaluate(in);
  if (report.state != prev) {
    const char* detail = report.violations.empty()
                             ? ""
                             : report.violations.front().rule;
    flight_->RecordShared(obs::FlightEventKind::kHealthTransition,
                          static_cast<uint64_t>(report.state),
                          static_cast<uint64_t>(prev), detail);
    if (report.state == obs::HealthState::kUnhealthy) {
      flight_->TriggerAutoDump("health_unhealthy");
    }
  }
  if (in.audit_violation) flight_->TriggerAutoDump("audit_violation");
}

void RuntimeBase::SampleExecutors(
    std::vector<obs::ExecutorHealthSample>* out) const {
  out->clear();
  out->reserve(executors_.size());
  for (const ExecutorInfo* info : executors_) {
    obs::ExecutorHealthSample s;
    s.heartbeat = info->heartbeat.load(std::memory_order_relaxed);
    s.has_work = false;
    out->push_back(s);
  }
}

Status RuntimeBase::EnableTracing(const obs::TraceOptions& options) {
  if (def_ == nullptr) return Status::Internal("Bootstrap first");
  if (outstanding_roots() != 0) {
    return Status::Internal("EnableTracing with transactions in flight");
  }
  tracer_ = std::make_unique<obs::TraceStore>(options, executors_.size());
  tracer_->set_flight(flight_.get());
  if (options.enabled && durability_ != nullptr) {
    // Group commit seals epochs after finalize; stamp retained traces when
    // the durable watermark advances past their commit epoch.
    durability_->AddListener([this](uint64_t durable_epoch) {
      tracer_->OnDurableEpoch(durable_epoch, SessionNowUs());
    });
  }
  return Status::OK();
}

void RuntimeBase::CollectRuntimeSamples(
    std::vector<obs::MetricSample>* out) const {
  auto gauge = [out](const char* name, const char* help, double value,
                     obs::Labels labels = {}) {
    obs::MetricSample s;
    s.name = name;
    s.help = help;
    s.type = obs::MetricType::kGauge;
    s.labels = std::move(labels);
    s.value = value;
    out->push_back(std::move(s));
  };
  auto counter = [out](const char* name, const char* help, double value,
                       obs::Labels labels = {}) {
    obs::MetricSample s;
    s.name = name;
    s.help = help;
    s.type = obs::MetricType::kCounter;
    s.labels = std::move(labels);
    s.value = value;
    out->push_back(std::move(s));
  };

  gauge("reactdb_txn_outstanding",
        "Roots submitted and not yet finalized",
        static_cast<double>(outstanding_roots()));

  // Epoch clock: the age is how far the slowest pinned executor trails the
  // global epoch (0 when quiescent).
  uint64_t current = epochs_.current();
  uint64_t min_active = epochs_.min_active_epoch();
  gauge("reactdb_epoch_current", "Global epoch counter",
        static_cast<double>(current));
  gauge("reactdb_epoch_age_epochs",
        "Global epoch minus the oldest pinned epoch",
        static_cast<double>(current - std::min(current, min_active)));

  if (durability_ != nullptr) {
    uint64_t durable = durability_->durable_epoch();
    gauge("reactdb_log_durable_epoch", "Highest epoch sealed durable",
          static_cast<double>(durable));
    gauge("reactdb_log_durable_lag_epochs",
          "Global epoch minus the durable epoch",
          static_cast<double>(current - std::min(current, durable)));
    const log::DurabilityStats& d = durability_->stats();
    counter("reactdb_log_bytes_written_total",
            "Bytes appended to log segments",
            static_cast<double>(d.bytes_written.load()));
    counter("reactdb_log_fsyncs_total", "fsync calls issued by the writers",
            static_cast<double>(d.fsyncs.load()));
    counter("reactdb_log_frames_total", "Epoch frames written",
            static_cast<double>(d.frames.load()));
    counter("reactdb_log_flush_rounds_total", "Group-commit flush rounds",
            static_cast<double>(d.flush_rounds.load()));
    counter("reactdb_log_records_total", "Redo records logged",
            static_cast<double>(d.records_logged.load()));
  }

  if (auditor_ != nullptr) {
    audit::AuditorStatus a = auditor_->status();
    counter("reactdb_audit_records_total",
            "Audit records consumed by the online auditor",
            static_cast<double>(a.records));
    counter("reactdb_audit_frames_total",
            "Log frames teed to the online auditor",
            static_cast<double>(a.frames));
    gauge("reactdb_audit_lag_epochs",
          "Durable epoch minus the audited epoch",
          static_cast<double>(a.lag_epochs));
    counter("reactdb_audit_violations_total",
            "Serializability violations detected by the online auditor",
            static_cast<double>(a.violations));
    gauge("reactdb_audit_violation",
          "1 once any serializability violation was detected (latched)",
          a.violation ? 1.0 : 0.0);
  }

  const transport::TransportStats& t = transport_->stats();
  for (transport::MessageKind kind :
       {transport::MessageKind::kSubmit, transport::MessageKind::kCall,
        transport::MessageKind::kResponse}) {
    std::string name(transport::MessageKindName(kind));
    counter("reactdb_transport_sent_total", "Messages posted, by kind",
            static_cast<double>(t.sent_of(kind)), {{"kind", name}});
    counter("reactdb_transport_delivered_total",
            "Messages delivered, by kind",
            static_cast<double>(t.delivered_of(kind)), {{"kind", name}});
  }
  counter("reactdb_transport_batches_total", "Link transfers sent",
          static_cast<double>(t.batches.load()));
  counter("reactdb_transport_wire_bytes_total",
          "Encoded bytes across the link",
          static_cast<double>(t.wire_bytes.load()));
  gauge("reactdb_transport_max_batch",
        "Largest batch sent in one transfer",
        static_cast<double>(t.max_batch.load()));
  for (uint32_t c = 0; c < transport_->num_containers(); ++c) {
    const transport::Mailbox& mb = transport_->mailbox(c);
    obs::Labels labels{{"container", std::to_string(c)}};
    gauge("reactdb_mailbox_depth", "Envelopes queued in container inboxes",
          static_cast<double>(mb.size()), labels);
    counter("reactdb_mailbox_pushed_total", "Envelopes accepted by inboxes",
            static_cast<double>(mb.pushed()), labels);
    counter("reactdb_mailbox_rejected_total",
            "Envelopes refused by full inboxes",
            static_cast<double>(mb.rejected()), labels);
    counter("reactdb_mailbox_overflowed_total",
            "Forced pushes beyond inbox capacity",
            static_cast<double>(mb.overflowed()), labels);
    gauge("reactdb_mailbox_depth_hw",
          "High-water mark of envelopes queued in container inboxes",
          static_cast<double>(mb.max_depth()), labels);
  }

  // Health surface: the watchdog's last published report (one sample of
  // lag behind the live evaluation — the collector may run mid-interval).
  if (health_ != nullptr) {
    obs::HealthReport h = health_->last();
    gauge("reactdb_health_state",
          "Watchdog state: 0 ok, 1 degraded, 2 unhealthy",
          static_cast<double>(static_cast<int>(h.state)));
    counter("reactdb_health_transitions_total",
            "Watchdog state changes since startup",
            static_cast<double>(h.transitions));
    counter("reactdb_health_samples_total",
            "Watchdog evaluations since startup",
            static_cast<double>(h.samples));
    for (const obs::HealthViolation& v : h.violations) {
      gauge("reactdb_health_rule_active",
            "1 while a health rule is firing, by rule",
            static_cast<double>(static_cast<int>(v.severity)),
            {{"rule", v.rule}});
    }
  }
  if (flight_ != nullptr) {
    counter("reactdb_flight_events_total",
            "System events recorded by the flight recorder",
            static_cast<double>(flight_->recorded()));
  }

  if (tracer_ != nullptr && tracer_->enabled()) {
    counter("reactdb_trace_promoted_total",
            "Traces promoted into the slow-transaction ring",
            static_cast<double>(tracer_->promoted_total()));
    gauge("reactdb_trace_retained", "Slow traces currently retained",
          static_cast<double>(tracer_->retained_count()));
  }

  // Per-(reactor, proc) outcomes: labels built lazily, only for pairs that
  // actually executed (thousands of reactors would otherwise dominate).
  if (proc_outcomes_.initialized()) {
    for (size_t r = 0; r < proc_outcomes_.num_reactors(); ++r) {
      const Reactor* reactor = reactors_[r].get();
      if (reactor == nullptr) continue;
      for (size_t p = 0; p < proc_outcomes_.num_procs(r); ++p) {
        ReactorId rid{static_cast<uint32_t>(r)};
        ProcId pid{static_cast<uint32_t>(p)};
        uint64_t committed = proc_outcomes_.committed(rid, pid);
        uint64_t aborted = proc_outcomes_.aborted(rid, pid);
        if (committed == 0 && aborted == 0) continue;
        obs::Labels labels{{"reactor", reactor->name()},
                           {"proc", reactor->type().ProcName(pid)}};
        if (committed != 0) {
          counter("reactdb_proc_committed_total",
                  "Commits by (reactor, procedure)",
                  static_cast<double>(committed), labels);
        }
        uint64_t deadline = proc_outcomes_.deadline_exceeded(rid, pid);
        if (aborted != 0) {
          counter("reactdb_proc_aborted_total",
                  "Aborts by (reactor, procedure)",
                  static_cast<double>(aborted), labels);
        }
        if (deadline != 0) {
          counter("reactdb_proc_deadline_exceeded_total",
                  "Deadline-expiry aborts by (reactor, procedure)",
                  static_cast<double>(deadline), std::move(labels));
        }
      }
    }
  }
}

RuntimeBase::RuntimeBase() = default;

RuntimeBase::~RuntimeBase() {
  if (def_ != nullptr) DiscardInflightTransport();
}

Status RuntimeBase::EnableDurability(const log::DurabilityOptions& options) {
  if (def_ == nullptr) return Status::Internal("Bootstrap first");
  if (durability_ != nullptr) {
    return Status::Internal("durability already enabled");
  }
  durability_ = std::make_unique<log::DurabilityManager>(
      &epochs_, dc_.num_containers, dc_.executors_per_container, options);
  durability_->set_notify_progress([this] { NotifyClientProgress(); });
  durability_->set_flight(flight_.get());
  direct_epoch_slot_ = epochs_.RegisterSlot();
  return durability_->OpenStorage();
}

void RuntimeBase::KickDurability(bool force) {
  if (durability_ != nullptr) durability_->Kick(force);
}

Status RuntimeBase::EnableAudit(const audit::OnlineAuditorOptions& options) {
  if (durability_ == nullptr) {
    return Status::InvalidArgument(
        "audit mode requires durability (set data_dir)");
  }
  if (auditor_ != nullptr) return Status::Internal("audit already enabled");
  audit_capture_ = true;
  auditor_ =
      std::make_unique<audit::OnlineAuditor>(durability_.get(), options);
  auditor_->Start();
  return Status::OK();
}

uint64_t RuntimeBase::WaitDurable(uint64_t epoch) {
  if (durability_ == nullptr) return 0;
  KickDurability(/*force=*/true);
  ClientWait([this, epoch] {
    return durability_->halted() || durability_->durable_epoch() >= epoch;
  });
  return durability_->durable_epoch();
}

std::unique_ptr<transport::Link> RuntimeBase::MakeLink() {
  return std::make_unique<transport::LoopbackLink>(transport_.get());
}

void RuntimeBase::PostEnvelope(uint32_t src_lane, transport::Envelope e) {
  if (src_lane == kClientLane) {
    transport_->PostNow(std::move(e));
  } else {
    transport_->Post(src_lane, std::move(e));
  }
}

void RuntimeBase::OnInboxReady(uint32_t container) {
  std::atomic<bool>& scheduled = *drain_scheduled_[container];
  if (scheduled.exchange(true, std::memory_order_acq_rel)) return;
  // Drained by the container's executor, per the transport contract: the
  // pump decodes and routes; arrival work still runs on each message's
  // target executor.
  uint32_t pump =
      container * static_cast<uint32_t>(dc_.executors_per_container);
  PostReady(pump, [this, container, &scheduled]() {
    // Clear before draining so a push racing with the drain re-arms the
    // pump instead of being stranded.
    scheduled.store(false, std::memory_order_release);
    DrainInbox(container);
  });
}

void RuntimeBase::DrainInbox(uint32_t container) {
  transport_->Drain(container, [this](transport::Envelope&& e) {
    StatusOr<transport::Message> decoded = transport::DecodeMessage(e.wire);
    // In-process links cannot corrupt the wire image; a decode failure is a
    // serialization bug, not an I/O condition. (A TCP link adds real error
    // handling at its endpoint.)
    REACTDB_CHECK(decoded.ok());
    if (fault_injector_ != nullptr) {
      // Chaos mode: a FaultyLink may deliver the same message twice (the
      // copies share their in-process ctx). Dedup on the wire identity
      // before ctx is ever touched, so the second copy — whose ctx the
      // first delivery consumed — is dropped harmlessly.
      std::lock_guard<std::mutex> lock(dedup_mu_);
      if (!delivered_wire_keys_.insert(EnvelopeWireKey(*decoded)).second) {
        return;
      }
    }
    switch (e.kind) {
      case transport::MessageKind::kSubmit: {
        auto* ctx = static_cast<PendingRoot*>(e.ctx);
        auto msg = std::get<transport::SubmitRequest>(std::move(*decoded));
        REACTDB_CHECK(msg.root_id == ctx->root->id);
        // The decoded deadline is authoritative, like the argument row.
        ctx->root->deadline_us = msg.deadline_us;
        uint32_t executor = e.dst_executor;
        // The decoded argument row is authoritative — results downstream
        // depend on the serialization round-trip being exact.
        PostRoot(executor,
                 [this, root = ctx->root, reactor = ctx->reactor, fn = ctx->fn,
                  executor, args = std::move(msg.args)]() mutable {
                   StartRoot(root, reactor, fn, executor, std::move(args));
                 });
        delete ctx;
        break;
      }
      case transport::MessageKind::kCall: {
        auto* ctx = static_cast<PendingCall*>(e.ctx);
        auto msg = std::get<transport::CallRequest>(std::move(*decoded));
        TxnFrame* frame = ctx->frame;
        REACTDB_CHECK(msg.reactor == frame->reactor->id());
        REACTDB_CHECK(msg.subtxn_id == frame->subtxn_id);
        const ProcFn* fn = ctx->fn;
        DeliverReady(frame->executor,
                     [this, frame, fn, args = std::move(msg.args)]() mutable {
                       PinExecutor(frame->executor);
                       StartFrameCoroutine(frame, fn, std::move(args));
                     });
        delete ctx;
        break;
      }
      case transport::MessageKind::kResponse: {
        auto* reply = static_cast<PendingReply*>(e.ctx);
        auto msg = std::get<transport::CallResponse>(std::move(*decoded));
        // Fulfillment schedules any awaiting caller coroutine back onto its
        // executor through the resume hook captured at await time.
        (*reply)->Fulfill(msg.ToResult());
        delete reply;
        break;
      }
    }
  });
}

void RuntimeBase::DiscardInflightTransport() {
  // Chaos mode: duplicate envelopes share their ctx pointer, and a copy
  // whose twin was already delivered points at consumed state — free each
  // distinct, undelivered ctx exactly once.
  std::unordered_set<void*> freed;
  for (uint32_t c = 0; c < transport_->num_containers(); ++c) {
    transport_->Drain(c, [this, &freed](transport::Envelope&& e) {
      if (fault_injector_ != nullptr && e.ctx != nullptr) {
        StatusOr<transport::Message> decoded =
            transport::DecodeMessage(e.wire);
        if (decoded.ok()) {
          std::lock_guard<std::mutex> lock(dedup_mu_);
          if (delivered_wire_keys_.count(EnvelopeWireKey(*decoded)) != 0) {
            return;
          }
        }
        if (!freed.insert(e.ctx).second) return;
      }
      switch (e.kind) {
        case transport::MessageKind::kSubmit: {
          auto* ctx = static_cast<PendingRoot*>(e.ctx);
          if (ctx->root->trace != nullptr) {
            // Undelivered root at teardown: return the trace to the pool.
            tracer_->Finish(ctx->root->trace, 0, /*committed=*/false, 0,
                            ctx->root->submit_time_us);
          }
          delete ctx->root;
          delete ctx;
          break;
        }
        case transport::MessageKind::kCall: {
          auto* ctx = static_cast<PendingCall*>(e.ctx);
          delete ctx->frame;
          delete ctx;
          break;
        }
        case transport::MessageKind::kResponse:
          delete static_cast<PendingReply*>(e.ctx);
          break;
      }
    });
  }
}

void RuntimeBase::RegisterExecutor(ExecutorInfo* info) {
  info->id = static_cast<uint32_t>(executors_.size());
  info->container = info->id / static_cast<uint32_t>(dc_.executors_per_container);
  executors_.push_back(info);
}

ReactorId RuntimeBase::ResolveReactor(const std::string& reactor_name) const {
  return def_ == nullptr ? ReactorId{} : def_->FindReactorId(reactor_name);
}

ProcId RuntimeBase::ResolveProc(ReactorId reactor,
                                const std::string& proc_name) const {
  Reactor* r = FindReactor(reactor);
  return r == nullptr ? ProcId{} : r->type().FindProcId(proc_name);
}

TableSlot RuntimeBase::ResolveTable(ReactorId reactor,
                                    const std::string& table_name) const {
  Reactor* r = FindReactor(reactor);
  return r == nullptr ? TableSlot{} : r->type().FindTableSlot(table_name);
}

Reactor* RuntimeBase::FindReactor(const std::string& name) const {
  return FindReactor(ResolveReactor(name));
}

StatusOr<Table*> RuntimeBase::FindTable(ReactorId reactor,
                                        TableSlot slot) const {
  Reactor* r = FindReactor(reactor);
  if (r == nullptr) {
    return Status::NotFound("no reactor handle #" +
                            std::to_string(reactor.value));
  }
  // Container-catalog slot index: the handle-addressed client/loading
  // surface (per-operation dispatch inside procedures uses the
  // reactor-local vector directly, see TxnContext::table).
  Table* t = catalogs_[r->container_id()]->FindBound(reactor, slot);
  if (t == nullptr) {
    return Status::NotFound("reactor " + r->name() + " has no relation slot #" +
                            std::to_string(slot.value));
  }
  return t;
}

StatusOr<Table*> RuntimeBase::FindTable(const std::string& reactor_name,
                                        const std::string& table_name) const {
  Reactor* r = FindReactor(reactor_name);
  if (r == nullptr) return Status::NotFound("no reactor " + reactor_name);
  Table* t = r->FindTable(table_name);
  if (t == nullptr) {
    return Status::NotFound("reactor " + reactor_name + " has no relation " +
                            table_name);
  }
  return t;
}

uint32_t RuntimeBase::HomeExecutorOf(ReactorId reactor) const {
  Reactor* r = FindReactor(reactor);
  REACTDB_CHECK(r != nullptr);
  return r->home_executor();
}

uint32_t RuntimeBase::HomeExecutorOf(const std::string& reactor_name) const {
  return HomeExecutorOf(ResolveReactor(reactor_name));
}

uint32_t RuntimeBase::RouteRoot(Reactor* reactor) {
  if (dc_.routing == RootRouting::kRoundRobin) {
    uint32_t epc = static_cast<uint32_t>(dc_.executors_per_container);
    uint32_t local = static_cast<uint32_t>(
        rr_counter_.fetch_add(1, std::memory_order_relaxed) % epc);
    return reactor->container_id() * epc + local;
  }
  return reactor->home_executor();
}

void RuntimeBase::PinExecutor(uint32_t executor) {
  ExecutorInfo* info = executors_[executor];
  if (info->open_frames.fetch_add(1, std::memory_order_acq_rel) == 0) {
    epochs_.EnterEpoch(info->epoch_slot);
  }
}

void RuntimeBase::UnpinExecutor(uint32_t executor) {
  ExecutorInfo* info = executors_[executor];
  if (info->open_frames.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    epochs_.LeaveEpoch(info->epoch_slot);
  }
}

Status RuntimeBase::Submit(ReactorId reactor_id, ProcId proc_id, Row args,
                           const SubmitOptions& options,
                           std::function<void(ProcResult, const RootTxn&)> done) {
  Reactor* reactor = FindReactor(reactor_id);
  if (reactor == nullptr) {
    return Status::NotFound("no reactor handle #" +
                            std::to_string(reactor_id.value));
  }
  const ProcFn* fn = reactor->type().FindProcedure(proc_id);
  if (fn == nullptr) {
    return Status::NotFound("reactor type " + reactor->type().name() +
                            " has no procedure handle #" +
                            std::to_string(proc_id.value));
  }
  // Counter-then-flag, mirrored by StopAccepting-then-drain in Stop (both
  // seq_cst): either this submission is visible to Stop's outstanding-roots
  // drain (so the executors stay up until it finalizes), or it observes the
  // closed flag and fails fast — a root can never be posted to a joined
  // executor.
  submitted_roots_.fetch_add(1, std::memory_order_seq_cst);
  if (!AcceptingSubmits()) {
    submitted_roots_.fetch_sub(1, std::memory_order_seq_cst);
    NotifyClientProgress();
    return Status::Unavailable("runtime stopped");
  }
  // Graceful degradation: shed *new* work fast — a counter compare and (if
  // configured) one mailbox-depth load, before any root state is allocated
  // — while everything already admitted (including session retries, which
  // set bypass_admission) keeps running.
  if (!options.bypass_admission) {
    bool shed = false;
    if (dc_.shed_outstanding_roots > 0 &&
        outstanding_roots() >
            static_cast<uint64_t>(dc_.shed_outstanding_roots)) {
      shed = true;
    } else if (dc_.shed_mailbox_depth > 0 &&
               transport_->mailbox(reactor->container_id()).size() >=
                   static_cast<size_t>(dc_.shed_mailbox_depth)) {
      shed = true;
    } else if (fault_injector_ != nullptr &&
               fault_injector_->ShouldFire("admission.reject")) {
      shed = true;  // injected mailbox-level rejection burst
    }
    if (shed) {
      submitted_roots_.fetch_sub(1, std::memory_order_seq_cst);
      metrics_.AddShared(metric_ids_.txn_shed);
      flight_->RecordShared(obs::FlightEventKind::kShed, outstanding_roots());
      NotifyClientProgress();
      return Status::Overloaded("admission: over watermark");
    }
  }
  auto* root = new RootTxn(next_root_id_.fetch_add(1), &epochs_);
  root->reactor_id = reactor_id;
  root->proc_id = proc_id;
  root->deadline_us = options.deadline_us;
  root->on_done = std::move(done);
  root->submit_time_us = SessionNowUs();
  if (tracer_->enabled()) {
    root->trace = tracer_->Begin(root->id, reactor_id, proc_id);
    if (root->trace != nullptr) {
      root->trace->begin_us = root->submit_time_us;
      root->trace->Record(obs::SpanKind::kSubmit, root->submit_time_us);
    }
  }
  // Client -> container boundary: the invocation crosses as a
  // SubmitRequest through the target container's inbox.
  transport::SubmitRequest msg;
  msg.root_id = root->id;
  msg.reactor = reactor_id;
  msg.proc = proc_id;
  msg.deadline_us = root->deadline_us;
  msg.args = std::move(args);
  transport::Envelope e;
  e.kind = transport::MessageKind::kSubmit;
  e.dst_container = reactor->container_id();
  e.dst_executor = RouteRoot(reactor);
  e.wire = transport::EncodeMessage(msg);
  e.ctx = new PendingRoot{root, reactor, fn};
  PostEnvelope(kClientLane, std::move(e));
  return Status::OK();
}

Status RuntimeBase::Submit(const std::string& reactor_name,
                           const std::string& proc_name, Row args,
                           std::function<void(ProcResult, const RootTxn&)> done) {
  // One-time name resolution, then the handle path.
  ReactorId reactor_id = ResolveReactor(reactor_name);
  Reactor* reactor = FindReactor(reactor_id);
  if (reactor == nullptr) {
    return Status::NotFound("no reactor " + reactor_name);
  }
  ProcId proc_id = reactor->type().FindProcId(proc_name);
  if (!proc_id.valid()) {
    return Status::NotFound("reactor type " + reactor->type().name() +
                            " has no procedure " + proc_name);
  }
  return Submit(reactor_id, proc_id, std::move(args), std::move(done));
}

void RuntimeBase::StartRoot(RootTxn* root, Reactor* reactor, const ProcFn* fn,
                            uint32_t executor, Row args) {
  PinExecutor(executor);
  // Dispatch boundary: a root whose budget is already gone (it sat in a
  // mailbox, or a link fault delayed it) is marked aborted up front — it
  // still runs the normal frame lifecycle, but validation will roll it
  // back with no effects installed.
  if (root->deadline_us > 0 && SessionNowUs() > root->deadline_us) {
    root->MarkAbort(Status::DeadlineExceeded("deadline expired at dispatch"));
  }
  if (root->trace != nullptr) {
    root->trace->Record(obs::SpanKind::kDispatch, SessionNowUs());
  }
  // Bind a per-executor transaction arena for the root's whole lifetime;
  // FinalizeRoot releases (resets) it on this same executor.
  root->arena = executors_[executor]->arenas.Acquire();
  root->txn.BindArena(root->arena);
  if (durability_ != nullptr) {
    // Commit (and with it the redo append) runs on this executor via
    // FinalizeRoot, so the root logs into this executor's shard.
    root->txn.BindLog(durability_->shard(executor));
    if (audit_capture_) root->txn.EnableAuditCapture();
  }
  auto* frame = new TxnFrame();
  frame->root = root;
  frame->parent = nullptr;
  frame->reactor = reactor;
  frame->subtxn_id = 0;
  frame->executor = executor;
  frame->ctx = std::make_unique<TxnContext>(this, frame);
  root->home_executor = executor;
  // A root is the first activity of its transaction on this reactor; entry
  // cannot conflict with other sub-transactions of the same root.
  REACTDB_CHECK(reactor->active_set().TryEnter(root->id, 0));
  frame->in_active_set = true;
  StartFrameCoroutine(frame, fn, std::move(args));
}

Future RuntimeBase::Call(TxnFrame* caller, ReactorId reactor, ProcId proc,
                         Row args) {
  Reactor* target = FindReactor(reactor);
  if (target == nullptr) {
    return AbortCall(caller, "no reactor handle #" +
                                 std::to_string(reactor.value));
  }
  const ProcFn* fn = target->type().FindProcedure(proc);
  if (fn == nullptr) {
    return AbortCall(caller, "reactor type " + target->type().name() +
                                 " has no procedure handle #" +
                                 std::to_string(proc.value));
  }
  RootTxn* root = caller->root;

  // Call boundary: don't fan out further work on a spent budget — fail the
  // call like AbortCall does, so the caller's coroutine unwinds normally.
  if (root->deadline_us > 0 && SessionNowUs() > root->deadline_us) {
    Status s = Status::DeadlineExceeded("deadline expired at call");
    root->MarkAbort(s);
    return Future::Ready(s);
  }

  if (target == caller->reactor) {
    // Direct self-call: executed synchronously within the caller's frame
    // (Section 2.2.4 — inlining the sub-transaction call).
    caller->pending.fetch_add(1, std::memory_order_acq_rel);
    Future f;
    auto state = f.shared_state();
    Proc proc = (*fn)(*caller->ctx, std::move(args));
    auto handle = proc.handle();
    handle.promise().on_finished = [this, caller, state, handle]() {
      ProcResult r = handle.promise().result;
      if (!r.ok()) caller->root->MarkAbort(r.status());
      state->Fulfill(std::move(r));
      OnFramePartDone(caller);
    };
    caller->inline_selfcalls.push_back(std::move(proc));
    RunCoroutine(caller, handle);
    return f;
  }

  auto* frame = new TxnFrame();
  frame->root = root;
  frame->parent = caller;
  frame->reactor = target;
  frame->subtxn_id = root->next_subtxn_id.fetch_add(1);
  frame->ctx = std::make_unique<TxnContext>(this, frame);
  caller->pending.fetch_add(1, std::memory_order_acq_rel);
  Future f = frame->completion;  // frame may complete (and die) immediately

  // The active-set entry is made at invocation time — the paper's active
  // set holds sub-transactions that "have been invoked, but have not
  // completed" — so two in-flight calls of one root to the same reactor
  // are caught even if the first finishes quickly.
  if (!target->active_set().TryEnter(root->id, frame->subtxn_id)) {
    Status s = Status::SafetyAbort(
        "concurrent sub-transactions of txn " + std::to_string(root->id) +
        " on reactor " + target->name());
    root->MarkAbort(s);
    frame->completion.state()->Fulfill(s);
    OnFramePartDone(frame);
    return f;
  }
  frame->in_active_set = true;

  if (target->container_id() == caller->reactor->container_id()) {
    // Same container: execute synchronously within the caller's transaction
    // executor — no migration of control (Section 3.2.1).
    frame->executor = caller->executor;
    StartFrameCoroutine(frame, fn, std::move(args));
    return f;
  }

  // Cross-container: dispatch through the transport to the target reactor's
  // home executor.
  frame->executor = target->home_executor();
  frame->remote = true;
  root->live_remote_children.fetch_add(1, std::memory_order_acq_rel);
  if (root->trace != nullptr) {
    root->trace->Record(obs::SpanKind::kCallSend, SessionNowUs(),
                        static_cast<uint32_t>(frame->subtxn_id));
  }
  ChargeCs();
  // The call crosses containers as a CallRequest; the result returns as a
  // CallResponse that fulfills `reply` on delivery at this container. The
  // callee frame travels through the envelope's in-process ctx — its
  // arguments travel as bytes.
  uint64_t call_id = next_call_id_.fetch_add(1, std::memory_order_relaxed);
  Future reply;
  frame->transport_call_id = call_id;
  frame->reply_to_container = caller->reactor->container_id();
  frame->reply_state = reply.shared_state();
  transport::CallRequest msg;
  msg.root_id = root->id;
  msg.call_id = call_id;
  msg.subtxn_id = frame->subtxn_id;
  msg.reactor = target->id();
  msg.proc = proc;
  msg.deadline_us = root->deadline_us;  // sub-transactions inherit it
  msg.args = std::move(args);
  transport::Envelope e;
  e.kind = transport::MessageKind::kCall;
  e.dst_container = target->container_id();
  e.dst_executor = frame->executor;
  e.wire = transport::EncodeMessage(msg);
  e.ctx = new PendingCall{frame, fn};
  PostEnvelope(caller->executor, std::move(e));
  return reply;
}

void RuntimeBase::StartFrameCoroutine(TxnFrame* frame, const ProcFn* fn,
                                      Row args) {
  Proc proc = (*fn)(*frame->ctx, std::move(args));
  auto handle = proc.handle();
  frame->coroutine = std::move(proc);
  handle.promise().on_finished = [this, frame]() { OnProcBodyFinished(frame); };
  RunCoroutine(frame, handle);
}

void RuntimeBase::RunCoroutine(TxnFrame* frame, std::coroutine_handle<> h) {
  void* prev = internal::CurrentFrame();
  internal::SetCurrentFrame(frame);
  h.resume();
  internal::SetCurrentFrame(prev);
}

void RuntimeBase::OnProcBodyFinished(TxnFrame* frame) {
  ProcResult result =
      frame->coroutine.handle().promise().result;
  if (!result.ok()) frame->root->MarkAbort(result.status());
  if (frame->parent == nullptr) {
    frame->root->proc_result = result;
  } else if (frame->root->trace != nullptr) {
    frame->root->trace->Record(obs::SpanKind::kCallDone, SessionNowUs(),
                               static_cast<uint32_t>(frame->subtxn_id));
  }
  if (frame->remote) {
    // The caller holds the reply future, not `completion`: ship the result
    // home as a CallResponse. Sent from this executor's lane, so it batches
    // with any other messages this task produced.
    transport::CallResponse msg = transport::CallResponse::FromResult(
        frame->root->id, frame->transport_call_id, result);
    transport::Envelope e;
    e.kind = transport::MessageKind::kResponse;
    e.dst_container = frame->reply_to_container;
    e.wire = transport::EncodeMessage(msg);
    e.ctx = new PendingReply(std::move(frame->reply_state));
    PostEnvelope(frame->executor, std::move(e));
  }
  frame->completion.state()->Fulfill(std::move(result));
  OnFramePartDone(frame);
}

void RuntimeBase::OnFramePartDone(TxnFrame* frame) {
  if (frame->pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Frame fully complete: its own body and every nested sub-transaction.
  if (frame->in_active_set) {
    frame->reactor->active_set().Leave(frame->root->id, frame->subtxn_id);
  }
  TxnFrame* parent = frame->parent;
  if (parent == nullptr) {
    // Root transaction complete; finalize (commit/abort) on its executor.
    PostReady(frame->executor, [this, frame]() { FinalizeRoot(frame); });
    return;
  }
  if (frame->remote) {
    UnpinExecutor(frame->executor);
    frame->root->live_remote_children.fetch_sub(1, std::memory_order_acq_rel);
  }
  delete frame;
  OnFramePartDone(parent);
}

void RuntimeBase::FinalizeRoot(TxnFrame* root_frame) {
  RootTxn* root = root_frame->root;
  uint32_t executor = root_frame->executor;
  ProcResult outcome{Status::Internal("unset outcome")};
  bool committed = false;
  // Validate boundary: the last deadline check before effects would
  // install. A root that ran past its budget aborts here — Silo installs
  // writes only at commit, so expiry can never leave partial effects.
  if (!root->IsAborted() && root->deadline_us > 0 &&
      SessionNowUs() > root->deadline_us) {
    root->MarkAbort(
        Status::DeadlineExceeded("deadline expired before validation"));
  }
  // Metric updates below target this executor's single-writer shard:
  // FinalizeRoot runs on the root's home executor, the same discipline the
  // arena pool relies on.
  if (root->IsAborted()) {
    root->txn.Abort();
    Status s = root->AbortStatus();
    // Abort-reason family members: 0=cc, 1=user, 2=safety, 3=deadline.
    uint32_t reason = 0;
    if (s.IsSafetyAbort()) {
      reason = 2;
    } else if (s.IsUserAbort()) {
      reason = 1;
    } else if (s.IsDeadlineExceeded()) {
      proc_outcomes_.BumpDeadline(root->reactor_id, root->proc_id);
      reason = 3;
    }
    metrics_.Add(executor,
                 obs::MetricId::Offset(metric_ids_.txn_aborted, reason));
    if (root->trace != nullptr) {
      root->trace->Record(obs::SpanKind::kAbort, SessionNowUs());
    }
    outcome = s;
  } else {
    ChargeCommitCost(root);
    if (root->trace != nullptr) {
      root->trace->Record(obs::SpanKind::kValidate, SessionNowUs());
    }
    if (fault_injector_ != nullptr &&
        fault_injector_->ShouldFire("cc.skip_validation")) {
      // The isolation-audit mutation: this one commit skips Silo read-set
      // validation, so a concurrent overwrite it should abort on slips
      // through — the audit checker must catch and pinpoint it.
      root->txn.set_skip_validation(true);
    }
    StatusOr<uint64_t> tid =
        root->txn.Commit(&executors_[executor]->tids);
    if (tid.ok()) {
      root->commit_tid = *tid;
      metrics_.Add(executor, metric_ids_.txn_committed);
      if (root->txn.containers_touched().size() > 1) {
        metrics_.Add(executor, metric_ids_.txn_multi_container);
      }
      if (root->trace != nullptr) {
        double now = SessionNowUs();
        root->trace->Record(obs::SpanKind::kInstall, now);
        if (durability_ != nullptr) {
          // The redo records reached the executor's shard inside Commit.
          root->trace->Record(obs::SpanKind::kLogAppend, now);
        }
      }
      outcome = root->proc_result;
      committed = true;
    } else {
      metrics_.Add(executor, obs::MetricId::Offset(metric_ids_.txn_aborted, 0));
      if (root->trace != nullptr) {
        root->trace->Record(obs::SpanKind::kAbort, SessionNowUs());
      }
      outcome = tid.status();
    }
  }
  proc_outcomes_.Bump(root->reactor_id, root->proc_id, committed);
  double end_us = SessionNowUs();
  metrics_.Observe(executor, metric_ids_.txn_latency_us,
                   end_us - root->submit_time_us);
  if (root->arena != nullptr) {
    metrics_.GaugeMax(executor, metric_ids_.arena_used_hw,
                      static_cast<int64_t>(root->arena->bytes_used()));
    metrics_.GaugeMax(executor, metric_ids_.arena_reserved,
                      static_cast<int64_t>(root->arena->bytes_reserved()));
  }
  if (root->trace != nullptr) {
    root->trace->Record(obs::SpanKind::kFinalize, end_us);
    tracer_->Finish(root->trace, executor, committed,
                    committed ? TidWord::Epoch(root->commit_tid) : 0, end_us);
    root->trace = nullptr;
  }
  auto done = std::move(root->on_done);
  delete root_frame;
  UnpinExecutor(executor);
  OnRootRetired(executor);
  if (finalized_roots_.fetch_add(1, std::memory_order_relaxed) % 64 == 63) {
    epochs_.Advance();
  }
  if (durability_ != nullptr) {
    // Commits: their redo records reached the executor's shard inside
    // Commit, before the UnpinExecutor above — the ordering the epoch
    // seal relies on. Aborts kick too: an aborting root may have been the
    // last pin holding min_active back, and an earlier commit's durable
    // wait can only make progress once a flush reseals past it (the sim
    // flush pump re-kicks only on progress, so finalization must).
    KickDurability();
  }
  if (done) done(std::move(outcome), *root);
  Arena* arena = root->arena;
  delete root;
  // Reset only after the RootTxn (and with it every pointer into the arena)
  // is gone. FinalizeRoot runs on the root's executor, so the pool access
  // is single-threaded.
  if (arena != nullptr) executors_[executor]->arenas.Release(arena);
  // After `done` ran: a blocked client (session Submit/Wait, Stop's drain)
  // re-evaluates its predicate against the delivered completion.
  NotifyClientProgress();
}

Status RuntimeBase::RunDirect(const std::function<Status(SiloTxn&)>& fn) {
  // With durability on, direct transactions pin a dedicated epoch slot for
  // their whole lifetime (mirroring executor roots) and log through the
  // manager's direct shard — so the group-commit seal covers bulk loads
  // exactly like ordinary commits. The mutex serializes direct
  // transactions; they are bootstrap/test traffic, not the hot path.
  std::unique_lock<std::mutex> direct_lock;
  if (durability_ != nullptr) {
    direct_lock = std::unique_lock<std::mutex>(direct_mu_);
    epochs_.EnterEpoch(direct_epoch_slot_);
  }
  Status result;
  {
    SiloTxn txn(&epochs_);
    if (durability_ != nullptr) {
      txn.BindLog(durability_->direct_shard());
      if (audit_capture_) txn.EnableAuditCapture();
    }
    Status s = fn(txn);
    if (!s.ok()) {
      txn.Abort();
      result = s;
    } else {
      StatusOr<uint64_t> tid = txn.Commit(&direct_tids_);
      result = tid.ok() ? Status::OK() : tid.status();
    }
  }
  if (durability_ != nullptr) {
    epochs_.LeaveEpoch(direct_epoch_slot_);
    direct_lock.unlock();
    if (result.ok()) KickDurability();
  }
  return result;
}

// The blocking Execute convenience both runtimes used to duplicate
// (promise/future in ThreadRuntime, RunAll capture in SimRuntime) is one
// single-slot session; ClientSettle lets SimRuntime drain the quiesced
// simulation so the virtual-time trace matches the old behavior exactly.
ProcResult RuntimeBase::Execute(ReactorId reactor, ProcId proc, Row args) {
  ProcResult result{Status::Internal("unset outcome")};
  {
    client::Session session(this);
    result = std::move(
        session.Execute(reactor, proc, std::move(args)).result);
  }
  ClientSettle();
  return result;
}

ProcResult RuntimeBase::Execute(const std::string& reactor_name,
                                const std::string& proc_name, Row args) {
  // One-time name resolution, then the handle path.
  ReactorId reactor_id = ResolveReactor(reactor_name);
  Reactor* reactor = FindReactor(reactor_id);
  if (reactor == nullptr) {
    return ProcResult(Status::NotFound("no reactor " + reactor_name));
  }
  ProcId proc_id = reactor->type().FindProcId(proc_name);
  if (!proc_id.valid()) {
    return ProcResult(Status::NotFound("reactor type " +
                                       reactor->type().name() +
                                       " has no procedure " + proc_name));
  }
  return Execute(reactor_id, proc_id, std::move(args));
}

}  // namespace reactdb
