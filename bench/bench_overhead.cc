// Overhead bench: the marginal cost of the observability, audit and
// operational-plane subsystems on the warmed point-transaction path, and
// the cost and effect of admission control on the thread runtime.
//
// Sections:
//   instr    — the exact per-root recording sequence FinalizeRoot + the
//              session layer perform (outcome counter, latency histogram
//              observation, arena high-water gauge, per-proc outcome bump,
//              shared-shard session counters) in a tight standalone loop,
//              num_txns iterations, best of 5.
//   audit    — A/B on the warmed logged point txn: redo logging vs redo
//              logging + read-set capture (EnableAuditCapture),
//              2 * num_txns transactions per side, 9 reps.
//   monitor  — A/B on the warmed logged point txn with registry recording:
//              off vs the operational plane armed (flight event per epoch,
//              live sampler every 10 ms — 10x the shipped default, a
//              conservative overstatement), num_txns per side, 9 reps.
//   e2e      — warmed blocking point txns through client::Database on the
//              thread runtime: as shipped (metrics on), tracing, data_dir,
//              data_dir + audit, data_dir + monitor (20 ms sample interval).
//   shed     — the admission fast path: one long root pins occupancy above
//              a watermark of 1, so every Submit sheds synchronously; each
//              call is timed in real us (2000 calls, median and p99), on
//              the simulator (sim_shed_*) and on threads (shed_*).
//   overload — goodput under offered overload: Spinner txns with a fixed
//              50 us of compute on one container, so a single client
//              outruns its executor. Peak is a 16-deep closed loop with
//              admission off; the 2x/4x rows offer 32/64-deep windows
//              against a watermark of 20 roots, retry off (sheds are
//              terminal), num_txns / 20 txns per row.
//
// Reported ratios:
//   metrics_on_ratio = e2e / (e2e - instr): the shipped hot path against
//     the same path minus the measured instrumentation cost. The registry
//     cannot be switched off at runtime, so the uninstrumented baseline is
//     derived by subtraction — instr is measured, not estimated.
//   audit_capture_ratio, monitor_on_ratio = on / off of their A/B pair.
//   trace_on_ratio, e2e_audit_ratio, e2e_monitor_ratio: informational.
//   overload_retained_2x/4x = goodput at 2x/4x over peak.
//
// Gates (checked in CI from the JSON): metrics_on_ratio <= 1.05,
// audit_capture_ratio <= 1.10, monitor_on_ratio <= 1.03, shed_median_us
// and sim_shed_median_us < 10, overload_retained_2x >= 0.70,
// overload_retained_4x >= 0.50 and overload_shed_2x > 0. The matching
// 0 allocs/txn gates for the same paths live in tests/alloc_test.cc; the
// deterministic simulator overload gates live in tests/fault_test.cc
// (Overload.*).
//
// Usage: bench_overhead [out.json [num_txns]]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/log/log_shard.h"
#include "src/obs/flight.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/runtime/reactdb.h"
#include "src/storage/table.h"
#include "src/txn/epoch.h"
#include "src/txn/silo_txn.h"
#include "src/util/arena.h"
#include "src/util/histogram.h"
#include "src/util/logging.h"

namespace reactdb {
namespace bench {
namespace {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- instr: the standalone per-root recording sequence ----------------------

/// Measures, per iteration, everything one committed root records: the
/// executor-shard counter + histogram + gauge (FinalizeRoot), the per-proc
/// outcome bump, and the session layer's shared-shard traffic (submitted,
/// inflight +1/-1). Returns ns per iteration, best of `reps`.
double MeasureInstrSequence(int iters, int reps) {
  obs::MetricsRegistry reg;
  obs::MetricId committed = reg.Counter("reactdb_txn_committed_total", "c");
  obs::MetricId latency = reg.Histo("reactdb_txn_latency_us", "l");
  obs::MetricId arena_hw = reg.Gauge("reactdb_arena_used_bytes_hw", "a", {},
                                     obs::Aggregation::kMax);
  obs::MetricId submitted = reg.Counter("reactdb_session_submitted_total", "s");
  obs::MetricId inflight = reg.Gauge("reactdb_session_inflight", "i");
  reg.Freeze(1);
  obs::ProcOutcomeTable outcomes;
  outcomes.Init({4});

  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    double t0 = NowUs();
    for (int i = 0; i < iters; ++i) {
      reg.AddShared(submitted);
      reg.GaugeAddShared(inflight, 1);
      reg.Add(0, committed);
      reg.Observe(0, latency, 1.0 + 0.001 * (i & 1023));
      reg.GaugeMax(0, arena_hw, 2048 + (i & 255));
      outcomes.Bump(ReactorId{0}, ProcId{static_cast<uint32_t>(i & 3)}, true);
      reg.GaugeAddShared(inflight, -1);
    }
    double ns = (NowUs() - t0) * 1e3 / iters;
    if (rep == 0 || ns < best) best = ns;
  }
  REACTDB_CHECK(reg.Collect().Value("reactdb_txn_committed_total") > 0);
  return best;
}

// --- the warmed logged point-transaction rig --------------------------------

struct RigOptions {
  bool metrics = false;  // counter bump + latency Observe per txn
  bool audit = false;    // read-set capture (EnableAuditCapture)
  bool monitor = false;  // flight event per epoch + live 10 ms sampler
};

/// The smallbank transact_saving footprint with redo logging bound, as in
/// the allocation-regression rig: point read by cust_id, balance update,
/// Silo commit, arena reset at the boundary, periodic epoch ticks and
/// group-commit collection against a warm spare buffer. The RigOptions
/// flags add exactly the machinery the matching Database option arms.
class WarmedLoggedTxn {
 public:
  explicit WarmedLoggedTxn(RigOptions opts)
      : opts_(opts),
        savings_(SchemaBuilder("savings")
                     .AddColumn("cust_id", ValueType::kInt64)
                     .AddColumn("balance", ValueType::kDouble)
                     .SetKey({"cust_id"})
                     .Build()
                     .value()),
        key_({Value(int64_t{1})}) {
    committed_ = registry_.Counter("bench_txn_committed_total", "committed");
    latency_ = registry_.Histo("bench_txn_latency_us", "txn latency");
    registry_.Freeze(1);
    savings_.BindDurableId(ReactorId{0}, TableSlot{0});
    SiloTxn loader(&epochs_, &arena_);
    REACTDB_CHECK(
        loader.Insert(&savings_, {Value(int64_t{1}), Value(10000.0)}, 0).ok());
    REACTDB_CHECK(loader.Commit(&tids_).ok());
    arena_.Reset();
    if (opts_.monitor) {
      flight_ = std::make_unique<obs::FlightRecorder>(1, 256);
      flight_->set_clock(&NowUs);
      series_ = std::make_unique<obs::TimeSeriesStore>(64);
      sampler_ = std::thread([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
          series_->Sample(NowUs(), registry_.Collect());
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      });
    }
  }

  WarmedLoggedTxn(const WarmedLoggedTxn&) = delete;
  WarmedLoggedTxn& operator=(const WarmedLoggedTxn&) = delete;

  ~WarmedLoggedTxn() {
    if (sampler_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      sampler_.join();
    }
  }

  void RunOne() {
    double t0 = opts_.metrics ? NowUs() : 0;
    {
      SiloTxn txn(&epochs_, &arena_);
      txn.BindLog(&shard_);
      if (opts_.audit) txn.EnableAuditCapture();
      REACTDB_CHECK(txn.GetInto(&savings_, key_, &row_, 0).ok());
      updated_ = row_;
      updated_[1] = Value(updated_[1].AsDouble() + 1.0);
      REACTDB_CHECK(txn.Update(&savings_, key_, updated_, 0).ok());
      REACTDB_CHECK(txn.Commit(&tids_).ok());
    }
    arena_.Reset();
    if (opts_.metrics) {
      registry_.Add(0, committed_);
      registry_.Observe(0, latency_, NowUs() - t0);
    }
    if (++txns_ % 32 == 0) {
      epochs_.Advance();
      epochs_.Advance();
      if (flight_ != nullptr) {
        flight_->Record(0, obs::FlightEventKind::kEpochAdvance,
                        epochs_.current());
      }
      collect_spare_.clear();
      shard_.Collect(&collect_spare_);
    }
  }

  uint64_t samples_taken() const {
    return series_ == nullptr ? 0 : series_->samples_taken();
  }

 private:
  const RigOptions opts_;
  EpochManager epochs_;
  Arena arena_;
  TidSource tids_;
  Table savings_;
  Row key_;
  Row row_;
  Row updated_;
  log::LogShard shard_;
  std::string collect_spare_;
  uint64_t txns_ = 0;
  obs::MetricsRegistry registry_;
  obs::MetricId committed_;
  obs::MetricId latency_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::TimeSeriesStore> series_;
  std::atomic<bool> stop_{false};
  std::thread sampler_;
};

struct AB {
  double off_ns = 0;
  double on_ns = 0;
};

/// ns per transaction for an off/on rig pair. The two rigs run in many
/// short alternating batches and each side keeps its minimum batch time:
/// host frequency drift and noisy neighbors hit both sides equally, and
/// the min filters the interference out (the fastest batch is the
/// unperturbed one). `iters` is the total per side, split into `reps * 8`
/// batches. A monitored rig's sampler thread stays alive across off-side
/// batches — a periodic sampler is an ambient cost on the whole host.
AB MeasureAB(WarmedLoggedTxn& off, WarmedLoggedTxn& on, int iters, int reps) {
  int batches = reps * 8;
  int per_batch = iters / batches + 1;
  for (int i = 0; i < per_batch * 4; ++i) off.RunOne();  // warm
  for (int i = 0; i < per_batch * 4; ++i) on.RunOne();
  auto batch_ns = [per_batch](WarmedLoggedTxn& rig) {
    double t0 = NowUs();
    for (int i = 0; i < per_batch; ++i) rig.RunOne();
    return (NowUs() - t0) * 1e3 / per_batch;
  };
  AB r;
  for (int b = 0; b < batches; ++b) {
    // Alternate which side runs first so a monotonic frequency drift does
    // not systematically tax one side of the pair.
    double off_ns;
    double on_ns;
    if (b % 2 == 0) {
      off_ns = batch_ns(off);
      on_ns = batch_ns(on);
    } else {
      on_ns = batch_ns(on);
      off_ns = batch_ns(off);
    }
    if (b == 0 || off_ns < r.off_ns) r.off_ns = off_ns;
    if (b == 0 || on_ns < r.on_ns) r.on_ns = on_ns;
  }
  return r;
}

// --- e2e: the real runtime under a given Options ----------------------------

Proc BumpProc(TxnContext& ctx, Row args) {
  int64_t by = args.empty() ? 1 : args[0].AsInt64();
  REACTDB_CO_ASSIGN_OR_RETURN(Row row, ctx.Get("counter", {Value(int64_t{0})}));
  REACTDB_CO_RETURN_IF_ERROR(
      ctx.Update("counter", {Value(int64_t{0})},
                 {Value(int64_t{0}), Value(row[1].AsInt64() + by)}));
  co_return Value(row[1].AsInt64() + by);
}

/// Warmed blocking point transactions through client::Database on the
/// thread runtime; ns per transaction, best of `reps` batches. A data_dir
/// in `options` is created fresh and removed afterwards.
double MeasureEndToEnd(int num_txns, int reps,
                       const client::Database::Options& options) {
  auto def = std::make_unique<ReactorDatabaseDef>();
  ReactorType& t = def->DefineType("Counter");
  t.AddSchema(SchemaBuilder("counter")
                  .AddColumn("k", ValueType::kInt64)
                  .AddColumn("v", ValueType::kInt64)
                  .SetKey({"k"})
                  .Build()
                  .value());
  t.AddProcedure("bump", &BumpProc);
  REACTDB_CHECK_OK(def->DeclareReactor("c0", "Counter"));

  if (!options.data_dir.empty()) std::filesystem::remove_all(options.data_dir);
  client::Database db;
  REACTDB_CHECK_OK(
      db.Open(def.get(), DeploymentConfig::SharedNothing(1), options));
  REACTDB_CHECK_OK(db.RunDirect([&db](SiloTxn& txn) -> Status {
    REACTDB_ASSIGN_OR_RETURN(Table * tab, db.FindTable("c0", "counter"));
    return txn.Insert(tab, {Value(int64_t{0}), Value(int64_t{0})},
                      db.FindReactor("c0")->container_id());
  }));
  ReactorId c0 = db.ResolveReactor("c0");
  ProcId bump = db.ResolveProc(c0, "bump");
  auto session = db.CreateSession({.max_outstanding = 1});

  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (int i = 0; i < num_txns / 4; ++i) {  // warm every batch
      REACTDB_CHECK(session->Execute(c0, bump, {Value(int64_t{1})}).ok());
    }
    double t0 = db.NowUs();
    for (int i = 0; i < num_txns; ++i) {
      REACTDB_CHECK(session->Execute(c0, bump, {Value(int64_t{1})}).ok());
    }
    double ns = (db.NowUs() - t0) * 1e3 / num_txns;
    if (rep == 0 || ns < best) best = ns;
  }
  if (options.audit) REACTDB_CHECK(!db.AuditStatus().violation);
  // The sampler sampled. Health is not asserted: a saturating run on a
  // starved host can (correctly) degrade, which is not a bench failure.
  if (options.monitor.enabled) {
    REACTDB_CHECK(db.runtime()->series()->samples_taken() > 0);
  }
  db.Shutdown();
  if (!options.data_dir.empty()) std::filesystem::remove_all(options.data_dir);
  return best;
}

// --- shed and overload: admission control ----------------------------------

Proc SpinProc(TxnContext& ctx, Row args) {
  ctx.Compute(args[0].AsNumeric());
  co_return Value(int64_t{1});
}

/// Opens `db` with one Spinner reactor, s0, on one container, against the
/// given outstanding-root shed watermark.
void OpenSpinner(client::Database& db, ReactorDatabaseDef& def, int watermark,
                 const client::Database::Options& options) {
  def.DefineType("Spinner").AddProcedure("spin", &SpinProc);
  REACTDB_CHECK_OK(def.DeclareReactor("s0", "Spinner"));
  DeploymentConfig dc = DeploymentConfig::SharedNothing(1);
  dc.shed_outstanding_roots = watermark;
  REACTDB_CHECK_OK(db.Open(&def, dc, options));
}

struct ShedLatency {
  double median_us = 0;
  double p99_us = 0;
};

/// One long root holds occupancy above a watermark of 1; every subsequent
/// Submit sheds synchronously inside the call, so timing the call times
/// the admission fast path (counter compare + status construction +
/// completion callback) in real microseconds.
ShedLatency MeasureShed(const client::Database::Options& options) {
  constexpr int kSheds = 2000;
  ReactorDatabaseDef def;
  client::Database db;
  OpenSpinner(db, def, /*watermark=*/1, options);
  ReactorId s0 = db.ResolveReactor("s0");
  ProcId spin = db.ResolveProc(s0, "spin");

  client::SessionOptions sopts;
  sopts.max_outstanding = kSheds + 8;
  sopts.retry.max_attempts = 1;
  auto session = db.CreateSession(sopts);
  // The occupant: 50 ms of compute (virtual or real) keeps outstanding
  // roots at 1 for the whole measurement.
  client::SessionFuture occupant =
      session->Submit(s0, spin, {Value(50000.0)});

  Histogram us;
  for (int i = 0; i < kSheds; ++i) {
    double t0 = NowUs();
    session->Submit(s0, spin, {Value(1.0)});  // delivery is FIFO-deferred
    us.Add(NowUs() - t0);
  }
  session->Drain();
  REACTDB_CHECK(session->stats().shed == kSheds);
  REACTDB_CHECK(occupant.Wait().ok());
  session.reset();
  db.Shutdown();
  return {us.Median(), us.Quantile(0.99)};
}

// Fixed compute per txn: one client submits far faster than one executor
// retires, so the 2x/4x windows really offer more than capacity.
constexpr double kSpinUs = 50;
constexpr size_t kBaseWindow = 16;
// Above the 1x window (no sheds at nominal load), below 2x of it.
constexpr int kWatermark = 20;

struct LoadPoint {
  double goodput_tps = 0;
  uint64_t shed = 0;
};

/// Offers `n` Spinner txns through a `window`-deep session against
/// `watermark` (0 = admission off), after a warm-up stream; goodput counts
/// only commits, per real second.
LoadPoint MeasureLoad(int watermark, size_t window, int n) {
  ReactorDatabaseDef def;
  client::Database db;
  OpenSpinner(db, def, watermark, client::Database::Threads());
  ReactorId s0 = db.ResolveReactor("s0");
  ProcId spin = db.ResolveProc(s0, "spin");
  client::SessionOptions sopts;
  sopts.max_outstanding = window;
  sopts.retry.max_attempts = 1;
  auto session = db.CreateSession(sopts);

  auto stream = [&](int count) {
    LoadPoint p;
    uint64_t committed = 0;
    double t0 = NowUs();
    std::vector<client::SessionFuture> inflight;
    size_t head = 0;
    auto consume = [&] {
      client::TxnOutcome out = inflight[head++].Wait();
      if (out.ok()) {
        ++committed;
      } else {
        REACTDB_CHECK(out.status().IsOverloaded());
        ++p.shed;
      }
    };
    for (int i = 0; i < count; ++i) {
      if (inflight.size() - head >= window) consume();
      inflight.push_back(session->Submit(s0, spin, {Value(kSpinUs)}));
    }
    while (head < inflight.size()) consume();
    p.goodput_tps = static_cast<double>(committed) / ((NowUs() - t0) * 1e-6);
    return p;
  };
  stream(n / 10 + 1);  // warm
  LoadPoint p = stream(n);
  session.reset();
  db.Shutdown();
  return p;
}

void Run(const std::string& out_path, int num_txns) {
  double instr_ns = MeasureInstrSequence(num_txns, 5);
  AB audit;
  {
    WarmedLoggedTxn off({});
    WarmedLoggedTxn on({.audit = true});
    audit = MeasureAB(off, on, 2 * num_txns, 9);
  }
  AB monitor;
  {
    WarmedLoggedTxn off({.metrics = true});
    WarmedLoggedTxn on({.metrics = true, .monitor = true});
    monitor = MeasureAB(off, on, num_txns, 9);
    REACTDB_CHECK(on.samples_taken() > 0);  // the sampler actually ran
  }

  const int e2e_txns = num_txns / 10 + 1;
  constexpr int kE2eReps = 5;
  client::Database::Options shipped;
  client::Database::Options traced;
  traced.trace.enabled = true;
  traced.trace.slow_threshold_us = 1e12;  // ring copies, no promotion
  client::Database::Options logged;
  logged.data_dir =
      (std::filesystem::temp_directory_path() / "reactdb_bench_overhead")
          .string();
  client::Database::Options audited = logged;
  audited.audit = true;
  client::Database::Options monitored = logged;
  monitored.monitor.enabled = true;
  monitored.monitor.sample_interval_us = 20000;
  double e2e_ns = MeasureEndToEnd(e2e_txns, kE2eReps, shipped);
  double e2e_trace_ns = MeasureEndToEnd(e2e_txns, kE2eReps, traced);
  double e2e_logged_ns = MeasureEndToEnd(e2e_txns, kE2eReps, logged);
  double e2e_audit_ns = MeasureEndToEnd(e2e_txns, kE2eReps, audited);
  double e2e_monitor_ns = MeasureEndToEnd(e2e_txns, kE2eReps, monitored);

  ShedLatency sim_shed = MeasureShed(client::Database::Sim());
  ShedLatency shed = MeasureShed(client::Database::Threads());
  const int load_txns = num_txns / 20 + 1;
  LoadPoint peak = MeasureLoad(/*watermark=*/0, kBaseWindow, load_txns);
  REACTDB_CHECK(peak.shed == 0);
  LoadPoint x2 = MeasureLoad(kWatermark, 2 * kBaseWindow, load_txns);
  LoadPoint x4 = MeasureLoad(kWatermark, 4 * kBaseWindow, load_txns);

  const std::vector<std::pair<const char*, double>> rows = {
      {"instr_ns_per_txn", instr_ns},
      {"metrics_off_ns_per_txn", e2e_ns - instr_ns},
      {"metrics_on_ns_per_txn", e2e_ns},
      {"trace_on_ns_per_txn", e2e_trace_ns},
      {"audit_off_ns_per_txn", audit.off_ns},
      {"audit_on_ns_per_txn", audit.on_ns},
      {"monitor_off_ns_per_txn", monitor.off_ns},
      {"monitor_on_ns_per_txn", monitor.on_ns},
      {"e2e_logged_ns_per_txn", e2e_logged_ns},
      {"e2e_audit_ns_per_txn", e2e_audit_ns},
      {"e2e_monitor_ns_per_txn", e2e_monitor_ns},
      {"metrics_on_ratio", e2e_ns / (e2e_ns - instr_ns)},
      {"trace_on_ratio", e2e_trace_ns / e2e_ns},
      {"audit_capture_ratio", audit.on_ns / audit.off_ns},
      {"e2e_audit_ratio", e2e_audit_ns / e2e_logged_ns},
      {"monitor_on_ratio", monitor.on_ns / monitor.off_ns},
      {"e2e_monitor_ratio", e2e_monitor_ns / e2e_logged_ns},
      {"sim_shed_median_us", sim_shed.median_us},
      {"sim_shed_p99_us", sim_shed.p99_us},
      {"shed_median_us", shed.median_us},
      {"shed_p99_us", shed.p99_us},
      {"overload_peak_tps", peak.goodput_tps},
      {"overload_2x_tps", x2.goodput_tps},
      {"overload_4x_tps", x4.goodput_tps},
      {"overload_shed_2x", static_cast<double>(x2.shed)},
      {"overload_shed_4x", static_cast<double>(x4.shed)},
      {"overload_retained_2x", x2.goodput_tps / peak.goodput_tps},
      {"overload_retained_4x", x4.goodput_tps / peak.goodput_tps},
  };
  for (const auto& [key, value] : rows) {
    std::printf("%-24s %12.4f\n", key, value);
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    REACTDB_CHECK(f != nullptr);
    std::fprintf(f, "{\n  \"bench\": \"overhead_point_txn\",\n");
    std::fprintf(f, "  \"num_txns\": %d", num_txns);
    for (const auto& [key, value] : rows) {
      std::fprintf(f, ",\n  \"%s\": %.4f", key, value);
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
}

}  // namespace
}  // namespace bench
}  // namespace reactdb

int main(int argc, char** argv) {
  std::string out = argc > 1 ? argv[1] : "";
  int num_txns = argc > 2 ? std::atoi(argv[2]) : 200000;
  reactdb::bench::Run(out, num_txns);
  return 0;
}
