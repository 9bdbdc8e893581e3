// bench_ledger: the end-to-end half of the perf ledger.
//
// Runs one named workload (ledger.h) through the public client::Database /
// Session API on ThreadRuntime, in this process only, and prints one JSON
// object as the last line of stdout:
//
//   bench_ledger --workload NAME --seed S --seconds T
//                [--instances K] [--trace] [--data-root DIR]
//
// Load shape: one client thread, one Session, a closed loop keeping the
// workload's window full. A request that rolls back without effect and may
// simply be re-run (kAborted, kAlreadyExists) is resubmitted by the client
// until it commits; every attempt's StatusCode is counted. Latency is what
// the client sees: NowUs() before the first Submit to the return of the
// Wait() that delivers the final outcome (for wait_durable sessions that
// includes the group-commit hold).
//
// A run is K instances, one after the other. Each instance is set up afresh
// (definition + Open + load + handle resolution, timed), warmed up for
// kWarmupS, measured for T/K seconds (requests completing inside the window
// are the sample), drained, checked for correctness, and torn down. Samples
// pool across instances; setup_s is the median set-up time. On a shared
// machine the throughput level of one database instance varies by ~10%
// from the next, so pooling K instances is what makes a run repeatable.
// The process exits 1 without printing a result when a check fails.
//
// --trace turns on the runtime's span tracer (Options::trace) and adds the
// per-layer numbers derived from DumpTraces() and from the post-run
// counters; end-to-end numbers must come from an untraced run.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <array>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/ledger/ledger.h"
#include "src/log/durability.h"
#include "src/storage/tid.h"
#include "src/util/logging.h"

namespace reactdb {
namespace ledger {
namespace {

constexpr double kWarmupS = 1;

struct Args {
  const Spec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 20;
  int instances = 4;
  bool trace = false;
  std::string data_root = ".bench_build/ledger_data";
};

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "bench_ledger: %s\n", what.c_str());
  std::exit(1);
}

void Require(const Status& s, const std::string& what) {
  if (!s.ok()) Fail(what + ": " + s.ToString());
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fail("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      std::string name = value();
      a.spec = FindSpec(name);
      if (a.spec == nullptr) Fail("unknown workload " + name);
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--instances") {
      a.instances = std::atoi(value().c_str());
    } else if (flag == "--trace") {
      a.trace = true;
    } else if (flag == "--data-root") {
      a.data_root = value();
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (a.spec == nullptr) Fail("--workload is required");
  if (a.seconds <= 0 || a.instances < 1) Fail("bad --seconds/--instances");
  return a;
}

// --- Set-up ------------------------------------------------------------------

/// A deployed, loaded database with its client-side handles. `db` is
/// declared after `def` so it is destroyed first (the definition must
/// outlive the database).
struct Deployed {
  std::unique_ptr<ReactorDatabaseDef> def;
  std::unique_ptr<client::Database> db;
  std::vector<ReactorId> targets;
  std::string data_dir;
};

client::Database::Options DbOptions(bool trace, const std::string& data_dir) {
  client::Database::Options o;  // default epoch tick and flush interval
  o.data_dir = data_dir;
  if (trace) {
    o.trace.enabled = true;
    o.trace.slow_threshold_us = 0;  // retain every trace...
    o.trace.max_retained = 65536;   // ...the last 64k of them
    o.trace.recent_per_executor = 0;
  }
  return o;
}

std::unique_ptr<Deployed> SetUp(const Args& args, const Placement& placement,
                                const std::string& data_dir) {
  const Spec& spec = *args.spec;
  auto owned = std::make_unique<Deployed>();
  Deployed& d = *owned;
  d.data_dir = data_dir;
  d.def = std::make_unique<ReactorDatabaseDef>();
  if (IsTpcc(spec)) {
    tpcc::BuildDef(d.def.get(), spec.warehouses);
  } else {
    smallbank::BuildDef(d.def.get(), NumTargets(spec));
  }
  d.def->DefineType(IsTpcc(spec) ? "Warehouse" : "Customer")
      .AddProcedure(kPinProcName, &PinExecutorProc);
  d.db = std::make_unique<client::Database>();
  placement.PinBackground();  // the runtime's threads inherit this mask
  Require(d.db->Open(d.def.get(),
                     DeploymentConfig::SharedNothing(spec.containers),
                     DbOptions(args.trace, data_dir)),
          "open");
  placement.PinClient();
  if (d.db->recovered()) Fail("data_dir " + data_dir + " is not empty");
  if (IsTpcc(spec)) {
    Require(tpcc::Load(d.db->runtime(), spec.warehouses, args.seed), "load");
    d.targets =
        tpcc::ResolveHandles(d.db->runtime(), spec.warehouses).warehouses;
  } else {
    Require(smallbank::Load(d.db->runtime(), NumTargets(spec)), "load");
    d.targets =
        smallbank::ResolveHandles(d.db->runtime(), NumTargets(spec)).customers;
  }
  // The generators assume range placement: container c holds warehouse
  // c + 1, or customers [c * per, (c + 1) * per).
  for (int c = 0; c < spec.containers; ++c) {
    ReactorId first = d.targets[static_cast<size_t>(
        IsTpcc(spec) ? c : c * spec.customers_per_container)];
    Reactor* r = d.db->runtime()->FindReactor(first);
    if (r == nullptr || r->container_id() != static_cast<uint32_t>(c)) {
      Fail("unexpected reactor placement");
    }
    Require(PinContainerExecutor(d.db.get(), first,
                                 placement.executor(static_cast<size_t>(c))),
            "pin executor");
  }
  return owned;
}

// --- The measured loop -------------------------------------------------------

constexpr int kMaxAttempts = 1000;

/// Rolled back with no effect; the client re-runs it. kAlreadyExists comes
/// from two concurrent TPC-C new-orders colliding on an eager insert: it
/// surfaces as a non-abort code, so session auto-retry would not catch it.
bool Retryable(StatusCode code) {
  return code == StatusCode::kAborted || code == StatusCode::kAlreadyExists;
}

/// A correct final outcome: commit, or TPC-C's deliberate invalid-item
/// rollback (spec clause 2.4.1.4).
bool CorrectOutcome(const Spec& spec, StatusCode code) {
  return code == StatusCode::kOk ||
         (IsTpcc(spec) && code == StatusCode::kUserAbort);
}

/// Transport and log counters, read at the edges of a measured window.
struct Counters {
  uint64_t sent = 0, batches = 0, wire_bytes = 0;
  uint64_t log_bytes = 0, fsyncs = 0, records = 0;

  static Counters Read(const client::Database& db) {
    Counters c;
    const transport::TransportStats& t = db.runtime()->transport()->stats();
    c.sent = t.total_sent();
    c.batches = t.batches.load();
    c.wire_bytes = t.wire_bytes.load();
    if (const log::DurabilityManager* d = db.durability()) {
      c.log_bytes = d->stats().bytes_written.load();
      c.fsyncs = d->stats().fsyncs.load();
      c.records = d->stats().records_logged.load();
    }
    return c;
  }
  void AddDelta(const Counters& from, const Counters& to) {
    sent += to.sent - from.sent;
    batches += to.batches - from.batches;
    wire_bytes += to.wire_bytes - from.wire_bytes;
    log_bytes += to.log_bytes - from.log_bytes;
    fsyncs += to.fsyncs - from.fsyncs;
    records += to.records - from.records;
  }
};

/// Results pooled over every instance of the run.
struct Totals {
  double window_us = 0;
  uint64_t ops = 0;        // logical requests completed in the windows
  uint64_t committed = 0;  // of those, committed
  uint64_t failed = 0;     // of those, final outcome incorrect
  uint64_t window_attempts = 0;
  std::array<uint64_t, 16> attempts_by_code{};  // every attempt in a window
  LatencyHistogram latency;
  Counters counters;       // deltas over the windows
  std::vector<double> instance_tps;
  // Client-side layer timings (traced run only).
  std::vector<double> submit_ns;
  std::vector<double> deliver_us;
};

/// What one instance's correctness check needs.
struct InstanceOutcome {
  double start_us = 0;  // measured window, on the session clock
  double end_us = 0;
  uint64_t failed = 0;  // incorrect final outcomes, warm-up and drain included
  double deposits = 0;  // smallbank money added by committed requests
  uint64_t max_ack_epoch = 0;
  client::SessionStats session;
};

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

InstanceOutcome RunInstance(const Args& args, Deployed& d, uint64_t gen_seed,
                            double seconds, Totals* t) {
  const Spec& spec = *args.spec;
  client::Database& db = *d.db;
  Generator gen(spec, gen_seed, d.targets);
  client::SessionOptions session_options;  // no auto-retry: see Retryable
  session_options.max_outstanding = spec.window;
  session_options.wait_durable = spec.durable;
  auto session = db.CreateSession(session_options);

  struct Op {
    Request req;
    double first_us = 0;
    int attempts = 0;
    client::SessionFuture fut;
  };
  std::deque<Op> inflight;
  InstanceOutcome r;
  uint64_t committed = 0;

  auto submit = [&](Op op) {
    Row args_copy = op.req.args;  // kept for a possible re-run
    double t0 = NowUs();
    if (op.attempts == 0) op.first_us = t0;
    op.fut = session->Submit(op.req.reactor, op.req.proc, std::move(args_copy));
    if (args.trace) t->submit_ns.push_back((NowUs() - t0) * 1e3);
    ++op.attempts;
    inflight.push_back(std::move(op));
  };

  r.start_us = NowUs() + kWarmupS * 1e6;
  r.end_us = r.start_us + seconds * 1e6;
  Counters at_start;
  bool started = false;
  bool submitting = true;
  while (true) {
    double now = NowUs();
    if (!started && now >= r.start_us) {
      started = true;
      at_start = Counters::Read(db);
    }
    if (submitting && now >= r.end_us) {
      submitting = false;
      t->counters.AddDelta(at_start, Counters::Read(db));
    }
    while (submitting && inflight.size() < spec.window) {
      Op op;
      op.req = gen.Next();
      submit(std::move(op));
    }
    if (inflight.empty()) break;

    Op op = std::move(inflight.front());
    inflight.pop_front();
    client::TxnOutcome out = op.fut.Wait();
    double done = NowUs();
    StatusCode code = out.status().code();
    bool in_window = done >= r.start_us && done < r.end_us;
    if (in_window) {
      ++t->attempts_by_code[static_cast<size_t>(code) & 15];
      ++t->window_attempts;
      if (args.trace) t->deliver_us.push_back(done - out.complete_us);
    }
    if (Retryable(code) && op.attempts < kMaxAttempts) {
      submit(std::move(op));
      continue;
    }
    bool correct = CorrectOutcome(spec, code);
    if (code == StatusCode::kOk) {
      r.deposits += op.req.deposit;
      r.max_ack_epoch =
          std::max(r.max_ack_epoch, TidWord::Epoch(out.commit_tid));
    }
    if (!correct) {
      ++r.failed;
      std::fprintf(stderr, "bench_ledger: request failed: %s\n",
                   out.status().ToString().c_str());
    }
    if (in_window) {
      ++t->ops;
      if (code == StatusCode::kOk) ++committed;
      if (correct) {
        t->latency.Add(done - op.first_us);
      } else {
        ++t->failed;
      }
    }
  }
  t->committed += committed;
  t->window_us += r.end_us - r.start_us;
  t->instance_tps.push_back(static_cast<double>(committed) / seconds);
  r.session = session->stats();
  return r;
}

// --- Correctness checks ------------------------------------------------------

constexpr double kInitialPerCustomer = 20000.0;  // smallbank::Load defaults

void CheckSmallbank(const Spec& spec, client::Database& db, double expected) {
  StatusOr<double> total =
      smallbank::TotalBalance(db.runtime(), NumTargets(spec));
  Require(total.status(), "total balance");
  if (*total != expected) {
    Fail("balance check: total " + std::to_string(*total) + " != expected " +
         std::to_string(expected));
  }
}

/// Reopens the durable workload's data_dir after a clean shutdown: every
/// acknowledged commit must be covered by the recovered durable epoch, and
/// transfers must have conserved the bank's total. Returns the recovered
/// durable epoch.
uint64_t CheckRecovery(const Spec& spec, const Deployed& d,
                       uint64_t max_ack_epoch, double expected) {
  client::Database reopened;
  Require(reopened.Open(d.def.get(),
                        DeploymentConfig::SharedNothing(spec.containers),
                        DbOptions(false, d.data_dir)),
          "reopen");
  if (!reopened.recovered()) Fail("reopen found no durable state");
  uint64_t epoch = reopened.recovery().durable_epoch;
  if (epoch < max_ack_epoch) {
    Fail("recovered durable epoch " + std::to_string(epoch) +
         " < acknowledged epoch " + std::to_string(max_ack_epoch));
  }
  CheckSmallbank(spec, reopened, expected);
  reopened.Shutdown();
  return epoch;
}

/// Runs the workload's check on a drained instance and shuts it down.
/// Returns the recovered durable epoch (0 for volatile workloads).
uint64_t CheckAndClose(const Spec& spec, Deployed& d,
                       const InstanceOutcome& r) {
  if (r.failed != 0) {
    Fail(std::to_string(r.failed) + " requests ended incorrectly");
  }
  double expected =
      kInitialPerCustomer * static_cast<double>(NumTargets(spec)) + r.deposits;
  if (IsTpcc(spec)) {
    Require(tpcc::CheckConsistency(d.db->runtime(), spec.warehouses),
            "TPC-C consistency");
  } else {
    CheckSmallbank(spec, *d.db, expected);
  }
  d.db->Shutdown();
  return spec.durable ? CheckRecovery(spec, d, r.max_ack_epoch, expected) : 0;
}

// --- Traced run: per-stage self times from DumpTraces() ----------------------

struct StageSamples {
  std::vector<double> queue, exec_self, call_cover, commit, log_append,
      finalize, call_rtt;
};

/// Parses one trace line of TraceStore::DumpJson (committed traces whose
/// submit falls in [start_us, end_us) only).
void ParseTrace(std::string_view line, double start_us, double end_us,
                StageSamples* s) {
  if (line.find("\"committed\":true") == std::string_view::npos) return;
  double submit = -1, dispatch = -1, validate = -1, install = -1,
         log_append = -1, finalize = -1;
  std::vector<std::pair<uint32_t, double>> sends, dones;
  size_t pos = 0;
  while ((pos = line.find("{\"span\":\"", pos)) != std::string_view::npos) {
    pos += 9;
    size_t name_end = line.find('"', pos);
    std::string_view name = line.substr(pos, name_end - pos);
    size_t t_pos = line.find("\"t_us\":", name_end) + 7;
    double t = std::strtod(line.data() + t_pos, nullptr);
    size_t d_pos = line.find("\"detail\":", t_pos) + 9;
    uint32_t detail =
        static_cast<uint32_t>(std::strtoul(line.data() + d_pos, nullptr, 10));
    if (name == "submit") submit = t;
    else if (name == "dispatch") dispatch = t;
    else if (name == "validate") validate = t;
    else if (name == "install") install = t;
    else if (name == "log_append") log_append = t;
    else if (name == "finalize") finalize = t;
    else if (name == "call_send") sends.emplace_back(detail, t);
    else if (name == "call_done") dones.emplace_back(detail, t);
    pos = d_pos;
  }
  if (submit < start_us || submit >= end_us || dispatch < 0 || validate < 0 ||
      install < 0 || finalize < 0) {
    return;
  }
  // Union of the [send, done] call intervals inside dispatch..validate: the
  // part of execution spent waiting on other containers.
  std::vector<std::pair<double, double>> calls;
  for (const auto& [id, t_send] : sends) {
    for (const auto& [done_id, t_done] : dones) {
      if (done_id != id) continue;
      calls.emplace_back(std::max(t_send, dispatch),
                         std::min(t_done, validate));
      s->call_rtt.push_back(t_done - t_send);
    }
  }
  std::sort(calls.begin(), calls.end());
  double cover = 0, cur_lo = 0, cur_hi = -1;
  for (const auto& [lo, hi] : calls) {
    if (hi <= lo) continue;
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) cover += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) cover += cur_hi - cur_lo;
  s->queue.push_back(dispatch - submit);
  s->exec_self.push_back(validate - dispatch - cover);
  s->call_cover.push_back(cover);
  s->commit.push_back(install - validate);
  double installed = install;
  if (log_append >= 0) {
    s->log_append.push_back(log_append - install);
    installed = log_append;
  }
  s->finalize.push_back(finalize - installed);
}

/// DumpJson writes one trace per line.
StageSamples ParseTraces(const std::string& dump, double start_us,
                         double end_us) {
  StageSamples s;
  size_t pos = 0;
  while (pos < dump.size()) {
    size_t eol = dump.find('\n', pos);
    if (eol == std::string::npos) eol = dump.size();
    std::string_view line(dump.data() + pos, eol - pos);
    if (line.find("\"root_id\"") != std::string_view::npos) {
      ParseTrace(line, start_us, end_us, &s);
    }
    pos = eol + 1;
  }
  return s;
}

/// Median of a stage's samples, or null when the workload never has it.
std::string MedianOrNull(const std::vector<double>& v) {
  if (v.empty()) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", Median(v));
  return buf;
}

/// The traced instance's per-layer metrics ("layers", all workloads) and
/// the stages a workload may lack ("layer_detail", null where absent).
void AddLayerMetrics(const Spec& spec, const Totals& t,
                     const InstanceOutcome& r, const std::string& traces,
                     const obs::StatsSnapshot& stats, JsonObject* layers,
                     JsonObject* extra) {
  // The trace ring holds the end of the window; span timestamps are on the
  // steady clock NowUs() reads, so the window filter applies directly.
  StageSamples st = ParseTraces(traces, r.start_us, r.end_us);
  double committed = 0, aborted = 0, mailbox_hw = 0;
  for (const obs::MetricSample& m : stats.samples) {
    if (m.name == "reactdb_txn_committed_total") committed += m.value;
    if (m.name == "reactdb_txn_aborted_total") aborted += m.value;
    if (m.name == "reactdb_mailbox_depth_hw") {
      mailbox_hw = std::max(mailbox_hw, m.value);
    }
  }
  double attempts =
      static_cast<double>(std::max<uint64_t>(t.window_attempts, 1));
  double sent = static_cast<double>(t.counters.sent);
  double batches =
      static_cast<double>(std::max<uint64_t>(t.counters.batches, 1));
  double deliver = Median(t.deliver_us);
  double stage_sum = deliver;
  for (const auto* v : {&st.queue, &st.exec_self, &st.call_cover, &st.commit,
                        &st.log_append, &st.finalize}) {
    if (!v->empty()) stage_sum += Median(*v);
  }
  double p50 = t.latency.Quantile(0.5);
  layers->Num("client.submit_ns", Median(t.submit_ns))
      .Num("client.deliver_us", deliver)
      .Num("runtime.queue_us", Median(st.queue))
      .Num("runtime.exec_us", Median(st.exec_self))
      .Num("runtime.finalize_us", Median(st.finalize))
      .Num("runtime.unattributed_us", p50 - stage_sum)
      .Num("transport.msgs_per_txn", sent / attempts)
      .Num("transport.envelopes_per_batch", sent / batches)
      .Num("transport.bytes_per_txn",
           static_cast<double>(t.counters.wire_bytes) / attempts)
      .Num("transport.mailbox_depth_hw", mailbox_hw)
      .Num("txn.commit_us", Median(st.commit))
      .Num("txn.commit_ratio", committed / std::max(1.0, committed + aborted));
  extra->Int("traces", st.queue.size())
      .Raw("transport.call_rtt_us", MedianOrNull(st.call_rtt))
      .Raw("transport.call_cover_us", MedianOrNull(st.call_cover))
      .Raw("log.append_us", MedianOrNull(st.log_append))
      .Num("traced_p50_us", p50)
      .Num("attributed_frac", stage_sum / p50);
  if (spec.durable) {
    double fsyncs = static_cast<double>(t.counters.fsyncs);
    extra
        ->Num("log.bytes_per_txn",
             static_cast<double>(t.counters.log_bytes) /
                 std::max(1.0, static_cast<double>(t.committed)))
        .Num("log.records_per_fsync",
             static_cast<double>(t.counters.records) / std::max(1.0, fsyncs))
        .Num("log.fsyncs_per_s", fsyncs / (t.window_us * 1e-6))
        .Num("log.durable_lag_p50_us", r.session.durable_lag_us.Quantile(0.5))
        .Num("log.durable_lag_p99_us",
             r.session.durable_lag_us.Quantile(0.99));
  }
}

// --- Reporting -----------------------------------------------------------------

const char* FsName(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: return "other";
  }
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  const Spec& spec = *args.spec;
  if (args.trace) args.instances = 1;  // the trace ring covers one instance
  Placement placement(spec.containers);

  std::string data_base;
  std::string data_fs = "none";
  if (spec.durable) {
    data_base = args.data_root + "/" + spec.name + "_" +
                std::to_string(static_cast<long>(getpid()));
    std::filesystem::remove_all(data_base);
    std::filesystem::create_directories(data_base);
    data_fs = FsName(data_base);
  }

  Totals t;
  std::vector<double> setup_s;
  uint64_t recovered_epoch = 0, max_ack_epoch = 0;
  double setup_rss_mb = 0;
  JsonObject layers, layer_detail;
  for (int i = 0; i < args.instances; ++i) {
    std::string dir =
        spec.durable ? data_base + "/i" + std::to_string(i) : std::string();
    double t0 = NowUs();
    std::unique_ptr<Deployed> d = SetUp(args, placement, dir);
    setup_s.push_back((NowUs() - t0) * 1e-6);
    if (i == 0) setup_rss_mb = PeakRssMb();
    InstanceOutcome r = RunInstance(args, *d, args.seed * 7919 + i,
                                    args.seconds / args.instances, &t);
    if (args.trace) {
      AddLayerMetrics(spec, t, r, d->db->DumpTraces(), d->db->Stats(),
                      &layers, &layer_detail);
    }
    max_ack_epoch = std::max(max_ack_epoch, r.max_ack_epoch);
    recovered_epoch = CheckAndClose(spec, *d, r);
    d.reset();
    if (spec.durable) std::filesystem::remove_all(dir);
  }
  if (spec.durable) std::filesystem::remove_all(data_base);

  // --- End-to-end metrics ---
  JsonObject metrics;
  metrics.Num("tps", static_cast<double>(t.committed) / (t.window_us * 1e-6))
      .Num("p50_us", t.latency.Quantile(0.50))
      .Num("p99_us", t.latency.Quantile(0.99))
      .Num("setup_s", Median(setup_s))
      .Num("rss_mb", setup_rss_mb);

  JsonObject codes;
  for (size_t c = 0; c < t.attempts_by_code.size(); ++c) {
    if (t.attempts_by_code[c] == 0) continue;
    codes.Int(std::string(StatusCodeName(static_cast<StatusCode>(c))),
              t.attempts_by_code[c]);
  }
  std::string instance_tps;
  for (double v : t.instance_tps) {
    instance_tps += (instance_tps.empty() ? "" : ",") + std::to_string(v);
  }
  // failed_frac over attempts: rolled-back attempts other than the
  // correct kUserAbort outcome, per attempt. The client re-ran them.
  double rolled_back = static_cast<double>(
      t.window_attempts - t.attempts_by_code[0] -
      t.attempts_by_code[static_cast<size_t>(StatusCode::kUserAbort)]);
  JsonObject detail;
  detail.Int("latency_samples", t.latency.count())
      .Num("p90_us", t.latency.Quantile(0.90))
      .Num("p999_us", t.latency.Quantile(0.999))
      .Num("failed_frac",
           rolled_back /
               std::max(1.0, static_cast<double>(t.window_attempts)))
      .Obj("attempts_by_code", codes)
      .Int("window_attempts", t.window_attempts)
      .Raw("instance_tps", "[" + instance_tps + "]")
      .Num("peak_rss_mb", PeakRssMb())
      .Str("data_dir_fs", data_fs)
      .Int("recovered_durable_epoch", recovered_epoch)
      .Int("max_acked_epoch", max_ack_epoch)
      .Str("placement", placement.Describe());

  JsonObject out;
  out.Str("workload", spec.name)
      .Int("seed", args.seed)
      .Bool("traced", args.trace)
      .Bool("correct", true)
      .Int("attempted", t.ops)
      .Int("failed", t.failed)
      .Obj("metrics", metrics)
      .Obj("detail", detail);
  if (args.trace) out.Obj("layers", layers).Obj("layer_detail", layer_detail);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace ledger
}  // namespace reactdb

int main(int argc, char** argv) { return reactdb::ledger::Main(argc, argv); }
