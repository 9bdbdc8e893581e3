// Fault-injection tests (PR 8 robustness): injector determinism (same seed
// => same fire sequence, Nth-operation schedules, rejection bursts), a
// seeded chaos matrix on smallbank under SimRuntime — link drop / delay /
// duplicate / reorder, volatile and logged — asserting balance
// conservation, exactly-once session completion, and byte-identical replay
// from the plan seed (fire log, digest, and final table dump all equal),
// end-to-end deadline expiry (terminal, no partial effects, metered), and
// overload shedding (watermark + injected admission bursts) with
// backoff-driven retry convergence, graceful goodput degradation under
// 2x/4x offered load, and the shed-every-submit fast path on both runtimes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/audit/checker.h"
#include "src/fault/fault.h"
#include "src/runtime/reactdb.h"
#include "src/storage/record.h"
#include "src/util/logging.h"
#include "src/workloads/smallbank/smallbank.h"

namespace reactdb {
namespace {

namespace fs = std::filesystem;
using client::Database;
using fault::FaultInjector;
using fault::FaultOptions;
using fault::SiteSpec;
using smallbank::CustomerName;

constexpr int64_t kCustomers = 8;
constexpr int kContainers = 2;
constexpr int kTransfers = 60;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "reactdb_fault_" + name;
  fs::remove_all(dir);
  return dir;
}

// --- FaultInjector unit determinism -----------------------------------------

TEST(FaultInjectorTest, SameSeedSameFireSequence) {
  FaultInjector a(42), b(42);
  SiteSpec spec;
  spec.probability = 0.3;
  a.Arm("link.drop", spec);
  b.Arm("link.drop", spec);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.ShouldFire("link.drop"), b.ShouldFire("link.drop"))
        << "draw " << i << " diverged under equal seeds";
  }
  EXPECT_GT(a.fires("link.drop"), 0u);
  EXPECT_EQ(a.fires("link.drop"), b.fires("link.drop"));
  EXPECT_EQ(a.FireLog(), b.FireLog());
  EXPECT_EQ(a.Digest(), b.Digest());
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultInjector a(1), b(2);
  SiteSpec spec;
  spec.probability = 0.3;
  a.Arm("link.drop", spec);
  b.Arm("link.drop", spec);
  for (int i = 0; i < 1000; ++i) {
    a.ShouldFire("link.drop");
    b.ShouldFire("link.drop");
  }
  EXPECT_NE(a.FireLog(), b.FireLog());
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(FaultInjectorTest, NthOperationScheduleIsExact) {
  // "Fail exactly the 5th draw": probability 1, skip 4, fire once.
  FaultInjector inj(7);
  SiteSpec spec;
  spec.probability = 1;
  spec.after_n = 4;
  spec.max_fires = 1;
  inj.Arm("log.fsync", spec);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(i == 4, inj.ShouldFire("log.fsync")) << "draw " << i;
  }
  EXPECT_EQ(1u, inj.fires("log.fsync"));
  EXPECT_EQ(10u, inj.draws("log.fsync"));
  ASSERT_EQ(1u, inj.FireLog().size());
  EXPECT_EQ("log.fsync@4", inj.FireLog()[0]);
}

TEST(FaultInjectorTest, BurstFiresConsecutivelyAndCountsOnce) {
  FaultInjector inj(7);
  SiteSpec spec;
  spec.probability = 1;
  spec.after_n = 2;
  spec.max_fires = 1;
  spec.burst = 3;
  inj.Arm("admission.reject", spec);
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(inj.ShouldFire("admission.reject"));
  EXPECT_EQ((std::vector<bool>{false, false, true, true, true, false, false,
                               false}),
            fired);
  // The whole burst is one fire against max_fires, three fire-log entries.
  EXPECT_EQ(1u, inj.fires("admission.reject"));
  EXPECT_EQ(3u, inj.total_fires());
}

TEST(FaultInjectorTest, UnarmedSiteNeverFiresOrDraws) {
  FaultInjector inj(7);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(inj.ShouldFire("link.dup"));
  EXPECT_EQ(0u, inj.draws("link.dup"));
  EXPECT_EQ(0u, inj.total_fires());
  EXPECT_EQ(FaultInjector(7).Digest(), inj.Digest());
}

TEST(FaultInjectorTest, ArmingOneSiteDoesNotShiftAnother) {
  // Per-site seeded streams: link.drop's decisions are identical whether or
  // not link.delay is also armed.
  SiteSpec spec;
  spec.probability = 0.3;
  FaultInjector alone(9), both(9);
  alone.Arm("link.drop", spec);
  both.Arm("link.drop", spec);
  both.Arm("link.delay", spec);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(alone.ShouldFire("link.drop"), both.ShouldFire("link.drop"));
    both.ShouldFire("link.delay");
  }
  EXPECT_EQ(alone.fires("link.drop"), both.fires("link.drop"));
}

// --- Chaos matrix on smallbank under SimRuntime -----------------------------

/// Full deterministic table dump (primary rows + secondary entries): two
/// runs with equal dumps ended in exactly the same database state.
std::string DumpState(Database& db, const ReactorDatabaseDef& def) {
  std::string out;
  for (const std::string& name : def.ReactorNames()) {
    Reactor* reactor = db.FindReactor(name);
    const std::vector<Table*>& tables = reactor->bound_tables();
    for (size_t slot = 0; slot < tables.size(); ++slot) {
      Table* table = tables[slot];
      if (table == nullptr) continue;
      out += "== " + name + "/" + table->name() + "\n";
      Status s = db.RunDirect([&](SiloTxn& txn) -> Status {
        return txn.Scan(table, {}, {}, -1,
                        [&out](const Row& row) {
                          out += RowToString(row) + "\n";
                          return true;
                        },
                        reactor->container_id());
      });
      EXPECT_TRUE(s.ok()) << s;
      for (size_t i = 0; i < table->num_secondary_indexes(); ++i) {
        out += "-- index " + std::to_string(i) + "\n";
        table->secondary(i).Scan(
            "", "", [&out](const std::string& key, Record* rec) {
              RecordSnapshot snap = ReadRecord(*rec);
              if (snap.row == nullptr) return true;  // tombstone
              out += key + " -> " + RowToString(*snap.row) + "\n";
              return true;
            });
      }
    }
  }
  return out;
}

struct ChaosResult {
  client::SessionStats stats;
  uint64_t fault_fires = 0;
  uint64_t fault_digest = 0;
  std::vector<std::string> fire_log;
  double total_balance = 0;
  std::string state;
  /// Logged runs only: online-auditor status at shutdown plus the offline
  /// re-check of the retained segments.
  audit::AuditorStatus online_audit;
  std::optional<audit::DirectoryAuditResult> offline_audit;
};

/// One seeded chaos run: cross-container transfers (sources on container 1,
/// destinations on container 0) through a retrying session on a sim
/// Database with `fo` armed. The submission schedule is a pure function of
/// the loop index, so two runs differ only by the fault plan.
ChaosResult RunChaos(FaultOptions fo, const std::string& data_dir) {
  auto def = std::make_unique<ReactorDatabaseDef>();
  smallbank::BuildDef(def.get(), kCustomers);
  Database db;
  Database::Options options = Database::Sim();
  options.fault = fo;
  if (!data_dir.empty()) {
    options.data_dir = data_dir;
    options.log_flush_interval_us = 0;
    // Every logged chaos run also runs under audit: link faults must never
    // make the committed history non-serializable.
    options.audit = true;
  }
  REACTDB_CHECK_OK(db.Open(def.get(), DeploymentConfig::SharedNothing(kContainers),
                           options));
  REACTDB_CHECK_OK(smallbank::Load(db.runtime(), kCustomers));
  smallbank::Handles handles =
      smallbank::ResolveHandles(db.runtime(), kCustomers);

  client::SessionOptions sopts;
  sopts.max_outstanding = 8;
  sopts.retry.max_attempts = 50;
  sopts.retry.initial_backoff_us = 10;  // keep virtual chaos runs short
  auto session = db.CreateSession(sopts);
  for (int i = 0; i < kTransfers; ++i) {
    size_t src = static_cast<size_t>(4 + i % 4);
    int64_t dst = i % 4;
    session
        ->Submit(handles.customers[src], smallbank::kTransferProc,
                 {Value(CustomerName(dst)), Value(1.0), Value(false)})
        .Then([](client::TxnOutcome) {});
  }
  session->Drain();

  ChaosResult r;
  r.stats = session->stats();
  if (db.fault_injector() != nullptr) {
    r.fault_fires = db.fault_injector()->total_fires();
    r.fault_digest = db.fault_injector()->Digest();
    r.fire_log = db.fault_injector()->FireLog();
  }
  r.total_balance = smallbank::TotalBalance(db.runtime(), kCustomers).value();
  r.state = DumpState(db, *def);
  session.reset();
  db.Shutdown();
  if (!data_dir.empty()) {
    r.online_audit = db.AuditStatus();
    auto offline = audit::AuditDirectory(data_dir);
    EXPECT_TRUE(offline.ok()) << offline.status().ToString();
    if (offline.ok()) r.offline_audit = *std::move(offline);
  }
  return r;
}

FaultOptions ChaosMode(const std::string& name) {
  FaultOptions fo;
  fo.enabled = true;
  fo.seed = 0xC0FFEE;
  // CI chaos smoke: sweep plan seeds without recompiling.
  if (const char* env = std::getenv("REACTDB_CHAOS_SEED")) {
    fo.seed = std::strtoull(env, nullptr, 0);
  }
  if (name == "drop" || name == "mixed") fo.link_drop.probability = 0.10;
  if (name == "delay" || name == "mixed") fo.link_delay.probability = 0.20;
  if (name == "dup" || name == "mixed") fo.link_dup.probability = 0.20;
  if (name == "reorder" || name == "mixed") fo.link_reorder.probability = 0.30;
  return fo;
}

// Every link-fault mode, volatile and logged: transfers conserve the total
// balance and every submission completes exactly once (committed ==
// submitted despite drops, duplicates, and reordering), with the fault
// plan actually firing.
TEST(ChaosMatrix, ConservationAndExactlyOnceUnderLinkFaults) {
  const double initial = 2 * 10000.0 * kCustomers;
  for (const char* mode : {"drop", "delay", "dup", "reorder", "mixed"}) {
    for (bool logged : {false, true}) {
      SCOPED_TRACE(std::string(mode) + (logged ? "/logged" : "/volatile"));
      std::string dir =
          logged ? FreshDir(std::string("chaos_") + mode) : std::string();
      ChaosResult r = RunChaos(ChaosMode(mode), dir);
      EXPECT_GT(r.fault_fires, 0u) << "fault plan never fired";
      EXPECT_DOUBLE_EQ(initial, r.total_balance)
          << "transfers move money, never create or destroy it";
      EXPECT_EQ(static_cast<uint64_t>(kTransfers), r.stats.committed)
          << "exactly-once completion: every submission must commit";
      EXPECT_EQ(0u, r.stats.failed);
      EXPECT_EQ(0u, r.stats.deadline_exceeded);
      if (logged) {
        // Audit both ways: the trailing online auditor saw the whole run
        // clean, and the offline checker re-verifies the retained segments.
        EXPECT_FALSE(r.online_audit.violation) << r.online_audit.first_violation;
        EXPECT_GT(r.online_audit.records, 0u) << "audit capture never ran";
        ASSERT_TRUE(r.offline_audit.has_value());
        EXPECT_TRUE(r.offline_audit->clean())
            << audit::FormatViolation(r.offline_audit->violations.front());
        EXPECT_GT(r.offline_audit->stats.txns, 0u);
      }
    }
  }
}

// The isolation-audit mutation test, CC-broken direction: with every commit
// skipping Silo read-set validation under contention, lost updates really
// happen — and both the trailing online auditor and the offline checker
// must detect them and pinpoint an offending transaction. (The CC-intact
// direction is the matrix above: every logged chaos run audits clean.)
TEST(ChaosMatrix, SkipValidationMutationIsDetected) {
  FaultOptions fo = ChaosMode("mixed");
  fo.cc_skip_validation.probability = 1;  // every commit skips validation
  ChaosResult r = RunChaos(fo, FreshDir("mutation"));
  EXPECT_TRUE(r.online_audit.violation)
      << "online auditor missed the injected CC hole";
  ASSERT_TRUE(r.offline_audit.has_value());
  ASSERT_FALSE(r.offline_audit->clean())
      << "offline checker missed the injected CC hole";
  const audit::Violation& v = r.offline_audit->violations.front();
  EXPECT_NE(0u, v.tid) << "violation must pinpoint a transaction";
  EXPECT_FALSE(audit::FormatViolation(v).empty());
  // The online auditor latched the same history failure.
  EXPECT_FALSE(r.online_audit.first_violation.empty());
}

// The replay guarantee: under SimRuntime the same plan seed reproduces the
// identical fault sequence (fire log and digest) and the identical final
// database state, byte for byte; a different seed makes different fault
// decisions.
TEST(ChaosMatrix, SameSeedReplaysByteIdentically) {
  ChaosResult a = RunChaos(ChaosMode("mixed"), "");
  ChaosResult b = RunChaos(ChaosMode("mixed"), "");
  ASSERT_GT(a.fault_fires, 0u);
  EXPECT_EQ(a.fire_log, b.fire_log);
  EXPECT_EQ(a.fault_digest, b.fault_digest);
  EXPECT_EQ(a.state, b.state) << "final table dumps diverged under one seed";
  EXPECT_EQ(a.stats.committed, b.stats.committed);
  EXPECT_EQ(a.stats.retried, b.stats.retried);

  FaultOptions other = ChaosMode("mixed");
  other.seed ^= 0xBADBEEF;  // distinct from any swept seed
  ChaosResult c = RunChaos(other, "");
  EXPECT_NE(a.fire_log, c.fire_log)
      << "different plan seeds made identical fault decisions";
}

TEST(ChaosMatrix, SameSeedReplaysByteIdenticallyWhenLogged) {
  ChaosResult a = RunChaos(ChaosMode("mixed"), FreshDir("replay_a"));
  ChaosResult b = RunChaos(ChaosMode("mixed"), FreshDir("replay_b"));
  ASSERT_GT(a.fault_fires, 0u);
  EXPECT_EQ(a.fire_log, b.fire_log);
  EXPECT_EQ(a.fault_digest, b.fault_digest);
  EXPECT_EQ(a.state, b.state);
}

// --- End-to-end deadlines ---------------------------------------------------

/// Sim smallbank database without faults, plus session handles.
struct DeadlineRig {
  std::unique_ptr<ReactorDatabaseDef> def;
  Database db;
  smallbank::Handles handles;

  DeadlineRig() {
    def = std::make_unique<ReactorDatabaseDef>();
    smallbank::BuildDef(def.get(), kCustomers);
    REACTDB_CHECK_OK(db.Open(
        def.get(), DeploymentConfig::SharedNothing(kContainers),
        Database::Sim()));
    REACTDB_CHECK_OK(smallbank::Load(db.runtime(), kCustomers));
    handles = smallbank::ResolveHandles(db.runtime(), kCustomers);
  }
};

// A cross-container transfer with a sub-cost budget must expire: the
// default cost calibration charges >0.5us before the first deadline
// boundary, so kDeadlineExceeded is deterministic under virtual time — and
// terminal (attempts == 1, never retried) with no partial effects (neither
// the debit nor the credit survives).
TEST(Deadline, TinyBudgetExpiresTerminallyWithoutPartialEffects) {
  DeadlineRig rig;
  const double initial =
      smallbank::TotalBalance(rig.db.runtime(), kCustomers).value();

  auto session = rig.db.CreateSession({.max_outstanding = 4});
  client::TxnOutcome out = session
                               ->Submit(rig.handles.customers[4],
                                        smallbank::kTransferProc,
                                        {Value(CustomerName(0)), Value(5.0),
                                         Value(false)},
                                        /*budget_us=*/0.5)
                               .Wait();
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsDeadlineExceeded()) << out.status().ToString();
  EXPECT_EQ(1, out.attempts) << "deadline expiry must never be retried";

  client::SessionStats stats = session->stats();
  EXPECT_EQ(1u, stats.deadline_exceeded);
  EXPECT_EQ(0u, stats.committed);
  EXPECT_EQ(0u, stats.retried);
  EXPECT_DOUBLE_EQ(1, rig.db.Stats().Value("reactdb_txn_aborted_total",
                                           {{"reason", "deadline"}}));

  // No partial effects: the aborted transfer moved nothing.
  EXPECT_DOUBLE_EQ(initial,
                   smallbank::TotalBalance(rig.db.runtime(), kCustomers).value());
  client::TxnOutcome dst =
      session->Execute(rig.handles.customers[0], smallbank::kBalanceProc, {});
  ASSERT_TRUE(dst.ok()) << dst.status().ToString();
  EXPECT_DOUBLE_EQ(20000.0, dst.result->AsNumeric());

  // The expiry is metered per (reactor, proc).
  std::string prom = rig.db.Stats().ToPrometheus();
  EXPECT_NE(std::string::npos,
            prom.find("reactdb_proc_deadline_exceeded_total"))
      << prom;
}

TEST(Deadline, AmpleBudgetCommits) {
  DeadlineRig rig;
  auto session = rig.db.CreateSession({.max_outstanding = 4});
  client::TxnOutcome out = session
                               ->Submit(rig.handles.customers[4],
                                        smallbank::kTransferProc,
                                        {Value(CustomerName(0)), Value(5.0),
                                         Value(false)},
                                        /*budget_us=*/1e6)
                               .Wait();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(0u, session->stats().deadline_exceeded);
  EXPECT_DOUBLE_EQ(0, rig.db.Stats().Value("reactdb_txn_aborted_total",
                                           {{"reason", "deadline"}}));
}

// SessionOptions::default_budget_us applies when Submit passes no explicit
// budget, and an explicit per-call budget overrides it.
TEST(Deadline, DefaultBudgetAppliesAndPerCallOverrides) {
  DeadlineRig rig;
  client::SessionOptions sopts;
  sopts.max_outstanding = 4;
  sopts.default_budget_us = 0.5;
  auto session = rig.db.CreateSession(sopts);

  client::TxnOutcome expired =
      session
          ->Submit(rig.handles.customers[5], smallbank::kTransferProc,
                   {Value(CustomerName(1)), Value(1.0), Value(false)})
          .Wait();
  EXPECT_TRUE(expired.status().IsDeadlineExceeded())
      << expired.status().ToString();

  client::TxnOutcome committed =
      session
          ->Submit(rig.handles.customers[5], smallbank::kTransferProc,
                   {Value(CustomerName(1)), Value(1.0), Value(false)},
                   /*budget_us=*/1e6)
          .Wait();
  EXPECT_TRUE(committed.ok()) << committed.status().ToString();
}

// --- Overload shedding and backoff ------------------------------------------

// Outstanding-root watermark: flooding a small watermark sheds new
// submissions fast with kOverloaded, while session retries (which bypass
// admission) converge — every submission eventually commits, the runtime
// counts the sheds, and the backoff histogram shows the retries actually
// waited.
TEST(Overload, WatermarkShedsAndBackoffRetriesConverge) {
  auto def = std::make_unique<ReactorDatabaseDef>();
  smallbank::BuildDef(def.get(), kCustomers);
  Database db;
  DeploymentConfig dc = DeploymentConfig::SharedNothing(kContainers);
  dc.shed_outstanding_roots = 2;
  REACTDB_CHECK_OK(db.Open(def.get(), dc, Database::Sim()));
  REACTDB_CHECK_OK(smallbank::Load(db.runtime(), kCustomers));
  smallbank::Handles handles =
      smallbank::ResolveHandles(db.runtime(), kCustomers);

  client::SessionOptions sopts;
  sopts.max_outstanding = 16;  // window far above the admission watermark
  sopts.retry.max_attempts = 100;
  sopts.retry.initial_backoff_us = 5;
  auto session = db.CreateSession(sopts);
  constexpr int kTxns = 40;
  for (int i = 0; i < kTxns; ++i) {
    session
        ->Submit(handles.customers[static_cast<size_t>(i % 4)],
                 smallbank::kTransactSavingProc, {Value(1.0)})
        .Then([](client::TxnOutcome) {});
  }
  session->Drain();

  client::SessionStats stats = session->stats();
  EXPECT_EQ(static_cast<uint64_t>(kTxns), stats.committed)
      << "retry-with-backoff must convert sheds into delayed completion";
  EXPECT_EQ(0u, stats.failed);
  EXPECT_GT(db.Stats().Value("reactdb_txn_shed_total"), 0)
      << "watermark never shed";
  EXPECT_GT(stats.retried, 0u);
  EXPECT_GT(stats.backoff_us.count(), 0u)
      << "every shed retry should wait a jittered backoff";

  std::string prom = db.Stats().ToPrometheus();
  EXPECT_NE(std::string::npos, prom.find("reactdb_txn_shed_total")) << prom;
  EXPECT_NE(std::string::npos, prom.find("reactdb_mailbox_depth_hw")) << prom;
}

// An injected admission.reject burst sheds exactly `burst` consecutive
// submissions with kOverloaded; without retry they surface to the caller
// as terminal rejections, and everything else commits untouched.
TEST(Overload, InjectedAdmissionBurstShedsExactly) {
  auto def = std::make_unique<ReactorDatabaseDef>();
  smallbank::BuildDef(def.get(), kCustomers);
  Database db;
  Database::Options options = Database::Sim();
  options.fault.enabled = true;
  options.fault.seed = 11;
  options.fault.admission_reject.probability = 1;
  options.fault.admission_reject.after_n = 2;
  options.fault.admission_reject.max_fires = 1;
  options.fault.admission_reject.burst = 3;
  REACTDB_CHECK_OK(
      db.Open(def.get(), DeploymentConfig::SharedNothing(kContainers), options));
  REACTDB_CHECK_OK(smallbank::Load(db.runtime(), kCustomers));
  smallbank::Handles handles =
      smallbank::ResolveHandles(db.runtime(), kCustomers);

  client::SessionOptions sopts;
  sopts.max_outstanding = 1;  // serialize: draw order == submission order
  sopts.retry.max_attempts = 1;
  auto session = db.CreateSession(sopts);
  constexpr int kTxns = 10;
  int shed = 0, committed = 0;
  for (int i = 0; i < kTxns; ++i) {
    client::TxnOutcome out =
        session
            ->Submit(handles.customers[static_cast<size_t>(i % 4)],
                     smallbank::kTransactSavingProc, {Value(1.0)})
            .Wait();
    if (out.ok()) {
      ++committed;
    } else {
      EXPECT_TRUE(out.status().IsOverloaded()) << out.status().ToString();
      EXPECT_TRUE(out.rejected) << "shed submissions never reach the runtime";
      EXPECT_TRUE(i >= 2 && i < 5) << "burst must hit draws 2..4, hit " << i;
      ++shed;
    }
  }
  EXPECT_EQ(3, shed);
  EXPECT_EQ(kTxns - 3, committed);
  EXPECT_DOUBLE_EQ(3, db.Stats().Value("reactdb_txn_shed_total"));
  EXPECT_EQ(3u, session->stats().shed);
  // One fire against the schedule (the burst), three fire-log entries.
  EXPECT_EQ(1u, db.fault_injector()->fires("admission.reject"));
  EXPECT_EQ(3u, db.fault_injector()->total_fires());
}

// Retrying sessions absorb an injected burst: with retry_overloaded (the
// default) the three shed submissions come back with backoff and commit.
TEST(Overload, RetryAbsorbsInjectedBurst) {
  auto def = std::make_unique<ReactorDatabaseDef>();
  smallbank::BuildDef(def.get(), kCustomers);
  Database db;
  Database::Options options = Database::Sim();
  options.fault.enabled = true;
  options.fault.seed = 11;
  options.fault.admission_reject.probability = 1;
  options.fault.admission_reject.after_n = 2;
  options.fault.admission_reject.max_fires = 1;
  options.fault.admission_reject.burst = 3;
  REACTDB_CHECK_OK(
      db.Open(def.get(), DeploymentConfig::SharedNothing(kContainers), options));
  REACTDB_CHECK_OK(smallbank::Load(db.runtime(), kCustomers));
  smallbank::Handles handles =
      smallbank::ResolveHandles(db.runtime(), kCustomers);

  client::SessionOptions sopts;
  sopts.max_outstanding = 4;
  sopts.retry.max_attempts = 10;
  sopts.retry.initial_backoff_us = 5;
  auto session = db.CreateSession(sopts);
  constexpr int kTxns = 10;
  for (int i = 0; i < kTxns; ++i) {
    session
        ->Submit(handles.customers[static_cast<size_t>(i % 4)],
                 smallbank::kTransactSavingProc, {Value(1.0)})
        .Then([](client::TxnOutcome) {});
  }
  session->Drain();

  client::SessionStats stats = session->stats();
  EXPECT_EQ(static_cast<uint64_t>(kTxns), stats.committed);
  EXPECT_EQ(0u, stats.shed) << "no shed may surface as a final outcome";
  EXPECT_GE(stats.retried, 3u);
  EXPECT_GE(stats.backoff_us.count(), 3u);
  EXPECT_DOUBLE_EQ(3, db.Stats().Value("reactdb_txn_shed_total"));
}

// --- Graceful degradation under offered overload ----------------------------

constexpr int kOverloadContainers = 8;
constexpr int64_t kOverloadCustomers = 8000;
constexpr size_t kBaseWindow = 16;
// Above the 1x window (no sheds at nominal load), below 2x of it.
constexpr int kWatermark = 20;

struct OfferedLoad {
  double goodput_tps = 0;
  uint64_t shed = 0;
};

/// Offers `n` transact_saving txns through a `window`-deep session against
/// an outstanding-root `watermark` (0 = admission off), after a warm-up
/// stream, on a fresh simulated database. Retry is off, so a shed is
/// terminal and goodput (commits per virtual second) counts only commits.
/// Requests rotate over distinct customers on every container.
OfferedLoad OfferLoad(const ReactorDatabaseDef* def, int watermark,
                      size_t window, int n) {
  Database db;
  DeploymentConfig dc = DeploymentConfig::SharedNothing(kOverloadContainers);
  dc.shed_outstanding_roots = watermark;
  REACTDB_CHECK_OK(db.Open(def, dc, Database::Sim()));
  REACTDB_CHECK_OK(smallbank::Load(db.runtime(), kOverloadCustomers));
  smallbank::Handles handles =
      smallbank::ResolveHandles(db.runtime(), kOverloadCustomers);
  client::SessionOptions sopts;
  sopts.max_outstanding = window;
  sopts.retry.max_attempts = 1;
  auto session = db.CreateSession(sopts);

  auto stream = [&](int count) {
    OfferedLoad r;
    uint64_t committed = 0;
    double t0 = db.NowUs();
    std::vector<client::SessionFuture> inflight;
    size_t head = 0;
    auto consume = [&] {
      client::TxnOutcome out = inflight[head++].Wait();
      if (out.ok()) {
        ++committed;
      } else {
        EXPECT_TRUE(out.status().IsOverloaded()) << out.status().ToString();
        ++r.shed;
      }
    };
    int64_t per = kOverloadCustomers / kOverloadContainers;
    for (int i = 0; i < count; ++i) {
      if (inflight.size() - head >= window) consume();
      int64_t idx = (i % kOverloadContainers) * per + 1 +
                    (i / kOverloadContainers) % (per - 1);
      inflight.push_back(
          session->Submit(handles.customers[static_cast<size_t>(idx)],
                          smallbank::kTransactSavingProc, {Value(1.0)}));
    }
    while (head < inflight.size()) consume();
    r.goodput_tps =
        static_cast<double>(committed) / ((db.NowUs() - t0) * 1e-6);
    return r;
  };
  stream(n / 10 + 1);  // warm
  OfferedLoad measured = stream(n);
  session.reset();
  db.Shutdown();
  return measured;
}

// Offered load at 2x and 4x the base window against a watermark between
// them: the excess is shed fast with kOverloaded while admitted work keeps
// the executors busy, so goodput holds near the unshed peak instead of
// collapsing under queueing. Deterministic on the simulator.
TEST(Overload, GoodputDegradesGracefullyUnderOfferedLoad) {
  constexpr int kTxns = 2000;
  ReactorDatabaseDef def;
  smallbank::BuildDef(&def, kOverloadCustomers);
  OfferedLoad peak = OfferLoad(&def, /*watermark=*/0, kBaseWindow, kTxns);
  ASSERT_EQ(0u, peak.shed);
  OfferedLoad x2 = OfferLoad(&def, kWatermark, 2 * kBaseWindow, kTxns);
  OfferedLoad x4 = OfferLoad(&def, kWatermark, 4 * kBaseWindow, kTxns);
  EXPECT_GT(x2.shed, 0u) << "2x offered load never crossed the watermark";
  EXPECT_GE(x2.goodput_tps / peak.goodput_tps, 0.70)
      << "2x: " << x2.goodput_tps << " tps vs peak " << peak.goodput_tps;
  EXPECT_GE(x4.goodput_tps / peak.goodput_tps, 0.50)
      << "4x: " << x4.goodput_tps << " tps vs peak " << peak.goodput_tps;
}

std::atomic<bool> g_release_occupant{false};

/// Holds its executor, and with it one outstanding root, until released.
Proc HoldProc(TxnContext&, Row) {
  while (!g_release_occupant.load()) std::this_thread::yield();
  co_return Value(int64_t{1});
}

// One root pinned against a watermark of 1 puts every later Submit over
// the watermark: each must shed synchronously, on both runtimes.
TEST(Overload, PinnedOccupantShedsEverySubmit) {
  constexpr uint64_t kSheds = 2000;
  for (bool sim : {true, false}) {
    SCOPED_TRACE(sim ? "sim" : "threads");
    ReactorDatabaseDef def;
    def.DefineType("Holder").AddProcedure("hold", &HoldProc);
    REACTDB_CHECK_OK(def.DeclareReactor("h0", "Holder"));
    Database db;
    DeploymentConfig dc = DeploymentConfig::SharedNothing(1);
    dc.shed_outstanding_roots = 1;
    REACTDB_CHECK_OK(
        db.Open(&def, dc, sim ? Database::Sim() : Database::Threads()));
    ReactorId h0 = db.ResolveReactor("h0");
    ProcId hold = db.ResolveProc(h0, "hold");

    client::SessionOptions sopts;
    sopts.max_outstanding = kSheds + 8;
    sopts.retry.max_attempts = 1;
    auto session = db.CreateSession(sopts);
    g_release_occupant.store(false);
    client::SessionFuture occupant = session->Submit(h0, hold, {});
    for (uint64_t i = 0; i < kSheds; ++i) session->Submit(h0, hold, {});
    g_release_occupant.store(true);
    session->Drain();
    EXPECT_EQ(kSheds, session->stats().shed);
    EXPECT_TRUE(occupant.Wait().ok());
    session.reset();
    db.Shutdown();
  }
}

}  // namespace
}  // namespace reactdb
