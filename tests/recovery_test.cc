// Crash-recovery tests for the durability subsystem (src/log/): kill-point
// matrix (crash before fsync, torn segment tail, corrupt frame, crash
// mid-checkpoint), exact-state equivalence against a reference run
// truncated at the recovered durable epoch, secondary index rebuild,
// wait_durable semantics, checkpoint truncation, and TID re-seeding —
// on both runtimes.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/log/durability.h"
#include "src/runtime/reactdb.h"
#include "src/util/logging.h"
#include "src/storage/record.h"
#include "src/storage/tid.h"
#include "src/workloads/smallbank/smallbank.h"

namespace reactdb {
namespace {

namespace fs = std::filesystem;
using client::Database;
using smallbank::CustomerName;

constexpr int64_t kCustomers = 8;
constexpr int kContainers = 2;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "reactdb_" + name;
  fs::remove_all(dir);
  return dir;
}

Database::Options SimDurable(const std::string& dir, bool auto_flush = true) {
  Database::Options o = Database::Sim();
  o.data_dir = dir;
  o.log_flush_interval_us = 0;  // flush "now" on the virtual clock
  o.log_auto_flush = auto_flush;
  return o;
}

/// Full state dump: every primary row and every secondary entry of every
/// table, in deterministic order. Two databases with equal dumps hold
/// exactly equal table contents *and* secondary indexes.
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

/// One deterministic committed deposit and its receipt.
struct Deposit {
  int64_t customer = 0;
  double amount = 0;
  uint64_t epoch = 0;
};

/// Runs `n` sequential transact_saving deposits and records each commit's
/// TID epoch (the unit the durable watermark seals).
std::vector<Deposit> RunDeposits(Database& db, int n, int first = 0) {
  std::vector<Deposit> log;
  auto session = db.CreateSession();
  for (int i = 0; i < n; ++i) {
    Deposit d;
    d.customer = (first + i) % kCustomers;
    d.amount = 1.0 + (first + i);
    ReactorId reactor = db.ResolveReactor(CustomerName(d.customer));
    client::TxnOutcome out = session->Execute(
        reactor, smallbank::kTransactSavingProc, {Value(d.amount)});
    EXPECT_TRUE(out.ok()) << out.status();
    d.epoch = TidWord::Epoch(out.commit_tid);
    log.push_back(d);
  }
  return log;
}

/// Reference state: a fresh volatile database with the deposit prefix of
/// epochs <= `durable` applied (deposits are sequential, and commit epochs
/// are monotone, so the epoch filter selects a prefix).
std::string ReferenceDump(const std::vector<Deposit>& deposits,
                          uint64_t durable) {
  ReactorDatabaseDef def;
  smallbank::BuildDef(&def, kCustomers);
  Database db;
  EXPECT_TRUE(
      db.Open(&def, DeploymentConfig::SharedNothing(kContainers),
              Database::Sim())
          .ok());
  EXPECT_TRUE(smallbank::Load(db.runtime(), kCustomers).ok());
  auto session = db.CreateSession();
  for (const Deposit& d : deposits) {
    if (d.epoch > durable) break;
    ReactorId reactor = db.ResolveReactor(CustomerName(d.customer));
    client::TxnOutcome out = session->Execute(
        reactor, smallbank::kTransactSavingProc, {Value(d.amount)});
    EXPECT_TRUE(out.ok()) << out.status();
  }
  session.reset();
  std::string dump = DumpState(db, def);
  db.Shutdown();
  return dump;
}

struct SmallbankRig {
  std::unique_ptr<ReactorDatabaseDef> def;
  std::unique_ptr<Database> db;

  explicit SmallbankRig(const Database::Options& options, bool load = true) {
    def = std::make_unique<ReactorDatabaseDef>();
    smallbank::BuildDef(def.get(), kCustomers);
    db = std::make_unique<Database>();
    open_status =
        db->Open(def.get(), DeploymentConfig::SharedNothing(kContainers),
                 options);
    if (open_status.ok() && load && !db->recovered()) {
      EXPECT_TRUE(smallbank::Load(db->runtime(), kCustomers).ok());
    }
  }
  Status open_status;
};

TEST(Recovery, CleanShutdownRecoversExactStateAndReseedsTids) {
  std::string dir = FreshDir("clean");
  std::string before;
  uint64_t last_commit_tid = 0;
  {
    SmallbankRig rig(SimDurable(dir));
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;
    EXPECT_FALSE(rig.db->recovered());
    RunDeposits(*rig.db, 40);
    auto session = rig.db->CreateSession();
    client::TxnOutcome last = session->Execute(
        rig.db->ResolveReactor(CustomerName(0)),
        smallbank::kTransactSavingProc, {Value(5.0)});
    ASSERT_TRUE(last.ok());
    last_commit_tid = last.commit_tid;
    before = DumpState(*rig.db, *rig.def);
    session.reset();
    rig.db->Shutdown();
  }
  {
    SmallbankRig rig(SimDurable(dir));
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;
    ASSERT_TRUE(rig.db->recovered());
    EXPECT_GT(rig.db->recovery().log_records_applied, 0u);
    EXPECT_EQ(before, DumpState(*rig.db, *rig.def));
    // TIDs re-seeded monotone: the first post-recovery commit must carry a
    // strictly larger TID (epoch past everything recovered).
    auto session = rig.db->CreateSession();
    client::TxnOutcome out = session->Execute(
        rig.db->ResolveReactor(CustomerName(1)),
        smallbank::kTransactSavingProc, {Value(1.0)});
    ASSERT_TRUE(out.ok());
    EXPECT_GT(TidWord::Tid(out.commit_tid), TidWord::Tid(last_commit_tid));
    EXPECT_GT(TidWord::Epoch(out.commit_tid), rig.db->recovery().max_epoch);
    session.reset();
    rig.db->Shutdown();
  }
}

TEST(Recovery, CrashBeforeFsyncRecoversExactlyTheDurablePrefix) {
  std::string dir = FreshDir("beforefsync");
  std::vector<Deposit> deposits;
  uint64_t durable_at_crash = 0;
  {
    SmallbankRig rig(SimDurable(dir, /*auto_flush=*/false));
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;
    rig.db->WaitDurable();  // the bulk load itself must survive
    deposits = RunDeposits(*rig.db, 16);
    rig.db->WaitDurable();  // group-commit point: first 16 are durable
    std::vector<Deposit> lost = RunDeposits(*rig.db, 14, /*first=*/16);
    deposits.insert(deposits.end(), lost.begin(), lost.end());
    durable_at_crash = rig.db->durable_epoch();
    // The 14 deposits after the last WaitDurable sit in shard buffers that
    // never reached the disk — exactly the "crash before fsync" point.
    EXPECT_LT(durable_at_crash, deposits.back().epoch);
    rig.db->CrashForTest();
  }
  {
    SmallbankRig rig(SimDurable(dir));
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;
    ASSERT_TRUE(rig.db->recovered());
    EXPECT_EQ(durable_at_crash, rig.db->recovery().durable_epoch);
    EXPECT_EQ(ReferenceDump(deposits, durable_at_crash),
              DumpState(*rig.db, *rig.def));
    rig.db->Shutdown();
  }
}

TEST(Recovery, TornSegmentTailRecoversTheRemainingPrefix) {
  std::string dir = FreshDir("torntail");
  std::vector<Deposit> deposits;
  {
    SmallbankRig rig(SimDurable(dir));
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;
    deposits = RunDeposits(*rig.db, 24);
    rig.db->Shutdown();  // clean: everything durable
  }
  // Tear the tail of every container's last segment, as an interrupted
  // write() would: the last frame of each becomes unreadable and the
  // durable horizon retreats.
  for (const auto& entry : fs::directory_iterator(dir + "/log")) {
    fs::resize_file(entry.path(), fs::file_size(entry.path()) - 5);
  }
  uint64_t durable = 0;
  {
    SmallbankRig rig(SimDurable(dir));
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;  // not an error
    ASSERT_TRUE(rig.db->recovered());
    durable = rig.db->recovery().durable_epoch;
    EXPECT_LT(durable, deposits.back().epoch + 1);
    EXPECT_EQ(ReferenceDump(deposits, durable),
              DumpState(*rig.db, *rig.def));
    // Crash again right away. The retained segments still hold record
    // bytes *beyond* the torn seal (flushed before their epoch sealed)
    // that this recovery just dropped for atomicity; the recovery
    // checkpoint must have purged them, or the fresh seed seals would
    // resurrect them now and the history clients observed would change.
    rig.db->CrashForTest();
  }
  {
    SmallbankRig rig(SimDurable(dir));
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;
    ASSERT_TRUE(rig.db->recovered());
    EXPECT_EQ(ReferenceDump(deposits, durable),
              DumpState(*rig.db, *rig.def));
    rig.db->Shutdown();
  }
}

TEST(Recovery, CorruptFrameSurfacesIOError) {
  std::string dir = FreshDir("corrupt");
  {
    SmallbankRig rig(SimDurable(dir));
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;
    RunDeposits(*rig.db, 8);
    rig.db->Shutdown();
  }
  // Flip a byte provably inside a frame *payload* (all bytes still
  // present): that is corruption, not a crash artifact, and must fail
  // loudly instead of silently recovering partial state. (A flip inside a
  // frame header can read as a torn tail, which is tolerated — so the test
  // walks the headers to aim at payload bytes.)
  bool flipped = false;
  for (const auto& entry : fs::directory_iterator(dir + "/log")) {
    auto data_or = log::ReadFile(entry.path().string());
    ASSERT_TRUE(data_or.ok());
    std::string data = std::move(*data_or);
    size_t pos = 0;
    while (pos + logrec::kFrameHeaderBytes <= data.size()) {
      uint32_t len = 0;
      for (int b = 0; b < 4; ++b) {
        len |= static_cast<uint32_t>(
                   static_cast<uint8_t>(data[pos + 4 + static_cast<size_t>(b)]))
               << (8 * b);
      }
      if (len > 0 && pos + logrec::kFrameHeaderBytes + len <= data.size()) {
        data[pos + logrec::kFrameHeaderBytes + len / 2] ^= 0x20;
        ASSERT_TRUE(
            log::WriteFileSync(entry.path().string(), data).ok());
        flipped = true;
        break;
      }
      pos += logrec::kFrameHeaderBytes + len;
    }
    if (flipped) break;
  }
  ASSERT_TRUE(flipped);
  {
    SmallbankRig rig(SimDurable(dir), /*load=*/false);
    ASSERT_FALSE(rig.open_status.ok());
    EXPECT_TRUE(rig.open_status.IsIOError()) << rig.open_status;
  }
}

TEST(Recovery, CheckpointTruncatesLogAndRecoversExactState) {
  std::string dir = FreshDir("checkpoint");
  std::string before;
  {
    SmallbankRig rig(SimDurable(dir));
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;
    RunDeposits(*rig.db, 20);
    log::CheckpointResult ckpt;
    ASSERT_TRUE(rig.db->Checkpoint(&ckpt).ok());
    EXPECT_GT(ckpt.rows, 0u);
    EXPECT_TRUE(fs::exists(ckpt.dir + "/MANIFEST"));
    RunDeposits(*rig.db, 12, /*first=*/20);
    before = DumpState(*rig.db, *rig.def);
    rig.db->Shutdown();
  }
  {
    SmallbankRig rig(SimDurable(dir));
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;
    ASSERT_TRUE(rig.db->recovered());
    EXPECT_GT(rig.db->recovery().checkpoint_rows, 0u);
    EXPECT_EQ(before, DumpState(*rig.db, *rig.def));
    rig.db->Shutdown();
  }
}

TEST(Recovery, CrashMidCheckpointIsIgnored) {
  std::string dir = FreshDir("midckpt");
  std::string before;
  {
    SmallbankRig rig(SimDurable(dir));
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;
    RunDeposits(*rig.db, 10);
    ASSERT_TRUE(rig.db->Checkpoint().ok());
    RunDeposits(*rig.db, 6, /*first=*/10);
    before = DumpState(*rig.db, *rig.def);
    rig.db->Shutdown();
  }
  // A checkpoint the crash interrupted: data present, no MANIFEST.
  fs::create_directories(dir + "/ckpt_99");
  ASSERT_TRUE(
      log::WriteFileSync(dir + "/ckpt_99/data.ckp", "half-written junk").ok());
  {
    SmallbankRig rig(SimDurable(dir));
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;
    EXPECT_EQ(before, DumpState(*rig.db, *rig.def));
    // The next successful checkpoint garbage-collects the artifact.
    ASSERT_TRUE(rig.db->Checkpoint().ok());
    EXPECT_FALSE(fs::exists(dir + "/ckpt_99"));
    rig.db->Shutdown();
  }
}

// A checkpoint roll must not overstate durability: when a commit's redo
// records are still only in a shard buffer (the thread-runtime race window
// between the checkpoint fence and the segment roll), the fresh segment's
// seed frame may only carry the container's *previous* seal. Staged at the
// manager level because the single-threaded simulator cannot interleave a
// commit with a running checkpoint.
TEST(Recovery, CheckpointRollDoesNotOverstateDurability) {
  std::string dir = FreshDir("rollseal");
  {
    EpochManager epochs;
    log::DurabilityOptions opts;
    opts.data_dir = dir;
    opts.auto_flush = false;
    log::DurabilityManager mgr(&epochs, /*num_containers=*/1,
                               /*executors_per_container=*/1, opts);
    ASSERT_TRUE(mgr.OpenStorage().ok());
    ASSERT_TRUE(mgr.StartActiveSegments().ok());
    // A commit appends at epoch 5, the clock moves on — the record is in
    // memory only.
    epochs.AdvanceTo(5);
    Row row{Value(int64_t{1}), Value(1.0)};
    mgr.shard(0)->AppendPut(0, 0, "key", TidWord::Make(5, 1), row.data(), 2);
    epochs.AdvanceTo(10);
    // Checkpoint roll hits exactly this window.
    std::string ckpt = mgr.NextCheckpointDir();
    fs::create_directories(ckpt);
    ASSERT_TRUE(mgr.OnCheckpointCommitted(/*ckpt_epoch=*/0, ckpt).ok());
    // Crash before any flush: the epoch-5 record dies with the buffers.
    mgr.Abandon();
  }
  {
    EpochManager epochs;
    log::DurabilityOptions opts;
    opts.data_dir = dir;
    log::DurabilityManager mgr(&epochs, 1, 1, opts);
    ASSERT_TRUE(mgr.OpenStorage().ok());
    // The recovered durable epoch must not cover the lost record's epoch —
    // a seed frame sealing min_active-1 (9) here would claim an epoch-5
    // record that never reached the disk.
    EXPECT_LT(mgr.recovered_durable_epoch(), 5u);
  }
}

// --- Secondary indexes + deletes, via a dedicated reactor type --------------

Proc Noop(TxnContext& ctx, Row args) {
  (void)ctx;
  (void)args;
  co_return Value(int64_t{0});
}

std::unique_ptr<ReactorDatabaseDef> LedgerDef() {
  auto def = std::make_unique<ReactorDatabaseDef>();
  ReactorType& type = def->DefineType("Ledger");
  type.AddSchema(SchemaBuilder("orders")
                     .AddColumn("id", ValueType::kInt64)
                     .AddColumn("owner", ValueType::kString)
                     .AddColumn("total", ValueType::kDouble)
                     .SetKey({"id"})
                     .AddIndex("by_owner", {"owner"})
                     .Build()
                     .value());
  type.AddProcedure("noop", &Noop);
  REACTDB_CHECK_OK(def->DeclareReactor("ledger", "Ledger"));
  return def;
}

TEST(Recovery, SecondaryIndexesAreRebuiltAndDeletesReplay) {
  std::string dir = FreshDir("secondary");
  auto def = LedgerDef();
  std::string before;
  {
    Database db;
    ASSERT_TRUE(
        db.Open(def.get(), DeploymentConfig::SharedNothing(1), SimDurable(dir))
            .ok());
    Table* orders = *db.FindTable("ledger", "orders");
    ASSERT_TRUE(db.RunDirect([&](SiloTxn& txn) -> Status {
                    for (int64_t i = 0; i < 10; ++i) {
                      REACTDB_RETURN_IF_ERROR(txn.Insert(
                          orders,
                          {Value(i), Value(i % 2 ? "alice" : "bob"),
                           Value(10.0 * static_cast<double>(i))},
                          0));
                    }
                    return Status::OK();
                  }).ok());
    // Move an entry (update changes the indexed column) and delete a row —
    // both must replay, and the rebuilt index must reflect them.
    ASSERT_TRUE(db.RunDirect([&](SiloTxn& txn) -> Status {
                    REACTDB_RETURN_IF_ERROR(txn.Update(
                        orders, {Value(int64_t{4})},
                        {Value(int64_t{4}), Value("alice"), Value(99.0)}, 0));
                    return txn.Delete(orders, {Value(int64_t{7})}, 0);
                  }).ok());
    before = DumpState(db, *def);
    db.Shutdown();
  }
  {
    Database db;
    ASSERT_TRUE(
        db.Open(def.get(), DeploymentConfig::SharedNothing(1), SimDurable(dir))
            .ok());
    ASSERT_TRUE(db.recovered());
    EXPECT_EQ(before, DumpState(db, *def));
    // Query through the rebuilt index: alice now owns 1,3,4,5,9 (4 moved
    // in, 7 deleted from bob's side).
    Table* orders = *db.FindTable("ledger", "orders");
    std::vector<int64_t> alice;
    ASSERT_TRUE(db.RunDirect([&](SiloTxn& txn) -> Status {
                    return txn.ScanSecondary(orders, 0, {Value("alice")}, -1,
                                             [&alice](const Row& row) {
                                               alice.push_back(
                                                   row[0].AsInt64());
                                               return true;
                                             },
                                             0);
                  }).ok());
    EXPECT_EQ((std::vector<int64_t>{1, 3, 4, 5, 9}), alice);
    // The deleted key must stay deleted.
    Status miss = db.RunDirect([&](SiloTxn& txn) -> Status {
      Row out;
      return txn.GetInto(orders, {Value(int64_t{7})}, &out, 0);
    });
    EXPECT_TRUE(miss.IsNotFound()) << miss;
    db.Shutdown();
  }
}

// --- wait_durable: group commit does real work and survives a kill ---------

/// Runs wait_durable deposits on a fresh `options.data_dir`: the group
/// commit must log records, issue fsyncs and hold deliveries for the
/// durable watermark while they run, and since every Wait() returned only
/// once its epoch was durable, a crash right after loses nothing.
void WaitDurableSurvivesCrash(const Database::Options& options) {
  auto def = std::make_unique<ReactorDatabaseDef>();
  smallbank::BuildDef(def.get(), kCustomers);
  double expected = 0;
  {
    Database db;
    ASSERT_TRUE(db.Open(def.get(),
                        DeploymentConfig::SharedNothing(kContainers), options)
                    .ok());
    ASSERT_FALSE(db.recovered());
    ASSERT_TRUE(smallbank::Load(db.runtime(), kCustomers).ok());
    const log::DurabilityStats& device = db.durability()->stats();
    uint64_t records_before = device.records_logged.load();
    uint64_t fsyncs_before = device.fsyncs.load();
    auto session = db.CreateSession({.max_outstanding = 4,
                                     .wait_durable = true});
    for (int i = 0; i < 12; ++i) {
      client::TxnOutcome out = session->Execute(
          db.ResolveReactor(CustomerName(i % kCustomers)),
          smallbank::kTransactSavingProc, {Value(100.0)});
      ASSERT_TRUE(out.ok()) << out.status();
    }
    client::SessionStats stats = session->stats();
    EXPECT_EQ(12u, stats.committed);
    EXPECT_GT(stats.durable_waits, 0u);
    EXPECT_GT(device.records_logged.load(), records_before)
        << "nothing was logged";
    EXPECT_GT(device.fsyncs.load(), fsyncs_before) << "no fsync ever happened";
    expected = 20000.0 * kCustomers + 12 * 100.0;
    session.reset();
    db.CrashForTest();
  }
  {
    Database db;
    ASSERT_TRUE(db.Open(def.get(),
                        DeploymentConfig::SharedNothing(kContainers), options)
                    .ok());
    ASSERT_TRUE(db.recovered());
    double total = smallbank::TotalBalance(db.runtime(), kCustomers).value();
    EXPECT_NEAR(expected, total, 1e-6);
    db.Shutdown();
  }
}

TEST(Recovery, ThreadRuntimeWaitDurableSurvivesCrash) {
  Database::Options o;  // threads
  o.data_dir = FreshDir("threads");
  o.log_flush_interval_us = 500;
  WaitDurableSurvivesCrash(o);
}

TEST(Recovery, SimWaitDurableSurvivesCrash) {
  WaitDurableSurvivesCrash(SimDurable(FreshDir("simwait")));
}

// An injected fsync failure latches kIOError exactly like a real device:
// the manager halts, the durable watermark freezes, later commits still
// execute (volatile), and a fault-free reopen recovers exactly the durable
// prefix.
TEST(Recovery, InjectedFsyncFailureLatchesAndReopenRecoversDurablePrefix) {
  std::string dir = FreshDir("injfsync");
  std::vector<Deposit> deposits;
  uint64_t durable_at_halt = 0;
  {
    Database::Options o = SimDurable(dir);
    o.fault.enabled = true;
    o.fault.seed = 3;
    // Arm the site out of range so the hook is installed but silent; the
    // test re-arms it at the exact point it wants the device to die.
    o.fault.file_fsync.probability = 1;
    o.fault.file_fsync.after_n = 1'000'000'000;
    SmallbankRig rig(o);
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;
    deposits = RunDeposits(*rig.db, 16);
    rig.db->WaitDurable();  // the first 16 reach the disk
    EXPECT_FALSE(rig.db->durability()->halted());
    durable_at_halt = rig.db->durable_epoch();

    fault::SiteSpec die;
    die.probability = 1;
    die.max_fires = 1;
    rig.db->fault_injector()->Arm("log.fsync", die);
    std::vector<Deposit> lost = RunDeposits(*rig.db, 8, /*first=*/16);
    deposits.insert(deposits.end(), lost.begin(), lost.end());
    rig.db->WaitDurable();  // flush hits the injected fsync failure

    EXPECT_TRUE(rig.db->durability()->halted());
    Status io = rig.db->durability()->io_status();
    EXPECT_TRUE(io.IsIOError()) << io;
    EXPECT_NE(std::string::npos, io.ToString().find("injected fsync fault"))
        << io;
    EXPECT_EQ(1u, rig.db->fault_injector()->fires("log.fsync"));
    // The watermark froze at the latch; the post-fault deposits committed
    // but can never become durable.
    EXPECT_EQ(durable_at_halt, rig.db->durable_epoch());
    rig.db->Shutdown();
  }
  {
    SmallbankRig rig(SimDurable(dir));  // no faults on reopen
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;
    ASSERT_TRUE(rig.db->recovered());
    EXPECT_LE(rig.db->recovery().durable_epoch, durable_at_halt);
    EXPECT_EQ(ReferenceDump(deposits, rig.db->recovery().durable_epoch),
              DumpState(*rig.db, *rig.def));
    rig.db->Shutdown();
  }
}

// Injected ENOSPC with a short write: half the frame lands on disk before
// the error latches — a torn tail recovery must drop. Reopen recovers
// exactly the durable prefix.
TEST(Recovery, InjectedEnospcShortWriteLatchesAndReopenRecovers) {
  std::string dir = FreshDir("injenospc");
  std::vector<Deposit> deposits;
  {
    Database::Options o = SimDurable(dir);
    o.fault.enabled = true;
    o.fault.seed = 5;
    o.fault.short_write = true;  // torn prefix, as a real ENOSPC leaves
    o.fault.file_write.probability = 1;
    o.fault.file_write.after_n = 1'000'000'000;
    SmallbankRig rig(o);
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;
    deposits = RunDeposits(*rig.db, 16);
    rig.db->WaitDurable();

    fault::SiteSpec die;
    die.probability = 1;
    die.max_fires = 1;
    rig.db->fault_injector()->Arm("log.write", die);
    std::vector<Deposit> lost = RunDeposits(*rig.db, 8, /*first=*/16);
    deposits.insert(deposits.end(), lost.begin(), lost.end());
    rig.db->WaitDurable();  // flush hits the injected write failure

    EXPECT_TRUE(rig.db->durability()->halted());
    Status io = rig.db->durability()->io_status();
    EXPECT_TRUE(io.IsIOError()) << io;
    EXPECT_NE(std::string::npos,
              io.ToString().find("No space left on device"))
        << io;
    rig.db->Shutdown();
  }
  {
    SmallbankRig rig(SimDurable(dir));
    ASSERT_TRUE(rig.open_status.ok()) << rig.open_status;
    ASSERT_TRUE(rig.db->recovered());
    // The torn half-frame is invisible: recovery truncates it and lands on
    // the durable prefix exactly.
    EXPECT_EQ(ReferenceDump(deposits, rig.db->recovery().durable_epoch),
              DumpState(*rig.db, *rig.def));
    rig.db->Shutdown();
  }
}

}  // namespace
}  // namespace reactdb
