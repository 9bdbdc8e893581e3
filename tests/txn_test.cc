// OCC transaction tests: read-your-writes, validation conflicts, phantom
// protection, secondary index maintenance, delete/insert semantics, epoch
// reclamation, and multi-threaded conflict stress.
#include <gtest/gtest.h>

#include <thread>

#include "src/storage/table.h"
#include "src/txn/silo_txn.h"
#include "src/util/rng.h"

namespace reactdb {
namespace {

Schema AccountSchema() {
  return SchemaBuilder("account")
      .AddColumn("id", ValueType::kInt64)
      .AddColumn("owner", ValueType::kString)
      .AddColumn("balance", ValueType::kDouble)
      .SetKey({"id"})
      .AddIndex("by_owner", {"owner"})
      .Build()
      .value();
}

class SiloTxnTest : public ::testing::Test {
 protected:
  SiloTxnTest() : table_(AccountSchema()) {}

  Status Put(int64_t id, const std::string& owner, double balance) {
    SiloTxn txn(&epochs_);
    REACTDB_RETURN_IF_ERROR(
        txn.Insert(&table_, {Value(id), Value(owner), Value(balance)}, 0));
    return txn.Commit(&tids_).status();
  }

  StatusOr<Row> Read(int64_t id) {
    SiloTxn txn(&epochs_);
    auto row = txn.Get(&table_, {Value(id)}, 0);
    (void)txn.Commit(&tids_);
    return row;
  }

  EpochManager epochs_;
  TidSource tids_;
  Table table_;
};

TEST_F(SiloTxnTest, InsertThenReadBack) {
  ASSERT_TRUE(Put(1, "alice", 100).ok());
  StatusOr<Row> row = Read(1);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ("alice", (*row)[1].AsString());
  EXPECT_DOUBLE_EQ(100, (*row)[2].AsNumeric());
}

TEST_F(SiloTxnTest, GetMissingIsNotFound) {
  EXPECT_TRUE(Read(99).status().IsNotFound());
}

TEST_F(SiloTxnTest, ReadYourOwnWrites) {
  ASSERT_TRUE(Put(1, "alice", 100).ok());
  SiloTxn txn(&epochs_);
  ASSERT_TRUE(
      txn.Update(&table_, {Value(int64_t{1})},
                 {Value(int64_t{1}), Value("alice"), Value(250.0)}, 0)
          .ok());
  StatusOr<Row> row = txn.Get(&table_, {Value(int64_t{1})}, 0);
  ASSERT_TRUE(row.ok());
  EXPECT_DOUBLE_EQ(250, (*row)[2].AsNumeric());  // pending value visible
  // Uncommitted writes invisible to others.
  {
    SiloTxn other(&epochs_);
    StatusOr<Row> other_row = other.Get(&table_, {Value(int64_t{1})}, 0);
    EXPECT_DOUBLE_EQ(100, (*other_row)[2].AsNumeric());
    other.Abort();
  }
  ASSERT_TRUE(txn.Commit(&tids_).ok());
  EXPECT_DOUBLE_EQ(250, (*Read(1))[2].AsNumeric());
}

TEST_F(SiloTxnTest, AbortRollsBackEverything) {
  ASSERT_TRUE(Put(1, "alice", 100).ok());
  {
    SiloTxn txn(&epochs_);
    ASSERT_TRUE(
        txn.Update(&table_, {Value(int64_t{1})},
                   {Value(int64_t{1}), Value("alice"), Value(0.0)}, 0)
            .ok());
    ASSERT_TRUE(
        txn.Insert(&table_, {Value(int64_t{2}), Value("bob"), Value(5.0)}, 0)
            .ok());
    txn.Abort();
  }
  EXPECT_DOUBLE_EQ(100, (*Read(1))[2].AsNumeric());
  EXPECT_TRUE(Read(2).status().IsNotFound());
}

TEST_F(SiloTxnTest, DuplicateInsertRejected) {
  ASSERT_TRUE(Put(1, "alice", 100).ok());
  SiloTxn txn(&epochs_);
  EXPECT_TRUE(
      txn.Insert(&table_, {Value(int64_t{1}), Value("dup"), Value(0.0)}, 0)
          .IsAlreadyExists());
  txn.Abort();
}

// An insert that collides only because the txn read a counter that has
// since moved (two TPC-C new-orders drawing the same d_next_o_id) is a
// retriable CC abort, not a client-visible duplicate: no serial order
// produces kAlreadyExists there. With all reads fresh the duplicate is real.
TEST_F(SiloTxnTest, InsertCollisionAfterStaleReadAborts) {
  ASSERT_TRUE(Put(1, "counter", 10).ok());
  const Row counter_key = {Value(int64_t{1})};
  const Row next_counter = {Value(int64_t{1}), Value("counter"), Value(11.0)};
  const Row order_row = {Value(int64_t{10}), Value("order"), Value(0.0)};

  SiloTxn t1(&epochs_);
  ASSERT_TRUE(t1.Get(&table_, counter_key, 0).ok());
  {
    SiloTxn t2(&epochs_);
    ASSERT_TRUE(t2.Get(&table_, counter_key, 0).ok());
    ASSERT_TRUE(t2.Insert(&table_, order_row, 0).ok());
    ASSERT_TRUE(t2.Update(&table_, counter_key, next_counter, 0).ok());
    ASSERT_TRUE(t2.Commit(&tids_).ok());
  }
  Status stale = t1.Insert(&table_, order_row, 0);
  EXPECT_TRUE(stale.IsAborted()) << stale;
  t1.Abort();

  SiloTxn t3(&epochs_);
  ASSERT_TRUE(t3.Get(&table_, counter_key, 0).ok());
  EXPECT_TRUE(t3.Insert(&table_, order_row, 0).IsAlreadyExists());
  t3.Abort();
}

TEST_F(SiloTxnTest, DeleteThenReinsert) {
  ASSERT_TRUE(Put(1, "alice", 100).ok());
  {
    SiloTxn txn(&epochs_);
    ASSERT_TRUE(txn.Delete(&table_, {Value(int64_t{1})}, 0).ok());
    ASSERT_TRUE(txn.Commit(&tids_).ok());
  }
  EXPECT_TRUE(Read(1).status().IsNotFound());
  // Reinsert over the tombstone.
  ASSERT_TRUE(Put(1, "anna", 70).ok());
  EXPECT_EQ("anna", (*Read(1))[1].AsString());
}

TEST_F(SiloTxnTest, DeleteAndInsertInOneTxnReplaces) {
  ASSERT_TRUE(Put(1, "alice", 100).ok());
  SiloTxn txn(&epochs_);
  ASSERT_TRUE(txn.Delete(&table_, {Value(int64_t{1})}, 0).ok());
  ASSERT_TRUE(
      txn.Insert(&table_, {Value(int64_t{1}), Value("alicia"), Value(1.0)}, 0)
          .ok());
  ASSERT_TRUE(txn.Commit(&tids_).ok());
  EXPECT_EQ("alicia", (*Read(1))[1].AsString());
}

TEST_F(SiloTxnTest, WriteWriteConflictAborts) {
  ASSERT_TRUE(Put(1, "alice", 100).ok());
  SiloTxn t1(&epochs_);
  SiloTxn t2(&epochs_);
  ASSERT_TRUE(t1.Get(&table_, {Value(int64_t{1})}, 0).ok());
  ASSERT_TRUE(t2.Get(&table_, {Value(int64_t{1})}, 0).ok());
  ASSERT_TRUE(t1.Update(&table_, {Value(int64_t{1})},
                        {Value(int64_t{1}), Value("alice"), Value(1.0)}, 0)
                  .ok());
  ASSERT_TRUE(t2.Update(&table_, {Value(int64_t{1})},
                        {Value(int64_t{1}), Value("alice"), Value(2.0)}, 0)
                  .ok());
  ASSERT_TRUE(t1.Commit(&tids_).ok());
  // t2 read a version t1 replaced: validation must fail.
  EXPECT_TRUE(t2.Commit(&tids_).status().IsAborted());
  EXPECT_DOUBLE_EQ(1.0, (*Read(1))[2].AsNumeric());
}

TEST_F(SiloTxnTest, ReadOnlyConflictAborts) {
  ASSERT_TRUE(Put(1, "alice", 100).ok());
  SiloTxn reader(&epochs_);
  ASSERT_TRUE(reader.Get(&table_, {Value(int64_t{1})}, 0).ok());
  ASSERT_TRUE(Put(2, "bob", 1.0).ok());  // unrelated insert: no conflict
  {
    SiloTxn writer(&epochs_);
    ASSERT_TRUE(writer.Update(&table_, {Value(int64_t{1})},
                              {Value(int64_t{1}), Value("alice"), Value(0.0)},
                              0)
                    .ok());
    ASSERT_TRUE(writer.Commit(&tids_).ok());
  }
  EXPECT_TRUE(reader.Commit(&tids_).status().IsAborted());
}

TEST_F(SiloTxnTest, PhantomProtectionOnMiss) {
  SiloTxn txn(&epochs_);
  EXPECT_TRUE(txn.Get(&table_, {Value(int64_t{5})}, 0).status().IsNotFound());
  // Another transaction inserts the key the first one observed missing.
  ASSERT_TRUE(Put(5, "ghost", 1.0).ok());
  EXPECT_TRUE(txn.Commit(&tids_).status().IsAborted());
}

TEST_F(SiloTxnTest, PhantomProtectionOnScan) {
  ASSERT_TRUE(Put(1, "alice", 100).ok());
  ASSERT_TRUE(Put(3, "carol", 100).ok());
  SiloTxn scanner(&epochs_);
  int64_t count = 0;
  ASSERT_TRUE(scanner
                  .Scan(&table_, {Value(int64_t{0})}, {Value(int64_t{10})}, -1,
                        [&count](const Row&) {
                          ++count;
                          return true;
                        },
                        0)
                  .ok());
  EXPECT_EQ(2, count);
  ASSERT_TRUE(Put(2, "bob", 100).ok());  // phantom in the scanned range
  EXPECT_TRUE(scanner.Commit(&tids_).status().IsAborted());
}

TEST_F(SiloTxnTest, OwnInsertDoesNotFalselyAbortScan) {
  ASSERT_TRUE(Put(1, "alice", 100).ok());
  SiloTxn txn(&epochs_);
  int64_t count = 0;
  ASSERT_TRUE(txn.Scan(&table_, {Value(int64_t{0})}, {Value(int64_t{10})}, -1,
                       [&count](const Row&) {
                         ++count;
                         return true;
                       },
                       0)
                  .ok());
  EXPECT_EQ(1, count);
  // Inserting into the scanned range within the same transaction is fine.
  ASSERT_TRUE(
      txn.Insert(&table_, {Value(int64_t{2}), Value("bob"), Value(1.0)}, 0)
          .ok());
  EXPECT_TRUE(txn.Commit(&tids_).ok());
}

TEST_F(SiloTxnTest, ScanSeesOwnPendingWrites) {
  ASSERT_TRUE(Put(1, "alice", 100).ok());
  SiloTxn txn(&epochs_);
  ASSERT_TRUE(
      txn.Insert(&table_, {Value(int64_t{2}), Value("bob"), Value(5.0)}, 0)
          .ok());
  ASSERT_TRUE(txn.Delete(&table_, {Value(int64_t{1})}, 0).ok());
  std::vector<std::string> owners;
  ASSERT_TRUE(txn.Scan(&table_, {}, {}, -1,
                       [&owners](const Row& row) {
                         owners.push_back(row[1].AsString());
                         return true;
                       },
                       0)
                  .ok());
  EXPECT_EQ((std::vector<std::string>{"bob"}), owners);
  txn.Abort();
}

TEST_F(SiloTxnTest, SecondaryIndexFollowsUpdates) {
  ASSERT_TRUE(Put(1, "alice", 100).ok());
  ASSERT_TRUE(Put(2, "alice", 50).ok());
  auto by_owner = [this](const std::string& owner) {
    SiloTxn txn(&epochs_);
    std::vector<int64_t> ids;
    EXPECT_TRUE(txn.ScanSecondary(&table_, 0, {Value(owner)}, -1,
                                  [&ids](const Row& row) {
                                    ids.push_back(row[0].AsInt64());
                                    return true;
                                  },
                                  0)
                    .ok());
    txn.Abort();
    return ids;
  };
  EXPECT_EQ((std::vector<int64_t>{1, 2}), by_owner("alice"));
  // Rename account 1: entry must move atomically.
  {
    SiloTxn txn(&epochs_);
    ASSERT_TRUE(txn.Update(&table_, {Value(int64_t{1})},
                           {Value(int64_t{1}), Value("anna"), Value(100.0)},
                           0)
                    .ok());
    ASSERT_TRUE(txn.Commit(&tids_).ok());
  }
  EXPECT_EQ((std::vector<int64_t>{2}), by_owner("alice"));
  EXPECT_EQ((std::vector<int64_t>{1}), by_owner("anna"));
  // Delete removes the entry.
  {
    SiloTxn txn(&epochs_);
    ASSERT_TRUE(txn.Delete(&table_, {Value(int64_t{2})}, 0).ok());
    ASSERT_TRUE(txn.Commit(&tids_).ok());
  }
  EXPECT_TRUE(by_owner("alice").empty());
}

TEST_F(SiloTxnTest, ReverseSecondaryScan) {
  for (int64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(Put(i, "zoe", i * 1.0).ok());
  }
  SiloTxn txn(&epochs_);
  std::vector<int64_t> ids;
  ASSERT_TRUE(txn.ReverseScanSecondary(&table_, 0, {Value("zoe")}, 2,
                                       [&ids](const Row& row) {
                                         ids.push_back(row[0].AsInt64());
                                         return true;
                                       },
                                       0)
                  .ok());
  EXPECT_EQ((std::vector<int64_t>{5, 4}), ids);
  txn.Abort();
}

TEST_F(SiloTxnTest, ContainersTracked) {
  Table other(AccountSchema());
  SiloTxn txn(&epochs_);
  ASSERT_TRUE(
      txn.Insert(&table_, {Value(int64_t{1}), Value("a"), Value(0.0)}, 0)
          .ok());
  ASSERT_TRUE(
      txn.Insert(&other, {Value(int64_t{1}), Value("b"), Value(0.0)}, 3).ok());
  const ContainerSet& touched = txn.containers_touched();
  EXPECT_EQ((std::set<uint32_t>{0, 3}),
            std::set<uint32_t>(touched.begin(), touched.end()));
  EXPECT_TRUE(touched.contains(0));
  EXPECT_TRUE(touched.contains(3));
  EXPECT_FALSE(touched.contains(1));
  ASSERT_TRUE(txn.Commit(&tids_).ok());
}

TEST_F(SiloTxnTest, ChunkedScanCrossesChunkBoundaries) {
  // More rows than the internal scan chunk (1024).
  for (int64_t i = 0; i < 2600; ++i) {
    ASSERT_TRUE(Put(i, "bulk", 1.0).ok());
  }
  SiloTxn txn(&epochs_);
  int64_t count = 0;
  int64_t last = -1;
  ASSERT_TRUE(txn.Scan(&table_, {}, {}, -1,
                       [&](const Row& row) {
                         EXPECT_EQ(last + 1, row[0].AsInt64());
                         last = row[0].AsInt64();
                         ++count;
                         return true;
                       },
                       0)
                  .ok());
  EXPECT_EQ(2600, count);
  // Reverse with a limit stops early.
  count = 0;
  ASSERT_TRUE(txn.ReverseScan(&table_, {}, {}, 1500,
                              [&](const Row&) {
                                ++count;
                                return true;
                              },
                              0)
                  .ok());
  EXPECT_EQ(1500, count);
  ASSERT_TRUE(txn.Commit(&tids_).ok());
}

TEST(EpochManager, ReclaimsOnlyWhenSafe) {
  EpochManager epochs;
  size_t slot = epochs.RegisterSlot();
  epochs.EnterEpoch(slot);
  epochs.Retire(new Row{Value(int64_t{1})});
  EXPECT_EQ(1u, epochs.retired_count());
  // Executor pinned: several advances must not free.
  epochs.Advance();
  epochs.Advance();
  EXPECT_EQ(1u, epochs.retired_count());
  epochs.LeaveEpoch(slot);
  epochs.Advance();
  EXPECT_EQ(0u, epochs.retired_count());
}

TEST(SiloTxnConcurrency, CounterIncrementsNeverLost) {
  EpochManager epochs;
  Table table(AccountSchema());
  TidSource loader_tids;
  {
    SiloTxn loader(&epochs);
    ASSERT_TRUE(
        loader.Insert(&table, {Value(int64_t{1}), Value("c"), Value(0.0)}, 0)
            .ok());
    ASSERT_TRUE(loader.Commit(&loader_tids).ok());
  }
  constexpr int kThreads = 4;
  constexpr int kIncrementsEach = 200;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&epochs, &table, &committed] {
      TidSource tids;
      for (int i = 0; i < kIncrementsEach; ++i) {
        while (true) {
          SiloTxn txn(&epochs);
          StatusOr<Row> row = txn.Get(&table, {Value(int64_t{1})}, 0);
          if (!row.ok()) continue;
          Row updated = *row;
          updated[2] = Value(updated[2].AsNumeric() + 1);
          if (!txn.Update(&table, {Value(int64_t{1})}, std::move(updated), 0)
                   .ok()) {
            continue;
          }
          if (txn.Commit(&tids).ok()) {
            committed++;
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(kThreads * kIncrementsEach, committed.load());
  SiloTxn check(&epochs);
  StatusOr<Row> row = check.Get(&table, {Value(int64_t{1})}, 0);
  EXPECT_DOUBLE_EQ(kThreads * kIncrementsEach, (*row)[2].AsNumeric());
  check.Abort();
}

// Serializability property: concurrent randomized transfers among accounts
// conserve the total, and the final state equals replaying committed
// transfers in commit-TID order.
TEST(SiloTxnConcurrency, TransfersSerializeByCommitTid) {
  EpochManager epochs;
  Table table(AccountSchema());
  constexpr int kAccounts = 8;
  {
    TidSource tids;
    SiloTxn loader(&epochs);
    for (int64_t i = 0; i < kAccounts; ++i) {
      ASSERT_TRUE(
          loader.Insert(&table, {Value(i), Value("x"), Value(1000.0)}, 0)
              .ok());
    }
    ASSERT_TRUE(loader.Commit(&tids).ok());
  }
  struct CommittedTransfer {
    uint64_t tid;
    int64_t from, to;
    double amount;
  };
  std::mutex log_mu;
  std::vector<CommittedTransfer> log;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(77 + t);
      TidSource tids;
      for (int i = 0; i < 150; ++i) {
        int64_t from = rng.NextInt(0, kAccounts - 1);
        int64_t to = rng.NextIntExcluding(0, kAccounts - 1, from);
        double amount = static_cast<double>(rng.NextInt(1, 50));
        SiloTxn txn(&epochs);
        StatusOr<Row> from_row = txn.Get(&table, {Value(from)}, 0);
        StatusOr<Row> to_row = txn.Get(&table, {Value(to)}, 0);
        if (!from_row.ok() || !to_row.ok()) continue;
        Row f = *from_row;
        Row g = *to_row;
        f[2] = Value(f[2].AsNumeric() - amount);
        g[2] = Value(g[2].AsNumeric() + amount);
        if (!txn.Update(&table, {Value(from)}, std::move(f), 0).ok()) continue;
        if (!txn.Update(&table, {Value(to)}, std::move(g), 0).ok()) continue;
        StatusOr<uint64_t> tid = txn.Commit(&tids);
        if (tid.ok()) {
          std::lock_guard<std::mutex> lock(log_mu);
          log.push_back({*tid, from, to, amount});
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(log.empty());
  // Replay committed transfers in TID order; final balances must match.
  std::sort(log.begin(), log.end(),
            [](const CommittedTransfer& a, const CommittedTransfer& b) {
              return a.tid < b.tid;
            });
  std::vector<double> balances(kAccounts, 1000.0);
  for (const CommittedTransfer& x : log) {
    balances[x.from] -= x.amount;
    balances[x.to] += x.amount;
  }
  TidSource tids;
  SiloTxn check(&epochs);
  double total = 0;
  for (int64_t i = 0; i < kAccounts; ++i) {
    StatusOr<Row> row = check.Get(&table, {Value(i)}, 0);
    ASSERT_TRUE(row.ok());
    EXPECT_DOUBLE_EQ(balances[i], (*row)[2].AsNumeric()) << "account " << i;
    total += (*row)[2].AsNumeric();
  }
  EXPECT_DOUBLE_EQ(kAccounts * 1000.0, total);
  check.Abort();
}

// --- Multi-container commit interleavings against the flat-set SiloTxn ------
//
// These re-prove the validation semantics the arena/flat-set rewrite must
// preserve: the write-set lock order is global across containers (sorted
// once at commit by (container, record)), read-set validation catches a
// foreign commit between read and validate, and node-set version checks
// catch cross-container phantoms.

Schema BalanceSchema(const std::string& name) {
  return SchemaBuilder(name)
      .AddColumn("id", ValueType::kInt64)
      .AddColumn("balance", ValueType::kDouble)
      .SetKey({"id"})
      .Build()
      .value();
}

class MultiContainerTest : public ::testing::Test {
 protected:
  MultiContainerTest()
      : table0_(BalanceSchema("c0_balances")),
        table1_(BalanceSchema("c1_balances")) {
    SiloTxn loader(&epochs_);
    EXPECT_TRUE(
        loader.Insert(&table0_, {Value(int64_t{1}), Value(1000.0)}, 0).ok());
    EXPECT_TRUE(
        loader.Insert(&table1_, {Value(int64_t{1}), Value(1000.0)}, 1).ok());
    EXPECT_TRUE(loader.Commit(&loader_tids_).ok());
  }

  double BalanceOf(Table* t, uint32_t container) {
    SiloTxn txn(&epochs_);
    StatusOr<Row> row = txn.Get(t, {Value(int64_t{1})}, container);
    EXPECT_TRUE(row.ok());
    (void)txn.Commit(&loader_tids_);
    return row.ok() ? (*row)[1].AsNumeric() : 0.0;
  }

  EpochManager epochs_;
  TidSource loader_tids_;
  Table table0_;
  Table table1_;
};

// Two threads move money between the containers in OPPOSITE access order
// (t0->t1 vs t1->t0). The global (container, record-pointer) lock order
// makes the locking phase deadlock-free regardless of buffering order, and
// OCC validation serializes the interleavings: the cross-container total is
// conserved exactly.
TEST_F(MultiContainerTest, OppositeOrderTransfersConserveTotal) {
  constexpr int kTransfersPerThread = 300;
  auto worker = [this](bool forward, TidSource* tids, int* committed) {
    Row key = {Value(int64_t{1})};
    for (int i = 0; i < kTransfersPerThread;) {
      SiloTxn txn(&epochs_);
      Table* first = forward ? &table0_ : &table1_;
      Table* second = forward ? &table1_ : &table0_;
      uint32_t c_first = forward ? 0 : 1;
      uint32_t c_second = forward ? 1 : 0;
      StatusOr<Row> a = txn.Get(first, key, c_first);
      StatusOr<Row> b = txn.Get(second, key, c_second);
      if (!a.ok() || !b.ok()) {
        txn.Abort();
        continue;
      }
      Row na = *a;
      na[1] = Value(na[1].AsNumeric() - 1.0);
      Row nb = *b;
      nb[1] = Value(nb[1].AsNumeric() + 1.0);
      if (!txn.Update(first, key, na, c_first).ok() ||
          !txn.Update(second, key, nb, c_second).ok()) {
        txn.Abort();
        continue;
      }
      EXPECT_EQ(2u, txn.containers_touched().size());
      if (txn.Commit(tids).ok()) {
        ++i;
        ++*committed;
      }
    }
  };
  TidSource tids_a, tids_b;
  int committed_a = 0, committed_b = 0;
  std::thread ta(worker, true, &tids_a, &committed_a);
  std::thread tb(worker, false, &tids_b, &committed_b);
  ta.join();
  tb.join();
  EXPECT_EQ(kTransfersPerThread, committed_a);
  EXPECT_EQ(kTransfersPerThread, committed_b);
  // Each thread moved kTransfersPerThread units in opposite directions.
  EXPECT_DOUBLE_EQ(2000.0, BalanceOf(&table0_, 0) + BalanceOf(&table1_, 1));
}

// A commits between B's read and B's validation: B's read-set entry for the
// container-1 record is stale and the commit must abort, exactly as with
// the node-allocating sets.
TEST_F(MultiContainerTest, StaleCrossContainerReadFailsValidation) {
  TidSource tids;
  Row key = {Value(int64_t{1})};
  SiloTxn reader(&epochs_);
  ASSERT_TRUE(reader.Get(&table0_, key, 0).ok());
  ASSERT_TRUE(reader.Get(&table1_, key, 1).ok());
  Row bump = {Value(int64_t{1}), Value(1.0)};
  ASSERT_TRUE(reader.Update(&table0_, key, bump, 0).ok());

  SiloTxn writer(&epochs_);
  ASSERT_TRUE(writer.Update(&table1_, key, bump, 1).ok());
  ASSERT_TRUE(writer.Commit(&tids).ok());

  StatusOr<uint64_t> outcome = reader.Commit(&tids);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsAbort());
  // The failed commit must have released every lock: a fresh transaction
  // can write both records.
  SiloTxn retry(&epochs_);
  ASSERT_TRUE(retry.Update(&table0_, key, bump, 0).ok());
  ASSERT_TRUE(retry.Update(&table1_, key, bump, 1).ok());
  EXPECT_TRUE(retry.Commit(&tids).ok());
}

// A's miss on container 1 goes into the node set; a foreign insert of that
// key before A validates is a cross-container phantom and must abort A.
TEST_F(MultiContainerTest, CrossContainerPhantomFailsNodeValidation) {
  TidSource tids;
  SiloTxn scanner(&epochs_);
  EXPECT_TRUE(
      scanner.Get(&table1_, {Value(int64_t{7})}, 1).status().IsNotFound());
  ASSERT_GT(scanner.node_set_size(), 0u);
  Row bump = {Value(int64_t{1}), Value(5.0)};
  ASSERT_TRUE(scanner.Update(&table0_, {Value(int64_t{1})}, bump, 0).ok());

  SiloTxn inserter(&epochs_);
  ASSERT_TRUE(
      inserter.Insert(&table1_, {Value(int64_t{7}), Value(1.0)}, 1).ok());
  ASSERT_TRUE(inserter.Commit(&tids).ok());

  StatusOr<uint64_t> outcome = scanner.Commit(&tids);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsAbort());
}

TEST(TidSourceTest, MonotoneAndEpochAware) {
  TidSource tids;
  uint64_t a = tids.NextCommitTid(0, 1);
  uint64_t b = tids.NextCommitTid(0, 1);
  EXPECT_GT(b, a);
  uint64_t c = tids.NextCommitTid(TidWord::Make(1, 500), 1);
  EXPECT_GT(c, TidWord::Make(1, 500));
  uint64_t d = tids.NextCommitTid(0, 9);
  EXPECT_EQ(9u, TidWord::Epoch(d));
}

}  // namespace
}  // namespace reactdb
