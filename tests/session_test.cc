// Session API tests: pipelined FIFO delivery, window backpressure
// (TrySubmit rejects exactly above max_outstanding), auto-retry convergence
// on smallbank write-write conflicts, invariant conservation across
// concurrent sessions, deterministic shutdown under load, and the Database
// facade running the same client code on both runtimes.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/runtime/reactdb.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/workloads/smallbank/smallbank.h"

namespace reactdb {
namespace {

std::atomic<int> g_gate{0};

Proc GetCounter(TxnContext& ctx, Row) {
  REACTDB_CO_ASSIGN_OR_RETURN(Row row, ctx.Get("counter", {Value(int64_t{0})}));
  co_return row[1];
}

Proc Bump(TxnContext& ctx, Row args) {
  int64_t by = args.empty() ? 1 : args[0].AsInt64();
  REACTDB_CO_ASSIGN_OR_RETURN(Row row, ctx.Get("counter", {Value(int64_t{0})}));
  REACTDB_CO_RETURN_IF_ERROR(
      ctx.Update("counter", {Value(int64_t{0})},
                 {Value(int64_t{0}), Value(row[1].AsInt64() + by)}));
  co_return Value(row[1].AsInt64() + by);
}

// slow_bump: burn real CPU time first — lets a later-submitted fast
// transaction on another executor finish earlier.
Proc SlowBump(TxnContext& ctx, Row args) {
  ctx.Compute(args[0].AsNumeric());
  REACTDB_CO_ASSIGN_OR_RETURN(Row row, ctx.Get("counter", {Value(int64_t{0})}));
  REACTDB_CO_RETURN_IF_ERROR(
      ctx.Update("counter", {Value(int64_t{0})},
                 {Value(int64_t{0}), Value(row[1].AsInt64() + 1)}));
  co_return Value(row[1].AsInt64() + 1);
}

// gated: parks the executor thread until the test opens g_gate.
Proc Gated(TxnContext& ctx, Row) {
  while (g_gate.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  REACTDB_CO_ASSIGN_OR_RETURN(Row row, ctx.Get("counter", {Value(int64_t{0})}));
  co_return row[1];
}

std::unique_ptr<ReactorDatabaseDef> CounterDef(int n) {
  auto def = std::make_unique<ReactorDatabaseDef>();
  ReactorType& t = def->DefineType("Counter");
  t.AddSchema(SchemaBuilder("counter")
                  .AddColumn("k", ValueType::kInt64)
                  .AddColumn("v", ValueType::kInt64)
                  .SetKey({"k"})
                  .Build()
                  .value());
  t.AddProcedure("get", &GetCounter);
  t.AddProcedure("bump", &Bump);
  t.AddProcedure("slow_bump", &SlowBump);
  t.AddProcedure("gated", &Gated);
  for (int i = 0; i < n; ++i) {
    REACTDB_CHECK_OK(
        def->DeclareReactor("c" + std::to_string(i), "Counter"));
  }
  return def;
}

void LoadCounters(RuntimeBase* rt, int n) {
  REACTDB_CHECK_OK(rt->RunDirect([&](SiloTxn& txn) -> Status {
    for (int i = 0; i < n; ++i) {
      std::string name = "c" + std::to_string(i);
      REACTDB_ASSIGN_OR_RETURN(Table * t, rt->FindTable(name, "counter"));
      REACTDB_RETURN_IF_ERROR(
          txn.Insert(t, {Value(int64_t{0}), Value(int64_t{0})},
                     rt->FindReactor(name)->container_id()));
    }
    return Status::OK();
  }));
}

// Pipelined submissions complete out of order across executors (the first
// is slow, the rest are fast) but the session must deliver results in
// submission order.
TEST(SessionPipelining, FifoDeliveryAcrossExecutors) {
  auto def = CounterDef(4);
  ThreadRuntime rt;
  ASSERT_TRUE(rt.Bootstrap(def.get(), DeploymentConfig::SharedNothing(4)).ok());
  LoadCounters(&rt, 4);
  ASSERT_TRUE(rt.Start().ok());

  client::Session session(&rt, {.max_outstanding = 8});
  std::mutex mu;
  std::vector<int> delivered;

  // Txn 0: slow (20 ms of compute) on c0. Txns 1..7: fast, on c1..c3 —
  // they finalize long before txn 0 does.
  for (int i = 0; i < 8; ++i) {
    ReactorId reactor =
        rt.ResolveReactor("c" + std::to_string(i == 0 ? 0 : 1 + (i % 3)));
    ProcId proc = rt.ResolveProc(reactor, i == 0 ? "slow_bump" : "bump");
    Row args = i == 0 ? Row{Value(20000.0)} : Row{Value(int64_t{1})};
    client::SessionFuture f = session.Submit(reactor, proc, std::move(args));
    f.Then([&mu, &delivered, i](client::TxnOutcome out) {
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      std::lock_guard<std::mutex> lock(mu);
      delivered.push_back(i);
    });
  }
  session.Drain();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(8u, delivered.size());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(i, delivered[i]) << "delivery must follow submission order";
  }
  EXPECT_EQ(8u, session.stats().committed);
  rt.Stop();
}

// TrySubmit accepts exactly max_outstanding transactions and rejects the
// next with kOverloaded; slots free again once results are consumed.
TEST(SessionBackpressure, TrySubmitRejectsExactlyAboveWindow) {
  constexpr size_t kWindow = 3;
  auto def = CounterDef(1);
  ThreadRuntime rt;
  ASSERT_TRUE(rt.Bootstrap(def.get(), DeploymentConfig::SharedNothing(1)).ok());
  LoadCounters(&rt, 1);
  ASSERT_TRUE(rt.Start().ok());

  g_gate.store(0);
  client::Session session(&rt, {.max_outstanding = kWindow});
  ReactorId c0 = rt.ResolveReactor("c0");
  ProcId gated = rt.ResolveProc(c0, "gated");

  std::vector<client::SessionFuture> futures;
  for (size_t i = 0; i < kWindow; ++i) {
    StatusOr<client::SessionFuture> f = session.TrySubmit(c0, gated, {});
    ASSERT_TRUE(f.ok()) << "submission " << i << " is within the window";
    futures.push_back(*f);
  }
  EXPECT_EQ(kWindow, session.outstanding());

  StatusOr<client::SessionFuture> over = session.TrySubmit(c0, gated, {});
  ASSERT_FALSE(over.ok());
  EXPECT_TRUE(over.status().IsOverloaded()) << over.status().ToString();
  EXPECT_EQ(1u, session.stats().overloaded);

  g_gate.store(1, std::memory_order_release);
  for (client::SessionFuture& f : futures) {
    EXPECT_TRUE(f.Wait().ok());
  }
  EXPECT_EQ(0u, session.outstanding());

  // The window breathes: a slot is free again.
  StatusOr<client::SessionFuture> again = session.TrySubmit(c0, gated, {});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->Wait().ok());
  rt.Stop();
}

// Write-write conflicts on one smallbank customer: pipelined transfers all
// credit the same destination, so their read-validate windows overlap
// through the cross-container await (cooperative multitasking parks each
// root at the credit call — conflicts arise even on one core). With
// auto-retry enabled every submission eventually commits, exactly once.
TEST(SessionRetry, ConvergesOnSmallbankWriteWriteConflicts) {
  constexpr int64_t kCustomers = 8;
  constexpr int kTransfers = 150;
  auto def = std::make_unique<ReactorDatabaseDef>();
  smallbank::BuildDef(def.get(), kCustomers);
  ThreadRuntime rt;
  // Two containers: sources (customers 4..7) live on container 1, the
  // shared credit destination (customer 0) on container 0.
  ASSERT_TRUE(rt.Bootstrap(def.get(), DeploymentConfig::SharedNothing(2)).ok());
  ASSERT_TRUE(smallbank::Load(&rt, kCustomers).ok());
  ASSERT_TRUE(rt.Start().ok());
  double initial = smallbank::TotalBalance(&rt, kCustomers).value();
  smallbank::Handles handles = smallbank::ResolveHandles(&rt, kCustomers);
  const std::string dst = smallbank::CustomerName(0);

  client::SessionOptions options;
  options.max_outstanding = 8;
  options.retry.max_attempts = 100;
  client::Session session(&rt, options);
  for (int i = 0; i < kTransfers; ++i) {
    // transfer: [dst_reactor, amount, seq_flag] on the source reactor; the
    // async credit parks the root, letting the next in-flight transfer
    // read the same destination version before this one validates.
    session
        .Submit(handles.customers[static_cast<size_t>(4 + i % 4)],
                smallbank::kTransferProc,
                {Value(dst), Value(1.0), Value(false)})
        .Then([](client::TxnOutcome) {});
  }
  session.Drain();

  client::SessionStats stats = session.stats();
  // Convergence: every submission committed despite conflicts.
  EXPECT_EQ(static_cast<uint64_t>(kTransfers), stats.committed);
  EXPECT_EQ(0u, stats.total_aborted());
  EXPECT_EQ(0u, stats.failed);
  // Eight pipelined transfers crediting one record: overlapping
  // validations (and thus retries) are guaranteed over 150 transactions.
  EXPECT_GT(stats.retried, 0u);

  // Exactly-once despite retries: the destination gained precisely one
  // credit per committed transfer, and money was only moved, not created.
  ProcResult dst_balance =
      rt.Execute(handles.customers[0], smallbank::kBalanceProc, {});
  ASSERT_TRUE(dst_balance.ok());
  EXPECT_DOUBLE_EQ(20000.0 + kTransfers, dst_balance->AsNumeric());
  double total = smallbank::TotalBalance(&rt, kCustomers).value();
  EXPECT_DOUBLE_EQ(initial, total);
  rt.Stop();
}

// Concurrent sessions doing cross-container transfers: the interleaved
// history must conserve the total balance (the smallbank serializability
// invariant).
TEST(SessionInvariants, ConcurrentTransferHistoryConservesBalance) {
  constexpr int64_t kCustomers = 8;
  constexpr int kSessions = 4;
  constexpr int kPerSession = 100;
  auto def = std::make_unique<ReactorDatabaseDef>();
  smallbank::BuildDef(def.get(), kCustomers);
  ThreadRuntime rt;
  ASSERT_TRUE(rt.Bootstrap(def.get(), DeploymentConfig::SharedNothing(2)).ok());
  ASSERT_TRUE(smallbank::Load(&rt, kCustomers).ok());
  ASSERT_TRUE(rt.Start().ok());
  double initial = smallbank::TotalBalance(&rt, kCustomers).value();
  smallbank::Handles handles = smallbank::ResolveHandles(&rt, kCustomers);

  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> clients;
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      client::SessionOptions options;
      options.max_outstanding = 4;
      options.retry.max_attempts = 100;
      client::Session session(&rt, options);
      std::string first_error;
      std::mutex err_mu;
      Rng rng(1234 + s);
      for (int i = 0; i < kPerSession; ++i) {
        int64_t src = rng.NextInt(0, kCustomers - 1);
        int64_t dst = rng.NextIntExcluding(0, kCustomers - 1, src);
        // transfer: [dst_reactor, amount, seq_flag] on the source reactor.
        session
            .Submit(handles.customers[src], smallbank::kTransferProc,
                    {Value(smallbank::CustomerName(dst)), Value(1.0),
                     Value(false)})
            .Then([&first_error, &err_mu](client::TxnOutcome out) {
              if (out.ok()) return;
              std::lock_guard<std::mutex> lock(err_mu);
              if (first_error.empty()) {
                first_error = out.status().ToString();
              }
            });
      }
      session.Drain();
      client::SessionStats stats = session.stats();
      committed.fetch_add(stats.committed);
      // With bounded-attempt retry every transfer must land.
      EXPECT_EQ(static_cast<uint64_t>(kPerSession), stats.committed)
          << "cc=" << stats.aborted_cc << " user=" << stats.aborted_user
          << " safety=" << stats.aborted_safety << " failed=" << stats.failed
          << " first_error=" << first_error;
    });
  }
  for (std::thread& t : clients) t.join();

  double total = smallbank::TotalBalance(&rt, kCustomers).value();
  EXPECT_DOUBLE_EQ(initial, total)
      << "transfers move money, never create or destroy it";
  EXPECT_EQ(static_cast<uint64_t>(kSessions * kPerSession), committed.load());
  rt.Stop();
}

// Stop() under load drains: every already-submitted future resolves (no
// hang, nothing abandoned), and post-shutdown submissions fail fast.
TEST(SessionShutdown, StopUnderLoadResolvesEveryFuture) {
  constexpr int kTxns = 300;
  auto def = CounterDef(4);
  client::Database db;
  ASSERT_TRUE(db.Open(def.get(), DeploymentConfig::SharedNothing(4)).ok());
  LoadCounters(db.runtime(), 4);

  auto session = db.CreateSession({.max_outstanding = 64});
  std::atomic<int> resolved{0};
  ReactorId reactors[4];
  ProcId bumps[4];
  for (int i = 0; i < 4; ++i) {
    reactors[i] = db.ResolveReactor("c" + std::to_string(i));
    bumps[i] = db.ResolveProc(reactors[i], "bump");
  }
  for (int i = 0; i < kTxns; ++i) {
    session->Submit(reactors[i % 4], bumps[i % 4], {Value(int64_t{1})})
        .Then([&resolved](client::TxnOutcome out) {
          EXPECT_TRUE(out.ok()) << out.status().ToString();
          resolved.fetch_add(1);
        });
  }
  // Shutdown immediately, with most of the window still in flight.
  db.Shutdown();

  EXPECT_EQ(kTxns, resolved.load()) << "Stop must drain, not abandon";
  EXPECT_EQ(0u, session->outstanding());
  client::SessionStats stats = session->stats();
  EXPECT_EQ(static_cast<uint64_t>(kTxns), stats.committed);

  // After shutdown, submissions fail deterministically instead of hanging.
  client::TxnOutcome late = session->Execute(reactors[0], bumps[0], {});
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(StatusCode::kUnavailable, late.status().code());
  EXPECT_EQ(1u, session->stats().failed);
}

// A stopped thread runtime can be restarted: executors come back, and the
// accepting gate re-arms.
TEST(SessionShutdown, ThreadRuntimeRestartsAfterStop) {
  auto def = CounterDef(1);
  ThreadRuntime rt;
  ASSERT_TRUE(rt.Bootstrap(def.get(), DeploymentConfig::SharedNothing(1)).ok());
  LoadCounters(&rt, 1);
  ASSERT_TRUE(rt.Start().ok());
  ASSERT_TRUE(rt.Execute("c0", "bump", {}).ok());
  rt.Stop();
  EXPECT_EQ(StatusCode::kUnavailable,
            rt.Execute("c0", "bump", {}).status().code());
  ASSERT_TRUE(rt.Start().ok());
  ProcResult r = rt.Execute("c0", "bump", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(2, r->AsInt64());
  rt.Stop();
}

// The same client code runs against OS threads and the simulator — only
// Database::Options changes.
TEST(DatabaseFacade, SameClientCodeOnBothRuntimes) {
  for (bool simulated : {false, true}) {
    auto def = CounterDef(2);
    client::Database db;
    ASSERT_TRUE(db.Open(def.get(), DeploymentConfig::SharedNothing(2),
                        simulated ? client::Database::Sim()
                                  : client::Database::Threads())
                    .ok());
    LoadCounters(db.runtime(), 2);

    auto session = db.CreateSession({.max_outstanding = 4});
    ReactorId c0 = db.ResolveReactor("c0");
    ProcId bump = db.ResolveProc(c0, "bump");
    std::vector<client::SessionFuture> futures;
    for (int i = 0; i < 10; ++i) {
      futures.push_back(session->Submit(c0, bump, {Value(int64_t{1})}));
    }
    int64_t last = 0;
    for (client::SessionFuture& f : futures) {
      client::TxnOutcome out = f.Wait();
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      last = out.result->AsInt64();
    }
    EXPECT_EQ(10, last) << (simulated ? "sim" : "threads");
    client::SessionStats stats = session->stats();
    EXPECT_EQ(10u, stats.committed);
    EXPECT_EQ(10u, stats.latency_us.count());

    ProcResult check = db.Execute("c0", "get", {});
    ASSERT_TRUE(check.ok());
    EXPECT_EQ(10, check->AsInt64());
    session.reset();
    db.Shutdown();
    // Post-shutdown submissions fail fast on either runtime.
    EXPECT_EQ(StatusCode::kUnavailable,
              db.Execute(c0, bump, {}).status().code());
  }
}

// Pipelining pays: a window-8 session over a smallbank stream spread across
// 8 containers commits at least 2x the throughput of the blocking
// single-slot loop. A blocking client keeps one executor busy at a time; a
// window spreads over the containers. On the simulator the clock is
// virtual, so the ratio is the same on any host.
TEST(SessionPipelining, WindowEightAtLeastDoublesSimThroughput) {
  constexpr int kContainers = 8;
  constexpr int64_t kCustomers = 8000;
  constexpr int kTxns = 2000;
  auto def = std::make_unique<ReactorDatabaseDef>();
  smallbank::BuildDef(def.get(), kCustomers);
  client::Database db;
  ASSERT_TRUE(db.Open(def.get(), DeploymentConfig::SharedNothing(kContainers),
                      client::Database::Sim())
                  .ok());
  ASSERT_TRUE(smallbank::Load(db.runtime(), kCustomers).ok());
  smallbank::Handles handles =
      smallbank::ResolveHandles(db.runtime(), kCustomers);

  // Runs `n` transact_saving txns through `session`, consuming results in
  // FIFO order with at most the window in flight. Consecutive requests
  // rotate over the containers (placement is a range partition of
  // kCustomers / kContainers each) and never reuse a customer. Returns the
  // elapsed virtual seconds.
  auto run_stream = [&](client::Session& session, int n) {
    const size_t window = session.options().max_outstanding;
    const int64_t per = kCustomers / kContainers;
    double t0 = db.NowUs();
    std::deque<client::SessionFuture> inflight;
    for (int i = 0; i < n; ++i) {
      if (inflight.size() >= window) {
        EXPECT_TRUE(inflight.front().Wait().ok());
        inflight.pop_front();
      }
      int64_t idx = (i % kContainers) * per + 1 + (i / kContainers) % (per - 1);
      inflight.push_back(
          session.Submit(handles.customers[static_cast<size_t>(idx)],
                         smallbank::kTransactSavingProc, {Value(1.0)}));
    }
    for (client::SessionFuture& f : inflight) EXPECT_TRUE(f.Wait().ok());
    return (db.NowUs() - t0) * 1e-6;
  };
  auto measure = [&](size_t window) {
    auto session = db.CreateSession({.max_outstanding = window});
    run_stream(*session, kTxns / 10 + 1);  // warm
    return run_stream(*session, kTxns);
  };
  double blocking_s = measure(1);
  double pipelined_s = measure(8);
  EXPECT_GE(blocking_s / pipelined_s, 2.0)
      << "blocking " << blocking_s << " s, window 8 " << pipelined_s << " s";
  db.Shutdown();
}

}  // namespace
}  // namespace reactdb
