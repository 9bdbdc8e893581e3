// Microbenchmarks of the substrate components (google-benchmark).
//
// These are not paper figures; they quantify the building blocks: key
// encoding, B+-tree operations, OCC commit paths, the query layer, and the
// discrete-event queue. Run in Release mode for meaningful numbers.
#include <benchmark/benchmark.h>

#include "src/query/query.h"
#include "src/runtime/reactdb.h"
#include "src/sim/event_queue.h"
#include "src/storage/btree.h"
#include "src/txn/silo_txn.h"
#include "src/util/keycodec.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/wire.h"
#include "src/util/zipf.h"

namespace reactdb {
namespace {

void BM_EncodeKey(benchmark::State& state) {
  Row key = {Value(int64_t{123456}), Value("warehouse_17"), Value(3.25)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeKey(key));
  }
}
BENCHMARK(BM_EncodeKey);

/// Allocation-free variant: encode into a reused inline KeyBuf, as the
/// transaction layer does per point operation.
void BM_EncodeKeyTo(benchmark::State& state) {
  Row key = {Value(int64_t{123456}), Value("warehouse_17"), Value(3.25)};
  KeyBuf buf;
  for (auto _ : state) {
    EncodeKeyTo(key, &buf);
    benchmark::DoNotOptimize(buf.view().data());
  }
}
BENCHMARK(BM_EncodeKeyTo);

void BM_DecodeKey(benchmark::State& state) {
  std::string encoded =
      EncodeKey({Value(int64_t{123456}), Value("warehouse_17"), Value(3.25)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeKey(encoded));
  }
}
BENCHMARK(BM_DecodeKey);

void BM_BTreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    BTree tree;
    Rng rng(1);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      tree.GetOrInsert(EncodeKey({Value(static_cast<int64_t>(rng.Next()))}));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000);

void BM_BTreeGet(benchmark::State& state) {
  BTree tree;
  constexpr int64_t kKeys = 100000;
  for (int64_t i = 0; i < kKeys; ++i) {
    tree.GetOrInsert(EncodeKey({Value(i)}));
  }
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Get(EncodeKey({Value(rng.NextInt(0, kKeys - 1))})));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeGet);

void BM_BTreeScan100(benchmark::State& state) {
  BTree tree;
  constexpr int64_t kKeys = 100000;
  for (int64_t i = 0; i < kKeys; ++i) {
    tree.GetOrInsert(EncodeKey({Value(i)}));
  }
  Rng rng(3);
  for (auto _ : state) {
    int64_t lo = rng.NextInt(0, kKeys - 101);
    int count = 0;
    tree.Scan(EncodeKey({Value(lo)}), EncodeKey({Value(lo + 100)}),
              [&count](const std::string&, Record*) {
                ++count;
                return true;
              });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_BTreeScan100);

Table* MakeAccountsTable() {
  static Table* table = [] {
    Schema schema = SchemaBuilder("accounts")
                        .AddColumn("id", ValueType::kInt64)
                        .AddColumn("balance", ValueType::kDouble)
                        .SetKey({"id"})
                        .Build()
                        .value();
    auto* t = new Table(schema);
    return t;
  }();
  return table;
}

void BM_SiloReadOnlyTxn(benchmark::State& state) {
  EpochManager epochs;
  Table* table = MakeAccountsTable();
  TidSource tids;
  {
    SiloTxn loader(&epochs);
    for (int64_t i = 0; i < 10000; ++i) {
      (void)loader.Insert(table, {Value(i), Value(100.0)}, 0);
    }
    (void)loader.Commit(&tids);
  }
  Rng rng(4);
  Arena arena;  // per-executor transaction arena, reset at txn boundaries
  for (auto _ : state) {
    {
      SiloTxn txn(&epochs, &arena);
      for (int i = 0; i < 8; ++i) {
        benchmark::DoNotOptimize(
            txn.Get(table, {Value(rng.NextInt(0, 9999))}, 0));
      }
      benchmark::DoNotOptimize(txn.Commit(&tids));
    }
    arena.Reset();
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_SiloReadOnlyTxn);

void BM_SiloReadWriteTxn(benchmark::State& state) {
  EpochManager epochs;
  Schema schema = SchemaBuilder("rw")
                      .AddColumn("id", ValueType::kInt64)
                      .AddColumn("balance", ValueType::kDouble)
                      .SetKey({"id"})
                      .Build()
                      .value();
  Table table(schema);
  TidSource tids;
  {
    SiloTxn loader(&epochs);
    for (int64_t i = 0; i < 10000; ++i) {
      (void)loader.Insert(&table, {Value(i), Value(100.0)}, 0);
    }
    (void)loader.Commit(&tids);
  }
  Rng rng(5);
  Arena arena;
  uint64_t iters = 0;
  for (auto _ : state) {
    {
      SiloTxn txn(&epochs, &arena);
      for (int i = 0; i < 4; ++i) {
        int64_t id = rng.NextInt(0, 9999);
        StatusOr<Row> row = txn.Get(&table, {Value(id)}, 0);
        Row updated = row.value();
        updated[1] = Value(updated[1].AsNumeric() + 1);
        (void)txn.Update(&table, {Value(id)}, updated, 0);
      }
      benchmark::DoNotOptimize(txn.Commit(&tids));
    }
    arena.Reset();
    // Periodic epoch ticks recycle replaced rows, as the runtimes do.
    if (++iters % 64 == 0) epochs.Advance();
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_SiloReadWriteTxn);

/// The fully warmed smallbank-style point transaction: GetInto with a
/// reused row, update, commit into a recycled install row — the
/// zero-allocation steady state (alloc_test asserts 0 allocs/txn for it).
void BM_SiloPointTxnWarmed(benchmark::State& state) {
  EpochManager epochs;
  Schema schema = SchemaBuilder("savings")
                      .AddColumn("cust_id", ValueType::kInt64)
                      .AddColumn("balance", ValueType::kDouble)
                      .SetKey({"cust_id"})
                      .Build()
                      .value();
  Table table(schema);
  TidSource tids;
  Arena arena;
  {
    SiloTxn loader(&epochs, &arena);
    (void)loader.Insert(&table, {Value(int64_t{1}), Value(10000.0)}, 0);
    (void)loader.Commit(&tids);
    arena.Reset();
  }
  Row key = {Value(int64_t{1})};
  Row row;
  Row updated;
  uint64_t txns = 0;
  auto run_one = [&]() {
    {
      SiloTxn txn(&epochs, &arena);
      (void)txn.GetInto(&table, key, &row, 0);
      updated = row;
      updated[1] = Value(updated[1].AsDouble() + 1.0);
      (void)txn.Update(&table, key, updated, 0);
      benchmark::DoNotOptimize(txn.Commit(&tids));
    }
    arena.Reset();
    // Periodic ticks (as FinalizeRoot does) recycle retired rows without
    // burning the 22-bit epoch field.
    if (++txns % 64 == 0) {
      epochs.Advance();
      epochs.Advance();
    }
  };
  for (int i = 0; i < 512; ++i) run_one();  // warm pools and arena blocks
  for (auto _ : state) run_one();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SiloPointTxnWarmed);

// Same warmed point transaction with redo logging enabled (the durability
// subsystem's commit-time record capture + shard append + periodic writer
// collection). Arena-backed key capture, reserved shard buffers, and
// swap-based collection keep the log off the allocator: alloc_test asserts
// 0 allocs/txn for it too.
void BM_SiloPointTxnWarmedLogged(benchmark::State& state) {
  EpochManager epochs;
  Schema schema = SchemaBuilder("savings")
                      .AddColumn("cust_id", ValueType::kInt64)
                      .AddColumn("balance", ValueType::kDouble)
                      .SetKey({"cust_id"})
                      .Build()
                      .value();
  Table table(schema);
  table.BindDurableId(ReactorId{0}, TableSlot{0});
  log::LogShard shard;
  std::string collect_spare;
  TidSource tids;
  Arena arena;
  {
    SiloTxn loader(&epochs, &arena);
    (void)loader.Insert(&table, {Value(int64_t{1}), Value(10000.0)}, 0);
    (void)loader.Commit(&tids);
    arena.Reset();
  }
  Row key = {Value(int64_t{1})};
  Row row;
  Row updated;
  uint64_t txns = 0;
  auto run_one = [&]() {
    {
      SiloTxn txn(&epochs, &arena);
      txn.BindLog(&shard);
      (void)txn.GetInto(&table, key, &row, 0);
      updated = row;
      updated[1] = Value(updated[1].AsDouble() + 1.0);
      (void)txn.Update(&table, key, updated, 0);
      benchmark::DoNotOptimize(txn.Commit(&tids));
    }
    arena.Reset();
    if (++txns % 64 == 0) {
      epochs.Advance();
      epochs.Advance();
      // Group-commit collection cadence: swap the shard against a warm
      // spare, exactly as the per-container LogWriter does.
      collect_spare.clear();
      shard.Collect(&collect_spare);
    }
  };
  for (int i = 0; i < 512; ++i) run_one();  // warm pools, arena, shard
  for (auto _ : state) run_one();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SiloPointTxnWarmedLogged);

void BM_QuerySelectSum(benchmark::State& state) {
  EpochManager epochs;
  Schema schema = SchemaBuilder("orders")
                      .AddColumn("id", ValueType::kInt64)
                      .AddColumn("value", ValueType::kDouble)
                      .AddColumn("settled", ValueType::kString)
                      .SetKey({"id"})
                      .Build()
                      .value();
  Table table(schema);
  TidSource tids;
  {
    SiloTxn loader(&epochs);
    Rng rng(6);
    for (int64_t i = 0; i < 5000; ++i) {
      (void)loader.Insert(&table,
                          {Value(i), Value(rng.NextDouble() * 100),
                           Value(rng.NextBool(0.5) ? "N" : "Y")},
                          0);
    }
    (void)loader.Commit(&tids);
  }
  for (auto _ : state) {
    SiloTxn txn(&epochs);
    Select sel(&table);
    sel.Where(Col("settled") == Lit("N")).Limit(800).Reverse();
    benchmark::DoNotOptimize(sel.Sum(&txn, 0, "value"));
    txn.Abort();
  }
}
BENCHMARK(BM_QuerySelectSum);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue queue;
    int fired = 0;
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
      queue.Schedule(static_cast<double>(rng.NextUint64(100000)),
                     [&fired] { ++fired; });
    }
    queue.RunAll();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

void BM_Zipfian(benchmark::State& state) {
  ZipfianGenerator zipf(1000000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next());
  }
}
BENCHMARK(BM_Zipfian);

// --- Dispatch path: string-resolved vs. handle-resolved ---------------------
//
// Quantifies the interned-handle layer. A database of kDispatchReactors
// trivial reactors; the *_Resolve benchmarks isolate target resolution
// (reactor + procedure), the *_Execute benchmarks run the full
// submit-execute-commit path through the simulated runtime both ways.

constexpr int64_t kDispatchReactors = 1024;

std::string DispatchReactorName(int64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "dispatch_%05lld",
                static_cast<long long>(i));
  return buf;
}

Proc DispatchNoop(TxnContext& ctx, Row args) {
  (void)ctx;
  (void)args;
  co_return Value(int64_t{1});
}

struct DispatchRig {
  ReactorDatabaseDef def;
  SimRuntime rt;
  std::vector<std::string> names;
  std::vector<ReactorId> ids;
  ProcId noop;

  DispatchRig() {
    ReactorType& type = def.DefineType("Dispatch");
    type.AddProcedure("noop", &DispatchNoop);
    for (int64_t i = 0; i < kDispatchReactors; ++i) {
      (void)def.DeclareReactor(DispatchReactorName(i), "Dispatch");
    }
    (void)rt.Bootstrap(&def, DeploymentConfig::SharedNothing(4));
    for (int64_t i = 0; i < kDispatchReactors; ++i) {
      names.push_back(DispatchReactorName(i));
      ids.push_back(rt.ResolveReactor(names.back()));
    }
    noop = rt.ResolveProc(ids[0], "noop");
  }
};

DispatchRig* GetDispatchRig() {
  static DispatchRig* rig = new DispatchRig();
  return rig;
}

void BM_DispatchResolveString(benchmark::State& state) {
  DispatchRig* rig = GetDispatchRig();
  Rng rng(11);
  for (auto _ : state) {
    const std::string& name =
        rig->names[static_cast<size_t>(rng.NextInt(0, kDispatchReactors - 1))];
    Reactor* r = rig->rt.FindReactor(name);
    benchmark::DoNotOptimize(r->type().FindProcedure("noop"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchResolveString);

void BM_DispatchResolveHandle(benchmark::State& state) {
  DispatchRig* rig = GetDispatchRig();
  Rng rng(11);
  for (auto _ : state) {
    ReactorId id =
        rig->ids[static_cast<size_t>(rng.NextInt(0, kDispatchReactors - 1))];
    Reactor* r = rig->rt.FindReactor(id);
    benchmark::DoNotOptimize(r->type().FindProcedure(rig->noop));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchResolveHandle);

void BM_DispatchExecuteString(benchmark::State& state) {
  DispatchRig* rig = GetDispatchRig();
  Rng rng(12);
  for (auto _ : state) {
    const std::string& name =
        rig->names[static_cast<size_t>(rng.NextInt(0, kDispatchReactors - 1))];
    benchmark::DoNotOptimize(rig->rt.Execute(name, "noop", {}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchExecuteString);

void BM_DispatchExecuteHandle(benchmark::State& state) {
  DispatchRig* rig = GetDispatchRig();
  Rng rng(12);
  for (auto _ : state) {
    ReactorId id =
        rig->ids[static_cast<size_t>(rng.NextInt(0, kDispatchReactors - 1))];
    benchmark::DoNotOptimize(rig->rt.Execute(id, rig->noop, {}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchExecuteHandle);

// --- Transport: wire codec, ping-pong, and batched fan-out -------------------
//
// Quantifies the inter-container message transport. The ping-pong
// measures a single cross-container call round trip on real threads
// (mailbox + loopback link + serialization); the fan-out shows send-side
// batching amortizing the per-message transfer cost. The sim benchmark
// reports *virtual* local/remote latencies under a cost-injecting link
// (Fig. 11's local-vs-remote gap through the real serialization path) —
// wall time is meaningless there, read the virtual_us counters.

void BM_WireEncodeRow(benchmark::State& state) {
  Row row = {Value(int64_t{123456}), Value("customer_0042"), Value(3.25),
             Value(true), Value::Null()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::EncodeRowToString(row));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEncodeRow);

void BM_WireDecodeRow(benchmark::State& state) {
  std::string encoded = wire::EncodeRowToString(
      {Value(int64_t{123456}), Value("customer_0042"), Value(3.25),
       Value(true), Value::Null()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::DecodeRowFromString(encoded));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireDecodeRow);

Proc TransportBump(TxnContext& ctx, Row) {
  REACTDB_CO_ASSIGN_OR_RETURN(Row row,
                              ctx.Get(TableSlot{0}, {Value(int64_t{0})}));
  REACTDB_CO_RETURN_IF_ERROR(
      ctx.Update(TableSlot{0}, {Value(int64_t{0})},
                 {Value(int64_t{0}), Value(row[1].AsInt64() + 1)}));
  co_return Value(row[1].AsInt64() + 1);
}

Proc TransportFanOut(TxnContext& ctx, Row args) {
  std::vector<Future> futures;
  futures.reserve(args.size());
  for (const Value& dst : args) {
    futures.push_back(ctx.CallOn(dst.AsString(), ProcId{0}, {}));
  }
  for (Future& f : futures) {
    ProcResult r = co_await f;
    REACTDB_CO_RETURN_IF_ERROR(r.status());
  }
  co_return Value(static_cast<int64_t>(args.size()));
}

void BuildTransportDef(ReactorDatabaseDef* def, int num_reactors) {
  ReactorType& type = def->DefineType("Counter");
  type.AddSchema(SchemaBuilder("counter")
                     .AddColumn("k", ValueType::kInt64)
                     .AddColumn("v", ValueType::kInt64)
                     .SetKey({"k"})
                     .Build()
                     .value());
  type.AddProcedure("bump", &TransportBump);      // ProcId 0
  type.AddProcedure("fan_out", &TransportFanOut);  // ProcId 1
  for (int i = 0; i < num_reactors; ++i) {
    (void)def->DeclareReactor("t" + std::to_string(i), "Counter");
  }
}

Status LoadTransportCounters(RuntimeBase* rt, int num_reactors) {
  return rt->RunDirect([rt, num_reactors](SiloTxn& txn) -> Status {
    for (int i = 0; i < num_reactors; ++i) {
      std::string name = "t" + std::to_string(i);
      REACTDB_ASSIGN_OR_RETURN(Table * t, rt->FindTable(name, "counter"));
      REACTDB_RETURN_IF_ERROR(
          txn.Insert(t, {Value(int64_t{0}), Value(int64_t{0})},
                     rt->FindReactor(name)->container_id()));
    }
    return Status::OK();
  });
}

constexpr int kTransportReactors = 10;  // t0 in container 0, rest in 1

struct TransportRig {
  ReactorDatabaseDef def;
  ThreadRuntime rt;
  ReactorId source;
  ProcId fan_out;

  TransportRig() {
    BuildTransportDef(&def, kTransportReactors);
    DeploymentConfig dc = DeploymentConfig::SharedNothing(2);
    dc.placement = [](const std::string& name, size_t, size_t,
                      uint32_t) -> uint32_t { return name == "t0" ? 0 : 1; };
    REACTDB_CHECK_OK(rt.Bootstrap(&def, dc));
    REACTDB_CHECK_OK(LoadTransportCounters(&rt, kTransportReactors));
    REACTDB_CHECK_OK(rt.Start());
    source = rt.ResolveReactor("t0");
    fan_out = rt.ResolveProc(source, "fan_out");
  }
};

TransportRig* GetTransportRig() {
  static TransportRig* rig = new TransportRig();
  return rig;
}

/// One cross-container call + response per iteration, through
/// Mailbox/LoopbackLink.
void BM_TransportPingPong(benchmark::State& state) {
  TransportRig* rig = GetTransportRig();
  for (auto _ : state) {
    ProcResult r = rig->rt.Execute(rig->source, rig->fan_out, {Value("t1")});
    REACTDB_CHECK(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransportPingPong)->UseRealTime();

/// Eight cross-container calls per iteration, all to one destination
/// container — a single batched link transfer.
void BM_TransportBatchedFanOut(benchmark::State& state) {
  TransportRig* rig = GetTransportRig();
  Row dsts;
  for (int i = 1; i <= 8; ++i) dsts.push_back(Value("t" + std::to_string(i)));
  for (auto _ : state) {
    ProcResult r = rig->rt.Execute(rig->source, rig->fan_out, dsts);
    REACTDB_CHECK(r.ok());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_TransportBatchedFanOut)->UseRealTime();

/// Virtual-time local vs remote call latency on the simulated runtime with
/// a cost-injecting SimLink (range(0) = one-way link latency in us).
/// Read the counters: local_virtual_us / remote_virtual_us.
void BM_SimLinkLocalVsRemote(benchmark::State& state) {
  double link_us = static_cast<double>(state.range(0));
  double local_us = 0;
  double remote_us = 0;
  for (auto _ : state) {
    ReactorDatabaseDef def;
    BuildTransportDef(&def, 4);  // t0,t1 -> container 0; t2,t3 -> container 1
    CostParams params;
    params.link_latency_us = link_us;
    SimRuntime rt(params);
    REACTDB_CHECK_OK(rt.Bootstrap(&def, DeploymentConfig::SharedNothing(2)));
    REACTDB_CHECK_OK(LoadTransportCounters(&rt, 4));
    ReactorId source = rt.ResolveReactor("t0");
    ProcId fan_out = rt.ResolveProc(source, "fan_out");
    double t0 = rt.events().now();
    REACTDB_CHECK(rt.Execute(source, fan_out, {Value("t1")}).ok());
    double t1 = rt.events().now();
    REACTDB_CHECK(rt.Execute(source, fan_out, {Value("t2")}).ok());
    double t2 = rt.events().now();
    local_us = t1 - t0;
    remote_us = t2 - t1;
  }
  state.counters["local_virtual_us"] = local_us;
  state.counters["remote_virtual_us"] = remote_us;
}
BENCHMARK(BM_SimLinkLocalVsRemote)->Arg(0)->Arg(20)->Iterations(3);

}  // namespace
}  // namespace reactdb

BENCHMARK_MAIN();
