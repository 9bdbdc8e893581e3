// Observability tests (src/obs/): sharded registry exactness under
// concurrent updates, tear-free snapshots, histogram shard-merge vs pooled
// equivalence, Prometheus/JSON exposition, per-transaction trace span
// capture and slow-transaction promotion on both runtimes, and the
// Database::Stats() surface end-to-end.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/reactdb.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace reactdb {
namespace {

// --- MetricsRegistry ---------------------------------------------------

// Single-writer executor shards plus the multi-writer shared shard must sum
// to the exact total: nothing lost, nothing double-counted.
TEST(MetricsRegistry, ConcurrentShardedCountersSumExactly) {
  constexpr int kShards = 4;
  constexpr uint64_t kPerThread = 200000;

  obs::MetricsRegistry reg;
  obs::MetricId ops = reg.Counter("test_ops_total", "ops");
  obs::MetricId depth = reg.Gauge("test_depth", "depth");
  reg.Freeze(kShards);

  std::vector<std::thread> threads;
  // One writer per executor shard (the single-writer discipline).
  for (int s = 0; s < kShards; ++s) {
    threads.emplace_back([&reg, ops, depth, s] {
      for (uint64_t i = 0; i < kPerThread; ++i) reg.Add(s, ops);
      reg.GaugeSet(s, depth, 3);
    });
  }
  // Two client threads racing on the shared shard (fetch_add path).
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&reg, ops] {
      for (uint64_t i = 0; i < kPerThread; ++i) reg.AddShared(ops);
    });
  }
  for (auto& t : threads) t.join();

  obs::StatsSnapshot snap = reg.Collect();
  EXPECT_DOUBLE_EQ(static_cast<double>((kShards + 2) * kPerThread),
                   snap.Value("test_ops_total"));
  // Sum-aggregated gauge: every executor shard contributed 3.
  EXPECT_DOUBLE_EQ(3.0 * kShards, snap.Value("test_depth"));
}

// Collect() while a writer is mid-flight: every observed value is a whole
// number of increments, never above the final total, and monotonically
// non-decreasing across successive snapshots (64-bit slots cannot tear).
TEST(MetricsRegistry, SnapshotDuringUpdatesNeverTears) {
  constexpr uint64_t kTotal = 400000;
  obs::MetricsRegistry reg;
  obs::MetricId ops = reg.Counter("test_ops_total", "ops");
  reg.Freeze(1);

  std::atomic<bool> done{false};
  std::thread writer([&reg, ops, &done] {
    for (uint64_t i = 0; i < kTotal; ++i) reg.Add(0, ops);
    done.store(true, std::memory_order_release);
  });

  double prev = 0;
  while (!done.load(std::memory_order_acquire)) {
    double v = reg.Collect().Value("test_ops_total");
    EXPECT_GE(v, prev) << "counters are monotonic";
    EXPECT_LE(v, static_cast<double>(kTotal));
    EXPECT_DOUBLE_EQ(v, static_cast<double>(static_cast<uint64_t>(v)))
        << "snapshot saw a torn / fractional value";
    prev = v;
  }
  writer.join();
  EXPECT_DOUBLE_EQ(static_cast<double>(kTotal),
                   reg.Collect().Value("test_ops_total"));
}

// A registry histogram sharded over N executors must collect to exactly the
// same buckets/count as one pooled Histogram fed every sample directly —
// both sides bin through Histogram::BucketIndex.
TEST(MetricsRegistry, ShardedHistogramMergeEqualsPooled) {
  constexpr int kShards = 3;
  obs::MetricsRegistry reg;
  obs::MetricId lat = reg.Histo("test_latency_us", "latency");
  reg.Freeze(kShards);

  Histogram pooled;
  Rng rng(42);
  for (int i = 0; i < 5000; ++i) {
    double sample = rng.NextDouble() * 10000;  // 0 .. 10 ms
    reg.Observe(static_cast<uint32_t>(i % kShards), lat, sample);
    pooled.Add(sample);
  }

  obs::StatsSnapshot snap = reg.Collect();  // Find points into it
  const obs::MetricSample* s = snap.Find("test_latency_us");
  ASSERT_NE(nullptr, s);
  ASSERT_EQ(obs::MetricType::kHistogram, s->type);
  EXPECT_EQ(pooled.count(), s->hist.count());
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    ASSERT_EQ(pooled.bucket_count(b), s->hist.bucket_count(b))
        << "bucket " << b;
  }
  // Sums agree to the fixed-point quantization (0.05 us per sample).
  EXPECT_NEAR(pooled.sum(), s->hist.sum(),
              static_cast<double>(pooled.count()) / Histogram::kUnitsPerUs);
}

TEST(MetricsRegistry, CounterFamilyMembersAreContiguousAndLabeled) {
  obs::MetricsRegistry reg;
  obs::MetricId aborted = reg.CounterFamily(
      "test_aborted_total", "by reason",
      {{{"reason", "cc"}}, {{"reason", "user"}}, {{"reason", "safety"}}});
  reg.Freeze(1);
  reg.Add(0, obs::MetricId::Offset(aborted, 0), 5);
  reg.Add(0, obs::MetricId::Offset(aborted, 1), 7);
  reg.Add(0, obs::MetricId::Offset(aborted, 2), 11);

  obs::StatsSnapshot snap = reg.Collect();
  EXPECT_DOUBLE_EQ(5, snap.Value("test_aborted_total", {{"reason", "cc"}}));
  EXPECT_DOUBLE_EQ(7, snap.Value("test_aborted_total", {{"reason", "user"}}));
  EXPECT_DOUBLE_EQ(11,
                   snap.Value("test_aborted_total", {{"reason", "safety"}}));
}

TEST(MetricsRegistry, MaxAggregatedGaugeTakesShardMax) {
  obs::MetricsRegistry reg;
  obs::MetricId hw = reg.Gauge("test_high_water", "hw", {},
                               obs::Aggregation::kMax);
  reg.Freeze(3);
  reg.GaugeMax(0, hw, 100);
  reg.GaugeMax(1, hw, 300);
  reg.GaugeMax(2, hw, 200);
  reg.GaugeMax(1, hw, 50);  // below the held max: no effect
  EXPECT_DOUBLE_EQ(300, reg.Collect().Value("test_high_water"));
}

// Client layers may touch the shared forms against a runtime that never
// bootstrapped (e.g. a Session on a failed Open): must be a safe no-op.
TEST(MetricsRegistry, SharedFormsAreNoOpsBeforeFreeze) {
  obs::MetricsRegistry reg;
  obs::MetricId id = reg.Counter("test_ops_total", "ops");
  reg.AddShared(id);
  reg.GaugeAddShared(id, 1);
  reg.GaugeSetShared(id, 9);
  reg.ObserveShared(id, 1.0);
  EXPECT_FALSE(reg.frozen());
}

TEST(ProcOutcomeTable, BumpAndReadBack) {
  obs::ProcOutcomeTable table;
  table.Init({2, 3});  // reactor 0: 2 procs, reactor 1: 3 procs
  table.Bump(ReactorId{0}, ProcId{1}, true);
  table.Bump(ReactorId{0}, ProcId{1}, true);
  table.Bump(ReactorId{1}, ProcId{2}, false);
  EXPECT_EQ(2u, table.committed(ReactorId{0}, ProcId{1}));
  EXPECT_EQ(0u, table.aborted(ReactorId{0}, ProcId{1}));
  EXPECT_EQ(1u, table.aborted(ReactorId{1}, ProcId{2}));
  EXPECT_EQ(2u, table.num_reactors());
  EXPECT_EQ(3u, table.num_procs(1));
}

// --- Exposition formats ------------------------------------------------

TEST(StatsSnapshot, PrometheusExposition) {
  obs::MetricsRegistry reg;
  obs::MetricId ops = reg.Counter("test_ops_total", "Operations", {});
  obs::MetricId lat = reg.Histo("test_latency_us", "Latency");
  reg.Freeze(1);
  reg.Add(0, ops, 42);
  reg.Observe(0, lat, 1.0);
  reg.Observe(0, lat, 2.0);

  std::string text = reg.Collect().ToPrometheus();
  EXPECT_NE(std::string::npos, text.find("# HELP test_ops_total Operations"));
  EXPECT_NE(std::string::npos, text.find("# TYPE test_ops_total counter"));
  EXPECT_NE(std::string::npos, text.find("test_ops_total 42"));
  EXPECT_NE(std::string::npos, text.find("# TYPE test_latency_us histogram"));
  // Cumulative buckets end at +Inf == _count.
  EXPECT_NE(std::string::npos,
            text.find("test_latency_us_bucket{le=\"+Inf\"} 2"));
  EXPECT_NE(std::string::npos, text.find("test_latency_us_count 2"));
  EXPECT_NE(std::string::npos, text.find("test_latency_us_sum"));
}

// Hostile label values and help text: backslashes, quotes, and newlines
// must escape per the Prometheus text exposition spec — label values
// escape \, ", and newline; HELP text escapes only \ and newline.
TEST(StatsSnapshot, PrometheusEscapesHostileLabelsAndHelp) {
  obs::MetricsRegistry reg;
  obs::MetricId ops =
      reg.Counter("test_hostile_total", "multi\nline \\ help",
                  {{"path", "C:\\tmp\n\"quoted\""}});
  reg.Freeze(1);
  reg.Add(0, ops, 1);

  std::string text = reg.Collect().ToPrometheus();
  EXPECT_NE(std::string::npos,
            text.find("path=\"C:\\\\tmp\\n\\\"quoted\\\"\""))
      << "label value escapes backslash, newline, and quote:\n" << text;
  EXPECT_NE(std::string::npos,
            text.find("# HELP test_hostile_total multi\\nline \\\\ help"))
      << "help escapes backslash and newline (quotes stay literal):\n"
      << text;
  // No raw newline may survive inside any exposition line.
  EXPECT_EQ(std::string::npos, text.find("multi\nline"));
  EXPECT_EQ(std::string::npos, text.find("tmp\n\""));
}

TEST(StatsSnapshot, JsonContainsSeries) {
  obs::MetricsRegistry reg;
  obs::MetricId ops =
      reg.Counter("test_ops_total", "Operations", {{"kind", "a\"b"}});
  reg.Freeze(1);
  reg.Add(0, ops, 3);
  std::string json = reg.Collect().ToJson();
  EXPECT_NE(std::string::npos, json.find("\"test_ops_total\""));
  EXPECT_NE(std::string::npos, json.find("a\\\"b")) << "labels must escape";
}

// --- TraceStore (unit) -------------------------------------------------

TEST(TraceStore, SpansKeepRecordOrderAndPromoteSlow) {
  obs::TraceOptions opts;
  opts.enabled = true;
  opts.slow_threshold_us = 100;
  obs::TraceStore store(opts, /*num_executors=*/2);

  // Fast trace: lands in the recent ring only.
  obs::TxnTrace* fast = store.Begin(1, ReactorId{0}, ProcId{0});
  ASSERT_NE(nullptr, fast);
  fast->begin_us = 10;
  fast->Record(obs::SpanKind::kSubmit, 10);
  fast->Record(obs::SpanKind::kDispatch, 12);
  fast->Record(obs::SpanKind::kFinalize, 20);
  store.Finish(fast, /*executor=*/0, true, 1, 20);

  // Slow trace: promoted into the retained ring.
  obs::TxnTrace* slow = store.Begin(2, ReactorId{0}, ProcId{0});
  ASSERT_NE(nullptr, slow);
  slow->begin_us = 0;
  slow->Record(obs::SpanKind::kSubmit, 0);
  slow->Record(obs::SpanKind::kValidate, 180);
  slow->Record(obs::SpanKind::kInstall, 190);
  slow->Record(obs::SpanKind::kFinalize, 200);
  store.Finish(slow, /*executor=*/1, true, 2, 200);

  EXPECT_EQ(1u, store.recent_count(0));
  EXPECT_EQ(1u, store.recent_count(1));
  EXPECT_EQ(1u, store.promoted_total());
  EXPECT_EQ(1u, store.retained_count());

  // Durable stamp lands only on retained traces of sealed epochs.
  store.OnDurableEpoch(/*durable_epoch=*/2, /*now_us=*/500);
  std::string json = store.DumpJson();
  size_t submit = json.find("\"submit\"");
  size_t validate = json.find("\"validate\"");
  size_t install = json.find("\"install\"");
  size_t finalize = json.find("\"finalize\"");
  size_t durable = json.find("\"durable\"");
  ASSERT_NE(std::string::npos, submit);
  ASSERT_NE(std::string::npos, durable);
  EXPECT_LT(submit, validate);
  EXPECT_LT(validate, install);
  EXPECT_LT(install, finalize);
  EXPECT_LT(finalize, durable) << "kDurable appends after finalize";
}

TEST(TraceStore, PoolExhaustionLeavesTxnsUntraced) {
  obs::TraceOptions opts;
  opts.enabled = true;
  opts.max_live = 1;
  obs::TraceStore store(opts, 1);
  obs::TxnTrace* a = store.Begin(1, ReactorId{0}, ProcId{0});
  ASSERT_NE(nullptr, a);
  EXPECT_EQ(nullptr, store.Begin(2, ReactorId{0}, ProcId{0}))
      << "pool exhausted: transaction goes untraced, not blocked";
  store.Finish(a, 0, true, 1, 1);
  EXPECT_NE(nullptr, store.Begin(3, ReactorId{0}, ProcId{0}))
      << "Finish returns the slot to the pool";
}

TEST(TraceStore, DisabledStoreIsInert) {
  obs::TraceStore store(obs::TraceOptions{}, 1);
  EXPECT_FALSE(store.enabled());
  EXPECT_EQ(nullptr, store.Begin(1, ReactorId{0}, ProcId{0}));
  EXPECT_EQ(0u, store.retained_count());
}

// --- End-to-end: Database + both runtimes ------------------------------

Proc BumpProc(TxnContext& ctx, Row args) {
  int64_t by = args.empty() ? 1 : args[0].AsInt64();
  REACTDB_CO_ASSIGN_OR_RETURN(Row row, ctx.Get("counter", {Value(int64_t{0})}));
  REACTDB_CO_RETURN_IF_ERROR(
      ctx.Update("counter", {Value(int64_t{0})},
                 {Value(int64_t{0}), Value(row[1].AsInt64() + by)}));
  co_return Value(row[1].AsInt64() + by);
}

Proc RejectProc(TxnContext&, Row) {
  co_return Status::UserAbort("declined");
}

// transfer-style: a local read plus one asynchronous cross-reactor call,
// so the root touches two containers and traces carry call_send/call_done.
Proc PokeProc(TxnContext& ctx, Row args) {
  Future f = ctx.CallOn(args[0].AsString(), "bump", {Value(int64_t{1})});
  REACTDB_CO_ASSIGN_OR_RETURN(Row row, ctx.Get("counter", {Value(int64_t{0})}));
  ProcResult r = co_await f;
  REACTDB_CO_RETURN_IF_ERROR(r.status());
  co_return Value(row[1].AsInt64() + r.value().AsInt64());
}

std::unique_ptr<ReactorDatabaseDef> ObsDef(int n) {
  auto def = std::make_unique<ReactorDatabaseDef>();
  ReactorType& t = def->DefineType("Counter");
  t.AddSchema(SchemaBuilder("counter")
                  .AddColumn("k", ValueType::kInt64)
                  .AddColumn("v", ValueType::kInt64)
                  .SetKey({"k"})
                  .Build()
                  .value());
  t.AddProcedure("bump", &BumpProc);
  t.AddProcedure("reject", &RejectProc);
  t.AddProcedure("poke", &PokeProc);
  for (int i = 0; i < n; ++i) {
    REACTDB_CHECK_OK(def->DeclareReactor("c" + std::to_string(i), "Counter"));
  }
  return def;
}

void LoadObs(client::Database* db, int n) {
  REACTDB_CHECK_OK(db->RunDirect([db, n](SiloTxn& txn) -> Status {
    for (int i = 0; i < n; ++i) {
      std::string name = "c" + std::to_string(i);
      REACTDB_ASSIGN_OR_RETURN(Table * t, db->FindTable(name, "counter"));
      REACTDB_RETURN_IF_ERROR(
          txn.Insert(t, {Value(int64_t{0}), Value(int64_t{0})},
                     db->FindReactor(name)->container_id()));
    }
    return Status::OK();
  }));
}

TEST(DatabaseStats, CountsOutcomesByReasonAndProcedure) {
  auto def = ObsDef(2);
  client::Database db;
  ASSERT_TRUE(db.Open(def.get(), DeploymentConfig::SharedNothing(2)).ok());
  LoadObs(&db, 2);

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.Execute("c0", "bump", {Value(int64_t{1})}).ok());
  }
  ASSERT_TRUE(db.Execute("c0", "poke", {Value("c1")}).ok());
  EXPECT_FALSE(db.Execute("c1", "reject", {}).ok());

  obs::StatsSnapshot snap = db.Stats();
  EXPECT_DOUBLE_EQ(6, snap.Value("reactdb_txn_committed_total"));
  EXPECT_DOUBLE_EQ(
      1, snap.Value("reactdb_txn_aborted_total", {{"reason", "user"}}));
  EXPECT_DOUBLE_EQ(
      0, snap.Value("reactdb_txn_aborted_total", {{"reason", "cc"}}));
  EXPECT_DOUBLE_EQ(1, snap.Value("reactdb_txn_multi_container_total"))
      << "poke touches both containers";
  EXPECT_DOUBLE_EQ(5, snap.Value("reactdb_proc_committed_total",
                                 {{"reactor", "c0"}, {"proc", "bump"}}));
  EXPECT_DOUBLE_EQ(1, snap.Value("reactdb_proc_aborted_total",
                                 {{"reactor", "c1"}, {"proc", "reject"}}));
  // The latency histogram saw every finalized root.
  const obs::MetricSample* lat = snap.Find("reactdb_txn_latency_us");
  ASSERT_NE(nullptr, lat);
  EXPECT_EQ(7u, lat->hist.count());
  // Transport moved submit messages; sessions submitted through the window.
  EXPECT_GE(snap.Value("reactdb_transport_sent_total", {{"kind", "SUBMIT"}}),
            7.0);
  EXPECT_DOUBLE_EQ(7, snap.Value("reactdb_session_submitted_total"));
  EXPECT_DOUBLE_EQ(0, snap.Value("reactdb_txn_outstanding"));

  std::string prom = snap.ToPrometheus();
  EXPECT_NE(std::string::npos, prom.find("reactdb_txn_committed_total 6"));
  db.Shutdown();
}

// Tracing on the simulator: spans carry VIRTUAL timestamps, the lifecycle
// order is submit -> dispatch -> ... -> finalize, and the whole dump is
// deterministic — two identical runs produce byte-identical JSON.
TEST(Tracing, SimSpansAreOrderedAndDeterministic) {
  auto run = [](std::string* dump) {
    auto def = ObsDef(2);
    client::Database::Options options = client::Database::Sim();
    options.trace.enabled = true;
    options.trace.slow_threshold_us = 0;  // retain everything
    client::Database db;
    ASSERT_TRUE(
        db.Open(def.get(), DeploymentConfig::SharedNothing(2), options).ok());
    LoadObs(&db, 2);
    ASSERT_TRUE(db.Execute("c0", "bump", {Value(int64_t{1})}).ok());
    ASSERT_TRUE(db.Execute("c0", "poke", {Value("c1")}).ok());
    EXPECT_EQ(2u, db.tracer()->promoted_total());
    *dump = db.DumpTraces();
    db.Shutdown();
  };
  std::string first, second;
  run(&first);
  run(&second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "virtual-time traces must be deterministic";

  // The cross-reactor poke records the sub-transaction round trip.
  EXPECT_NE(std::string::npos, first.find("\"call_send\""));
  EXPECT_NE(std::string::npos, first.find("\"call_done\""));
  // Lifecycle order within the first retained trace.
  size_t submit = first.find("\"submit\"");
  size_t dispatch = first.find("\"dispatch\"");
  size_t validate = first.find("\"validate\"");
  size_t install = first.find("\"install\"");
  size_t finalize = first.find("\"finalize\"");
  ASSERT_NE(std::string::npos, finalize);
  EXPECT_LT(submit, dispatch);
  EXPECT_LT(dispatch, validate);
  EXPECT_LT(validate, install);
  EXPECT_LT(install, finalize);
}

TEST(Tracing, ThreadRuntimeRecordsAndPromotesByThreshold) {
  auto def = ObsDef(1);

  // Threshold 0: every completed root is promoted into the retained ring.
  {
    client::Database::Options options;
    options.trace.enabled = true;
    options.trace.slow_threshold_us = 0;
    client::Database db;
    ASSERT_TRUE(
        db.Open(def.get(), DeploymentConfig::SharedNothing(1), options).ok());
    LoadObs(&db, 1);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(db.Execute("c0", "bump", {Value(int64_t{1})}).ok());
    }
    EXPECT_EQ(4u, db.tracer()->promoted_total());
    EXPECT_EQ(4u, db.tracer()->retained_count());
    EXPECT_GE(db.tracer()->recent_count(0), 1u);
    std::string dump = db.DumpTraces();
    EXPECT_NE(std::string::npos, dump.find("\"submit\""));
    EXPECT_NE(std::string::npos, dump.find("\"committed\":true"));
    db.Shutdown();
  }

  // Absurdly high threshold: traces land in the recent rings but nothing
  // is promoted.
  {
    client::Database::Options options;
    options.trace.enabled = true;
    options.trace.slow_threshold_us = 1e12;
    client::Database db;
    ASSERT_TRUE(
        db.Open(def.get(), DeploymentConfig::SharedNothing(1), options).ok());
    LoadObs(&db, 1);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(db.Execute("c0", "bump", {Value(int64_t{1})}).ok());
    }
    EXPECT_EQ(0u, db.tracer()->promoted_total());
    EXPECT_GE(db.tracer()->recent_count(0), 1u);
    db.Shutdown();
  }
}

// Tracing off (the default): zero traces, and the stats surface still works.
TEST(Tracing, DisabledByDefault) {
  auto def = ObsDef(1);
  client::Database db;
  ASSERT_TRUE(db.Open(def.get(), DeploymentConfig::SharedNothing(1)).ok());
  LoadObs(&db, 1);
  ASSERT_TRUE(db.Execute("c0", "bump", {Value(int64_t{1})}).ok());
  EXPECT_FALSE(db.tracer()->enabled());
  EXPECT_EQ(0u, db.tracer()->retained_count());
  EXPECT_DOUBLE_EQ(1, db.Stats().Value("reactdb_txn_committed_total"));
  db.Shutdown();
}

}  // namespace
}  // namespace reactdb
