// Runtime tests: deployment configuration, routing/placement, MPL
// admission, runtime statistics, cross-runtime result agreement, and
// concurrency-control aborts through the full stack.
#include <gtest/gtest.h>

#include <memory>

#include "src/runtime/reactdb.h"
#include "src/util/logging.h"

namespace reactdb {
namespace {

// --- DeploymentConfig ---------------------------------------------------

TEST(DeploymentConfigTest, Presets) {
  DeploymentConfig s1 = DeploymentConfig::SharedEverythingWithoutAffinity(8);
  EXPECT_EQ(1, s1.num_containers);
  EXPECT_EQ(8, s1.executors_per_container);
  EXPECT_EQ(RootRouting::kRoundRobin, s1.routing);

  DeploymentConfig s2 = DeploymentConfig::SharedEverythingWithAffinity(8);
  EXPECT_EQ(RootRouting::kAffinity, s2.routing);
  EXPECT_EQ(1, s2.mpl);  // runs each transaction to completion

  DeploymentConfig s3 = DeploymentConfig::SharedNothing(8);
  EXPECT_EQ(8, s3.num_containers);
  EXPECT_EQ(1, s3.executors_per_container);
  EXPECT_EQ(8, s3.total_executors());
}

TEST(DeploymentConfigTest, RangePlacementIsContiguousAndBalanced) {
  DeploymentConfig dc = DeploymentConfig::SharedNothing(4);
  std::vector<uint32_t> containers;
  for (size_t i = 0; i < 100; ++i) {
    containers.push_back(dc.PlaceReactor("r", i, 100));
  }
  EXPECT_TRUE(std::is_sorted(containers.begin(), containers.end()));
  for (uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(25, std::count(containers.begin(), containers.end(), c));
  }
}

TEST(DeploymentConfigTest, CustomPlacement) {
  DeploymentConfig dc = DeploymentConfig::SharedNothing(3);
  dc.placement = [](const std::string& name, size_t, size_t, uint32_t) {
    return name == "special" ? 2u : 0u;
  };
  EXPECT_EQ(2u, dc.PlaceReactor("special", 0, 10));
  EXPECT_EQ(0u, dc.PlaceReactor("normal", 5, 10));
}

TEST(DeploymentConfigTest, FromConfigFile) {
  Config config = Config::Parse(
                      "[database]\n"
                      "deployment = shared-everything-with-affinity\n"
                      "executors_per_container = 6\n"
                      "[executor]\n"
                      "mpl = 3\n")
                      .value();
  StatusOr<DeploymentConfig> dc = DeploymentConfig::FromConfig(config);
  ASSERT_TRUE(dc.ok());
  EXPECT_EQ(6, dc->executors_per_container);
  EXPECT_EQ(3, dc->mpl);
  EXPECT_EQ(RootRouting::kAffinity, dc->routing);

  Config bad = Config::Parse("[database]\ndeployment = magic\n").value();
  EXPECT_FALSE(DeploymentConfig::FromConfig(bad).ok());
}

// --- Full-stack fixtures ------------------------------------------------------

Proc GetCounter(TxnContext& ctx, Row) {
  REACTDB_CO_ASSIGN_OR_RETURN(Row row, ctx.Get("counter", {Value(int64_t{0})}));
  co_return row[1];
}

Proc Bump(TxnContext& ctx, Row args) {
  int64_t by = args.empty() ? 1 : args[0].AsInt64();
  REACTDB_CO_ASSIGN_OR_RETURN(Row row, ctx.Get("counter", {Value(int64_t{0})}));
  int64_t v = row[1].AsInt64() + by;
  REACTDB_CO_RETURN_IF_ERROR(
      ctx.Update("counter", {Value(int64_t{0})}, {Value(int64_t{0}), Value(v)}));
  co_return Value(v);
}

// bump_all: asynchronous bump on every named reactor.
Proc BumpAll(TxnContext& ctx, Row args) {
  std::vector<Future> futures;
  for (const Value& name : args) {
    futures.push_back(ctx.CallOn(name.AsString(), "bump", {Value(int64_t{1})}));
  }
  int64_t total = 0;
  for (Future& f : futures) {
    ProcResult r = co_await f;
    REACTDB_CO_RETURN_IF_ERROR(r.status());
    total += r->AsInt64();
  }
  co_return Value(total);
}

// bump_then_fail: effects must be rolled back everywhere.
Proc BumpThenFail(TxnContext& ctx, Row args) {
  Future f = ctx.CallOn(args[0].AsString(), "bump", {Value(int64_t{1})});
  ProcResult r = co_await f;
  REACTDB_CO_RETURN_IF_ERROR(r.status());
  co_return Status::UserAbort("deliberate");
}

// call_named(reactor, proc): a fully name-addressed call.
Proc CallNamed(TxnContext& ctx, Row args) {
  Future f = ctx.CallOn(args[0].AsString(), args[1].AsString(), {});
  ProcResult r = co_await f;
  REACTDB_CO_RETURN_IF_ERROR(r.status());
  co_return *r;
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
  t.AddProcedure("bump_all", &BumpAll);
  t.AddProcedure("bump_then_fail", &BumpThenFail);
  t.AddProcedure("call_named", &CallNamed);
  for (int i = 0; i < n; ++i) {
    REACTDB_CHECK_OK(def->DeclareReactor("c" + std::to_string(i), "Counter"));
  }
  return def;
}

Status LoadCounters(RuntimeBase* rt, int n) {
  return rt->RunDirect([rt, n](SiloTxn& txn) -> Status {
    for (int i = 0; i < n; ++i) {
      std::string name = "c" + std::to_string(i);
      REACTDB_ASSIGN_OR_RETURN(Table * t, rt->FindTable(name, "counter"));
      REACTDB_RETURN_IF_ERROR(
          txn.Insert(t, {Value(int64_t{0}), Value(int64_t{0})},
                     rt->FindReactor(name)->container_id()));
    }
    return Status::OK();
  });
}

// Parameterized across deployments: identical semantics everywhere.
struct DeployCase {
  const char* name;
  DeploymentConfig dc;
};

class CrossDeploymentTest : public ::testing::TestWithParam<int> {
 protected:
  static DeploymentConfig Deployment() {
    switch (GetParam()) {
      case 0:
        return DeploymentConfig::SharedNothing(4);
      case 1:
        return DeploymentConfig::SharedEverythingWithAffinity(4);
      case 2:
        return DeploymentConfig::SharedEverythingWithoutAffinity(4);
      default:
        return DeploymentConfig::SharedNothing(2);
    }
  }
};

TEST_P(CrossDeploymentTest, BumpAllCommitsAtomically) {
  auto def = CounterDef(8);
  SimRuntime rt;
  ASSERT_TRUE(rt.Bootstrap(def.get(), Deployment()).ok());
  ASSERT_TRUE(LoadCounters(&rt, 8).ok());
  ProcResult r = rt.Execute(
      "c0", "bump_all",
      {Value("c1"), Value("c3"), Value("c5"), Value("c7")});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(4, r->AsInt64());
  for (int i = 0; i < 8; ++i) {
    ProcResult v = rt.Execute("c" + std::to_string(i), "get", {});
    EXPECT_EQ(i % 2 == 1 ? 1 : 0, v->AsInt64()) << "c" << i;
  }
  // bump_all + 8 gets
  EXPECT_DOUBLE_EQ(9, rt.Stats().Value("reactdb_txn_committed_total"));
}

TEST_P(CrossDeploymentTest, UserAbortRollsBackRemoteEffects) {
  auto def = CounterDef(4);
  SimRuntime rt;
  ASSERT_TRUE(rt.Bootstrap(def.get(), Deployment()).ok());
  ASSERT_TRUE(LoadCounters(&rt, 4).ok());
  ProcResult r = rt.Execute("c0", "bump_then_fail", {Value("c2")});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUserAbort());
  ProcResult v = rt.Execute("c2", "get", {});
  EXPECT_EQ(0, v->AsInt64());  // the remote bump rolled back
  EXPECT_DOUBLE_EQ(
      1, rt.Stats().Value("reactdb_txn_aborted_total", {{"reason", "user"}}));
}

INSTANTIATE_TEST_SUITE_P(Deployments, CrossDeploymentTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(RuntimeOutcomeCountersTest, CountsCommitAndAbortKinds) {
  auto def = CounterDef(4);
  SimRuntime rt;
  ASSERT_TRUE(rt.Bootstrap(def.get(), DeploymentConfig::SharedNothing(4)).ok());
  ASSERT_TRUE(LoadCounters(&rt, 4).ok());
  ASSERT_TRUE(rt.Execute("c0", "bump", {Value(int64_t{1})}).ok());
  ASSERT_FALSE(rt.Execute("c0", "bump_then_fail", {Value("c1")}).ok());
  obs::StatsSnapshot snap = rt.Stats();
  EXPECT_DOUBLE_EQ(1, snap.Value("reactdb_txn_committed_total"));
  EXPECT_DOUBLE_EQ(
      1, snap.Value("reactdb_txn_aborted_total", {{"reason", "user"}}));
  for (const char* reason : {"cc", "safety", "deadline"}) {
    EXPECT_DOUBLE_EQ(
        0, snap.Value("reactdb_txn_aborted_total", {{"reason", reason}}))
        << reason;
  }
}

TEST(RuntimeRoutingTest, AffinityKeepsReactorOnHomeExecutor) {
  auto def = CounterDef(8);
  SimRuntime rt;
  ASSERT_TRUE(rt.Bootstrap(def.get(),
                           DeploymentConfig::SharedEverythingWithAffinity(4))
                  .ok());
  // 8 reactors over 4 executors in one container: two each, stable mapping.
  std::set<uint32_t> homes;
  for (int i = 0; i < 8; ++i) {
    homes.insert(rt.HomeExecutorOf("c" + std::to_string(i)));
  }
  EXPECT_EQ(4u, homes.size());
  EXPECT_EQ(rt.HomeExecutorOf("c0"),
            rt.FindReactor("c0")->home_executor());
}

TEST(RuntimeMplTest, MplOneStillCompletesConcurrentSubmissions) {
  auto def = CounterDef(2);
  SimRuntime rt;
  DeploymentConfig dc = DeploymentConfig::SharedNothing(2, /*mpl=*/1);
  ASSERT_TRUE(rt.Bootstrap(def.get(), dc).ok());
  ASSERT_TRUE(LoadCounters(&rt, 2).ok());
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rt.Submit("c0", "bump", {Value(int64_t{1})},
                          [&done](ProcResult r, const RootTxn&) {
                            EXPECT_TRUE(r.ok());
                            ++done;
                          })
                    .ok());
  }
  rt.RunAll();
  EXPECT_EQ(10, done);
  ProcResult v = rt.Execute("c0", "get", {});
  EXPECT_EQ(10, v->AsInt64());
}

TEST(RuntimeConflictTest, ConcurrentRootsOnOneReactorSerialize) {
  auto def = CounterDef(1);
  SimRuntime rt;
  // Two executors sharing one container: round-robin routing makes both
  // executors run transactions on the same reactor concurrently — OCC must
  // serialize them (some retries may be needed).
  ASSERT_TRUE(rt.Bootstrap(def.get(),
                           DeploymentConfig::SharedEverythingWithoutAffinity(2))
                  .ok());
  ASSERT_TRUE(LoadCounters(&rt, 1).ok());
  int committed = 0;
  int aborted = 0;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rt.Submit("c0", "bump", {Value(int64_t{1})},
                          [&](ProcResult r, const RootTxn&) {
                            if (r.ok()) {
                              ++committed;
                            } else {
                              EXPECT_TRUE(r.status().IsAborted());
                              ++aborted;
                            }
                          })
                    .ok());
  }
  rt.RunAll();
  EXPECT_EQ(40, committed + aborted);
  ProcResult v = rt.Execute("c0", "get", {});
  // Exactly the committed bumps are visible — no lost updates.
  EXPECT_EQ(committed, v->AsInt64());
}

// Name-addressed calls resolve once and take the handle path; an unknown
// reactor or procedure aborts the caller with InvalidArgument naming it.
TEST(RuntimeCallTest, UnknownCallTargetAbortsCallerNamingIt) {
  auto def = CounterDef(2);
  SimRuntime rt;
  ASSERT_TRUE(rt.Bootstrap(def.get(), DeploymentConfig::SharedNothing(2)).ok());
  ASSERT_TRUE(LoadCounters(&rt, 2).ok());
  ProcResult ok = rt.Execute("c0", "call_named", {Value("c1"), Value("bump")});
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(1, ok->AsInt64());
  auto expect_abort_naming = [](const ProcResult& r, const std::string& name) {
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
    EXPECT_NE(std::string::npos, r.status().message().find(name))
        << r.status();
  };
  expect_abort_naming(
      rt.Execute("c0", "call_named", {Value("no_such_reactor"), Value("bump")}),
      "no_such_reactor");
  expect_abort_naming(
      rt.Execute("c0", "call_named", {Value("c1"), Value("no_such_proc")}),
      "no_such_proc");
  EXPECT_EQ(1, rt.Execute("c1", "get", {})->AsInt64());
}

TEST(RunDirectTest, CommitAndAbortPaths) {
  auto def = CounterDef(1);
  SimRuntime rt;
  ASSERT_TRUE(rt.Bootstrap(def.get(), DeploymentConfig::SharedNothing(1)).ok());
  ASSERT_TRUE(LoadCounters(&rt, 1).ok());
  // Error from the body aborts the direct transaction.
  Status s = rt.RunDirect([](SiloTxn&) { return Status::Internal("stop"); });
  EXPECT_EQ(StatusCode::kInternal, s.code());
  ProcResult v = rt.Execute("c0", "get", {});
  EXPECT_EQ(0, v->AsInt64());
}

TEST(BootstrapTest, Validation) {
  auto def = CounterDef(1);
  SimRuntime rt;
  DeploymentConfig bad;
  bad.num_containers = 0;
  EXPECT_FALSE(rt.Bootstrap(def.get(), bad).ok());
  // A container inbox must hold at least one envelope: with capacity 0 the
  // first thread-runtime submission would block forever in Mailbox::Push.
  for (int capacity : {0, -1}) {
    DeploymentConfig no_inbox = DeploymentConfig::SharedNothing(1);
    no_inbox.mailbox_capacity = capacity;
    Status s = rt.Bootstrap(def.get(), no_inbox);
    EXPECT_TRUE(s.IsInvalidArgument()) << capacity << ": " << s;
  }
  ASSERT_TRUE(rt.Bootstrap(def.get(), DeploymentConfig::SharedNothing(1)).ok());
  EXPECT_FALSE(rt.Bootstrap(def.get(), DeploymentConfig::SharedNothing(1)).ok())
      << "double bootstrap must fail";
}

}  // namespace
}  // namespace reactdb
