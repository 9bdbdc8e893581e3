// TPC-C integration tests: per-transaction behavior, consistency conditions
// after a mixed run, cross-reactor new-orders, and both runtimes.
#include <gtest/gtest.h>

#include <memory>

#include "src/harness/sim_driver.h"
#include "src/runtime/reactdb.h"
#include "src/workloads/tpcc/tpcc.h"

namespace reactdb {
namespace {

using tpcc::WarehouseName;

class TpccSimTest : public ::testing::Test {
 protected:
  static constexpr int64_t kWarehouses = 2;

  void SetUp() override {
    def_ = std::make_unique<ReactorDatabaseDef>();
    tpcc::BuildDef(def_.get(), kWarehouses);
    rt_ = std::make_unique<SimRuntime>();
    ASSERT_TRUE(rt_->Bootstrap(def_.get(),
                               DeploymentConfig::SharedNothing(kWarehouses))
                    .ok());
    ASSERT_TRUE(tpcc::Load(rt_.get(), kWarehouses).ok());
  }

  std::unique_ptr<ReactorDatabaseDef> def_;
  std::unique_ptr<SimRuntime> rt_;
};

TEST_F(TpccSimTest, LoadPassesConsistency) {
  EXPECT_TRUE(tpcc::CheckConsistency(rt_.get(), kWarehouses).ok());
}

TEST_F(TpccSimTest, LocalNewOrderCommits) {
  tpcc::GeneratorOptions options;
  options.num_warehouses = kWarehouses;
  options.remote_item_prob = 0;
  tpcc::Generator gen(options, 11);
  for (int i = 0; i < 10; ++i) {
    tpcc::TxnRequest req = gen.MakeNewOrder(1);
    // Strip the 1% invalid-item flag for determinism here.
    for (size_t a = 6; a + 2 < req.args.size(); a += 3) {
      if (req.args[a].AsInt64() < 0) req.args[a] = Value(int64_t{1});
    }
    ProcResult r = rt_->Execute(req.reactor, req.proc, req.args);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_GT(r->AsNumeric(), 0.0);  // total order amount
  }
  EXPECT_TRUE(tpcc::CheckConsistency(rt_.get(), kWarehouses).ok());
}

TEST_F(TpccSimTest, RemoteNewOrderTouchesBothContainers) {
  tpcc::GeneratorOptions options;
  options.num_warehouses = kWarehouses;
  options.remote_item_prob = 1.0;  // every item remote
  tpcc::Generator gen(options, 12);
  tpcc::TxnRequest req = gen.MakeNewOrder(1);
  for (size_t a = 6; a + 2 < req.args.size(); a += 3) {
    if (req.args[a].AsInt64() < 0) req.args[a] = Value(int64_t{1});
  }
  ProcResult r = rt_->Execute(req.reactor, req.proc, req.args);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(1, rt_->Stats().Value("reactdb_txn_committed_total"));
  EXPECT_TRUE(tpcc::CheckConsistency(rt_.get(), kWarehouses).ok());
}

TEST_F(TpccSimTest, InvalidItemRollsBack) {
  double committed_before = rt_->Stats().Value("reactdb_txn_committed_total");
  Row args = {Value(int64_t{1}), Value(int64_t{1}), Value(0.0), Value(0.0),
              Value(false), Value(int64_t{1}),
              // one invalid item
              Value(int64_t{-1}), Value(std::string()), Value(int64_t{5})};
  ProcResult r = rt_->Execute(WarehouseName(1), "new_order", args);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUserAbort());
  EXPECT_DOUBLE_EQ(committed_before,
                   rt_->Stats().Value("reactdb_txn_committed_total"));
  EXPECT_TRUE(tpcc::CheckConsistency(rt_.get(), kWarehouses).ok());
}

TEST_F(TpccSimTest, PaymentLocalAndRemote) {
  // Local by id.
  ProcResult r = rt_->Execute(
      WarehouseName(1), "payment",
      {Value(int64_t{1}), Value(100.0), Value(false), Value(int64_t{7}),
       Value(std::string()), Value(int64_t{1})});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(7, r->AsInt64());
  // Remote by last name.
  r = rt_->Execute(WarehouseName(1), "payment",
                   {Value(int64_t{2}), Value(50.0), Value(true),
                    Value(tpcc::LastName(3)), Value(WarehouseName(2)),
                    Value(int64_t{4})});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(tpcc::CheckConsistency(rt_.get(), kWarehouses).ok());
}

TEST_F(TpccSimTest, OrderStatusDeliveryStockLevel) {
  ProcResult status = rt_->Execute(
      WarehouseName(1), "order_status",
      {Value(int64_t{1}), Value(false), Value(int64_t{10})});
  ASSERT_TRUE(status.ok()) << status.status();

  ProcResult delivery =
      rt_->Execute(WarehouseName(1), "delivery", {Value(int64_t{3})});
  ASSERT_TRUE(delivery.ok()) << delivery.status();
  EXPECT_EQ(tpcc::kNumDistricts, delivery->AsInt64());

  ProcResult level = rt_->Execute(
      WarehouseName(1), "stock_level", {Value(int64_t{1}), Value(int64_t{15})});
  ASSERT_TRUE(level.ok()) << level.status();
  EXPECT_GE(level->AsInt64(), 0);
  EXPECT_TRUE(tpcc::CheckConsistency(rt_.get(), kWarehouses).ok());
}

TEST_F(TpccSimTest, MixedClosedLoopKeepsConsistency) {
  tpcc::GeneratorOptions options;
  options.num_warehouses = kWarehouses;
  auto gen = std::make_shared<tpcc::Generator>(options, 21);
  harness::DriverOptions driver_options;
  driver_options.num_workers = 2;
  driver_options.num_epochs = 5;
  driver_options.epoch_us = 20000;
  driver_options.warmup_us = 5000;
  auto request_gen = [gen, this](int worker) {
    tpcc::TxnRequest req = gen->Next(worker % kWarehouses + 1);
    return harness::Request{req.reactor, req.proc, std::move(req.args)};
  };
  harness::DriverResult result =
      harness::RunClosedLoop(rt_.get(), driver_options, request_gen);
  EXPECT_GT(result.committed, 50u);
  EXPECT_TRUE(tpcc::CheckConsistency(rt_.get(), kWarehouses).ok())
      << result.Summary();
}

TEST(TpccThreadRuntime, MixedRunKeepsConsistency) {
  auto def = std::make_unique<ReactorDatabaseDef>();
  tpcc::BuildDef(def.get(), 2);
  ThreadRuntime rt;
  ASSERT_TRUE(rt.Bootstrap(def.get(),
                           DeploymentConfig::SharedEverythingWithAffinity(2))
                  .ok());
  ASSERT_TRUE(tpcc::Load(&rt, 2).ok());
  ASSERT_TRUE(rt.Start().ok());
  tpcc::GeneratorOptions options;
  options.num_warehouses = 2;
  tpcc::Generator gen(options, 5);
  int committed = 0;
  for (int i = 0; i < 60; ++i) {
    tpcc::TxnRequest req = gen.Next(i % 2 + 1);
    ProcResult r = rt.Execute(req.reactor, req.proc, req.args);
    if (r.ok()) {
      ++committed;
    } else {
      EXPECT_TRUE(r.status().IsAbort()) << r.status();
    }
  }
  EXPECT_GT(committed, 40);
  EXPECT_TRUE(tpcc::CheckConsistency(&rt, 2).ok());
  rt.Stop();
}

}  // namespace
}  // namespace reactdb
