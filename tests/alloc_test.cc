// Allocation-count regression tests for the zero-allocation transaction hot
// path: global operator new/delete are replaced with counting versions, and
// a warmed smallbank-style point read/update transaction must perform zero
// heap allocations through submit-execute-validate-commit at the
// storage/txn layer (arena-backed sets, inline key buffers, recycled
// install rows) — also with logging, metrics, audit capture, and the
// operational plane (flight recorder + live sampler) armed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>

#include "src/log/log_shard.h"
#include "src/obs/flight.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/reactor/symbol.h"
#include "src/storage/table.h"
#include "src/txn/epoch.h"
#include "src/txn/silo_txn.h"
#include "src/util/arena.h"
#include "src/util/keycodec.h"

namespace {
// Thread-local: only the thread that flips t_counting — the transaction
// thread — counts. A helper thread (the sampler) allocates by design, off
// the hot path.
thread_local uint64_t t_allocs = 0;
thread_local bool t_counting = false;

void* CountedAlloc(std::size_t size) {
  if (t_counting) ++t_allocs;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (t_counting) ++t_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace reactdb {
namespace {

Schema SavingsSchema() {
  return SchemaBuilder("savings")
      .AddColumn("cust_id", ValueType::kInt64)
      .AddColumn("balance", ValueType::kDouble)
      .SetKey({"cust_id"})
      .Build()
      .value();
}

// The smallbank transact_saving footprint at the transaction layer: point
// read of savings by cust_id, balance update, Silo commit. One iteration ==
// one root transaction; the arena resets at the transaction boundary
// exactly as the executor loop does, and the epoch advances so replaced
// rows recycle into the install pool.
class WarmedSmallbankTxn {
 public:
  /// `log` (optional) enables redo capture: the table gets a durable
  /// identity and every transaction binds the shard, exactly as the
  /// runtime does when a data_dir is configured. `audit` additionally
  /// enables read-set capture (Options::audit).
  explicit WarmedSmallbankTxn(log::LogShard* log = nullptr, bool audit = false)
      : savings_(SavingsSchema()),
        key_({Value(int64_t{1})}),
        log_(log),
        audit_(audit) {
    if (log_ != nullptr) {
      savings_.BindDurableId(ReactorId{0}, TableSlot{0});
    }
    SiloTxn loader(&epochs_, &arena_);
    loaded_ =
        loader.Insert(&savings_, {Value(int64_t{1}), Value(10000.0)}, 0).ok() &&
        loader.Commit(&tids_).ok();
    arena_.Reset();
  }

  bool RunOne() {
    bool ok = true;
    {
      SiloTxn txn(&epochs_, &arena_);
      if (log_ != nullptr) txn.BindLog(log_);
      if (audit_) txn.EnableAuditCapture();
      ok &= txn.GetInto(&savings_, key_, &row_, 0).ok();
      updated_ = row_;
      updated_[1] = Value(updated_[1].AsDouble() + 1.0);
      ok &= txn.Update(&savings_, key_, updated_, 0).ok();
      ok &= txn.Commit(&tids_).ok();
    }
    arena_.Reset();
    // Periodic epoch ticks (as FinalizeRoot does every 64 roots) move
    // retired row versions past the grace period so they recycle into the
    // install pool. Ticking once per txn would burn through the TID word's
    // 22-bit epoch field in long runs.
    if (++txns_ % 32 == 0) {
      epochs_.Advance();
      epochs_.Advance();
      // Group-commit collection (as the per-container LogWriter does):
      // swap the shard buffer against a warm spare — steady state touches
      // no allocator on either side.
      if (log_ != nullptr) {
        collect_spare_.clear();
        log_->Collect(&collect_spare_);
      }
    }
    return ok;
  }

  EpochManager epochs_;
  Arena arena_;
  TidSource tids_;
  Table savings_;
  Row key_;
  Row row_;
  Row updated_;
  log::LogShard* log_ = nullptr;
  bool audit_ = false;
  std::string collect_spare_;
  bool loaded_ = false;
  uint64_t txns_ = 0;
};

TEST(AllocationRegression, WarmedSmallbankPointTxnIsAllocationFree) {
  WarmedSmallbankTxn rig;
  ASSERT_TRUE(rig.loaded_);
  for (int i = 0; i < 256; ++i) ASSERT_TRUE(rig.RunOne()) << "warmup " << i;
  ASSERT_GT(rig.epochs_.row_pool_size(), 0u) << "rows must recycle";

  t_allocs = 0;
  t_counting = true;
  bool ok = true;
  for (int i = 0; i < 256; ++i) ok &= rig.RunOne();
  t_counting = false;

  EXPECT_TRUE(ok);
  EXPECT_EQ(0u, t_allocs)
      << "warmed point read/update transactions must not touch the heap";
}

// The durability gate: the same warmed point transaction with redo logging
// *enabled* must still perform zero heap allocations — record capture is
// arena-backed, shard appends land in a reserved buffer, and the writer's
// collection swaps warm buffers instead of copying.
TEST(AllocationRegression, WarmedPointTxnWithLoggingIsAllocationFree) {
  log::LogShard shard;
  WarmedSmallbankTxn rig(&shard);
  ASSERT_TRUE(rig.loaded_);
  for (int i = 0; i < 256; ++i) ASSERT_TRUE(rig.RunOne()) << "warmup " << i;

  t_allocs = 0;
  t_counting = true;
  bool ok = true;
  for (int i = 0; i < 256; ++i) ok &= rig.RunOne();
  t_counting = false;

  EXPECT_TRUE(ok);
  EXPECT_EQ(0u, t_allocs)
      << "redo logging must not add heap traffic to the warmed hot path";
  EXPECT_GT(shard.max_epoch(), 0u) << "the shard must actually see records";
}

// The observability gate: the same warmed point transaction with full
// metrics instrumentation — outcome counter, latency histogram observation,
// arena high-water gauge, exactly what FinalizeRoot records per root — must
// still perform zero heap allocations. The registry's sharded slots are
// pre-materialized at Freeze; hot-path updates are relaxed loads/stores.
TEST(AllocationRegression, WarmedPointTxnWithMetricsIsAllocationFree) {
  obs::MetricsRegistry reg;
  obs::MetricId committed = reg.Counter("reactdb_txn_committed_total", "c");
  obs::MetricId latency = reg.Histo("reactdb_txn_latency_us", "l");
  obs::MetricId arena_hw = reg.Gauge("reactdb_arena_used_bytes_hw", "a", {},
                                     obs::Aggregation::kMax);
  reg.Freeze(1);

  WarmedSmallbankTxn rig;
  ASSERT_TRUE(rig.loaded_);
  for (int i = 0; i < 256; ++i) ASSERT_TRUE(rig.RunOne()) << "warmup " << i;

  t_allocs = 0;
  t_counting = true;
  bool ok = true;
  for (int i = 0; i < 256; ++i) {
    ok &= rig.RunOne();
    reg.Add(0, committed);
    reg.Observe(0, latency, 1.0 + 0.01 * i);
    reg.GaugeMax(0, arena_hw,
                 static_cast<int64_t>(rig.arena_.bytes_used()));
  }
  t_counting = false;

  EXPECT_TRUE(ok);
  EXPECT_EQ(0u, t_allocs)
      << "metrics instrumentation must not add heap traffic to the hot path";
  EXPECT_DOUBLE_EQ(256,
                   reg.Collect().Value("reactdb_txn_committed_total"));
}

// The audit gate: the warmed logged point transaction with read-set capture
// (Options::audit) must stay allocation-free — read digests are encoded
// into the per-root arena and the kTxnAudit record is one shard append.
TEST(AllocationRegression, WarmedPointTxnWithAuditCaptureIsAllocationFree) {
  log::LogShard shard;
  WarmedSmallbankTxn rig(&shard, /*audit=*/true);
  ASSERT_TRUE(rig.loaded_);
  for (int i = 0; i < 256; ++i) ASSERT_TRUE(rig.RunOne()) << "warmup " << i;

  t_allocs = 0;
  t_counting = true;
  bool ok = true;
  for (int i = 0; i < 256; ++i) ok &= rig.RunOne();
  t_counting = false;

  EXPECT_TRUE(ok);
  EXPECT_EQ(0u, t_allocs)
      << "read-set capture must not add heap traffic to the hot path";
  EXPECT_GT(shard.max_epoch(), 0u) << "the shard must actually see records";
}

// The operational-plane gate (Options::monitor): the warmed logged point
// transaction with registry recording, a flight event at every epoch
// boundary, and a live sampler thread folding Collect() snapshots into a
// TimeSeriesStore must stay allocation-free on the transaction thread. The
// sampler's own snapshot allocations are off the hot path and not counted
// (the tally is thread-local); the counted window spans live samples.
TEST(AllocationRegression, WarmedPointTxnWithFlightAndSamplerIsAllocationFree) {
  obs::MetricsRegistry reg;
  obs::MetricId committed = reg.Counter("reactdb_txn_committed_total", "c");
  obs::MetricId latency = reg.Histo("reactdb_txn_latency_us", "l");
  reg.Freeze(1);
  obs::FlightRecorder flight(1, 256);
  obs::TimeSeriesStore series(64);
  log::LogShard shard;
  WarmedSmallbankTxn rig(&shard);
  ASSERT_TRUE(rig.loaded_);
  auto run_one = [&] {
    bool ok = rig.RunOne();
    reg.Add(0, committed);
    reg.Observe(0, latency, 1.0);
    if (rig.txns_ % 32 == 0) {
      flight.Record(0, obs::FlightEventKind::kEpochAdvance,
                    rig.epochs_.current());
    }
    return ok;
  };
  for (int i = 0; i < 256; ++i) ASSERT_TRUE(run_one()) << "warmup " << i;

  // Started after the ASSERTs: no early return may skip the join below.
  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    double t_us = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      series.Sample(t_us += 1000, reg.Collect());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const uint64_t samples_before = series.samples_taken();
  t_allocs = 0;
  t_counting = true;
  bool ok = true;
  int txns = 0;
  // At least 256 transactions, and on until the sampler folded two more
  // snapshots (bounded, so a stalled sampler fails the test, not hangs it).
  while (txns < 256 || (series.samples_taken() < samples_before + 2 &&
                        txns < 50'000'000)) {
    ok &= run_one();
    ++txns;
  }
  t_counting = false;
  stop.store(true, std::memory_order_relaxed);
  sampler.join();

  EXPECT_TRUE(ok);
  EXPECT_EQ(0u, t_allocs)
      << "flight recording + a live sampler must not add heap traffic to "
         "the transaction thread";
  EXPECT_GE(series.samples_taken(), samples_before + 2)
      << "the sampler must run during the counted window";
}

// The deadline gate: a warmed point transaction with a deadline *set* (but
// not expired) must stay allocation-free. Per root the runtime adds exactly
// what this loop adds — three boundary checks of a double against the
// session clock (dispatch, call, validate) and the dense per-proc outcome
// bump — none of which may touch the heap on the non-expired path.
TEST(AllocationRegression, WarmedPointTxnWithDeadlineSetIsAllocationFree) {
  obs::ProcOutcomeTable outcomes;
  outcomes.Init({1});
  WarmedSmallbankTxn rig;
  ASSERT_TRUE(rig.loaded_);
  for (int i = 0; i < 256; ++i) ASSERT_TRUE(rig.RunOne()) << "warmup " << i;

  double now_us = 1000.0;
  t_allocs = 0;
  t_counting = true;
  bool ok = true;
  bool expired = false;
  for (int i = 0; i < 256; ++i) {
    // Submit fixes the absolute deadline; each boundary re-reads the clock.
    const double deadline_us = now_us + 50.0;
    now_us += 1.0;  // dispatch boundary
    expired |= deadline_us > 0 && now_us > deadline_us;
    now_us += 1.0;  // call boundary
    expired |= deadline_us > 0 && now_us > deadline_us;
    ok &= rig.RunOne();
    now_us += 1.0;  // validate boundary
    expired |= deadline_us > 0 && now_us > deadline_us;
    outcomes.Bump(ReactorId{0}, ProcId{0}, /*committed=*/!expired);
  }
  t_counting = false;

  EXPECT_TRUE(ok);
  EXPECT_FALSE(expired);
  EXPECT_EQ(0u, t_allocs)
      << "a set-but-unexpired deadline must not add heap traffic";
  EXPECT_EQ(256u, outcomes.committed(ReactorId{0}, ProcId{0}));
  EXPECT_EQ(0u, outcomes.deadline_exceeded(ReactorId{0}, ProcId{0}));
}

TEST(AllocationRegression, WarmedKeyEncodeIsAllocationFree) {
  Row key = {Value(int64_t{123456}), Value(3.25)};
  KeyBuf buf;
  EncodeKeyTo(key, &buf);  // warm (inline storage only, but be uniform)

  t_allocs = 0;
  t_counting = true;
  for (int i = 0; i < 1000; ++i) EncodeKeyTo(key, &buf);
  t_counting = false;

  EXPECT_EQ(0u, t_allocs);
  EXPECT_EQ(EncodeKey(key), buf.ToString());
}

TEST(AllocationRegression, ReadOnlyTxnIsAllocationFree) {
  WarmedSmallbankTxn rig;
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(rig.RunOne());

  t_allocs = 0;
  t_counting = true;
  bool ok = true;
  for (int i = 0; i < 256; ++i) {
    SiloTxn txn(&rig.epochs_, &rig.arena_);
    ok &= txn.GetInto(&rig.savings_, rig.key_, &rig.row_, 0).ok();
    ok &= txn.Commit(&rig.tids_).ok();
    rig.arena_.Reset();
  }
  t_counting = false;

  EXPECT_TRUE(ok);
  EXPECT_EQ(0u, t_allocs);
}

}  // namespace
}  // namespace reactdb
