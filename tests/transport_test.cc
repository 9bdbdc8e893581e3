// Transport-layer tests: mailbox FIFO/backpressure semantics, send-side
// batching (flush-on-boundary and the max-batch cap), and the runtime
// integration — cross-container CallOn demonstrably routes through the
// Mailbox/Link path, with results checked against independent oracles.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/runtime/reactdb.h"
#include "src/sim/event_queue.h"
#include "src/transport/transport.h"
#include "src/util/logging.h"
#include "src/workloads/smallbank/smallbank.h"

namespace reactdb {
namespace {

using transport::Envelope;
using transport::MessageKind;

/// A CallResponse envelope with a null ctx: enough for the transport layer,
/// which never touches the continuation.
Envelope ResponseEnvelope(uint32_t dst, uint64_t root_id) {
  transport::CallResponse resp;
  resp.root_id = root_id;
  Envelope e;
  e.kind = MessageKind::kResponse;
  e.dst_container = dst;
  e.wire = transport::EncodeMessage(resp);
  return e;
}

uint64_t RootIdOf(const Envelope& e) {
  StatusOr<transport::Message> m = transport::DecodeMessage(e.wire);
  REACTDB_CHECK(m.ok());
  return std::get<transport::CallResponse>(*m).root_id;
}

// --- Wire round-trips --------------------------------------------------------

// Every status code a procedure can return must survive the CallResponse
// wire encoding — kOverloaded, kIOError, and kDeadlineExceeded sit past the
// originally-bounded range and regressed silently once.
TEST(WireRoundTrip, CallResponseCarriesAllStatusCodes) {
  for (StatusCode code :
       {StatusCode::kOverloaded, StatusCode::kIOError,
        StatusCode::kDeadlineExceeded, StatusCode::kAborted,
        StatusCode::kUserAbort}) {
    transport::CallResponse resp;
    resp.root_id = 7;
    resp.call_id = 9;
    resp.code = code;
    resp.status_message = "chaos";
    Envelope e;
    e.kind = MessageKind::kResponse;
    e.wire = transport::EncodeMessage(resp);
    StatusOr<transport::Message> m = transport::DecodeMessage(e.wire);
    ASSERT_TRUE(m.ok()) << StatusCodeName(code) << ": " << m.status();
    const auto& back = std::get<transport::CallResponse>(*m);
    EXPECT_EQ(code, back.code) << StatusCodeName(code);
    EXPECT_EQ("chaos", back.status_message);
    EXPECT_EQ(code, back.ToResult().status().code());
  }
}

// The deadline rides in submit and call envelopes bit-exactly: remote
// dispatch and inherited sub-transactions check the same absolute budget
// the client set.
TEST(WireRoundTrip, DeadlineSurvivesSubmitAndCallEncoding) {
  transport::SubmitRequest submit;
  submit.root_id = 3;
  submit.reactor = ReactorId{1};
  submit.proc = ProcId{2};
  submit.deadline_us = 12345.625;  // representable exactly in binary
  Envelope e;
  e.kind = MessageKind::kSubmit;
  e.wire = transport::EncodeMessage(submit);
  StatusOr<transport::Message> m = transport::DecodeMessage(e.wire);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(12345.625, std::get<transport::SubmitRequest>(*m).deadline_us);

  transport::CallRequest call;
  call.root_id = 3;
  call.call_id = 4;
  call.subtxn_id = 1;
  call.reactor = ReactorId{1};
  call.proc = ProcId{2};
  call.deadline_us = 12345.625;
  e.kind = MessageKind::kCall;
  e.wire = transport::EncodeMessage(call);
  m = transport::DecodeMessage(e.wire);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(12345.625, std::get<transport::CallRequest>(*m).deadline_us);
}

// --- Mailbox semantics -------------------------------------------------------

TEST(Mailbox, PreservesFifoOrder) {
  transport::Mailbox box(16);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(box.TryPush(ResponseEnvelope(0, i)));
  }
  Envelope e;
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(box.TryPop(&e));
    EXPECT_EQ(i, RootIdOf(e));
  }
  EXPECT_FALSE(box.TryPop(&e));
  EXPECT_EQ(10u, box.pushed());
  EXPECT_EQ(10u, box.popped());
}

TEST(Mailbox, TryPushRejectsWhenFull) {
  transport::Mailbox box(3);
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(box.TryPush(ResponseEnvelope(0, i)));
  }
  EXPECT_FALSE(box.TryPush(ResponseEnvelope(0, 99)));
  EXPECT_EQ(1u, box.rejected());
  // Draining frees capacity again.
  Envelope e;
  ASSERT_TRUE(box.TryPop(&e));
  EXPECT_TRUE(box.TryPush(ResponseEnvelope(0, 3)));
  EXPECT_EQ(3u, box.size());
}

TEST(Mailbox, PushBlocksUntilConsumerDrains) {
  transport::Mailbox box(2);
  box.Push(ResponseEnvelope(0, 0));
  box.Push(ResponseEnvelope(0, 1));
  std::atomic<bool> unblocked{false};
  std::thread producer([&box, &unblocked] {
    box.Push(ResponseEnvelope(0, 2));  // over capacity: must wait for a pop
    unblocked.store(true);
  });
  // The producer must be parked while the mailbox is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(unblocked.load());
  Envelope e;
  ASSERT_TRUE(box.TryPop(&e));
  EXPECT_EQ(0u, RootIdOf(e));  // backpressure does not reorder
  producer.join();
  EXPECT_TRUE(unblocked.load());
  EXPECT_EQ(2u, box.size());
}

TEST(Mailbox, ForcePushOverflowsButCounts) {
  transport::Mailbox box(1);
  box.ForcePush(ResponseEnvelope(0, 0));
  box.ForcePush(ResponseEnvelope(0, 1));
  EXPECT_EQ(2u, box.size());
  EXPECT_EQ(1u, box.overflowed());
}

// --- Send-side batching ------------------------------------------------------

/// Link that records batch sizes before loopback delivery.
class RecordingLink : public transport::Link {
 public:
  explicit RecordingLink(transport::Transport* t) : transport_(t) {}
  void Send(uint32_t dst, std::vector<Envelope> batch) override {
    batch_sizes.push_back(batch.size());
    transport_->DeliverBatch(dst, std::move(batch), /*blocking=*/true);
  }
  std::vector<size_t> batch_sizes;

 private:
  transport::Transport* transport_;
};

TEST(TransportBatching, FlushesOnBoundaryAndAtCap) {
  transport::Transport t(/*num_containers=*/2, /*num_lanes=*/2,
                         /*mailbox_capacity=*/64, /*max_batch=*/4);
  auto link = std::make_unique<RecordingLink>(&t);
  RecordingLink* rec = link.get();
  t.set_link(std::move(link));

  // Three messages stay buffered until the scheduling boundary...
  for (uint64_t i = 0; i < 3; ++i) t.Post(0, ResponseEnvelope(1, i));
  EXPECT_TRUE(rec->batch_sizes.empty());
  t.Flush(0);
  ASSERT_EQ(1u, rec->batch_sizes.size());
  EXPECT_EQ(3u, rec->batch_sizes[0]);

  // ...six more hit the cap once (batch of 4), remainder leaves on flush.
  for (uint64_t i = 0; i < 6; ++i) t.Post(0, ResponseEnvelope(1, i));
  ASSERT_EQ(2u, rec->batch_sizes.size());
  EXPECT_EQ(4u, rec->batch_sizes[1]);
  t.Flush(0);
  ASSERT_EQ(3u, rec->batch_sizes.size());
  EXPECT_EQ(2u, rec->batch_sizes[2]);

  // Flushing an empty lane sends nothing.
  t.Flush(0);
  EXPECT_EQ(3u, rec->batch_sizes.size());

  // Stats reflect the traffic; FIFO survives batching.
  EXPECT_EQ(9u, t.stats().sent_of(MessageKind::kResponse));
  EXPECT_EQ(4u, t.stats().max_batch.load());
  uint64_t expect = 0;
  size_t drained = t.Drain(1, [&expect](Envelope&& e) {
    if (expect < 3) {
      EXPECT_EQ(expect, RootIdOf(e));
    }
    ++expect;
  });
  EXPECT_EQ(9u, drained);
  EXPECT_EQ(9u, t.stats().delivered_of(MessageKind::kResponse));
}

TEST(SimLinkFifo, SmallTransferCannotOvertakeLarge) {
  EventQueue events;
  transport::Transport t(/*num_containers=*/2, /*num_lanes=*/1,
                         /*mailbox_capacity=*/64, /*max_batch=*/16);
  transport::SimLinkParams params;
  params.per_byte_us = 1.0;  // size-dependent transfer time
  t.set_link(std::make_unique<transport::SimLink>(
      &t, params, [&events] { return events.now(); },
      [&events](double when, std::function<void()> fn) {
        events.Schedule(when, std::move(fn));
      }));
  std::vector<uint64_t> delivered;
  t.set_on_inbox_ready([&t, &delivered](uint32_t c) {
    t.Drain(c, [&delivered](Envelope&& e) {
      StatusOr<transport::Message> m = transport::DecodeMessage(e.wire);
      ASSERT_TRUE(m.ok());
      delivered.push_back(std::get<transport::CallRequest>(*m).root_id);
    });
  });
  auto call = [](uint64_t root_id, size_t payload_bytes) {
    transport::CallRequest msg;
    msg.root_id = root_id;
    msg.args = {Value(std::string(payload_bytes, 'x'))};
    Envelope e;
    e.kind = MessageKind::kCall;
    e.dst_container = 1;
    e.wire = transport::EncodeMessage(msg);
    return e;
  };
  // A large transfer sent first, a small one sent right after: the small
  // one's shorter modeled delay must not let it arrive first (FIFO pipe).
  t.PostNow(call(1, 500));
  t.PostNow(call(2, 10));
  events.RunAll();
  ASSERT_EQ(2u, delivered.size());
  EXPECT_EQ(1u, delivered[0]);
  EXPECT_EQ(2u, delivered[1]);
}

// --- Runtime integration -----------------------------------------------------

Proc Bump(TxnContext& ctx, Row args) {
  int64_t by = args.empty() ? 1 : args[0].AsInt64();
  REACTDB_CO_ASSIGN_OR_RETURN(Row row,
                              ctx.Get("counter", {Value(int64_t{0})}));
  REACTDB_CO_RETURN_IF_ERROR(
      ctx.Update("counter", {Value(int64_t{0})},
                 {Value(int64_t{0}), Value(row[1].AsInt64() + by)}));
  co_return Value(row[1].AsInt64() + by);
}

Proc GetCounter(TxnContext& ctx, Row) {
  REACTDB_CO_ASSIGN_OR_RETURN(Row row,
                              ctx.Get("counter", {Value(int64_t{0})}));
  co_return row[1];
}

// fan_out: bump every destination reactor (args) by 1, awaiting all. All
// CallOns are issued before the first await, so every request to one
// destination container leaves in one batch.
Proc FanOut(TxnContext& ctx, Row args) {
  std::vector<Future> futures;
  futures.reserve(args.size());
  for (const Value& dst : args) {
    futures.push_back(ctx.CallOn(dst.AsString(), "bump", {Value(int64_t{1})}));
  }
  int64_t sum = 0;
  for (Future& f : futures) {
    ProcResult r = co_await f;
    REACTDB_CO_RETURN_IF_ERROR(r.status());
    sum += r.value().AsInt64();
  }
  co_return Value(sum);
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
  t.AddProcedure("fan_out", &FanOut);
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

// Acceptance: cross-container CallOn in the thread runtime routes through
// the Mailbox/Link path, with exactly one CallRequest and one CallResponse
// per cross-container sub-transaction.
TEST(ThreadTransport, CrossContainerCallsRouteThroughMailbox) {
  auto def = CounterDef(2);  // c0 -> container 0, c1 -> container 1
  ThreadRuntime rt;
  ASSERT_TRUE(rt.Bootstrap(def.get(), DeploymentConfig::SharedNothing(2)).ok());
  ASSERT_TRUE(LoadCounters(&rt, 2).ok());
  ASSERT_TRUE(rt.Start().ok());
  ASSERT_NE(nullptr, rt.transport());

  constexpr int kTxns = 25;
  for (int i = 0; i < kTxns; ++i) {
    // Bumps c0 (direct self-call, inlined — no message) and c1 (cross
    // container — request + response through the link), committing a
    // two-container transaction.
    ProcResult r = rt.Execute("c0", "fan_out", {Value("c0"), Value("c1")});
    ASSERT_TRUE(r.ok()) << r.status();
  }
  const transport::TransportStats& stats = rt.transport()->stats();
  // Every root crossed the client boundary as a SubmitRequest...
  EXPECT_EQ(static_cast<uint64_t>(kTxns),
            stats.sent_of(MessageKind::kSubmit));
  // ...and each made exactly one cross-container call, request + response.
  EXPECT_EQ(static_cast<uint64_t>(kTxns), stats.sent_of(MessageKind::kCall));
  EXPECT_EQ(static_cast<uint64_t>(kTxns),
            stats.sent_of(MessageKind::kResponse));

  // The remote bumps all landed despite every hop being message-borne.
  ProcResult v = rt.Execute("c1", "get", {});
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(kTxns, v.value().AsInt64());

  rt.Stop();
  // Every message kind is one a completed transaction waits on (the roots
  // ran, the calls executed, their awaited responses came back), so once
  // Stop returns nothing is left in flight.
  for (MessageKind kind :
       {MessageKind::kSubmit, MessageKind::kCall, MessageKind::kResponse}) {
    EXPECT_EQ(stats.sent_of(kind), stats.delivered_of(kind))
        << transport::MessageKindName(kind);
  }
  EXPECT_EQ(static_cast<uint64_t>(kTxns) + 1,
            stats.delivered_of(MessageKind::kSubmit));
}

/// Per-kind sent counts (indexed by MessageKind value) plus the total, after
/// `kTxns` fan_outs from c0 to c1 (same container) and c2, c3 (the other
/// container) — each a two-container commit with two remote calls.
std::vector<uint64_t> FanOutTraffic(RuntimeBase* rt) {
  constexpr int kTxns = 20;
  for (int i = 0; i < kTxns; ++i) {
    ProcResult r =
        rt->Execute("c0", "fan_out", {Value("c1"), Value("c2"), Value("c3")});
    REACTDB_CHECK(r.ok());
  }
  const transport::TransportStats& stats = rt->transport()->stats();
  return {stats.sent_of(MessageKind::kSubmit), stats.sent_of(MessageKind::kCall),
          stats.sent_of(MessageKind::kResponse), stats.total_sent()};
}

// The deployment decides where reactors are placed, never which messages a
// transaction sends: both runtimes post exactly the same traffic for the
// same workload.
TEST(TransportParity, SimAndThreadRuntimesSendTheSameMessages) {
  // c0,c1 -> container 0; c2,c3 -> container 1
  auto sim_def = CounterDef(4);
  SimRuntime sim{CostParams{}};
  ASSERT_TRUE(
      sim.Bootstrap(sim_def.get(), DeploymentConfig::SharedNothing(2)).ok());
  ASSERT_TRUE(LoadCounters(&sim, 4).ok());
  std::vector<uint64_t> sim_sent = FanOutTraffic(&sim);

  auto thread_def = CounterDef(4);
  ThreadRuntime threads;
  ASSERT_TRUE(
      threads.Bootstrap(thread_def.get(), DeploymentConfig::SharedNothing(2))
          .ok());
  ASSERT_TRUE(LoadCounters(&threads, 4).ok());
  ASSERT_TRUE(threads.Start().ok());
  std::vector<uint64_t> thread_sent = FanOutTraffic(&threads);
  threads.Stop();

  // 20 submits, 2 calls and 2 responses each, and nothing else.
  EXPECT_EQ((std::vector<uint64_t>{20, 40, 40, 100}), sim_sent);
  EXPECT_EQ(sim_sent, thread_sent);
}

// Batching: one task fanning out to many reactors of one destination
// container ships the requests as a single link transfer.
TEST(ThreadTransport, FanOutBatchesPerDestinationContainer) {
  constexpr int kFan = 8;
  auto def = CounterDef(1 + kFan);
  ThreadRuntime rt;
  // Custom placement: c0 alone in container 0, the fan targets in 1.
  DeploymentConfig dc = DeploymentConfig::SharedNothing(2);
  dc.placement = [](const std::string& name, size_t, size_t,
                    uint32_t) -> uint32_t { return name == "c0" ? 0 : 1; };
  ASSERT_TRUE(rt.Bootstrap(def.get(), dc).ok());
  ASSERT_TRUE(LoadCounters(&rt, 1 + kFan).ok());
  ASSERT_TRUE(rt.Start().ok());

  Row dsts;
  for (int i = 1; i <= kFan; ++i) dsts.push_back(Value("c" + std::to_string(i)));
  ProcResult r = rt.Execute("c0", "fan_out", std::move(dsts));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(kFan, r.value().AsInt64());  // every counter was 0, bumped to 1

  const transport::TransportStats& stats = rt.transport()->stats();
  EXPECT_EQ(static_cast<uint64_t>(kFan), stats.sent_of(MessageKind::kCall));
  // All kFan requests were issued before the first suspension point, so
  // they left in one batch at the task boundary.
  EXPECT_GE(stats.max_batch.load(), static_cast<uint64_t>(kFan));
  rt.Stop();
}

// Oracle: smallbank multi-transfers on the simulated runtime, checked
// against values computed here from the transfer amounts alone — no runtime
// code in the reference. Destination arguments come in both conventions
// (per-call-resolved name strings and submit-time pre-resolved ReactorId
// handles). Every transfer commits and returns its destination count; the
// source loses, and each destination gains, exactly what was sent (all
// amounts are multiples of 0.25, so the double arithmetic is exact); the
// registry counts every root as committed and none as aborted.
TEST(TransportOracle, SmallbankMatchesComputedBalancesExactly) {
  constexpr int64_t kCustomers = 24;
  constexpr int kContainers = 4;
  constexpr int kTxnsPerForm = 12;
  constexpr int kDsts = 5;
  constexpr double kInitialBalance = 20000.0;  // savings + checking at Load

  for (bool handle_args : {false, true}) {
    SCOPED_TRACE(handle_args ? "handles" : "names");
    auto def = std::make_unique<ReactorDatabaseDef>();
    smallbank::BuildDef(def.get(), kCustomers);
    SimRuntime rt;
    ASSERT_TRUE(
        rt.Bootstrap(def.get(), DeploymentConfig::SharedNothing(kContainers))
            .ok());
    ASSERT_TRUE(smallbank::Load(&rt, kCustomers).ok());
    smallbank::Handles handles = smallbank::ResolveHandles(&rt, kCustomers);

    std::vector<double> expected(kCustomers, kInitialBalance);
    int64_t slot = 0;
    int transfers = 0;
    for (smallbank::Formulation form :
         {smallbank::Formulation::kFullySync,
          smallbank::Formulation::kPartiallyAsync,
          smallbank::Formulation::kFullyAsync, smallbank::Formulation::kOpt}) {
      for (int i = 0; i < kTxnsPerForm; ++i) {
        double amount = 1.0 + 0.25 * static_cast<double>(i);
        std::vector<std::string> dst_names;
        std::vector<ReactorId> dst_ids;
        for (int j = 0; j < kDsts; ++j) {
          int64_t c = 1 + (slot++ % (kCustomers - 1));
          dst_names.push_back(smallbank::CustomerName(c));
          dst_ids.push_back(handles.customers[static_cast<size_t>(c)]);
          expected[static_cast<size_t>(c)] += amount;
          expected[0] -= amount;
        }
        smallbank::MultiTransferCall call =
            handle_args ? smallbank::MakeMultiTransfer(form, amount, dst_ids)
                        : smallbank::MakeMultiTransfer(form, amount,
                                                       dst_names);
        ProcResult r =
            rt.Execute(handles.customers[0], call.proc_id, call.args);
        ASSERT_TRUE(r.ok()) << "transfer " << transfers << ": " << r.status();
        EXPECT_EQ(kDsts, r.value().AsInt64()) << "transfer " << transfers;
        ++transfers;
      }
    }
    for (int64_t c = 0; c < kCustomers; ++c) {
      ProcResult bal = rt.Execute(handles.customers[static_cast<size_t>(c)],
                                  smallbank::kBalanceProc, {});
      ASSERT_TRUE(bal.ok()) << bal.status();
      EXPECT_EQ(expected[static_cast<size_t>(c)], bal.value().AsNumeric())
          << "customer " << c;
    }
    obs::StatsSnapshot snap = rt.Stats();
    EXPECT_DOUBLE_EQ(transfers + kCustomers,
                     snap.Value("reactdb_txn_committed_total"));
    for (const char* reason : {"cc", "user", "safety", "deadline"}) {
      EXPECT_DOUBLE_EQ(
          0, snap.Value("reactdb_txn_aborted_total", {{"reason", reason}}))
          << reason;
    }
    // Every root crossed the client boundary as a message, and the
    // cross-container transfers as calls.
    const transport::TransportStats& stats = rt.transport()->stats();
    EXPECT_EQ(static_cast<uint64_t>(transfers + kCustomers),
              stats.sent_of(MessageKind::kSubmit));
    EXPECT_GT(stats.sent_of(MessageKind::kCall), 0u);
  }
}

// The same on real threads, where interleaving is not deterministic: total
// counter mass is conserved and matches the committed count.
TEST(TransportOracle, ThreadRuntimeConservesUpdates) {
  auto def = CounterDef(4);
  ThreadRuntime rt;
  ASSERT_TRUE(rt.Bootstrap(def.get(), DeploymentConfig::SharedNothing(2)).ok());
  ASSERT_TRUE(LoadCounters(&rt, 4).ok());
  ASSERT_TRUE(rt.Start().ok());
  std::atomic<int64_t> committed_sum{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&rt, t, &committed_sum] {
      for (int i = 0; i < 30; ++i) {
        std::string src = "c" + std::to_string((t + i) % 4);
        std::string dst = "c" + std::to_string((t + i + 1) % 4);
        ProcResult r = rt.Execute(src, "fan_out", {Value(dst)});
        if (r.ok()) committed_sum.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  int64_t total = 0;
  for (int i = 0; i < 4; ++i) {
    ProcResult v = rt.Execute("c" + std::to_string(i), "get", {});
    ASSERT_TRUE(v.ok());
    total += v.value().AsInt64();
  }
  EXPECT_EQ(committed_sum.load(), total);
  rt.Stop();
}

// The cost-injecting sim link produces a measurable local-vs-remote gap
// through the real serialization path, while same-container calls stay on
// the fast path and are unaffected.
TEST(SimLinkLatency, RemotePaysLinkCostsLocalDoesNot) {
  auto measure = [](double link_latency_us) {
    auto def = CounterDef(4);  // c0,c1 -> container 0; c2,c3 -> container 1
    CostParams params;
    params.link_latency_us = link_latency_us;
    SimRuntime rt(params);
    REACTDB_CHECK_OK(rt.Bootstrap(def.get(),
                                  DeploymentConfig::SharedNothing(2)));
    REACTDB_CHECK_OK(LoadCounters(&rt, 4));
    auto run_one = [&rt](const char* src, const char* dst) {
      double t0 = rt.events().now();
      ProcResult r = rt.Execute(src, "fan_out", {Value(dst)});
      REACTDB_CHECK(r.ok());
      return rt.events().now() - t0;
    };
    double local = run_one("c0", "c1");   // same container
    double remote = run_one("c0", "c2");  // crosses the link
    return std::make_pair(local, remote);
  };

  auto [local0, remote0] = measure(0);
  auto [local100, remote100] = measure(100);
  // Every transaction pays one link hop for the client-boundary submit; a
  // local (same-container) call adds nothing on top of that.
  EXPECT_NEAR(local0 + 100.0, local100, 1e-6);
  // The remote call additionally pays the link on the request and the
  // response — minus whatever executor-queueing wait the zero-cost run
  // already hid inside the round trip (the flight time absorbs it), so the
  // added cost is bounded by, and close to, two hops.
  EXPECT_GE(remote100 - remote0, 290.0);
  EXPECT_LE(remote100 - remote0, 300.0 + 1e-6);
  // Fig. 11's shape: the local-vs-remote gap widens by ~two link hops.
  double gap_growth = (remote100 - local100) - (remote0 - local0);
  EXPECT_GT(gap_growth, 180.0);
  EXPECT_LE(gap_growth, 200.0 + 1e-6);
}

}  // namespace
}  // namespace reactdb
