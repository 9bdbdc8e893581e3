// ledger_probes: the single-layer half of the perf ledger.
//
// Times public functions of one layer at a time, with inputs shaped like the
// chosen workload's (its argument rows, its composite keys), and prints one
// JSON object as the last line of stdout:
//
//   ledger_probes --workload NAME --seed S
//
// Each probe reports the median over 7 timed batches (after one warm-up
// batch) of the per-operation time; batches are sized to ~25 ms each.
// operator new is replaced by a gated counter in this binary only, so
// txn.allocs_per_txn counts heap allocations of the warmed point
// transaction without touching the workload process.

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench/ledger/ledger.h"
#include "src/log/log_shard.h"
#include "src/storage/btree.h"
#include "src/storage/table.h"
#include "src/transport/transport.h"
#include "src/txn/epoch.h"
#include "src/txn/silo_txn.h"
#include "src/util/arena.h"
#include "src/util/keycodec.h"
#include "src/util/logging.h"
#include "src/util/wire.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace reactdb {
namespace ledger {
namespace {

constexpr int kBatches = 7;
constexpr double kBatchUs = 25000;

/// Keeps a result alive so the timed work is not optimized away.
std::atomic<uint64_t> g_sink{0};
void Sink(uint64_t v) { g_sink.fetch_add(v, std::memory_order_relaxed); }

/// Median over kBatches of the per-op time of `batch(n)` (which performs n
/// operations), in ns. The first (warm-up) batch sizes n to ~kBatchUs.
template <typename Fn>
double ProbeNs(Fn&& batch, int64_t calibrate_ops = 1000) {
  double t0 = NowUs();
  batch(calibrate_ops);
  double per_op_us = (NowUs() - t0) / static_cast<double>(calibrate_ops);
  int64_t n = std::max<int64_t>(1, static_cast<int64_t>(kBatchUs / per_op_us));
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    t0 = NowUs();
    batch(n);
    ns.push_back((NowUs() - t0) * 1e3 / static_cast<double>(n));
  }
  return Median(ns);
}

/// The workload's first 256 request argument rows (handles stand in for
/// resolved reactors; only the row shape matters here).
std::vector<Row> WorkloadRows(const Spec& spec, uint64_t seed) {
  std::vector<ReactorId> targets;
  for (int64_t i = 0; i < NumTargets(spec); ++i) {
    targets.push_back(ReactorId{static_cast<uint32_t>(i)});
  }
  Generator gen(spec, seed, targets);
  std::vector<Row> rows;
  for (int i = 0; i < 256; ++i) rows.push_back(gen.Next().args);
  return rows;
}

// --- storage -------------------------------------------------------------------

double EncodeKeyNs(Rng* rng) {
  // TPC-C order-line primary key (d_id, o_id, ol_number).
  std::vector<Row> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back({Value(rng->NextInt(1, 10)), Value(rng->NextInt(1, 9000)),
                    Value(rng->NextInt(1, 15))});
  }
  KeyBuf buf;
  return ProbeNs([&](int64_t n) {
    uint64_t s = 0;
    for (int64_t i = 0; i < n; ++i) {
      EncodeKeyTo(keys[static_cast<size_t>(i & 63)], &buf);
      s += buf.size();
    }
    Sink(s);
  });
}

std::vector<std::string> EncodedIntKeys(int64_t n) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) keys.push_back(EncodeKey({Value(i)}));
  return keys;
}

double BTreeGetNs(int64_t size, Rng* rng) {
  BTree tree;
  std::vector<std::string> keys = EncodedIntKeys(size);
  for (const std::string& k : keys) tree.GetOrInsert(k);
  std::vector<std::string> probes;
  for (int i = 0; i < 4096; ++i) {
    probes.push_back(keys[static_cast<size_t>(rng->NextInt(0, size - 1))]);
  }
  return ProbeNs([&](int64_t n) {
    uint64_t s = 0;
    for (int64_t i = 0; i < n; ++i) {
      s += tree.Get(probes[static_cast<size_t>(i & 4095)]).record != nullptr;
    }
    Sink(s);
  });
}

double BTreeScanRowNs(Rng* rng) {
  constexpr int64_t kSize = 100000;
  constexpr int64_t kRows = 100;
  BTree tree;
  std::vector<std::string> keys = EncodedIntKeys(kSize);
  for (const std::string& k : keys) tree.GetOrInsert(k);
  std::vector<size_t> starts;
  for (int i = 0; i < 1024; ++i) {
    starts.push_back(static_cast<size_t>(rng->NextInt(0, kSize - kRows - 1)));
  }
  double per_scan = ProbeNs(
      [&](int64_t n) {
        uint64_t s = 0;
        for (int64_t i = 0; i < n; ++i) {
          size_t lo = starts[static_cast<size_t>(i & 1023)];
          tree.Scan(keys[lo], keys[lo + kRows],
                    [&s](const std::string&, Record*) {
                      ++s;
                      return true;
                    });
        }
        Sink(s);
      },
      100);
  return per_scan / kRows;
}

// --- txn + log -----------------------------------------------------------------

/// The warmed smallbank-style point transaction (GetInto + Update + Commit
/// on one savings row), optionally with a bound LogShard; arena reset and
/// epoch ticks at the boundary as the runtime does.
class PointTxnRig {
 public:
  explicit PointTxnRig(bool logged)
      : table_(SchemaBuilder("savings")
                   .AddColumn("cust_id", ValueType::kInt64)
                   .AddColumn("balance", ValueType::kDouble)
                   .SetKey({"cust_id"})
                   .Build()
                   .value()),
        logged_(logged) {
    if (logged_) table_.BindDurableId(ReactorId{0}, TableSlot{1});
    {
      SiloTxn loader(&epochs_, &arena_);
      REACTDB_CHECK(
          loader.Insert(&table_, {Value(int64_t{1}), Value(10000.0)}, 0).ok());
      REACTDB_CHECK(loader.Commit(&tids_).ok());
    }
    arena_.Reset();
    RunMany(512);  // warm pools, arena blocks, shard buffers
  }

  void RunMany(int64_t n) {
    for (int64_t i = 0; i < n; ++i) RunOne();
  }

 private:
  void RunOne() {
    {
      SiloTxn txn(&epochs_, &arena_);
      if (logged_) txn.BindLog(&shard_);
      REACTDB_CHECK(txn.GetInto(&table_, key_, &row_, 0).ok());
      updated_ = row_;
      updated_[1] = Value(updated_[1].AsDouble() + 1.0);
      REACTDB_CHECK(txn.Update(&table_, key_, updated_, 0).ok());
      REACTDB_CHECK(txn.Commit(&tids_).ok());
    }
    arena_.Reset();
    if (++txns_ % 64 == 0) {
      epochs_.Advance();
      epochs_.Advance();
      if (logged_) {
        spare_.clear();
        shard_.Collect(&spare_);  // the group-commit writer's swap
      }
    }
  }

  EpochManager epochs_;
  Table table_;
  bool logged_;
  log::LogShard shard_;
  std::string spare_;
  TidSource tids_;
  Arena arena_;
  Row key_ = {Value(int64_t{1})};
  Row row_, updated_;
  uint64_t txns_ = 0;
};

/// Point-transaction time over kBatches + 1 rigs (one per batch, built up
/// front): a rig's heap layout moves its time by up to 2x, so each batch
/// gets a different layout and the median is taken across them.
double PointTxnNs(bool logged) {
  std::vector<std::unique_ptr<PointTxnRig>> rigs;
  for (int i = 0; i <= kBatches; ++i) {
    rigs.push_back(std::make_unique<PointTxnRig>(logged));
  }
  size_t next = 0;
  return ProbeNs([&](int64_t n) { rigs[next++]->RunMany(n); });
}

/// Heap allocations per warmed point transaction (must be exactly 0),
/// counted over both rig flavours.
double AllocsPerTxn() {
  constexpr int64_t kTxns = 100000;
  PointTxnRig plain(false);
  PointTxnRig logged(true);
  g_allocs.store(0);
  g_counting.store(true);
  plain.RunMany(kTxns);
  logged.RunMany(kTxns);
  g_counting.store(false);
  return static_cast<double>(g_allocs.load()) / (2.0 * kTxns);
}

double LogAppendNs() {
  log::LogShard shard;
  std::string spare;
  std::string key = EncodeKey({Value(int64_t{1})});
  Value cells[2] = {Value(int64_t{1}), Value(10000.0)};
  uint64_t tid = TidWord::Make(1, 1);
  return ProbeNs([&](int64_t n) {
    for (int64_t i = 0; i < n; ++i) {
      {
        log::LogShard::Appender append(&shard);
        cells[1] = Value(static_cast<double>(i));
        append.Put(0, 1, key, tid, cells, 2);
      }
      if ((i & 1023) == 1023) {
        spare.clear();
        shard.Collect(&spare);
      }
    }
  });
}

// --- transport -----------------------------------------------------------------

double WireEncodeNs(const std::vector<Row>& rows) {
  return ProbeNs([&](int64_t n) {
    uint64_t s = 0;
    for (int64_t i = 0; i < n; ++i) {
      s += wire::EncodeRowToString(rows[static_cast<size_t>(i & 255)]).size();
    }
    Sink(s);
  });
}

double WireDecodeNs(const std::vector<Row>& rows) {
  std::vector<std::string> encoded;
  for (const Row& r : rows) encoded.push_back(wire::EncodeRowToString(r));
  return ProbeNs([&](int64_t n) {
    uint64_t s = 0;
    for (int64_t i = 0; i < n; ++i) {
      StatusOr<Row> row =
          wire::DecodeRowFromString(encoded[static_cast<size_t>(i & 255)]);
      REACTDB_CHECK(row.ok());
      s += row->size();
    }
    Sink(s);
  });
}

transport::Envelope CallEnvelope(const Row& args) {
  transport::CallRequest msg;
  msg.root_id = 1;
  msg.call_id = 1;
  msg.args = args;
  transport::Envelope e;
  e.kind = transport::MessageKind::kCall;
  e.wire = transport::EncodeMessage(msg);
  return e;
}

double MailboxNs(const Row& args) {
  transport::Mailbox box(65536);
  transport::Envelope e = CallEnvelope(args);
  return ProbeNs([&](int64_t n) {
    for (int64_t i = 0; i < n; ++i) {
      REACTDB_CHECK(box.TryPush(std::move(e)));
      REACTDB_CHECK(box.TryPop(&e));
    }
  });
}

/// One-way hop: PostNow over a LoopbackLink into another container's
/// mailbox, drained by a thread woken through on_inbox_ready — measured as
/// half a ping-pong round trip.
double HopUs(const Row& args, const Placement& placement) {
  transport::Transport t(2, 1, 65536, 16);
  t.set_link(std::make_unique<transport::LoopbackLink>(&t));
  struct Inbox {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
  };
  Inbox inbox[2];
  bool stop = false;
  t.set_on_inbox_ready([&](uint32_t c) {
    {
      std::lock_guard<std::mutex> lock(inbox[c].mu);
      inbox[c].ready = true;
    }
    inbox[c].cv.notify_one();
  });
  auto wait = [&](uint32_t c) {
    std::unique_lock<std::mutex> lock(inbox[c].mu);
    inbox[c].cv.wait(lock, [&] { return inbox[c].ready || stop; });
    inbox[c].ready = false;
    return !stop;
  };
  std::thread echo([&] {
    PinThread(placement.executor(0));
    while (wait(1)) {
      t.Drain(1, [&](transport::Envelope&& e) {
        e.dst_container = 0;
        t.PostNow(std::move(e));
      });
    }
  });
  placement.PinClient();
  transport::Envelope e = CallEnvelope(args);
  e.dst_container = 1;
  double rtt_ns = ProbeNs(
      [&](int64_t n) {
        for (int64_t i = 0; i < n; ++i) {
          t.PostNow(std::move(e));
          REACTDB_CHECK(wait(0));
          t.Drain(0, [&](transport::Envelope&& back) {
            e = std::move(back);
            e.dst_container = 1;
          });
        }
      },
      200);
  {
    std::lock_guard<std::mutex> lock(inbox[1].mu);
    stop = true;
  }
  inbox[1].cv.notify_all();
  echo.join();
  return rtt_ns / 2e3;
}

// --- runtime -------------------------------------------------------------------

Proc NoopProc(TxnContext&, Row) { co_return Value(int64_t{1}); }

/// Blocking Execute of a no-op procedure through client::Database on a
/// one-container ThreadRuntime: submit, dispatch, commit, finalize, deliver
/// with no storage work.
double NoopRttUs(const Placement& placement) {
  ReactorDatabaseDef def;
  def.DefineType("Noop")
      .AddProcedure("noop", &NoopProc)
      .AddProcedure(kPinProcName, &PinExecutorProc);
  REACTDB_CHECK_OK(def.DeclareReactor("n0", "Noop"));
  client::Database db;
  placement.PinBackground();
  REACTDB_CHECK_OK(db.Open(&def, DeploymentConfig::SharedNothing(1)));
  placement.PinClient();
  ReactorId n0 = db.ResolveReactor("n0");
  REACTDB_CHECK_OK(PinContainerExecutor(&db, n0, placement.executor(0)));
  ProcId noop = db.ResolveProc(n0, "noop");
  double ns = ProbeNs(
      [&](int64_t n) {
        for (int64_t i = 0; i < n; ++i) {
          REACTDB_CHECK(db.Execute(n0, noop, {}).ok());
        }
      },
      200);
  db.Shutdown();
  return ns / 1e3;
}

int Main(int argc, char** argv) {
  const Spec* spec = nullptr;
  uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--workload") {
      spec = FindSpec(argv[i + 1]);
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "usage: ledger_probes --workload NAME --seed S\n");
    return 1;
  }
  Placement placement(1);
  placement.PinClient();
  Rng rng(seed);
  std::vector<Row> rows = WorkloadRows(*spec, seed);

  JsonObject m;
  m.Num("storage.encode_key_ns", EncodeKeyNs(&rng))
      .Num("storage.btree_get_1k_ns", BTreeGetNs(1000, &rng))
      .Num("storage.btree_get_100k_ns", BTreeGetNs(100000, &rng))
      .Num("storage.btree_scan_row_ns", BTreeScanRowNs(&rng))
      .Num("txn.point_txn_ns", PointTxnNs(false))
      .Num("txn.point_txn_logged_ns", PointTxnNs(true))
      .Num("txn.allocs_per_txn", AllocsPerTxn())
      .Num("log.append_ns", LogAppendNs())
      .Num("transport.wire_encode_ns", WireEncodeNs(rows))
      .Num("transport.wire_decode_ns", WireDecodeNs(rows))
      .Num("transport.mailbox_ns", MailboxNs(rows[0]))
      .Num("transport.hop_us", HopUs(rows[0], placement))
      .Num("runtime.noop_rtt_us", NoopRttUs(placement));
  JsonObject out;
  out.Str("workload", spec->name).Int("seed", seed).Obj("probes", m);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace ledger
}  // namespace reactdb

int main(int argc, char** argv) { return reactdb::ledger::Main(argc, argv); }
