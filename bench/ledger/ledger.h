// Shared pieces of the perf-ledger binaries (bench_ledger, ledger_probes):
// the workload catalogue, the seeded request generators, CPU placement, and
// small statistics / JSON helpers.
//
// Every workload is defined here once, so the probes that time a single
// layer "at the workload's shape" (wire codec on its argument rows, mailbox
// traffic of its message size) draw the exact inputs the end-to-end run
// submits.

#ifndef REACTDB_BENCH_LEDGER_LEDGER_H_
#define REACTDB_BENCH_LEDGER_LEDGER_H_

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/reactdb.h"
#include "src/util/rng.h"
#include "src/workloads/smallbank/smallbank.h"
#include "src/workloads/tpcc/tpcc.h"

namespace reactdb {
namespace ledger {

enum class Kind { kPointLocal, kFanoutRemote, kTpccPipelined, kTransferDurable };

/// One named workload: deployment shape, data size, and client window.
struct Spec {
  Kind kind;
  const char* name;
  /// Shared-nothing containers, one executor each.
  int containers;
  /// Smallbank customers per container (0 for TPC-C).
  int64_t customers_per_container;
  /// TPC-C warehouses (0 for smallbank).
  int64_t warehouses;
  /// Session window (max outstanding transactions of the one client).
  size_t window;
  /// wait_durable session over a fresh data_dir.
  bool durable;
};

inline constexpr Spec kSpecs[] = {
    {Kind::kPointLocal, "point_local", 1, 3000, 0, 1, false},
    {Kind::kFanoutRemote, "fanout_remote", 2, 3000, 0, 1, false},
    {Kind::kTpccPipelined, "tpcc_pipelined", 2, 0, 2, 8, false},
    {Kind::kTransferDurable, "transfer_durable", 2, 3000, 0, 8, true},
};

inline const Spec* FindSpec(std::string_view name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

inline bool IsTpcc(const Spec& spec) { return spec.kind == Kind::kTpccPipelined; }

/// Reactors the generator addresses: customers in declaration order
/// (smallbank) or warehouses 1..W (TPC-C).
inline int64_t NumTargets(const Spec& spec) {
  return IsTpcc(spec) ? spec.warehouses
                      : spec.containers * spec.customers_per_container;
}

/// One client request plus what the client needs to check its effect.
struct Request {
  ReactorId reactor;
  ProcId proc;
  Row args;
  /// Net money the request adds to the bank when it commits (smallbank
  /// conservation check); transfers move money and add 0.
  double deposit = 0;
};

/// Seeded request stream of one workload: the same seed yields the same
/// sequence of requests. `targets` are the pre-resolved handles of
/// NumTargets(spec) reactors.
class Generator {
 public:
  Generator(const Spec& spec, uint64_t seed, std::vector<ReactorId> targets)
      : spec_(spec),
        rng_(seed),
        tpcc_(TpccOptions(spec), seed ^ 0x7c0ffee5u),
        targets_(std::move(targets)) {
    tpcc_handles_.warehouses = targets_;
    tpcc_.BindHandles(&tpcc_handles_);
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  Request Next() {
    Request r;
    const int64_t per = spec_.customers_per_container;
    switch (spec_.kind) {
      case Kind::kPointLocal: {
        // 50% balance, 25% transact_saving(+1), 25% deposit_checking(+1)
        // over uniform customers.
        r.reactor = Customer(rng_.NextInt(0, per - 1));
        int64_t pick = rng_.NextInt(0, 3);
        if (pick < 2) {
          r.proc = smallbank::kBalanceProc;
        } else {
          r.proc = pick == 2 ? smallbank::kTransactSavingProc
                             : smallbank::kDepositCheckingProc;
          r.args = {Value(1.0)};
          r.deposit = 1.0;
        }
        break;
      }
      case Kind::kFanoutRemote: {
        // Source on container 0; four distinct destinations on container 1
        // (a repeated destination would trip the active-set safety abort).
        // All four credits share one remote container on purpose: remote
        // sub-transactions of one root running on two containers at once
        // race on the root's shared SiloTxn (found by this benchmark's
        // conservation check, confirmed under ThreadSanitizer).
        r.reactor = Customer(rng_.NextInt(0, per - 1));
        r.proc = smallbank::kMultiTransferFullyAsyncProc;
        r.args = {Value(1.0)};
        int64_t dst[4];
        for (int i = 0; i < 4; ++i) {
          bool fresh;
          do {
            dst[i] = rng_.NextInt(0, per - 1);
            fresh = std::find(dst, dst + i, dst[i]) == dst + i;
          } while (!fresh);
          r.args.push_back(TargetCell(per + dst[i]));
        }
        break;
      }
      case Kind::kTransferDurable: {
        // Request k draws both customers from lane k % window (customer
        // index = lane mod window), so the window's in-flight transfers
        // never share a customer and no request meets a CC conflict.
        const int64_t lanes = static_cast<int64_t>(spec_.window);
        int64_t lane = static_cast<int64_t>(count_ % spec_.window);
        auto in_lane = [&](int64_t container) {
          return container * per + lane +
                 lanes * rng_.NextInt(0, (per - 1 - lane) / lanes);
        };
        int64_t src_container = rng_.NextInt(0, 1);
        r.reactor = Customer(in_lane(src_container));
        r.proc = smallbank::kTransferProc;
        r.args = {TargetCell(in_lane(1 - src_container)), Value(1.0),
                  Value(false)};
        break;
      }
      case Kind::kTpccPipelined: {
        // Home warehouses alternate between consecutive requests.
        tpcc::TxnRequest t =
            tpcc_.Next(static_cast<int64_t>(count_ % spec_.warehouses) + 1);
        r.reactor = t.reactor_id;
        r.proc = t.proc_id;
        r.args = std::move(t.args);
        break;
      }
    }
    ++count_;
    return r;
  }

 private:
  static tpcc::GeneratorOptions TpccOptions(const Spec& spec) {
    tpcc::GeneratorOptions o;  // standard mix and remote probabilities
    o.num_warehouses = spec.warehouses > 0 ? spec.warehouses : 1;
    return o;
  }
  ReactorId Customer(int64_t i) const {
    return targets_[static_cast<size_t>(i)];
  }
  Value TargetCell(int64_t i) const {
    return Value(static_cast<int64_t>(Customer(i).value));
  }

  const Spec& spec_;
  Rng rng_;
  tpcc::Generator tpcc_;
  tpcc::Handles tpcc_handles_;
  std::vector<ReactorId> targets_;
  uint64_t count_ = 0;
};

// --- Time and statistics -----------------------------------------------------

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (mean of the two middle values for an even count); 0 when
/// empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  auto mid = v.begin() + static_cast<ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(v.begin(), mid)) / 2;
}

/// Latency histogram over nanoseconds with 1/1024 relative resolution
/// (1024 linear sub-buckets per power of two). Fixed memory: the
/// benchmark's own footprint must not grow with the throughput it measures.
class LatencyHistogram {
 public:
  void Add(double us) {
    uint64_t ns = us <= 0 ? 0 : static_cast<uint64_t>(us * 1e3);
    ++counts_[Index(ns)];
    ++total_;
  }
  uint64_t count() const { return total_; }

  /// Quantile in microseconds, interpolated inside the bucket.
  double Quantile(double q) const {
    if (total_ == 0) return 0;
    double rank = q * static_cast<double>(total_ - 1);
    uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(seen + counts_[i]) > rank) {
        double frac = (rank - static_cast<double>(seen) + 0.5) /
                      static_cast<double>(counts_[i]);
        return (Lower(i) + frac * Width(i)) * 1e-3;
      }
      seen += counts_[i];
    }
    return Lower(counts_.size() - 1) * 1e-3;
  }

 private:
  static constexpr int kSubBits = 10;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;

  // Group 0 holds [0, kSub) exactly; group g >= 1 holds [2^m, 2^(m+1)) with
  // m = g + kSubBits - 1, split into kSub buckets of width 2^(g-1).
  static size_t Index(uint64_t ns) {
    if (ns < kSub) return static_cast<size_t>(ns);
    int msb = 63 - __builtin_clzll(ns);
    int shift = msb - kSubBits;
    return static_cast<size_t>((shift + 1) * kSub + ((ns >> shift) - kSub));
  }
  static double Lower(size_t i) {
    if (i < kSub) return static_cast<double>(i);
    uint64_t shift = i / kSub - 1;
    return static_cast<double>((kSub + i % kSub) << shift);
  }
  static double Width(size_t i) {
    return i < kSub ? 1.0 : static_cast<double>(uint64_t{1} << (i / kSub - 1));
  }

  std::vector<uint64_t> counts_ =
      std::vector<uint64_t>((64 - kSubBits + 1) * kSub, 0);
  uint64_t total_ = 0;
};

// --- CPU placement -------------------------------------------------------------

/// Narrows the calling thread to `cpus` (no-op when empty).
inline void PinThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Fixed thread placement over the process's allowed CPUs: the client
/// thread alone on the first, executor i alone on the next ones, and the
/// mostly idle background threads (epoch ticker, timer, log writers) on the
/// rest. Left to the scheduler, whether two of these threads share a core
/// changes per database instance, and so does the throughput level (up to
/// ~2x on point_local). With too few CPUs the executors share the non-client
/// CPUs; with one CPU placement is a no-op.
class Placement {
 public:
  explicit Placement(int executors) {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) cpus.push_back(c);
    }
    if (cpus.size() < 2) return;
    client_ = {cpus[0]};
    std::vector<int> rest(cpus.begin() + 1, cpus.end());
    if (rest.size() > static_cast<size_t>(executors)) {
      for (int i = 0; i < executors; ++i) executors_.push_back({rest[i]});
      background_.assign(rest.begin() + executors, rest.end());
    } else {
      executors_.assign(static_cast<size_t>(executors), rest);
      background_ = rest;
    }
  }

  /// Before Database::Open: the runtime's threads inherit this mask.
  void PinBackground() const { PinThread(background_); }
  /// After Database::Open, on the client thread.
  void PinClient() const { PinThread(client_); }
  /// CPUs for executor i (empty when placement is off).
  const std::vector<int>& executor(size_t i) const {
    static const std::vector<int> kNone;
    return i < executors_.size() ? executors_[i] : kNone;
  }
  std::string Describe() const {
    auto list = [](const std::vector<int>& v) {
      std::string s;
      for (int c : v) s += (s.empty() ? "" : " ") + std::to_string(c);
      return "[" + s + "]";
    };
    std::string s = "client " + list(client_);
    for (size_t i = 0; i < executors_.size(); ++i) {
      s += ", executor" + std::to_string(i) + " " + list(executors_[i]);
    }
    return s + ", background " + list(background_);
  }

 private:
  std::vector<int> client_;
  std::vector<std::vector<int>> executors_;
  std::vector<int> background_;
};

/// Bench-defined procedure that pins the executor thread running it to the
/// CPUs in its argument row. Executing it once on a reactor of each
/// container places that container's executor.
inline Proc PinExecutorProc(TxnContext&, Row args) {
  std::vector<int> cpus;
  for (const Value& v : args) cpus.push_back(static_cast<int>(v.AsInt64()));
  PinThread(cpus);
  co_return Value(int64_t{0});
}

inline constexpr const char* kPinProcName = "ledger_pin";

/// Pins the executor of `reactor`'s container (one executor per container)
/// through PinExecutorProc, which the reactor's type must have registered
/// under kPinProcName.
inline Status PinContainerExecutor(client::Database* db, ReactorId reactor,
                                   const std::vector<int>& cpus) {
  if (cpus.empty()) return Status::OK();
  Row args;
  for (int c : cpus) args.push_back(Value(static_cast<int64_t>(c)));
  ProcResult r = db->Execute(reactor, db->ResolveProc(reactor, kPinProcName),
                             std::move(args));
  return r.status();
}

// --- JSON output ---------------------------------------------------------------

/// Flat JSON object writer; numbers keep every digit (%.17g).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& v) {
    return Raw(key, v.str());
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace ledger
}  // namespace reactdb

#endif  // REACTDB_BENCH_LEDGER_LEDGER_H_
