// TxnContext: the programming surface of a stored procedure.
//
// A procedure runs on exactly one reactor and sees:
//  * declarative queries over the relations encapsulated by that reactor
//    (and only that reactor — cross-reactor state is reachable exclusively
//    through asynchronous calls, paper Section 2.2.2);
//  * CallOn("reactor", "proc", args): the `proc(args) on reactor name`
//    construct, returning a Future;
//  * Compute(micros): explicitly modeled computational work (sim_risk-style
//    calculations), which advances virtual time in the simulated runtime
//    and spins in the thread runtime.
//
// All data access is charged to the simulated cost meter through the
// CallBridge so that the discrete-event runtime can account processing
// time per operation.

#ifndef REACTDB_REACTOR_CONTEXT_H_
#define REACTDB_REACTOR_CONTEXT_H_

#include <string>
#include <vector>

#include "src/query/query.h"
#include "src/reactor/frame.h"
#include "src/reactor/future.h"

namespace reactdb {

/// Storage operation kinds for cost accounting.
enum class StorageOpKind : uint8_t {
  kPointRead,
  kScanRow,
  kScanLeaf,
  kWrite,
  kInsert,
};

/// Runtime services used by TxnContext; implemented by ThreadRuntime and
/// SimRuntime.
class CallBridge {
 public:
  virtual ~CallBridge() = default;

  /// Dispatches a sub-transaction call from `caller`. Handles inlining
  /// (same reactor / same container), cross-container transport, the
  /// active-set safety condition, and frame bookkeeping. An invalid handle
  /// aborts the caller's root with InvalidArgument.
  virtual Future Call(TxnFrame* caller, ReactorId reactor, ProcId proc,
                      Row args) = 0;

  /// Name resolution through the bootstrap interner (invalid handle when
  /// unknown); TxnContext's name-addressed calls resolve here and then
  /// take the handle path.
  virtual ReactorId ResolveReactor(const std::string& reactor_name) const = 0;
  virtual ProcId ResolveProc(ReactorId reactor,
                             const std::string& proc_name) const = 0;

  /// Models `micros` of computation on the current executor.
  virtual void Compute(double micros) = 0;

  /// Charges `n` storage operations of the given kind to the current
  /// executor's cost meter (no-op in the thread runtime).
  virtual void ChargeStorage(StorageOpKind kind, uint64_t n) = 0;
};

/// Marks the caller's root aborted with InvalidArgument(`message`) and
/// returns a ready errored future (unknown reactor/procedure in a call).
Future AbortCall(TxnFrame* caller, const std::string& message);

class TxnContext {
 public:
  TxnContext(CallBridge* bridge, TxnFrame* frame)
      : bridge_(bridge), frame_(frame) {}

  // --- Reactor identity ----------------------------------------------------

  const std::string& reactor_name() const { return frame_->reactor->name(); }
  ReactorId reactor_id() const { return frame_->reactor->id(); }
  uint64_t root_id() const { return frame_->root->id; }
  uint32_t container() const { return frame_->reactor->container_id(); }
  TxnFrame* frame() { return frame_; }

  // --- Declarative access to this reactor's relations ----------------------
  //
  // The TableSlot overloads are the hot path (vector-indexed); the name
  // overloads resolve the slot through the type's interner per call.

  /// Resolves one of this reactor's relations by slot / by name.
  StatusOr<Table*> table(TableSlot slot) const;
  StatusOr<Table*> table(const std::string& table_name) const;

  /// Point read by primary key.
  StatusOr<Row> Get(TableSlot slot, const Row& key);
  StatusOr<Row> Get(const std::string& table_name, const Row& key);
  Status Insert(TableSlot slot, const Row& row);
  Status Insert(const std::string& table_name, const Row& row);
  Status Update(TableSlot slot, const Row& key, const Row& new_row);
  Status Update(const std::string& table_name, const Row& key,
                const Row& new_row);
  Status Delete(TableSlot slot, const Row& key);
  Status Delete(const std::string& table_name, const Row& key);

  /// Builds a Select over one of this reactor's relations. The returned
  /// builder is executed with the ctx.Rows/One/Count/Sum/... wrappers.
  StatusOr<Select> From(TableSlot slot) const;
  StatusOr<Select> From(const std::string& table_name) const;

  StatusOr<std::vector<Row>> Rows(const Select& select);
  StatusOr<Row> One(const Select& select);
  StatusOr<int64_t> Count(const Select& select);
  StatusOr<double> Sum(const Select& select, const std::string& column);
  StatusOr<Value> Min(const Select& select, const std::string& column);
  StatusOr<Value> Max(const Select& select, const std::string& column);
  /// Executes a searched update built with reactdb::Update.
  StatusOr<int64_t> Exec(const class Update& update);

  // --- Asynchronous cross-reactor calls ------------------------------------

  /// `proc_name(args) on reactor reactor_name` (Section 2.2.2). Direct
  /// self-calls are inlined synchronously (Section 2.2.4). The handle
  /// overload dispatches without any string lookup; the name overloads
  /// resolve once and take it. An unknown reactor or procedure aborts the
  /// caller's root with InvalidArgument naming it.
  Future CallOn(ReactorId reactor, ProcId proc, Row args);
  Future CallOn(const std::string& reactor_name, ProcId proc, Row args);
  Future CallOn(const std::string& reactor_name, const std::string& proc_name,
                Row args);
  /// Dynamic target taken from a procedure-argument cell: an INT64 cell is
  /// a pre-resolved ReactorId handle (clients resolve destination names at
  /// submit time — no per-call string hash), a STRING cell is a reactor
  /// name resolved per call (legacy argument convention).
  Future CallOn(const Value& target, ProcId proc, Row args);

  /// Explicitly modeled computation (e.g. sim_risk).
  void Compute(double micros);

  /// Escape hatch for harness-level code.
  SiloTxn* raw_txn() { return &frame_->root->txn; }
  CallBridge* bridge() { return bridge_; }

 private:
  /// Charges the difference in SiloTxn op stats since `before`.
  void ChargeDelta(const TxnOpStats& before);
  /// Slot of one of this reactor's relations; NotFound naming it when the
  /// reactor has no such relation.
  StatusOr<TableSlot> SlotOf(const std::string& table_name) const;

  CallBridge* bridge_;
  TxnFrame* frame_;
};

}  // namespace reactdb

#endif  // REACTDB_REACTOR_CONTEXT_H_
