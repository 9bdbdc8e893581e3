#include "src/reactor/context.h"

namespace reactdb {

StatusOr<Table*> TxnContext::table(TableSlot slot) const {
  Table* t = frame_->reactor->FindTable(slot);
  if (t == nullptr) {
    return Status::NotFound("reactor " + reactor_name() +
                            " has no relation slot #" +
                            std::to_string(slot.value));
  }
  return t;
}

StatusOr<TableSlot> TxnContext::SlotOf(const std::string& table_name) const {
  TableSlot slot = frame_->reactor->type().FindTableSlot(table_name);
  if (frame_->reactor->FindTable(slot) == nullptr) {
    return Status::NotFound("reactor " + reactor_name() + " has no relation " +
                            table_name);
  }
  return slot;
}

StatusOr<Table*> TxnContext::table(const std::string& table_name) const {
  REACTDB_ASSIGN_OR_RETURN(TableSlot slot, SlotOf(table_name));
  return table(slot);
}

void TxnContext::ChargeDelta(const TxnOpStats& before) {
  const TxnOpStats& after = frame_->root->txn.stats();
  if (after.point_reads > before.point_reads) {
    bridge_->ChargeStorage(StorageOpKind::kPointRead,
                           after.point_reads - before.point_reads);
  }
  if (after.scanned_rows > before.scanned_rows) {
    bridge_->ChargeStorage(StorageOpKind::kScanRow,
                           after.scanned_rows - before.scanned_rows);
  }
  if (after.scanned_leaves > before.scanned_leaves) {
    bridge_->ChargeStorage(StorageOpKind::kScanLeaf,
                           after.scanned_leaves - before.scanned_leaves);
  }
  if (after.writes > before.writes) {
    bridge_->ChargeStorage(StorageOpKind::kWrite,
                           after.writes - before.writes);
  }
  if (after.inserts > before.inserts) {
    bridge_->ChargeStorage(StorageOpKind::kInsert,
                           after.inserts - before.inserts);
  }
}

StatusOr<Row> TxnContext::Get(TableSlot slot, const Row& key) {
  REACTDB_ASSIGN_OR_RETURN(Table * t, table(slot));
  TxnOpStats before = frame_->root->txn.stats();
  auto result = frame_->root->txn.Get(t, key, container());
  ChargeDelta(before);
  return result;
}

StatusOr<Row> TxnContext::Get(const std::string& table_name, const Row& key) {
  REACTDB_ASSIGN_OR_RETURN(TableSlot slot, SlotOf(table_name));
  return Get(slot, key);
}

Status TxnContext::Insert(TableSlot slot, const Row& row) {
  REACTDB_ASSIGN_OR_RETURN(Table * t, table(slot));
  TxnOpStats before = frame_->root->txn.stats();
  Status s = frame_->root->txn.Insert(t, row, container());
  ChargeDelta(before);
  return s;
}

Status TxnContext::Insert(const std::string& table_name, const Row& row) {
  REACTDB_ASSIGN_OR_RETURN(TableSlot slot, SlotOf(table_name));
  return Insert(slot, row);
}

Status TxnContext::Update(TableSlot slot, const Row& key,
                          const Row& new_row) {
  REACTDB_ASSIGN_OR_RETURN(Table * t, table(slot));
  TxnOpStats before = frame_->root->txn.stats();
  Status s = frame_->root->txn.Update(t, key, new_row, container());
  ChargeDelta(before);
  return s;
}

Status TxnContext::Update(const std::string& table_name, const Row& key,
                          const Row& new_row) {
  REACTDB_ASSIGN_OR_RETURN(TableSlot slot, SlotOf(table_name));
  return Update(slot, key, new_row);
}

Status TxnContext::Delete(TableSlot slot, const Row& key) {
  REACTDB_ASSIGN_OR_RETURN(Table * t, table(slot));
  TxnOpStats before = frame_->root->txn.stats();
  Status s = frame_->root->txn.Delete(t, key, container());
  ChargeDelta(before);
  return s;
}

Status TxnContext::Delete(const std::string& table_name, const Row& key) {
  REACTDB_ASSIGN_OR_RETURN(TableSlot slot, SlotOf(table_name));
  return Delete(slot, key);
}

StatusOr<Select> TxnContext::From(TableSlot slot) const {
  REACTDB_ASSIGN_OR_RETURN(Table * t, table(slot));
  return Select(t);
}

StatusOr<Select> TxnContext::From(const std::string& table_name) const {
  REACTDB_ASSIGN_OR_RETURN(Table * t, table(table_name));
  return Select(t);
}

StatusOr<std::vector<Row>> TxnContext::Rows(const Select& select) {
  TxnOpStats before = frame_->root->txn.stats();
  auto result = select.Rows(&frame_->root->txn, container());
  ChargeDelta(before);
  return result;
}

StatusOr<Row> TxnContext::One(const Select& select) {
  TxnOpStats before = frame_->root->txn.stats();
  auto result = select.One(&frame_->root->txn, container());
  ChargeDelta(before);
  return result;
}

StatusOr<int64_t> TxnContext::Count(const Select& select) {
  TxnOpStats before = frame_->root->txn.stats();
  auto result = select.Count(&frame_->root->txn, container());
  ChargeDelta(before);
  return result;
}

StatusOr<double> TxnContext::Sum(const Select& select,
                                 const std::string& column) {
  TxnOpStats before = frame_->root->txn.stats();
  auto result = select.Sum(&frame_->root->txn, container(), column);
  ChargeDelta(before);
  return result;
}

StatusOr<Value> TxnContext::Min(const Select& select,
                                const std::string& column) {
  TxnOpStats before = frame_->root->txn.stats();
  auto result = select.Min(&frame_->root->txn, container(), column);
  ChargeDelta(before);
  return result;
}

StatusOr<Value> TxnContext::Max(const Select& select,
                                const std::string& column) {
  TxnOpStats before = frame_->root->txn.stats();
  auto result = select.Max(&frame_->root->txn, container(), column);
  ChargeDelta(before);
  return result;
}

StatusOr<int64_t> TxnContext::Exec(const class Update& update) {
  TxnOpStats before = frame_->root->txn.stats();
  auto result = update.Execute(&frame_->root->txn, container());
  ChargeDelta(before);
  return result;
}

Future TxnContext::CallOn(ReactorId reactor, ProcId proc, Row args) {
  return bridge_->Call(frame_, reactor, proc, std::move(args));
}

Future TxnContext::CallOn(const std::string& reactor_name, ProcId proc,
                          Row args) {
  ReactorId reactor = bridge_->ResolveReactor(reactor_name);
  if (!reactor.valid()) return AbortCall(frame_, "no reactor " + reactor_name);
  return CallOn(reactor, proc, std::move(args));
}

Future TxnContext::CallOn(const std::string& reactor_name,
                          const std::string& proc_name, Row args) {
  ReactorId reactor = bridge_->ResolveReactor(reactor_name);
  if (!reactor.valid()) return AbortCall(frame_, "no reactor " + reactor_name);
  ProcId proc = bridge_->ResolveProc(reactor, proc_name);
  if (!proc.valid()) {
    return AbortCall(frame_, "reactor " + reactor_name + " has no procedure " +
                                 proc_name);
  }
  return CallOn(reactor, proc, std::move(args));
}

Future TxnContext::CallOn(const Value& target, ProcId proc, Row args) {
  if (target.type() == ValueType::kInt64) {
    return CallOn(ReactorId{static_cast<uint32_t>(target.AsInt64())}, proc,
                  std::move(args));
  }
  return CallOn(target.AsString(), proc, std::move(args));
}

Future AbortCall(TxnFrame* caller, const std::string& message) {
  Status s = Status::InvalidArgument(message);
  caller->root->MarkAbort(s);
  return Future::Ready(s);
}

void TxnContext::Compute(double micros) { bridge_->Compute(micros); }

}  // namespace reactdb
