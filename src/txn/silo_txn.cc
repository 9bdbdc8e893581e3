#include "src/txn/silo_txn.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "src/util/logging.h"

namespace reactdb {

uint64_t TidSource::NextCommitTid(uint64_t observed_max, uint64_t epoch) {
  uint64_t candidate = std::max(last_tid_, observed_max) + 1;
  // Compare within the 32-bit TID epoch field. Past a wrapped global epoch
  // the masked value can be below the candidate's epoch; the plain +1 then
  // keeps TIDs unique and monotone (the field drifts from the global epoch,
  // which validation never compares against) instead of resetting to a
  // constant Make(epoch, 0) that would hand every commit the same TID.
  if (TidWord::Epoch(candidate) < (epoch & TidWord::kEpochMask)) {
    candidate = TidWord::Make(epoch, 0);
  }
  last_tid_ = candidate;
  return candidate;
}

SiloTxn::SiloTxn(EpochManager* epochs, Arena* arena)
    : epochs_(epochs), arena_(arena) {}

SiloTxn::~SiloTxn() {
  if (!finished_) {
    Abort();
  } else {
    DestroyWriteCells();
  }
}

void SiloTxn::BindArena(Arena* arena) {
  REACTDB_CHECK(read_set_.empty() && write_set_.empty() && node_set_.empty());
  arena_ = arena;
}

void SiloTxn::BindLog(log::LogShard* shard) {
  REACTDB_CHECK(write_set_.empty());
  log_ = shard;
}

void SiloTxn::EnableAuditCapture() {
  REACTDB_CHECK(read_set_.empty() && write_set_.empty());
  audit_ = true;
  // Reserve the record header up front: the blob becomes the complete
  // kTxnAudit record at commit (header patched in place, zero write-count
  // trailer), emitted to the shard as a single buffer append. The initial
  // capacity covers the header plus a few point-read digests so a typical
  // transaction grows the blob at most once.
  audit_read_blob_.Reserve(arena(), 96);
  audit_read_blob_.ResizeUninitialized(arena(), logrec::kTxnAuditHeaderBytes);
}

void SiloTxn::DigestRead(const Table* table, std::string_view key, Record* rec,
                         uint64_t observed) {
  if (!audit_ || log_ == nullptr || table == nullptr ||
      !table->HasDurableId()) {
    return;
  }
  size_t old = audit_read_blob_.size();
  audit_read_blob_.ResizeUninitialized(arena(),
                                       old + logrec::AuditReadEntrySize(
                                                 key.size()));
  logrec::EncodeAuditReadEntry(audit_read_blob_.begin() + old,
                               table->durable_reactor().value,
                               table->durable_slot().value, key,
                               TidWord::WithoutLock(observed));
  ++audit_read_count_;
}

bool SiloTxn::TrackRead(Record* rec, uint64_t tid, uint32_t container) {
  auto [idx, inserted] = read_index_.Emplace(
      arena(), rec, static_cast<uint32_t>(read_set_.size()));
  if (!inserted) return false;  // keep first observation
  read_set_.push_back(arena_, {rec, tid, container});
  return true;
}

void SiloTxn::TrackNode(BTree::LeafNode* leaf, uint64_t version,
                        uint32_t container) {
  auto [idx, inserted] = node_index_.Emplace(
      arena(), leaf, static_cast<uint32_t>(node_set_.size()));
  if (!inserted) return;
  node_set_.push_back(arena_, {leaf, version, container});
}

void SiloTxn::FixupNodeAfterOwnInsert(BTree::LeafNode* leaf, uint64_t before,
                                      uint64_t after) {
  uint32_t idx = node_index_.Find(leaf);
  if (idx == PtrIndex::kNpos) return;
  NodeEntry& entry = node_set_[idx];
  // Only absorb our own bump; a foreign change in between must still fail
  // validation.
  if (entry.version == before) entry.version = after;
}

Value* SiloTxn::CopyCells(const Row& src, const int* ids, uint32_t n) {
  Value* cells = arena()->AllocateArrayUninitialized<Value>(n);
  for (uint32_t i = 0; i < n; ++i) {
    const Value& v = ids == nullptr ? src[i] : src[static_cast<size_t>(ids[i])];
    new (&cells[i]) Value(v);
  }
  return cells;
}

void SiloTxn::Buffer(Record* rec, Value* cells, uint32_t num_cells,
                     WriteKind kind, uint32_t container,
                     const Table* log_table, const KeyBuf* log_key) {
  uint32_t idx = write_index_.Find(rec);
  if (idx != PtrIndex::kNpos) {
    WriteEntry& entry = write_set_[idx];
    if (entry.cells != nullptr) {
      for (uint32_t i = 0; i < entry.num_cells; ++i) entry.cells[i].~Value();
    }
    // An update over a pending insert must still install as an insert
    // (clear the absent bit); a delete always installs as a delete.
    if (kind == WriteKind::kUpdate && entry.kind == WriteKind::kInsert) {
      // keep kInsert
    } else if (kind == WriteKind::kInsert &&
               entry.kind == WriteKind::kDelete) {
      // delete-then-insert in one transaction = replace
      entry.kind = WriteKind::kUpdate;
    } else {
      entry.kind = kind;
    }
    entry.cells = cells;
    entry.num_cells = num_cells;
    return;  // redo identity already captured at first buffering
  }
  WriteEntry entry{rec, cells, num_cells, kind, container};
  if (log_ != nullptr && log_table != nullptr && log_key != nullptr &&
      log_table->HasDurableId()) {
    char* copy = static_cast<char*>(arena()->Allocate(log_key->size(), 1));
    std::memcpy(copy, log_key->data(), log_key->size());
    entry.log_key = copy;
    entry.log_key_size = static_cast<uint32_t>(log_key->size());
    entry.log_reactor = log_table->durable_reactor().value;
    entry.log_slot = log_table->durable_slot().value;
  }
  write_set_.push_back(arena(), entry);
  write_index_.Emplace(arena_, rec,
                       static_cast<uint32_t>(write_set_.size() - 1));
}

namespace {

// Derives the exclusive upper bound of a prefix range: hi = successor(lo).
void MakePrefixUpperBound(const KeyBuf& lo, KeyBuf* hi) {
  hi->clear();
  hi->append(lo.data(), lo.size());
  PrefixSuccessorInPlace(hi);
}

}  // namespace

SiloTxn::WriteEntry* SiloTxn::PendingWrite(Record* rec) {
  uint32_t idx = write_index_.Find(rec);
  return idx == PtrIndex::kNpos ? nullptr : &write_set_[idx];
}

Status SiloTxn::LocateVisible(Table* table, const Row& key,
                              uint32_t container, KeyBuf* keybuf,
                              Record** rec, const Value** cells,
                              uint32_t* num_cells) {
  stats_.point_reads++;
  table->EncodePrimaryKeyTo(key, keybuf);
  BTree::LookupResult lookup = table->primary().Get(keybuf->view());
  if (lookup.record == nullptr) {
    TrackNode(lookup.leaf, lookup.leaf_version, container);
    return Status::NotFound("no row " + RowToString(key) + " in " +
                            table->name());
  }
  if (WriteEntry* pending = PendingWrite(lookup.record)) {
    if (pending->kind == WriteKind::kDelete) {
      return Status::NotFound("row deleted in this txn");
    }
    *rec = lookup.record;
    *cells = pending->cells;
    *num_cells = pending->num_cells;
    return Status::OK();
  }
  RecordSnapshot snap = ReadRecord(*lookup.record);
  // Digested before the tombstone check: observing an absent version (the
  // word keeps the absent bit) is a read the checker must order too.
  if (TrackRead(lookup.record, snap.tid, container)) {
    DigestRead(table, keybuf->view(), lookup.record, snap.tid);
  }
  if (snap.row == nullptr) {
    return Status::NotFound("no row " + RowToString(key) + " in " +
                            table->name());
  }
  *rec = lookup.record;
  *cells = snap.row->data();
  *num_cells = static_cast<uint32_t>(snap.row->size());
  return Status::OK();
}

Status SiloTxn::GetInto(Table* table, const Row& key, Row* out,
                        uint32_t container) {
  containers_.insert(arena(), container);
  Record* rec = nullptr;
  const Value* cells = nullptr;
  uint32_t num_cells = 0;
  KeyBuf keybuf(arena_);
  REACTDB_RETURN_IF_ERROR(
      LocateVisible(table, key, container, &keybuf, &rec, &cells, &num_cells));
  out->assign(cells, cells + num_cells);
  return Status::OK();
}

StatusOr<Row> SiloTxn::Get(Table* table, const Row& key, uint32_t container) {
  Row out;
  REACTDB_RETURN_IF_ERROR(GetInto(table, key, &out, container));
  return out;
}

Status SiloTxn::InsertEntry(BTree* tree, std::string_view key, const Row& src,
                            const int* ids, uint32_t num_cells,
                            uint32_t container, const Table* log_table,
                            const KeyBuf* log_key) {
  BTree::InsertResult result = tree->GetOrInsert(key);
  if (result.created) {
    uint64_t word = result.record->tid.load(std::memory_order_acquire);
    if (TrackRead(result.record, word, container) && log_key != nullptr) {
      DigestRead(log_table, log_key->view(), result.record, word);
    }
    FixupNodeAfterOwnInsert(result.leaf, result.version_before,
                            result.version_after);
  } else {
    if (WriteEntry* pending = PendingWrite(result.record)) {
      if (pending->kind != WriteKind::kDelete) {
        return Status::AlreadyExists("duplicate key in txn");
      }
    } else {
      RecordSnapshot snap = ReadRecord(*result.record);
      if (TrackRead(result.record, snap.tid, container) &&
          log_key != nullptr) {
        DigestRead(log_table, log_key->view(), result.record, snap.tid);
      }
      if (snap.row != nullptr) {
        // A committed row holds the key. If anything this txn read has
        // changed since, the collision may stem from that stale read (two
        // TPC-C new-orders drawing the same d_next_o_id): Commit would fail
        // validation anyway, so surface the retriable CC abort.
        for (const ReadEntry& entry : read_set_) {
          uint64_t cur = entry.rec->tid.load(std::memory_order_acquire);
          if (TidWord::Tid(cur) != TidWord::Tid(entry.tid)) {
            return Status::Aborted("duplicate key after a stale read");
          }
        }
        return Status::AlreadyExists("duplicate key");
      }
    }
  }
  // All checks passed: gather the stored row into the arena and buffer it.
  Buffer(result.record, CopyCells(src, ids, num_cells), num_cells,
         WriteKind::kInsert, container, log_table, log_key);
  return Status::OK();
}

Status SiloTxn::Insert(Table* table, const Row& row, uint32_t container) {
  containers_.insert(arena(), container);
  REACTDB_RETURN_IF_ERROR(table->schema().ValidateRow(row));
  const std::vector<int>& kids = table->schema().key_column_ids();
  KeyBuf keybuf(arena_);
  table->EncodeRowKeyTo(row, &keybuf);
  REACTDB_RETURN_IF_ERROR(InsertEntry(&table->primary(), keybuf.view(), row,
                                      /*ids=*/nullptr,
                                      static_cast<uint32_t>(row.size()),
                                      container, table, &keybuf));
  for (size_t i = 0; i < table->num_secondary_indexes(); ++i) {
    KeyBuf entrybuf(arena_);
    table->EncodeSecondaryEntryTo(i, row, &entrybuf);
    REACTDB_RETURN_IF_ERROR(InsertEntry(
        &table->secondary(i), entrybuf.view(), row, kids.data(),
        static_cast<uint32_t>(kids.size()), container));
  }
  stats_.writes += 1 + table->num_secondary_indexes();
  stats_.inserts++;
  return Status::OK();
}

Status SiloTxn::Update(Table* table, const Row& key, const Row& new_row,
                       uint32_t container) {
  containers_.insert(arena(), container);
  REACTDB_RETURN_IF_ERROR(table->schema().ValidateRow(new_row));
  const std::vector<int>& kids = table->schema().key_column_ids();
  bool pk_unchanged = key.size() == kids.size();
  for (size_t i = 0; pk_unchanged && i < kids.size(); ++i) {
    pk_unchanged = new_row[static_cast<size_t>(kids[i])].Compare(key[i]) == 0;
  }
  if (!pk_unchanged) {
    return Status::InvalidArgument("update may not change the primary key");
  }
  // Visible old version (tracked exactly like a point read).
  Record* primary_rec = nullptr;
  const Value* old_cells = nullptr;
  uint32_t old_num_cells = 0;
  KeyBuf pk_buf(arena_);
  REACTDB_RETURN_IF_ERROR(LocateVisible(table, key, container, &pk_buf,
                                        &primary_rec, &old_cells,
                                        &old_num_cells));
  // Secondary maintenance first (it only touches entry records): move
  // entries whose indexed columns changed. Buffering the primary last keeps
  // `old_cells` valid throughout — Buffer destroys the cells it replaces.
  for (size_t i = 0; i < table->num_secondary_indexes(); ++i) {
    KeyBuf old_entry(arena_);
    table->EncodeSecondaryEntryTo(i, old_cells, &old_entry);
    KeyBuf new_entry(arena_);
    table->EncodeSecondaryEntryTo(i, new_row, &new_entry);
    if (old_entry.view() == new_entry.view()) continue;
    BTree::LookupResult old_lookup = table->secondary(i).Get(old_entry.view());
    if (old_lookup.record != nullptr) {
      Buffer(old_lookup.record, nullptr, 0, WriteKind::kDelete, container);
    }
    REACTDB_RETURN_IF_ERROR(InsertEntry(
        &table->secondary(i), new_entry.view(), new_row, kids.data(),
        static_cast<uint32_t>(kids.size()), container));
  }
  Buffer(primary_rec,
         CopyCells(new_row, nullptr, static_cast<uint32_t>(new_row.size())),
         static_cast<uint32_t>(new_row.size()), WriteKind::kUpdate, container,
         table, &pk_buf);
  stats_.writes++;
  return Status::OK();
}

Status SiloTxn::Delete(Table* table, const Row& key, uint32_t container) {
  containers_.insert(arena(), container);
  // Visible old version (tracked exactly like a point read).
  Record* primary_rec = nullptr;
  const Value* old_cells = nullptr;
  uint32_t old_num_cells = 0;
  KeyBuf pk_buf(arena_);
  REACTDB_RETURN_IF_ERROR(LocateVisible(table, key, container, &pk_buf,
                                        &primary_rec, &old_cells,
                                        &old_num_cells));
  // Entry deletions first so `old_cells` stays valid (see Update).
  for (size_t i = 0; i < table->num_secondary_indexes(); ++i) {
    KeyBuf entrybuf(arena_);
    table->EncodeSecondaryEntryTo(i, old_cells, &entrybuf);
    BTree::LookupResult entry_lookup = table->secondary(i).Get(entrybuf.view());
    if (entry_lookup.record != nullptr) {
      Buffer(entry_lookup.record, nullptr, 0, WriteKind::kDelete, container);
    }
  }
  Buffer(primary_rec, nullptr, 0, WriteKind::kDelete, container, table,
         &pk_buf);
  stats_.writes++;
  return Status::OK();
}

Status SiloTxn::ScanInternal(Table* table, std::string_view lo,
                             std::string_view hi, bool reverse, int64_t limit,
                             const std::function<bool(const Row&)>& cb,
                             uint32_t container) {
  containers_.insert(arena(), container);
  // Candidates are materialized under the tree latch in chunks, and
  // visibility + callbacks run outside the latch between chunks, so that
  // limited scans over large relations do not materialize the whole range.
  constexpr size_t kChunk = 1024;
  std::string cursor_lo(lo);
  std::string cursor_hi(hi);
  int64_t delivered = 0;
  bool stopped = false;
  Row pending_scratch;  // materialized view of own buffered rows
  KeyBuf audit_kb(arena_);  // scratch for audit row-key recovery
  const bool digest_scan =
      audit_ && log_ != nullptr && table->HasDurableId();
  while (!stopped) {
    std::vector<Record*> candidates;
    candidates.reserve(kChunk);
    bool more = false;
    std::string resume_key;
    auto collect = [&](const std::string& key, Record* rec) {
      if (candidates.size() == kChunk) {
        more = true;
        resume_key = key;  // first key of the next chunk
        return false;
      }
      candidates.push_back(rec);
      return true;
    };
    auto nodes = [this, container](BTree::LeafNode* leaf, uint64_t version) {
      TrackNode(leaf, version, container);
      stats_.scanned_leaves++;
    };
    if (reverse) {
      table->primary().ReverseScan(cursor_lo, cursor_hi, collect, nodes);
    } else {
      table->primary().Scan(cursor_lo, cursor_hi, collect, nodes);
    }
    for (Record* rec : candidates) {
      if (limit >= 0 && delivered >= limit) {
        stopped = true;
        break;
      }
      const Row* row = nullptr;
      if (WriteEntry* pending = PendingWrite(rec)) {
        if (pending->kind == WriteKind::kDelete) continue;
        pending_scratch.assign(pending->cells,
                               pending->cells + pending->num_cells);
        row = &pending_scratch;
      } else {
        RecordSnapshot snap = ReadRecord(*rec);
        bool first_read = TrackRead(rec, snap.tid, container);
        if (snap.row == nullptr) continue;  // tombstone (tracked above)
        if (digest_scan && first_read) {
          // Scans locate records by tree position; recover the primary key
          // from the row image for the digest (tombstones carry no row, so
          // scan-visited tombstones stay node-set-only — documented
          // phantom-coverage limitation of the audit digest).
          table->EncodeRowKeyTo(*snap.row, &audit_kb);
          DigestRead(table, audit_kb.view(), rec, snap.tid);
        }
        row = snap.row;
      }
      stats_.scanned_rows++;
      ++delivered;
      if (!cb(*row)) {
        stopped = true;
        break;
      }
    }
    if (!more) break;
    if (reverse) {
      // Resume strictly below the already-visited range: make the next
      // upper bound include resume_key itself.
      cursor_hi = resume_key + '\x00';
    } else {
      cursor_lo = resume_key;
    }
  }
  return Status::OK();
}

Status SiloTxn::Scan(Table* table, const Row& lo, const Row& hi, int64_t limit,
                     const std::function<bool(const Row&)>& cb,
                     uint32_t container) {
  KeyBuf lobuf(arena());
  EncodeKeyTo(lo, &lobuf);
  KeyBuf hibuf(arena_);
  if (!hi.empty()) EncodeKeyTo(hi, &hibuf);
  return ScanInternal(table, lobuf.view(), hibuf.view(), /*reverse=*/false,
                      limit, cb, container);
}

Status SiloTxn::ReverseScan(Table* table, const Row& lo, const Row& hi,
                            int64_t limit,
                            const std::function<bool(const Row&)>& cb,
                            uint32_t container) {
  KeyBuf lobuf(arena());
  EncodeKeyTo(lo, &lobuf);
  KeyBuf hibuf(arena_);
  if (!hi.empty()) EncodeKeyTo(hi, &hibuf);
  return ScanInternal(table, lobuf.view(), hibuf.view(), /*reverse=*/true,
                      limit, cb, container);
}

Status SiloTxn::ScanPrefix(Table* table, const Row& prefix, int64_t limit,
                           const std::function<bool(const Row&)>& cb,
                           uint32_t container) {
  KeyBuf lobuf(arena());
  EncodeKeyTo(prefix, &lobuf);
  KeyBuf hibuf(arena_);
  MakePrefixUpperBound(lobuf, &hibuf);
  return ScanInternal(table, lobuf.view(), hibuf.view(), /*reverse=*/false,
                      limit, cb, container);
}

Status SiloTxn::ReverseScanPrefix(Table* table, const Row& prefix,
                                  int64_t limit,
                                  const std::function<bool(const Row&)>& cb,
                                  uint32_t container) {
  KeyBuf lobuf(arena());
  EncodeKeyTo(prefix, &lobuf);
  KeyBuf hibuf(arena_);
  MakePrefixUpperBound(lobuf, &hibuf);
  return ScanInternal(table, lobuf.view(), hibuf.view(), /*reverse=*/true,
                      limit, cb, container);
}

template <bool kReverse>
Status SiloTxn::ScanSecondaryImpl(Table* table, size_t index_pos,
                                  const Row& index_key, int64_t limit,
                                  const std::function<bool(const Row&)>& cb,
                                  uint32_t container) {
  containers_.insert(arena(), container);
  std::vector<Record*> candidates;
  KeyBuf lo(arena_);
  table->EncodeSecondaryPrefixTo(index_pos, index_key, &lo);
  KeyBuf hi(arena_);
  MakePrefixUpperBound(lo, &hi);
  auto collect = [&candidates](const std::string&, Record* rec) {
    candidates.push_back(rec);
    return true;
  };
  auto nodes = [this, container](BTree::LeafNode* leaf, uint64_t version) {
    TrackNode(leaf, version, container);
    stats_.scanned_leaves++;
  };
  if constexpr (kReverse) {
    table->secondary(index_pos).ReverseScan(lo.view(), hi.view(), collect,
                                            nodes);
  } else {
    table->secondary(index_pos).Scan(lo.view(), hi.view(), collect, nodes);
  }
  int64_t delivered = 0;
  Row pk;  // copy: Get below may grow the write set
  for (Record* rec : candidates) {
    if (limit >= 0 && delivered >= limit) break;
    if (WriteEntry* pending = PendingWrite(rec)) {
      if (pending->kind == WriteKind::kDelete) continue;
      pk.assign(pending->cells, pending->cells + pending->num_cells);
    } else {
      RecordSnapshot snap = ReadRecord(*rec);
      TrackRead(rec, snap.tid, container);
      if (snap.row == nullptr) continue;
      pk = *snap.row;
    }
    StatusOr<Row> primary_row = Get(table, pk, container);
    if (!primary_row.ok()) {
      // Entry without a live primary row: with transactional entry
      // maintenance this indicates a concurrent change; OCC validation will
      // sort it out, skip here.
      continue;
    }
    stats_.scanned_rows++;
    ++delivered;
    if (!cb(primary_row.value())) break;
  }
  return Status::OK();
}

Status SiloTxn::ScanSecondary(Table* table, size_t index_pos,
                              const Row& index_key, int64_t limit,
                              const std::function<bool(const Row&)>& cb,
                              uint32_t container) {
  return ScanSecondaryImpl<false>(table, index_pos, index_key, limit, cb,
                                  container);
}

Status SiloTxn::ReverseScanSecondary(Table* table, size_t index_pos,
                                     const Row& index_key, int64_t limit,
                                     const std::function<bool(const Row&)>& cb,
                                     uint32_t container) {
  return ScanSecondaryImpl<true>(table, index_pos, index_key, limit, cb,
                                 container);
}

void SiloTxn::ReleaseLocks(size_t locked_prefix) {
  // write_set_ is iterated in the same sorted order used for locking; only
  // the first `locked_prefix` entries hold locks.
  for (size_t i = 0; i < locked_prefix; ++i) {
    UnlockTid(&write_set_[sorted_writes_[i]].rec->tid);
  }
}

void SiloTxn::DestroyWriteCells() {
  for (WriteEntry& entry : write_set_) {
    if (entry.cells == nullptr) continue;
    for (uint32_t i = 0; i < entry.num_cells; ++i) entry.cells[i].~Value();
    entry.cells = nullptr;
  }
}

StatusOr<uint64_t> SiloTxn::Commit(TidSource* tids) {
  REACTDB_CHECK(!finished_);
  // Phase 1 (per-container prepare): lock the write set in a global
  // (container, record pointer) order — sorted once, here — then validate
  // reads and node sets.
  if (!write_set_.empty()) {
    sorted_writes_.ResizeUninitialized(arena(), write_set_.size());
    for (uint32_t i = 0; i < write_set_.size(); ++i) sorted_writes_[i] = i;
    std::sort(sorted_writes_.begin(), sorted_writes_.end(),
              [this](uint32_t a, uint32_t b) {
                const WriteEntry& wa = write_set_[a];
                const WriteEntry& wb = write_set_[b];
                if (wa.container != wb.container) {
                  return wa.container < wb.container;
                }
                return wa.rec < wb.rec;
              });
  } else {
    sorted_writes_.clear();
  }
  for (size_t i = 0; i < sorted_writes_.size(); ++i) {
    LockTid(&write_set_[sorted_writes_[i]].rec->tid);
  }
  std::atomic_thread_fence(std::memory_order_seq_cst);
  uint64_t epoch = epochs_->current();

  uint64_t observed_max = 0;
  for (const ReadEntry& entry : read_set_) {
    uint64_t cur = entry.rec->tid.load(std::memory_order_acquire);
    bool own_lock = write_index_.Find(entry.rec) != PtrIndex::kNpos;
    // skip_validation_ is the cc.skip_validation fault: suppress only the
    // two read-set abort checks (the injected anomaly the isolation audit
    // must catch); TID accounting below still runs so the commit TID stays
    // greater than every observed version.
    if (!skip_validation_) {
      if (TidWord::IsLocked(cur) && !own_lock) {
        ReleaseLocks(sorted_writes_.size());
        Abort();
        return Status::Aborted("read-set record locked by another transaction");
      }
      if (TidWord::Tid(cur) != TidWord::Tid(entry.tid)) {
        ReleaseLocks(sorted_writes_.size());
        Abort();
        return Status::Aborted("read-set validation failed");
      }
    }
    observed_max = std::max(observed_max, TidWord::Tid(cur));
  }
  for (const NodeEntry& entry : node_set_) {
    if (BTree::LeafVersion(entry.leaf) != entry.version) {
      ReleaseLocks(sorted_writes_.size());
      Abort();
      return Status::Aborted("node-set validation failed (phantom)");
    }
  }
  for (const WriteEntry& entry : write_set_) {
    observed_max = std::max(
        observed_max,
        TidWord::Tid(entry.rec->tid.load(std::memory_order_relaxed)));
  }

  // Phase 2: commit point — TID generation and write install. The final
  // TID store both publishes the version and releases the record lock.
  // Installed rows are recycled through the epoch manager's pool, so a
  // warmed install allocates nothing.
  uint64_t commit_tid = tids->NextCommitTid(observed_max, epoch);
  for (WriteEntry& entry : write_set_) {
    const Row* old_row = entry.rec->data.load(std::memory_order_relaxed);
    if (entry.kind == WriteKind::kDelete) {
      entry.rec->data.store(nullptr, std::memory_order_release);
      entry.rec->tid.store(TidWord::WithAbsent(commit_tid),
                           std::memory_order_release);
      epochs_->Retire(old_row);
    } else {
      // One lock acquisition retires the old version and hands back a
      // recycled install row. The retired version stays readable until
      // epoch reclamation, exactly as before.
      Row* fresh = epochs_->ExchangeRow(old_row);
      fresh->assign(entry.cells, entry.cells + entry.num_cells);
      entry.rec->data.store(fresh, std::memory_order_release);
      entry.rec->tid.store(commit_tid, std::memory_order_release);
    }
  }
  // Redo logging: append the committed value images to the bound shard
  // *after* the install released the record locks but *before* the caller
  // unpins its epoch slot — the pin ordering is what lets the log writers
  // seal epochs below EpochManager::min_active_epoch(). Cells are still
  // alive here (DestroyWriteCells runs below); the buffered shard bytes
  // reach disk at the next group-commit flush.
  if (log_ != nullptr) {
    log::LogShard::Appender appender(log_);
    bool logged_write = false;
    for (const WriteEntry& entry : write_set_) {
      if (entry.log_key == nullptr) continue;
      logged_write = true;
      std::string_view key(entry.log_key, entry.log_key_size);
      if (entry.kind == WriteKind::kDelete) {
        appender.Delete(entry.log_reactor, entry.log_slot, key, commit_tid);
      } else {
        appender.Put(entry.log_reactor, entry.log_slot, key, commit_tid,
                     entry.cells, entry.num_cells);
      }
    }
    // Audit capture: one kTxnAudit record per committed transaction that
    // touched a durable table, carrying the read observations gathered
    // during execution. The record was wire-encoded into the arena as the
    // reads happened; patching the header and closing the empty write
    // section makes emission a single buffer append, zero heap
    // allocations. Written keys ride the redo records just appended: the
    // single lock acquisition keeps them adjacent to this record in the
    // stream, and the checker pairs them by commit TID (an empty audit
    // record is still emitted for blind writers so they get a graph node).
    if (audit_ && (audit_read_count_ != 0 || logged_write)) {
      logrec::EncodeTxnAuditHeader(audit_read_blob_.begin(), commit_tid,
                                   audit_read_count_);
      const size_t sz = audit_read_blob_.size();
      audit_read_blob_.ResizeUninitialized(
          arena(), sz + logrec::kTxnAuditTrailerBytes);
      std::memset(audit_read_blob_.begin() + sz, 0,
                  logrec::kTxnAuditTrailerBytes);
      appender.TxnAuditRecord(commit_tid, audit_read_blob_.begin(),
                              audit_read_blob_.size());
    }
  }
  DestroyWriteCells();
  finished_ = true;
  return commit_tid;
}

void SiloTxn::Abort() {
  // Buffered writes were never installed; eagerly inserted index records
  // remain absent tombstones, which is correct (they were never visible).
  DestroyWriteCells();
  read_set_.clear();
  write_set_.clear();
  node_set_.clear();
  read_index_.clear();
  write_index_.clear();
  node_index_.clear();
  audit_read_blob_.clear();
  audit_read_count_ = 0;
  finished_ = true;
}

}  // namespace reactdb
