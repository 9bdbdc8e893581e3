// Execution frames for root transactions and sub-transactions.
//
// A RootTxn owns the shared OCC transaction (SiloTxn) that accumulates the
// read/write/node sets of every sub-transaction in the root's context. A
// TxnFrame is one executing (sub-)transaction ST^k_{i,j}: it runs on the
// reactor k it was invoked on, belongs to root i, and carries sub-txn id j.
//
// Completion follows the paper's rule that a (sub-)transaction completes
// only when all nested sub-transactions complete (Section 2.2.3): each
// frame keeps a pending count (1 for its own coroutine plus 1 per spawned
// child frame); the frame's completion propagates to its parent when the
// count drains. The frame's Future, in contrast, is fulfilled as soon as
// the procedure body returns, so awaiting callers get results without
// waiting for the callee's fire-and-forget children.

#ifndef REACTDB_REACTOR_FRAME_H_
#define REACTDB_REACTOR_FRAME_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/reactor/future.h"
#include "src/reactor/proc.h"
#include "src/reactor/reactor.h"
#include "src/txn/silo_txn.h"

namespace reactdb {

class TxnContext;

/// One root transaction (paper: top-level call executed by a client on a
/// reactor).
struct RootTxn {
  RootTxn(uint64_t id_in, EpochManager* epochs) : id(id_in), txn(epochs) {}

  uint64_t id;
  /// Pre-resolved handles of the root invocation (receipt data; the
  /// reactor's name is recoverable through the ReactorDatabaseDef).
  ReactorId reactor_id;
  ProcId proc_id;
  Row args;

  SiloTxn txn;

  /// Arena backing `txn`'s sets and buffers, acquired from the home
  /// executor's pool at StartRoot and released (reset) at finalization,
  /// after this RootTxn is destroyed. Null until the root starts executing
  /// (and for roots discarded before starting).
  Arena* arena = nullptr;

  /// Sub-transaction id source (0 is the root frame itself).
  std::atomic<uint64_t> next_subtxn_id{1};

  /// First abort wins; any sub-transaction abort dooms the root
  /// (Section 2.2.3: no partial commitment).
  void MarkAbort(const Status& status) {
    std::lock_guard<std::mutex> lock(mu);
    if (!aborted) {
      aborted = true;
      abort_status = status;
    }
  }
  bool IsAborted() const {
    std::lock_guard<std::mutex> lock(mu);
    return aborted;
  }
  Status AbortStatus() const {
    std::lock_guard<std::mutex> lock(mu);
    return abort_status;
  }

  mutable std::mutex mu;
  bool aborted = false;
  Status abort_status;

  /// Result of the root procedure body.
  ProcResult proc_result{Status::Internal("not started")};

  /// Client completion callback, invoked once after commit/abort with the
  /// outcome (the procedure result on commit, or the abort status) and a
  /// reference to this root for receipt data (commit TID, cost profile).
  /// The root is destroyed right after the callback returns.
  std::function<void(ProcResult, const RootTxn&)> on_done;

  /// Commit TID on success (0 otherwise), for serializability checking.
  uint64_t commit_tid = 0;

  /// Executor the root frame runs on (commit happens there).
  uint32_t home_executor = 0;

  /// Cross-container sub-transactions dispatched and not yet completed.
  /// Used by the simulator's Fig. 6 profiling to classify remote processing
  /// as critical-path (synchronous) vs overlapped (asynchronous).
  std::atomic<int> live_remote_children{0};

  /// Measurement bookkeeping (virtual or real microseconds). Stamped with
  /// SessionNowUs() at Submit; FinalizeRoot observes end-to-end latency
  /// against it.
  double submit_time_us = 0;

  /// Absolute end-to-end deadline on the session clock (0 = none). Checked
  /// at the dispatch, call, and validate boundaries; inherited by every
  /// cross-container sub-transaction via CallRequest::deadline_us. Expiry
  /// aborts the root with kDeadlineExceeded before any effects install.
  double deadline_us = 0;

  /// Per-transaction trace (null unless tracing is enabled and the trace
  /// pool had capacity). Owned by the runtime's TraceStore; frames record
  /// spans through it, FinalizeRoot returns it.
  obs::TxnTrace* trace = nullptr;

  /// Simulated-cost profile attributed to the root's home executor,
  /// mirroring the Fig. 6 breakdown (sync-execution, Cs, Cr,
  /// commit + input-gen). The overlapped async-execution component is
  /// derived by the harness as latency minus these.
  struct Profile {
    double sync_exec_us = 0;
    double cs_us = 0;
    double cr_us = 0;
    double commit_us = 0;
    double input_gen_us = 0;
  } profile;
};

/// One executing (sub-)transaction.
struct TxnFrame {
  RootTxn* root = nullptr;
  TxnFrame* parent = nullptr;  // null for the root frame
  Reactor* reactor = nullptr;
  uint64_t subtxn_id = 0;
  /// Global executor index this frame runs (and resumes) on.
  uint32_t executor = 0;

  /// 1 for the frame's own coroutine, +1 per spawned child frame.
  std::atomic<int> pending{1};
  bool in_active_set = false;

  /// Fulfilled with the procedure result when the body returns.
  Future completion;

  /// Set for a cross-container call, which the transport delivered to this
  /// frame's executor. The frame pins that executor's epoch slot while
  /// open, and the body's result travels back as a CallResponse message
  /// that fulfills `reply_state` — the future the caller actually holds —
  /// on delivery at the caller's container. `completion` is still
  /// fulfilled locally for uniform bookkeeping, but has no listeners for
  /// remote frames.
  bool remote = false;
  uint64_t transport_call_id = 0;
  uint32_t reply_to_container = 0;
  std::shared_ptr<FutureState> reply_state;

  Proc coroutine;
  std::unique_ptr<TxnContext> ctx;
  /// Coroutines of directly-inlined self-calls (kept alive until the frame
  /// is destroyed).
  std::vector<Proc> inline_selfcalls;
};

}  // namespace reactdb

#endif  // REACTDB_REACTOR_FRAME_H_
