#include "src/runtime/sim_runtime.h"

#include <algorithm>
#include <cmath>

#include "src/log/durability.h"
#include "src/util/logging.h"

namespace reactdb {

SimRuntime::SimRuntime(CostParams params) : params_(params) {}

void SimRuntime::CreateExecutors() {
  int total = dc_.total_executors();
  for (int i = 0; i < total; ++i) {
    auto exec = std::make_unique<SimExecutor>();
    RegisterExecutor(exec.get());
    SimExecutor* e = exec.get();
    e->hook.schedule = [this, e](void* frame, std::coroutine_handle<> h) {
      // Called at fulfillment time: if the fulfilling segment runs on a
      // different executor, the wakeup crosses cores and pays Cr at the
      // receiving side (paper Section 4.2.1).
      SimTask task;
      task.charge_cr = current_executor_ != e->id;
      task.cr_frame = frame;
      task.fn = [this, frame, h]() {
        RunCoroutine(static_cast<TxnFrame*>(frame), h);
      };
      Deliver(e->id, std::move(task));
    };
    sim_execs_.push_back(std::move(exec));
  }
}

double SimRuntime::NowUs() const {
  if (current_executor_ != kNoExecutor) {
    return segment_start_ + segment_cost_;
  }
  return events_.now();
}

void SimRuntime::Charge(ChargeKind kind, double us) {
  if (us <= 0) return;
  if (current_executor_ != kNoExecutor) {
    segment_cost_ += us;
  }
  // Fig. 6-style attribution: components on the root's home executor.
  auto* frame = static_cast<TxnFrame*>(internal::CurrentFrame());
  if (frame == nullptr) return;
  RootTxn* root = frame->root;
  bool on_home = current_executor_ == root->home_executor;
  switch (kind) {
    case ChargeKind::kProc:
      // Processing on the home executor, and remote processing that is the
      // only outstanding work of the transaction (a synchronous
      // sub-transaction the caller is blocked on), are critical-path
      // "sync-execution"; concurrently outstanding remote work is the
      // overlapped async-execution component (derived as the remainder).
      if (on_home ||
          root->live_remote_children.load(std::memory_order_acquire) <= 1) {
        root->profile.sync_exec_us += us;
      }
      break;
    case ChargeKind::kCs:
      if (on_home) root->profile.cs_us += us;
      break;
    case ChargeKind::kCr:
      if (on_home) root->profile.cr_us += us;
      break;
    case ChargeKind::kCommit:
      root->profile.commit_us += us;
      break;
    case ChargeKind::kInputGen:
      root->profile.input_gen_us += us;
      break;
  }
}

void SimRuntime::ChargeStorage(StorageOpKind kind, uint64_t n) {
  double unit = 0;
  switch (kind) {
    case StorageOpKind::kPointRead:
      unit = params_.point_read_us;
      break;
    case StorageOpKind::kScanRow:
      unit = params_.scan_row_us;
      break;
    case StorageOpKind::kScanLeaf:
      unit = params_.scan_leaf_us;
      break;
    case StorageOpKind::kWrite:
      unit = params_.write_us;
      break;
    case StorageOpKind::kInsert:
      unit = params_.insert_us;
      break;
  }
  // Locality: storage access from a non-home executor pays the modeled
  // cache-coherence/cross-core penalty. Under round-robin routing the
  // penalty additionally grows with the number of cores sharing the
  // container: a reactor's cache lines ping-pong among all executors on
  // every transaction (Appendix F.2 measures throughput degrading
  // progressively as executors are added). Under affinity routing a
  // reactor's lines stay warm on its home core and a foreign access pays
  // only the single-transfer base penalty ("the relatively smaller costs
  // of cache pressure", Appendix F.1).
  auto* frame = static_cast<TxnFrame*>(internal::CurrentFrame());
  if (frame != nullptr && current_executor_ != kNoExecutor &&
      current_executor_ != frame->reactor->home_executor()) {
    double spread = 1.0;
    if (dc_.routing == RootRouting::kRoundRobin) {
      double epc = static_cast<double>(dc_.executors_per_container);
      spread = std::pow(std::log2(std::max(epc, 2.0)), 1.2);
    }
    unit *= 1.0 + params_.non_affine_penalty * spread;
  }
  Charge(ChargeKind::kProc, unit * static_cast<double>(n));
}

void SimRuntime::ChargeCommitCost(RootTxn* root) {
  double cost = params_.commit_base_us +
                params_.commit_per_write_us *
                    static_cast<double>(root->txn.write_set_size());
  size_t containers = root->txn.containers_touched().size();
  if (containers > 1) {
    cost += params_.twopc_per_container_us *
            static_cast<double>(containers - 1);
  }
  // Finalization runs outside any coroutine frame, so attribute to the
  // root directly (the segment cost still accrues through Charge).
  if (current_executor_ != kNoExecutor) segment_cost_ += cost;
  root->profile.commit_us += cost;
}

void SimRuntime::Deliver(uint32_t executor, SimTask task) {
  double when = NowUs();
  events_.Schedule(when, [this, executor, task = std::move(task)]() mutable {
    sim_execs_[executor]->ready.push_back(std::move(task));
    TryDispatch(executor);
  });
}

bool SimRuntime::HasEligible(const SimExecutor& exec) const {
  if (!exec.ready.empty()) return true;
  return !exec.admission.empty() &&
         (dc_.mpl == 0 || exec.active_roots < dc_.mpl);
}

void SimRuntime::TryDispatch(uint32_t executor) {
  SimExecutor* exec = sim_execs_[executor].get();
  if (exec->dispatch_scheduled) return;
  if (!HasEligible(*exec)) return;
  exec->dispatch_scheduled = true;
  double when = std::max(events_.now(), exec->busy_until);
  events_.Schedule(when, [this, executor]() { Dispatch(executor); });
}

void SimRuntime::Dispatch(uint32_t executor) {
  SimExecutor* exec = sim_execs_[executor].get();
  exec->dispatch_scheduled = false;
  if (events_.now() < exec->busy_until) {
    // Scheduled before the executor's current segment was accounted for.
    TryDispatch(executor);
    return;
  }
  if (!HasEligible(*exec)) return;
  SimTask task;
  if (!exec->ready.empty()) {
    task = std::move(exec->ready.front());
    exec->ready.pop_front();
  } else {
    task = std::move(exec->admission.front());
    exec->admission.pop_front();
    exec->active_roots++;
  }
  ProcessTask(exec, std::move(task));
  TryDispatch(executor);
}

void SimRuntime::ProcessTask(SimExecutor* exec, SimTask task) {
  REACTDB_CHECK(current_executor_ == kNoExecutor);
  exec->heartbeat.fetch_add(1, std::memory_order_relaxed);
  current_executor_ = exec->id;
  segment_start_ = std::max(events_.now(), exec->busy_until);
  segment_cost_ = 0;
  internal::SetCurrentResumeHook(&exec->hook);
  if (task.charge_cr) {
    // Attribute the receive cost to the resuming frame's root.
    void* prev = internal::CurrentFrame();
    internal::SetCurrentFrame(task.cr_frame);
    Charge(ChargeKind::kCr, params_.cr_us);
    internal::SetCurrentFrame(prev);
  }
  task.fn();
  internal::SetCurrentResumeHook(nullptr);
  exec->busy_until = segment_start_ + segment_cost_;
  exec->busy_total += segment_cost_;
  current_executor_ = kNoExecutor;
  segment_cost_ = 0;
}

void SimRuntime::SampleExecutors(
    std::vector<obs::ExecutorHealthSample>* out) const {
  out->clear();
  out->reserve(sim_execs_.size());
  for (const auto& exec : sim_execs_) {
    obs::ExecutorHealthSample s;
    s.heartbeat = exec->heartbeat.load(std::memory_order_relaxed);
    s.has_work = HasEligible(*exec) || exec->dispatch_scheduled;
    out->push_back(s);
  }
}

std::unique_ptr<transport::Link> SimRuntime::MakeLink() {
  transport::SimLinkParams p;
  p.latency_us = params_.link_latency_us;
  p.per_message_us = params_.link_per_message_us;
  p.per_byte_us = params_.link_per_byte_us;
  return std::make_unique<transport::SimLink>(
      transport_.get(), p, /*now=*/[this] { return NowUs(); },
      /*schedule=*/
      [this](double when_us, std::function<void()> fn) {
        events_.Schedule(when_us, std::move(fn));
      });
}

void SimRuntime::PostEnvelope(uint32_t src_lane, transport::Envelope e) {
  (void)src_lane;
  transport_->PostNow(std::move(e));
}

void SimRuntime::DeliverReady(uint32_t executor, std::function<void()> task) {
  // Already inside the link's delivery event: enqueue directly (a PostReady
  // here would schedule a second event at the same virtual time).
  SimTask t;
  t.fn = std::move(task);
  sim_execs_[executor]->ready.push_back(std::move(t));
  TryDispatch(executor);
}

void SimRuntime::PostReady(uint32_t executor, std::function<void()> task) {
  SimTask t;
  t.fn = std::move(task);
  Deliver(executor, std::move(t));
}

void SimRuntime::PostRoot(uint32_t executor, std::function<void()> task) {
  SimTask t;
  t.fn = std::move(task);
  sim_execs_[executor]->admission.push_back(std::move(t));
  TryDispatch(executor);
}

void SimRuntime::OnRootRetired(uint32_t executor) {
  SimExecutor* exec = sim_execs_[executor].get();
  exec->active_roots--;
  TryDispatch(executor);
}

double SimRuntime::Utilization(uint32_t id, double from_us) const {
  const SimExecutor* exec = sim_execs_[id].get();
  double window = events_.now() - from_us;
  if (window <= 0) return 0;
  // busy_total accumulates since construction; callers track deltas.
  return std::min(1.0, exec->busy_total / window);
}

void SimRuntime::KickDurability(bool force) {
  log::DurabilityManager* mgr = durability();
  if (mgr == nullptr || mgr->halted() || durability_flush_scheduled_) return;
  // With auto_flush off (recovery-test crash staging) only explicit
  // requests — WaitDurable, checkpoint fences — schedule device work.
  if (!mgr->options().auto_flush && !force) return;
  durability_flush_scheduled_ = true;
  double when = NowUs() + mgr->options().flush_interval_us;
  events_.Schedule(when, [this] { RunDurabilityFlush(); });
}

void SimRuntime::RunDurabilityFlush() {
  durability_flush_scheduled_ = false;
  log::DurabilityManager* mgr = durability();
  if (mgr == nullptr || mgr->halted()) return;
  uint64_t before = mgr->durable_epoch();
  uint64_t pending = 0;
  uint64_t bytes = 0;
  uint32_t fsyncs = 0;
  // The round performs the real file I/O now; the watermark (what
  // wait_durable clients observe) publishes only after the modeled device
  // time, like SimLink delays delivery after the modeled wire time.
  if (!mgr->FlushRoundDeferred(&pending, &bytes, &fsyncs).ok()) return;
  double cost = params_.log_fsync_us * fsyncs +
                params_.log_per_byte_us * static_cast<double>(bytes);
  if (cost > 0) {
    events_.Schedule(events_.now() + cost,
                     [mgr, pending] { mgr->PublishDurable(pending); });
  } else {
    mgr->PublishDurable(pending);
  }
  // Records still beyond the watermark: keep the group-commit pump running
  // while it makes progress. (No progress means an in-flight root pins
  // min_active; its own completion events will re-kick — an unconditional
  // re-kick here would keep RunAll from ever quiescing.)
  if (pending < mgr->max_appended_epoch() && pending > before) {
    KickDurability(/*force=*/true);  // continue the pump it came from
  }
}

void SimRuntime::ClientWait(const std::function<bool()>& ready) {
  // Must not run inside a simulated segment (an event pumping events would
  // reenter the queue mid-segment).
  REACTDB_CHECK(current_executor_ == kNoExecutor);
  while (!ready()) {
    // A quiesced simulation with the predicate still false means a session
    // future / window slot that can never resolve — crash loudly rather
    // than spin.
    REACTDB_CHECK(events_.RunNext());
  }
}

}  // namespace reactdb
