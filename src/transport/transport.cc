#include "src/transport/transport.h"

#include <algorithm>

#include "src/util/logging.h"

namespace reactdb {
namespace transport {

void LoopbackLink::Send(uint32_t dst_container, std::vector<Envelope> batch) {
  // Backpressure policy: only SubmitRequests (sent by client threads) may
  // block on a full inbox — that throttles admission at the boundary where
  // it belongs. In-flight transaction traffic (calls/responses) is
  // sent by executors, and an executor is also the only thread that drains
  // its own container's inbox: letting it block on a peer's full inbox can
  // deadlock two containers pushing at each other. Those messages are
  // MPL-bounded, so ForcePush overflow is small and transient. Submits
  // always travel as single-envelope client batches (PostNow), so the
  // batch-level flag is exact.
  bool blocking = !batch.empty() && batch[0].kind == MessageKind::kSubmit;
  transport_->DeliverBatch(dst_container, std::move(batch), blocking);
}

void SimLink::Send(uint32_t dst_container, std::vector<Envelope> batch) {
  size_t bytes = 0;
  bool inline_ok = true;
  for (const Envelope& e : batch) {
    bytes += e.wire.size();
    inline_ok = inline_ok && e.kind == MessageKind::kResponse;
  }
  double delay = params_.BatchDelayUs(batch.size(), bytes);
  if (delay <= 0 && inline_ok) {
    // Zero-cost link and only responses: deliver synchronously. A response
    // is safe to dispatch inside the sending segment — fulfillment
    // re-enters the event queue through the segment-aware resume path, so
    // the caller's resume is scheduled at the send time (and pays Cr).
    // Requests and submits must arrive as link events so the target cannot
    // dispatch earlier than the send point. This is what keeps the
    // simulated event trace identical to the pre-transport direct-call
    // path when link costs are off.
    transport_->DeliverBatch(dst_container, std::move(batch),
                             /*blocking=*/false);
    return;
  }
  // FIFO pipe: an arrival may not precede an earlier-sent transfer to the
  // same destination (a small message must not overtake a large one whose
  // per-byte cost is still "in flight").
  if (dst_container >= arrival_horizon_.size()) {
    arrival_horizon_.resize(dst_container + 1, 0);
  }
  double when = std::max(now_() + delay, arrival_horizon_[dst_container]);
  arrival_horizon_[dst_container] = when;
  // Deliver on the virtual clock after the modeled transfer time. ForcePush
  // at delivery: a scheduled event cannot block, and dropping would orphan
  // the in-flight transaction state the envelopes carry.
  schedule_(when,
            [transport = transport_, dst_container,
             moved = std::make_shared<std::vector<Envelope>>(
                 std::move(batch))]() mutable {
              transport->DeliverBatch(dst_container, std::move(*moved),
                                      /*blocking=*/false);
            });
}

Transport::Transport(uint32_t num_containers, uint32_t num_lanes,
                     size_t mailbox_capacity, int max_batch)
    : max_batch_(max_batch < 1 ? 1 : static_cast<size_t>(max_batch)) {
  REACTDB_CHECK(num_containers >= 1);
  for (uint32_t c = 0; c < num_containers; ++c) {
    mailboxes_.push_back(std::make_unique<Mailbox>(mailbox_capacity));
  }
  lanes_.resize(num_lanes);
  for (auto& lane : lanes_) lane.resize(num_containers);
}

void Transport::Post(uint32_t lane, Envelope e) {
  REACTDB_CHECK(lane < lanes_.size());
  uint32_t dst = e.dst_container;
  REACTDB_CHECK(dst < mailboxes_.size());
  stats_.sent[static_cast<size_t>(e.kind)].fetch_add(
      1, std::memory_order_relaxed);
  std::vector<Envelope>& pending = lanes_[lane][dst];
  pending.push_back(std::move(e));
  if (pending.size() >= max_batch_) {
    std::vector<Envelope> out;
    out.swap(pending);
    SendBatch(dst, std::move(out));
  }
}

void Transport::Flush(uint32_t lane) {
  REACTDB_CHECK(lane < lanes_.size());
  for (uint32_t dst = 0; dst < mailboxes_.size(); ++dst) {
    std::vector<Envelope>& pending = lanes_[lane][dst];
    if (pending.empty()) continue;
    std::vector<Envelope> out;
    out.swap(pending);
    SendBatch(dst, std::move(out));
  }
}

void Transport::PostNow(Envelope e) {
  uint32_t dst = e.dst_container;
  REACTDB_CHECK(dst < mailboxes_.size());
  stats_.sent[static_cast<size_t>(e.kind)].fetch_add(
      1, std::memory_order_relaxed);
  std::vector<Envelope> batch;
  batch.push_back(std::move(e));
  SendBatch(dst, std::move(batch));
}

void Transport::SendBatch(uint32_t dst, std::vector<Envelope> batch) {
  REACTDB_CHECK(link_ != nullptr);
  uint64_t bytes = 0;
  for (const Envelope& e : batch) bytes += e.wire.size();
  stats_.batches.fetch_add(1, std::memory_order_relaxed);
  stats_.wire_bytes.fetch_add(bytes, std::memory_order_relaxed);
  uint64_t size = batch.size();
  uint64_t seen = stats_.max_batch.load(std::memory_order_relaxed);
  while (size > seen && !stats_.max_batch.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  link_->Send(dst, std::move(batch));
}

void Transport::DeliverBatch(uint32_t dst, std::vector<Envelope> batch,
                             bool blocking) {
  Mailbox& box = *mailboxes_[dst];
  for (Envelope& e : batch) {
    if (blocking) {
      box.Push(std::move(e));
    } else {
      box.ForcePush(std::move(e));
    }
  }
  if (on_inbox_ready_) on_inbox_ready_(dst);
}

size_t Transport::Drain(uint32_t container,
                        const std::function<void(Envelope&&)>& handler) {
  Mailbox& box = *mailboxes_[container];
  size_t n = 0;
  Envelope e;
  while (box.TryPop(&e)) {
    stats_.delivered[static_cast<size_t>(e.kind)].fetch_add(
        1, std::memory_order_relaxed);
    handler(std::move(e));
    ++n;
  }
  return n;
}

}  // namespace transport
}  // namespace reactdb
