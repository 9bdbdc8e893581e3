// Transport: per-container inboxes + per-executor send batching over a
// pluggable Link.
//
// Send side: every transaction executor owns a lane of per-destination
// batch buffers (single-writer, so unlocked). Post() appends to the lane's
// buffer for the destination container; the batch flushes when the runtime
// reaches a scheduling boundary (end of the current executor task — by
// then every message the task will produce has been produced) or earlier
// when the buffer hits max_batch. This is the adaptive part: a task that
// issues one cross-container call pays no batching delay, a multi-transfer
// that fans out N calls to one container ships them as a single link
// transfer. PostNow() bypasses batching for senders without a lane (client
// threads submitting roots) and for the simulator (which models per-message
// costs itself).
//
// Receive side: one bounded MPSC Mailbox per container (see mailbox.h).
// Links push arriving envelopes there and signal on_inbox_ready; the
// runtime's pump calls Drain() from the owning container's executor.

#ifndef REACTDB_TRANSPORT_TRANSPORT_H_
#define REACTDB_TRANSPORT_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/transport/link.h"
#include "src/transport/mailbox.h"

namespace reactdb {
namespace transport {

/// Monotonic counters over the transport's lifetime. Indexed accessors take
/// a MessageKind; loads are relaxed (telemetry, not synchronization).
struct TransportStats {
  std::atomic<uint64_t> sent[4] = {};       // by MessageKind (1..3)
  std::atomic<uint64_t> delivered[4] = {};  // by MessageKind (1..3)
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> wire_bytes{0};
  std::atomic<uint64_t> max_batch{0};

  uint64_t sent_of(MessageKind k) const {
    return sent[static_cast<size_t>(k)].load(std::memory_order_relaxed);
  }
  uint64_t delivered_of(MessageKind k) const {
    return delivered[static_cast<size_t>(k)].load(std::memory_order_relaxed);
  }
  uint64_t total_sent() const {
    uint64_t n = 0;
    for (const auto& c : sent) n += c.load(std::memory_order_relaxed);
    return n;
  }
  uint64_t total_delivered() const {
    uint64_t n = 0;
    for (const auto& c : delivered) n += c.load(std::memory_order_relaxed);
    return n;
  }
};

class Transport {
 public:
  Transport(uint32_t num_containers, uint32_t num_lanes,
            size_t mailbox_capacity, int max_batch);

  /// The link must be set before any Post/PostNow.
  void set_link(std::unique_ptr<Link> link) { link_ = std::move(link); }
  Link* link() const { return link_.get(); }

  /// Invoked (possibly from a link's delivery context or any sending
  /// thread) whenever envelopes were pushed into a container's inbox.
  void set_on_inbox_ready(std::function<void(uint32_t container)> fn) {
    on_inbox_ready_ = std::move(fn);
  }

  // --- Send side -----------------------------------------------------------

  /// Appends to `lane`'s batch for the envelope's destination; flushes that
  /// batch if it reached max_batch. Single-threaded per lane.
  void Post(uint32_t lane, Envelope e);
  /// Flushes all destinations of `lane` (scheduling-boundary hook).
  void Flush(uint32_t lane);
  /// Immediate single-envelope transfer (no lane state; thread-safe).
  void PostNow(Envelope e);

  // --- Receive side --------------------------------------------------------

  Mailbox& mailbox(uint32_t container) { return *mailboxes_[container]; }
  /// Pops every queued envelope of `container`, invoking `handler` on each
  /// (single consumer per container).
  size_t Drain(uint32_t container,
               const std::function<void(Envelope&&)>& handler);

  // --- Link callback -------------------------------------------------------

  /// Pushes a delivered batch into the destination inbox and signals the
  /// pump. `blocking` selects Push (backpressure the caller) vs ForcePush
  /// (caller must not block: simulator event context).
  void DeliverBatch(uint32_t dst_container, std::vector<Envelope> batch,
                    bool blocking);

  const TransportStats& stats() const { return stats_; }
  uint32_t num_containers() const {
    return static_cast<uint32_t>(mailboxes_.size());
  }

 private:
  void SendBatch(uint32_t dst_container, std::vector<Envelope> batch);

  std::unique_ptr<Link> link_;
  std::function<void(uint32_t)> on_inbox_ready_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  /// [lane][dst_container] -> pending batch.
  std::vector<std::vector<std::vector<Envelope>>> lanes_;
  const size_t max_batch_;
  TransportStats stats_;
};

}  // namespace transport
}  // namespace reactdb

#endif  // REACTDB_TRANSPORT_TRANSPORT_H_
