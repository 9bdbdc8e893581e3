#include "src/fault/faulty_link.h"

#include <algorithm>
#include <utility>

namespace reactdb {
namespace fault {

using transport::Envelope;

void FaultyLink::Send(uint32_t dst_container, std::vector<Envelope> batch) {
  // Duplicates first: every wire image carries a unique root/call id the
  // receiver dedups on, so copies go into a trailing batch that takes the
  // *undisturbed* path, and whichever copy the other faults delay arrives
  // second and is dropped by dedup.
  std::vector<Envelope> dups;
  for (const Envelope& e : batch) {
    if (injector_->ShouldFire("link.dup")) dups.push_back(e);
  }

  bool reorder = injector_->ShouldFire("link.reorder");
  if (reorder && batch.size() == 1) {
    // A one-envelope batch (the common shape: PostNow sends singletons)
    // reorders by arriving late — hold it for the retransmit delay so the
    // traffic behind it overtakes it.
    auto held = std::make_shared<std::vector<Envelope>>(std::move(batch));
    delay_(params_.retransmit_delay_us, [this, dst_container, held] {
      inner_->Send(dst_container, std::move(*held));
    });
  } else {
    if (reorder && batch.size() >= 2) {
      std::reverse(batch.begin(), batch.end());
    }
    if (injector_->ShouldFire("link.drop")) {
      // Reliable-link loss: hold the whole batch for the retransmit delay.
      auto held = std::make_shared<std::vector<Envelope>>(std::move(batch));
      delay_(params_.retransmit_delay_us, [this, dst_container, held] {
        inner_->Send(dst_container, std::move(*held));
      });
    } else if (injector_->ShouldFire("link.delay")) {
      double d = params_.max_delay_us * injector_->DrawMagnitude("link.delay");
      auto held = std::make_shared<std::vector<Envelope>>(std::move(batch));
      delay_(d, [this, dst_container, held] {
        inner_->Send(dst_container, std::move(*held));
      });
    } else {
      inner_->Send(dst_container, std::move(batch));
    }
  }

  if (!dups.empty()) inner_->Send(dst_container, std::move(dups));
}

}  // namespace fault
}  // namespace reactdb
