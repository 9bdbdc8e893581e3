// Deployment configuration: virtualization of database architecture.
//
// The same reactor application runs unchanged under any deployment (paper
// Section 3.3). A deployment fixes:
//  * the number of containers (isolated storage + concurrency-control
//    domains) and transaction executors per container,
//  * the placement of reactors onto containers (range partition by default,
//    or a custom placement function),
//  * the root-transaction routing policy (round-robin vs affinity), and
//  * the multiprogramming level (MPL) per executor.
//
// The paper's three strategies map to the presets:
//  S1 shared-everything-without-affinity: 1 container, N executors,
//     round-robin routing.
//  S2 shared-everything-with-affinity: 1 container, N executors, affinity
//     routing, MPL 1 (a transaction runs to completion before the next).
//  S3 shared-nothing: N containers x 1 executor (sync vs async is a
//     property of the application programs, not of the deployment).

#ifndef REACTDB_RUNTIME_DEPLOYMENT_H_
#define REACTDB_RUNTIME_DEPLOYMENT_H_

#include <functional>
#include <string>

#include "src/util/config.h"
#include "src/util/statusor.h"

namespace reactdb {

enum class RootRouting {
  kRoundRobin,
  kAffinity,
};

struct DeploymentConfig {
  int num_containers = 1;
  int executors_per_container = 1;
  RootRouting routing = RootRouting::kAffinity;
  /// Maximum root transactions concurrently admitted per executor
  /// (Section 3.2.3). 0 = unlimited.
  int mpl = 8;

  /// Bound of each container's transport inbox (src/transport/): every
  /// root submission and cross-container call reaches its container as a
  /// message through this inbox. Senders block (thread runtime) once a
  /// container is this far behind; sized so that only a pathological
  /// imbalance ever hits it. Must be >= 1.
  int mailbox_capacity = 65536;
  /// Max envelopes per link transfer; a batch also flushes at every
  /// executor scheduling boundary, whichever comes first.
  int transport_max_batch = 16;

  /// Overload shedding high watermarks (0 = disabled). When the number of
  /// outstanding root transactions (submitted, not yet finalized) exceeds
  /// `shed_outstanding_roots`, or the target container's mailbox depth
  /// reaches `shed_mailbox_depth`, *new* submissions are refused fast with
  /// kOverloaded before any per-root work is done. In-flight roots and
  /// session retries (SubmitOptions::bypass_admission) are never shed, so
  /// admitted work drains at full speed while the excess queues outside
  /// the database.
  int shed_outstanding_roots = 0;
  int shed_mailbox_depth = 0;

  /// Container of a reactor: (name, declaration index, total reactors,
  /// containers) -> container id. Default: contiguous range partition over
  /// declaration order.
  std::function<uint32_t(const std::string&, size_t, size_t, uint32_t)>
      placement;

  int total_executors() const {
    return num_containers * executors_per_container;
  }

  /// Applies placement (or the range-partition default).
  uint32_t PlaceReactor(const std::string& name, size_t index,
                        size_t total) const;

  static DeploymentConfig SharedEverythingWithoutAffinity(int executors,
                                                          int mpl = 8);
  static DeploymentConfig SharedEverythingWithAffinity(int executors,
                                                       int mpl = 1);
  static DeploymentConfig SharedNothing(int containers, int mpl = 8);

  /// Reads [database] deployment = shared-nothing |
  /// shared-everything-with-affinity | shared-everything-without-affinity,
  /// plus containers / executors_per_container / mpl keys.
  static StatusOr<DeploymentConfig> FromConfig(const Config& config);

  std::string ToString() const;
};

}  // namespace reactdb

#endif  // REACTDB_RUNTIME_DEPLOYMENT_H_
