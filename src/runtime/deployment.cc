#include "src/runtime/deployment.h"

#include <sstream>

namespace reactdb {

uint32_t DeploymentConfig::PlaceReactor(const std::string& name, size_t index,
                                        size_t total) const {
  uint32_t containers = static_cast<uint32_t>(num_containers);
  if (placement) return placement(name, index, total, containers) % containers;
  if (total == 0) return 0;
  // Contiguous range partition over declaration order.
  return static_cast<uint32_t>(index * containers / total);
}

DeploymentConfig DeploymentConfig::SharedEverythingWithoutAffinity(
    int executors, int mpl) {
  DeploymentConfig dc;
  dc.num_containers = 1;
  dc.executors_per_container = executors;
  dc.routing = RootRouting::kRoundRobin;
  dc.mpl = mpl;
  return dc;
}

DeploymentConfig DeploymentConfig::SharedEverythingWithAffinity(int executors,
                                                                int mpl) {
  DeploymentConfig dc;
  dc.num_containers = 1;
  dc.executors_per_container = executors;
  dc.routing = RootRouting::kAffinity;
  dc.mpl = mpl;
  return dc;
}

DeploymentConfig DeploymentConfig::SharedNothing(int containers, int mpl) {
  DeploymentConfig dc;
  dc.num_containers = containers;
  dc.executors_per_container = 1;
  dc.routing = RootRouting::kAffinity;
  dc.mpl = mpl;
  return dc;
}

StatusOr<DeploymentConfig> DeploymentConfig::FromConfig(const Config& config) {
  std::string strategy =
      config.GetString("database", "deployment", "shared-nothing");
  DeploymentConfig dc;
  if (strategy == "shared-nothing") {
    dc = SharedNothing(
        static_cast<int>(config.GetInt("database", "containers", 1)));
  } else if (strategy == "shared-everything-with-affinity") {
    dc = SharedEverythingWithAffinity(static_cast<int>(
        config.GetInt("database", "executors_per_container", 1)));
  } else if (strategy == "shared-everything-without-affinity") {
    dc = SharedEverythingWithoutAffinity(static_cast<int>(
        config.GetInt("database", "executors_per_container", 1)));
  } else {
    return Status::InvalidArgument("unknown deployment strategy: " + strategy);
  }
  if (config.Has("executor", "mpl")) {
    dc.mpl = static_cast<int>(config.GetInt("executor", "mpl", dc.mpl));
  }
  if (config.Has("transport", "mailbox_capacity")) {
    dc.mailbox_capacity = static_cast<int>(
        config.GetInt("transport", "mailbox_capacity", dc.mailbox_capacity));
  }
  if (config.Has("transport", "max_batch")) {
    dc.transport_max_batch = static_cast<int>(
        config.GetInt("transport", "max_batch", dc.transport_max_batch));
  }
  return dc;
}

std::string DeploymentConfig::ToString() const {
  std::ostringstream os;
  os << "containers=" << num_containers
     << " executors_per_container=" << executors_per_container << " routing="
     << (routing == RootRouting::kRoundRobin ? "round-robin" : "affinity")
     << " mpl=" << mpl;
  return os.str();
}

}  // namespace reactdb
