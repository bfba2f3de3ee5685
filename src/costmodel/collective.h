// Analytical collective-communication cost model over a hierarchical
// NVLink + RoCE topology.
//
// NCCL-style ring algorithms: an allreduce moves 2*(n-1)/n * bytes through
// the slowest link on the ring; allgather/reducescatter move (n-1)/n; P2P
// sends move the full payload once. The bottleneck bandwidth depends on
// whether the communicator crosses node boundaries (NVLink vs NIC).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "costmodel/hardware.h"

namespace lumos::cost {

enum class CollectiveKind : std::uint8_t {
  AllReduce,
  AllGather,
  ReduceScatter,
  Broadcast,
  SendRecv,  ///< point-to-point (pipeline stage boundary)
};

/// Parses "allreduce" / "allgather" / "reducescatter" / "broadcast" /
/// "send" / "recv"; returns nullopt otherwise.
std::optional<CollectiveKind> collective_kind_from_string(std::string_view s);
std::string_view to_string(CollectiveKind kind);

/// Placement of a communicator on the physical topology.
struct CommPlacement {
  std::int32_t group_size = 1;   ///< ranks in the communicator
  std::int32_t nodes_spanned = 1;  ///< distinct physical nodes covered

  bool crosses_nodes() const { return nodes_spanned > 1; }
  bool operator==(const CommPlacement&) const = default;
};

class CollectiveCostModel {
 public:
  explicit CollectiveCostModel(const HardwareSpec& hw) : hw_(hw) {}

  /// Predicted kernel duration, excluding time spent waiting for peers to
  /// arrive (the ground-truth engine adds that; Lumos observes it folded
  /// into profiled kernel durations, matching real NCCL traces).
  std::int64_t duration_ns(CollectiveKind kind, std::int64_t bytes,
                           const CommPlacement& placement) const;

  /// Effective per-rank bandwidth (bytes/s) for a communicator, including
  /// the size-dependent NCCL ramp-up toward peak bus bandwidth.
  double effective_bandwidth(std::int64_t bytes,
                             const CommPlacement& placement) const;

 private:
  HardwareSpec hw_;
};

}  // namespace lumos::cost
