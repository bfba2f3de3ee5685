// Kineto-style trace event schema.
//
// PyTorch Kineto emits Chrome-trace-format JSON with three main activity
// classes: CPU operators ("cpu_op"), CUDA runtime calls ("cuda_runtime") and
// GPU kernels ("kernel" / "gpu_memcpy" / "gpu_memset"). Events carry a
// correlation ID that links a CUDA runtime launch to the device activity it
// produced, and kernels carry the CUDA stream they executed on.
//
// TraceEvent mirrors that schema with typed fields. Timestamps are kept in
// integer nanoseconds internally (Kineto JSON uses double microseconds; the
// conversion happens at the JSON boundary in chrome_trace.{h,cpp}).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lumos::trace {

/// Activity class of an event, mirroring Kineto's `cat` field.
enum class EventCategory : std::uint8_t {
  CpuOp,           ///< framework operator executing on a CPU thread
  CudaRuntime,     ///< CUDA runtime API call (cudaLaunchKernel, ...)
  Kernel,          ///< GPU kernel on a CUDA stream
  Memcpy,          ///< GPU memcpy activity
  Memset,          ///< GPU memset activity
  UserAnnotation,  ///< profiler user annotation (e.g. iteration markers)
};

/// Parses a Kineto `cat` string; returns nullopt for unknown categories.
std::optional<EventCategory> category_from_string(std::string_view s);

/// Kineto `cat` string for a category.
std::string_view to_string(EventCategory cat);

/// CUDA runtime API identified from the event name. Only the APIs that
/// matter for dependency construction are distinguished.
enum class CudaApi : std::uint8_t {
  None,               ///< not a CUDA runtime event
  LaunchKernel,       ///< cudaLaunchKernel / cudaLaunchKernelExC
  MemcpyAsync,        ///< cudaMemcpyAsync
  MemsetAsync,        ///< cudaMemsetAsync
  EventRecord,        ///< cudaEventRecord (marks a point in a stream)
  StreamWaitEvent,    ///< cudaStreamWaitEvent (cross-stream dependency)
  StreamSynchronize,  ///< cudaStreamSynchronize (blocks calling thread)
  DeviceSynchronize,  ///< cudaDeviceSynchronize (blocks on whole device)
  EventSynchronize,   ///< cudaEventSynchronize (blocks until event fires)
};

/// Classifies a CUDA runtime event by name ("cudaLaunchKernel" etc.).
CudaApi cuda_api_from_name(std::string_view name);

/// True for APIs that enqueue device work (and therefore have a correlated
/// GPU activity): LaunchKernel / MemcpyAsync / MemsetAsync.
bool launches_device_work(CudaApi api);

/// True for APIs that block the calling CPU thread on device progress.
bool blocks_cpu(CudaApi api);

/// Collective-communication metadata attached to NCCL kernels and to the
/// CPU ops that launch them. Group names follow Megatron conventions:
/// "tp_<i>", "dp_<i>", "pp_p2p_<i>" identify the communicator.
struct CollectiveInfo {
  std::string op;       ///< "allreduce", "allgather", "reducescatter",
                        ///< "send", "recv"
  std::string group;    ///< communicator name, unique per group
  std::int64_t bytes = 0;    ///< payload size per rank
  std::int32_t group_size = 0;  ///< number of ranks in the communicator
  /// Ordinal of this collective on its communicator (0,1,2,... per group).
  /// Kernels across ranks with the same (group, instance) belong to one
  /// rendezvous; used for coupled multi-rank simulation. -1 when unknown.
  std::int64_t instance = -1;

  bool valid() const { return !op.empty(); }
  bool operator==(const CollectiveInfo&) const = default;
};

/// GEMM problem shape attached to matmul kernels; used by graph manipulation
/// to re-cost kernels whose shape changes with the model architecture
/// (paper §4.3.2). Kineto analogue: "Input Dims" on cpu_ops.
struct GemmShape {
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;

  bool valid() const { return m > 0 && n > 0 && k > 0; }
  double flops() const { return 2.0 * static_cast<double>(m) *
                                static_cast<double>(n) *
                                static_cast<double>(k); }
  bool operator==(const GemmShape&) const = default;
};

/// A single profiling event. `pid` is the trainer rank (one process per
/// GPU, Megatron style); `tid` is the CPU thread for host events and the
/// CUDA stream for device events (Kineto convention).
struct TraceEvent {
  std::string name;
  EventCategory cat = EventCategory::CpuOp;
  std::int64_t ts_ns = 0;   ///< start timestamp
  std::int64_t dur_ns = 0;  ///< duration
  std::int32_t pid = 0;     ///< rank
  std::int32_t tid = 0;     ///< CPU thread id, or stream id for GPU events

  /// Links runtime launches to device activities (Kineto args.correlation).
  std::int64_t correlation = -1;
  /// Stream targeted by a runtime call, or executing a device activity.
  std::int64_t stream = -1;
  /// CUDA event handle for EventRecord / StreamWaitEvent pairs.
  std::int64_t cuda_event = -1;

  // -- model-level annotations (Kineto analogue: user annotations &
  //    metadata propagated from the framework) --
  std::int32_t layer = -1;       ///< transformer layer index, -1 if n/a
  std::int32_t microbatch = -1;  ///< micro-batch index, -1 if n/a
  std::string phase;             ///< "forward" | "backward" | "optimizer" | ""
  /// Module block the event belongs to ("layer", "embed", "head", "opt",
  /// "dp", "norm", "pp", "sched", ""). Kineto analogue: the enclosing
  /// record_function / NVTX range name Megatron emits per module.
  std::string block;
  CollectiveInfo collective;     ///< valid() only for comm ops/kernels
  GemmShape gemm;                ///< valid() only for matmul ops/kernels
  /// Total bytes read+written by memory-bound kernels (derivable from the
  /// operator's input dims in real Kineto traces); 0 when not applicable.
  std::int64_t bytes_moved = 0;

  std::int64_t end_ns() const { return ts_ns + dur_ns; }

  bool is_gpu() const {
    return cat == EventCategory::Kernel || cat == EventCategory::Memcpy ||
           cat == EventCategory::Memset;
  }
  bool is_cpu() const { return !is_gpu(); }

  /// CUDA runtime classification; CudaApi::None for non-runtime events.
  CudaApi cuda_api() const {
    return cat == EventCategory::CudaRuntime ? cuda_api_from_name(name)
                                             : CudaApi::None;
  }

  /// True if the two half-open intervals [ts, end) overlap.
  bool overlaps(const TraceEvent& other) const {
    return ts_ns < other.end_ns() && other.ts_ns < end_ns();
  }

  bool operator==(const TraceEvent&) const = default;
};

}  // namespace lumos::trace

// RankTrace / ClusterTrace (the containers of events) live in
// event_table.h: events are stored columnar (trace::EventTable), with
// TraceEvent kept as the materialized per-event view defined above.
#include "trace/event_table.h"  // IWYU pragma: export
