// DurationProvider: the pluggable duration oracle consumed by the iteration
// graph builder.
//
// The same builder constructs (a) ground-truth graphs, where durations come
// from the analytical kernel cost model, and (b) manipulated graphs, where
// durations come from per-kernel templates extracted from a profiled trace,
// with cost-model *ratio scaling* applied only to kernels whose shape
// changed (paper §4.3: "only a few key kernels, such as GEMM and
// communication-related ones, exhibit significant runtime changes").
//
// Descriptors carry no owned strings: task names, module blocks and phases
// are dense indexes into the builder's closed vocabulary below, so a
// provider keys its lookups on small integers and the per-task emission
// path does no string allocation, hashing or comparison.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "costmodel/collective.h"
#include "trace/event.h"

namespace lumos::workload {

/// Every task name the iteration graph builder emits.
inline constexpr std::array<std::string_view, 62> kOpNames = {
    // framework operators and scheduler steps (CPU)
    "Optimizer.zero_grad#start", "megatron::forward_step",
    "megatron::backward_step", "torch::autograd::backward",
    "aten::embedding", "aten::native_layer_norm", "aten::linear",
    "aten::scaled_dot_product_attention", "aten::add_", "aten::gelu",
    "aten::log_softmax", "autograd::EmbeddingBackward0",
    "autograd::NllLossBackward0", "autograd::MmBackward0",
    "autograd::NativeLayerNormBackward0", "autograd::AddBackward0",
    "autograd::GeluBackward0", "autograd::FlashAttentionBackward0",
    "c10d::allreduce_", "c10d::send", "c10d::recv",
    "megatron::clip_grad_norm", "Optimizer.step#Adam.step",
    "Optimizer.zero_grad#Adam.zero_grad",
    // CUDA runtime (CPU)
    "cudaLaunchKernel", "cudaMemsetAsync", "cudaEventRecord",
    "cudaStreamWaitEvent", "cudaStreamSynchronize", "cudaDeviceSynchronize",
    // device activities (GPU)
    "embedding_dense_kernel", "embedding_backward_kernel",
    "layer_norm_fwd_kernel", "layer_norm_bwd_kernel",
    "vectorized_elementwise_kernel", "gelu_forward_kernel",
    "gelu_backward_kernel", "vocab_parallel_cross_entropy_kernel",
    "cross_entropy_backward_kernel", "flash_fwd_kernel", "flash_bwd_kernel",
    "sm90_xmma_gemm_bf16_qkv", "sm90_xmma_gemm_bf16_qkv_dgrad",
    "sm90_xmma_gemm_bf16_qkv_wgrad", "sm90_xmma_gemm_bf16_attn_proj",
    "sm90_xmma_gemm_bf16_attn_dgrad", "sm90_xmma_gemm_bf16_attn_wgrad",
    "sm90_xmma_gemm_bf16_fc1", "sm90_xmma_gemm_bf16_fc1_dgrad",
    "sm90_xmma_gemm_bf16_fc1_wgrad", "sm90_xmma_gemm_bf16_fc2",
    "sm90_xmma_gemm_bf16_fc2_dgrad", "sm90_xmma_gemm_bf16_fc2_wgrad",
    "sm90_xmma_gemm_bf16_lm_head", "sm90_xmma_gemm_bf16_lm_head_dgrad",
    "sm90_xmma_gemm_bf16_lm_head_wgrad",
    "ncclDevKernel_AllReduce_Sum_bf16_RING",
    "ncclDevKernel_AllReduce_Sum_f32_RING", "ncclDevKernel_SendRecv",
    "multi_tensor_l2norm_kernel", "multi_tensor_apply_kernel_adam",
    "Memset (Device)"};

/// Dense index of one vocabulary name.
struct OpName {
  std::uint8_t index = 0;
  std::string_view text() const { return kOpNames[index]; }
};

/// Undefined on purpose: reaching it in constant evaluation is an error.
void name_not_in_builder_vocabulary();

/// Compile-time lookup, `op_name("aten::linear")`: a name outside the
/// vocabulary does not compile.
consteval OpName op_name(std::string_view text) {
  for (std::size_t i = 0; i < kOpNames.size(); ++i) {
    if (kOpNames[i] == text) return {static_cast<std::uint8_t>(i)};
  }
  name_not_in_builder_vocabulary();
  return {};
}

/// Module block an event belongs to (TraceEvent::block).
enum class Block : std::uint8_t {
  Sched, Embed, Head, Layer, Dp, Pp, Opt, Norm
};
inline constexpr std::array<std::string_view, 8> kBlockNames = {
    "sched", "embed", "head", "layer", "dp", "pp", "opt", "norm"};

/// Training phase an event belongs to (TraceEvent::phase).
enum class Phase : std::uint8_t { Forward, Backward, Optimizer };
inline constexpr std::array<std::string_view, 3> kPhaseNames = {
    "forward", "backward", "optimizer"};

/// Semantic description of a CPU task the builder is about to emit.
struct CpuOpDesc {
  OpName name;               ///< e.g. "aten::linear", "cudaLaunchKernel"
  Block block = Block::Sched;
  Phase phase = Phase::Forward;
  std::int32_t layer = -1;
  std::int32_t ordinal = 0;  ///< position within its (block, layer, phase)
  trace::CudaApi api = trace::CudaApi::None;  ///< for runtime calls
};

/// Cost-relevant payload of a communication kernel.
struct CollectiveDesc {
  cost::CollectiveKind kind = cost::CollectiveKind::AllReduce;
  std::int64_t bytes = 0;         ///< payload size per rank
  std::int32_t group_size = 0;    ///< ranks in the communicator
  cost::CommPlacement placement;  ///< where the communicator's ranks sit

  bool operator==(const CollectiveDesc&) const = default;
};

/// Semantic description of a GPU kernel the builder is about to emit.
/// Exactly one of {gemm, collective, attention, elementwise_bytes} is
/// meaningful, discriminated in that order.
struct KernelDesc {
  OpName name;
  Block block = Block::Sched;
  Phase phase = Phase::Forward;
  std::int32_t layer = -1;
  std::int32_t ordinal = 0;

  trace::GemmShape gemm;                     ///< valid() for matmul kernels
  std::optional<CollectiveDesc> collective;  ///< set for comm kernels

  // Attention dimensions (attn_seq > 0 marks an attention kernel).
  std::int64_t attn_batch = 0;
  std::int64_t attn_heads = 0;
  std::int64_t attn_seq = 0;
  std::int64_t attn_head_dim = 0;

  std::int64_t elementwise_bytes = 0;  ///< >0 for memory-bound kernels

  bool is_attention() const { return attn_seq > 0; }
};

class DurationProvider {
 public:
  virtual ~DurationProvider() = default;
  virtual std::int64_t cpu_ns(const CpuOpDesc& desc) = 0;
  virtual std::int64_t kernel_ns(const KernelDesc& desc) = 0;
};

}  // namespace lumos::workload
