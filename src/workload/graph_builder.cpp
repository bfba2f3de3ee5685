#include "workload/graph_builder.h"

#include <array>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace lumos::workload {

namespace {

using core::DepType;
using core::ExecutionGraph;
using core::kInvalidTask;
using core::TaskId;
using trace::EventCategory;
using Row = trace::EventTable::Row;

/// Collective op names as the trace records them (CollectiveInfo::op).
enum class CommOp : std::uint8_t { AllReduce, Send, Recv };
constexpr std::array<std::string_view, 3> kCommOpNames = {"allreduce", "send",
                                                          "recv"};

/// The one data-parallel replica the builder materializes.
constexpr std::int32_t kDpRank = 0;

/// The shared state of one build: the vocabulary interned into the graph's
/// pools once, up front, so rows are emitted with ids and no per-task
/// string work, and the DP family the walk prices communication for.
class BuildContext {
 public:
  BuildContext(ExecutionGraph& graph, std::vector<Placement> placements)
      : graph(graph), pools(*graph.pools()), placements(std::move(placements)) {
    for (std::size_t i = 0; i < kOpNames.size(); ++i) {
      names_[i] = pools.names.intern(kOpNames[i]);
      apis_[i] = trace::cuda_api_from_name(kOpNames[i]);
    }
    for (std::size_t i = 0; i < kBlockNames.size(); ++i) {
      blocks_[i] = pools.names.intern(kBlockNames[i]);
    }
    for (std::size_t i = 0; i < kPhaseNames.size(); ++i) {
      phases_[i] = pools.names.intern(kPhaseNames[i]);
    }
    for (std::size_t i = 0; i < kCommOpNames.size(); ++i) {
      ops_[i] = pools.ops.intern(kCommOpNames[i]);
    }
  }

  std::uint32_t name(OpName n) const { return names_[n.index]; }
  trace::CudaApi api(OpName n) const { return apis_[n.index]; }
  std::uint32_t block(Block b) const {
    return blocks_[static_cast<std::size_t>(b)];
  }
  std::uint32_t phase(Phase p) const {
    return phases_[static_cast<std::size_t>(p)];
  }
  std::uint32_t op(CommOp o) const { return ops_[static_cast<std::size_t>(o)]; }

  /// Interns a communicator name assembled from string and integer parts
  /// (once per communicator or transfer, not per task).
  template <class... Parts>
  std::uint32_t group(const Parts&... parts) {
    std::string text;
    (append(text, parts), ...);
    return pools.groups.intern(text);
  }

  ExecutionGraph& graph;
  trace::TracePools& pools;
  /// The leader's placement first, then one per sibling DP degree.
  const std::vector<Placement> placements;
  /// A sibling's duration where it differs from the leader's.
  struct SiblingDuration {
    TaskId task;
    std::size_t sibling;
    std::int64_t ns;
  };
  std::vector<SiblingDuration> sibling_durations;

 private:
  static void append(std::string& out, std::string_view s) { out += s; }
  static void append(std::string& out, std::int64_t v) {
    out += std::to_string(v);
  }

  std::array<std::uint32_t, kOpNames.size()> names_;
  std::array<trace::CudaApi, kOpNames.size()> apis_;
  std::array<std::uint32_t, kBlockNames.size()> blocks_;
  std::array<std::uint32_t, kPhaseNames.size()> phases_;
  std::array<std::uint32_t, kCommOpNames.size()> ops_;
};

/// Builds all tasks of one rank. Tasks are appended rank-by-rank so task
/// ids encode per-rank launch order (required by the simulator's runtime
/// dependency resolution). All per-rank state is dense: CPU threads and
/// streams index small arrays, block instances index a flat ordinal table.
///
/// DP degree reaches the walk only through the communication descriptors
/// (global rank, Placement and group sizes), so each communication site
/// describes its kernel once per placement of the family; everything else
/// is emitted once and shared.
class RankBuilder {
 public:
  RankBuilder(BuildContext& ctx, DurationProvider& provider,
              const ModelSpec& model, const ParallelConfig& config,
              const BuildOptions& options, std::int32_t stage,
              std::int32_t tp_rank)
      : ctx_(ctx),
        graph_(ctx.graph),
        provider_(provider),
        model_(model),
        config_(config),
        options_(options),
        stage_(stage),
        tp_rank_(tp_rank),
        layers_per_stage_(model.num_layers / config.pp),
        microbatch_slots_(config.microbatches() + 1),
        tp_group_(ctx.group("tp_pp", stage, "_dp", kDpRank)),
        dp_group_(ctx.group("dp_tp", tp_rank, "_pp", stage)),
        ordinals_(kBlockNames.size() * kPhaseNames.size() *
                      static_cast<std::size_t>(layers_per_stage_ + 1) *
                      static_cast<std::size_t>(microbatch_slots_),
                  {0, 0}) {
    for (const Placement& p : ctx.placements) {
      const std::int32_t rank = p.global_rank({tp_rank, kDpRank, stage});
      comms_.push_back({&p.config(), p.tp_placement(rank),
                        p.pp_placement(rank), p.dp_placement(rank)});
    }
    rank_ = ctx.placements.front().global_rank({tp_rank, kDpRank, stage});
    last_cpu_.fill(kInvalidTask);
    pending_thread_dep_.fill(kInvalidTask);
    last_kernel_.fill(kInvalidTask);
  }

  void build() {
    const auto schedule =
        pipeline_schedule(options_.policy, stage_, config_.pp,
                          config_.microbatches());
    begin_block(Block::Sched, -1, Phase::Forward, -1);
    cpu(lanes::kMainThread, op_name("Optimizer.zero_grad#start"));
    for (const PipelineAction& action : schedule) {
      if (action.kind == PassKind::Forward) {
        forward_pass(action.microbatch);
      } else {
        backward_pass(action.microbatch);
      }
    }
    optimizer_epilogue();
  }

 private:
  // ---------------------------------------------------------------------
  // Low-level task emission
  // ---------------------------------------------------------------------

  static constexpr std::size_t kThreads = 2;  // main + autograd
  static constexpr std::size_t kStreams = lanes::kPpRecvStream + 1;

  static std::size_t thread_slot(std::int32_t tid) {
    return static_cast<std::size_t>(tid - lanes::kMainThread);
  }

  /// Within-block ordinals are keyed by the block *instance* (block, layer,
  /// phase, microbatch) and persist across interleavings — the same rule
  /// template extraction applies, so descriptors line up exactly. The
  /// instance's slot in the dense table is resolved here, once per block.
  void begin_block(Block block, std::int32_t layer, Phase phase,
                   std::int32_t microbatch) {
    block_ = block;
    layer_ = layer;
    phase_ = phase;
    microbatch_ = microbatch;
    // Layer blocks index stage-local layers; every other block carries -1
    // or a DP bucket index (< layers per stage) in the layer field.
    const std::int32_t layer_slot =
        (block == Block::Layer ? layer - stage_ * layers_per_stage_ : layer) +
        1;
    const std::size_t slot =
        ((static_cast<std::size_t>(block) * kPhaseNames.size() +
          static_cast<std::size_t>(phase)) *
             static_cast<std::size_t>(layers_per_stage_ + 1) +
         static_cast<std::size_t>(layer_slot)) *
            static_cast<std::size_t>(microbatch_slots_) +
        static_cast<std::size_t>(microbatch + 1);
    if (layer_slot < 0 || layer_slot > layers_per_stage_ ||
        microbatch + 1 >= microbatch_slots_ || slot >= ordinals_.size()) {
      throw std::logic_error("RankBuilder: block instance out of range");
    }
    ordinal_slot_ = slot;
  }

  std::int32_t next_cpu_ordinal() { return ordinals_[ordinal_slot_].first++; }
  std::int32_t next_kernel_ordinal() {
    return ordinals_[ordinal_slot_].second++;
  }

  /// A row carrying this rank's annotation context.
  Row row(OpName name, EventCategory cat, std::int32_t tid) {
    Row r;
    r.cat = static_cast<std::uint8_t>(cat);
    r.ts_ns = seq_++;  // synthetic program order; the simulator's tie-break
    r.pid = rank_;
    r.tid = tid;
    r.layer = layer_;
    r.microbatch = microbatch_;
    r.name = ctx_.name(name);
    r.phase = ctx_.phase(phase_);
    r.block = ctx_.block(block_);
    return r;
  }

  /// Emits a CPU task on `tid`, chained to the previous task on the thread
  /// and to any cross-thread handoff requested by a dispatch/join point.
  TaskId cpu(std::int32_t tid, OpName name,
             EventCategory cat = EventCategory::CpuOp,
             std::int64_t stream = -1, std::int64_t cuda_event = -1,
             std::int64_t correlation = -1) {
    const trace::CudaApi api = cat == EventCategory::CudaRuntime
                                   ? ctx_.api(name)
                                   : trace::CudaApi::None;
    const CpuOpDesc desc{name,   block_, phase_, layer_, next_cpu_ordinal(),
                         api};
    Row r = row(name, cat, tid);
    r.dur_ns = provider_.cpu_ns(desc);
    r.stream = stream;
    r.cuda_event = cuda_event;
    r.correlation = correlation;
    const TaskId id = graph_.add_row({rank_, /*gpu=*/false, tid}, r, api);
    TaskId& last = last_cpu_[thread_slot(tid)];
    if (last != kInvalidTask) graph_.add_edge(last, id, DepType::IntraThread);
    TaskId& handoff = pending_thread_dep_[thread_slot(tid)];
    if (handoff != kInvalidTask) {
      graph_.add_edge(handoff, id, DepType::InterThread);
      handoff = kInvalidTask;
    }
    last = id;
    return id;
  }

  /// Collective payload of a communication kernel's row.
  struct Comm {
    CommOp op;
    std::uint32_t group;
    std::int64_t instance;
  };

  /// Emits a launch (cudaLaunchKernel) on `tid` plus the GPU kernel on
  /// `stream`, linked by a fresh correlation id, and stamps `desc` with the
  /// block context and ordinal it was priced at. Applies pending
  /// inter-stream waits targeted at `stream`.
  TaskId kernel(std::int32_t tid, KernelDesc& desc, std::int64_t stream,
                EventCategory gpu_cat = EventCategory::Kernel,
                const Comm* comm = nullptr) {
    desc.block = block_;
    desc.phase = phase_;
    desc.layer = layer_;
    desc.ordinal = next_kernel_ordinal();
    const std::int64_t corr = next_correlation_++;

    const OpName launch = gpu_cat == EventCategory::Memset
                              ? op_name("cudaMemsetAsync")
                              : op_name("cudaLaunchKernel");
    const TaskId launch_id =
        cpu(tid, launch, EventCategory::CudaRuntime, stream, -1, corr);

    Row r = row(desc.name, gpu_cat, static_cast<std::int32_t>(stream));
    r.dur_ns = provider_.kernel_ns(desc);
    r.correlation = corr;
    r.stream = stream;
    r.bytes_moved = desc.elementwise_bytes;
    if (desc.gemm != trace::GemmShape{}) {
      r.has_gemm = true;
      r.gemm_m = desc.gemm.m;
      r.gemm_n = desc.gemm.n;
      r.gemm_k = desc.gemm.k;
    }
    if (comm != nullptr) {
      r.has_collective = true;
      r.coll_op = ctx_.op(comm->op);
      r.coll_group = comm->group;
      r.coll_bytes = desc.collective->bytes;
      r.coll_group_size = desc.collective->group_size;
      r.coll_instance = comm->instance;
    }
    const TaskId kernel_id =
        graph_.add_row({rank_, true, stream}, r, trace::CudaApi::None);

    graph_.add_edge(launch_id, kernel_id, DepType::CpuToGpu);
    const auto s = static_cast<std::size_t>(stream);
    if (last_kernel_[s] != kInvalidTask) {
      graph_.add_edge(last_kernel_[s], kernel_id, DepType::IntraStream);
    }
    last_kernel_[s] = kernel_id;
    for (TaskId src : pending_waits_[s]) {
      graph_.add_edge(src, kernel_id, DepType::InterStream);
    }
    pending_waits_[s].clear();
    return kernel_id;
  }

  /// Where this rank's communicators sit under one DP degree of the
  /// family, resolved once per rank instead of per communication kernel.
  struct Communicators {
    const ParallelConfig* config;
    cost::CommPlacement tp, pp, dp;
  };

  /// A communication kernel on `stream`: the row's collective ids, and
  /// `describe(communicators)` pricing its payload for the leader and then
  /// for every sibling DP degree. The provider is a function of the
  /// descriptor, so a sibling whose payload matches the leader's keeps the
  /// leader's duration unpriced.
  template <class Describe>
  void comm_kernel(std::int32_t tid, OpName name, CommOp op,
                   std::uint32_t group, std::int64_t instance,
                   std::int64_t stream, const Describe& describe) {
    KernelDesc d;
    d.name = name;
    d.collective = describe(comms_.front());
    const Comm comm{op, group, instance};
    const TaskId id = kernel(tid, d, stream, EventCategory::Kernel, &comm);
    const CollectiveDesc leader = *d.collective;
    for (std::size_t k = 1; k < comms_.size(); ++k) {
      d.collective = describe(comms_[k]);
      if (*d.collective == leader) continue;
      ctx_.sibling_durations.push_back({id, k - 1, provider_.kernel_ns(d)});
    }
  }

  /// cudaEventRecord on `src_stream` + cudaStreamWaitEvent on `dst_stream`:
  /// the next kernel launched to dst waits for the last kernel currently on
  /// src. This is the inter-stream dependency mechanism of paper §3.3.2.
  void record_wait(std::int32_t tid, std::int64_t src_stream,
                   std::int64_t dst_stream) {
    const std::int64_t event_id = next_cuda_event_++;
    cpu(tid, op_name("cudaEventRecord"), EventCategory::CudaRuntime,
        src_stream, event_id);
    cpu(tid, op_name("cudaStreamWaitEvent"), EventCategory::CudaRuntime,
        dst_stream, event_id);
    const TaskId last = last_kernel_[static_cast<std::size_t>(src_stream)];
    if (last != kInvalidTask) {
      pending_waits_[static_cast<std::size_t>(dst_stream)].push_back(last);
    }
  }

  // ---------------------------------------------------------------------
  // Model building blocks
  // ---------------------------------------------------------------------

  std::int64_t tokens() const {
    return static_cast<std::int64_t>(config_.microbatch_size) *
           model_.seq_len;
  }
  std::int64_t dtype_bytes() const { return 2; }  // BF16 activations

  static KernelDesc gemm(OpName name, std::int64_t m, std::int64_t n,
                         std::int64_t k) {
    KernelDesc d;
    d.name = name;
    d.gemm = {m, n, k};
    return d;
  }

  static KernelDesc elementwise(OpName name, std::int64_t bytes) {
    KernelDesc d;
    d.name = name;
    d.elementwise_bytes = bytes;
    return d;
  }

  KernelDesc attention(OpName name) const {
    KernelDesc d;
    d.name = name;
    d.attn_batch = config_.microbatch_size;
    d.attn_heads = model_.num_heads / config_.tp;
    d.attn_seq = model_.seq_len;
    d.attn_head_dim = model_.head_dim;
    return d;
  }

  /// A kernel on the compute stream, launched from `tid`.
  void compute(std::int32_t tid, KernelDesc desc) {
    kernel(tid, desc, lanes::kComputeStream);
  }
  /// A framework op on `tid` followed by its compute-stream kernel.
  void op(std::int32_t tid, OpName name, KernelDesc desc) {
    cpu(tid, name);
    compute(tid, std::move(desc));
  }

  /// TP all-reduce with full event-sync choreography: the NCCL stream waits
  /// for compute, and subsequent compute waits for the collective.
  void tp_allreduce(std::int32_t tid, std::int64_t bytes) {
    if (config_.tp <= 1) return;
    record_wait(tid, lanes::kComputeStream, lanes::kTpStream);
    cpu(tid, op_name("c10d::allreduce_"));
    comm_kernel(tid, op_name("ncclDevKernel_AllReduce_Sum_bf16_RING"),
                CommOp::AllReduce, tp_group_, tp_instance_++,
                lanes::kTpStream, [&](const Communicators& c) {
                  return CollectiveDesc{cost::CollectiveKind::AllReduce,
                                        bytes, config_.tp, c.tp};
                });
    record_wait(tid, lanes::kTpStream, lanes::kComputeStream);
  }

  /// Pipeline point-to-point. Group names pair sender and receiver:
  /// "pp_<dir>_s<from>to<to>_tp<t>_dp<d>_mb<m>".
  void p2p(std::int32_t tid, bool send, bool forward_dir,
           std::int32_t from_stage, std::int32_t to_stage,
           std::int32_t microbatch) {
    const std::uint32_t group = ctx_.group(
        forward_dir ? "pp_fwd_s" : "pp_bwd_s", from_stage, "to", to_stage,
        "_tp", tp_rank_, "_dp", kDpRank, "_mb", microbatch);
    const std::int64_t stream =
        send ? lanes::kPpSendStream : lanes::kPpRecvStream;
    if (send) {
      // The payload must exist before the send kernel may run.
      record_wait(tid, lanes::kComputeStream, stream);
    }
    cpu(tid, send ? op_name("c10d::send") : op_name("c10d::recv"));
    // Group names are unique per transfer, so every instance is 0.
    comm_kernel(tid, op_name("ncclDevKernel_SendRecv"),
                send ? CommOp::Send : CommOp::Recv, group, 0, stream,
                [&](const Communicators& c) {
                  return CollectiveDesc{
                      cost::CollectiveKind::SendRecv,
                      tokens() * model_.d_model * dtype_bytes(), 2, c.pp};
                });
    if (!send) {
      // Compute consumes the received tensor.
      record_wait(tid, stream, lanes::kComputeStream);
    }
  }

  void embedding_forward(std::int32_t microbatch) {
    begin_block(Block::Embed, -1, Phase::Forward, microbatch);
    const std::int64_t act_bytes = tokens() * model_.d_model * dtype_bytes();
    op(lanes::kMainThread, op_name("aten::embedding"),
       elementwise(op_name("embedding_dense_kernel"), 2 * act_bytes));
  }

  void embedding_backward() {
    begin_block(Block::Embed, -1, Phase::Backward, microbatch_);
    const std::int64_t act_bytes = tokens() * model_.d_model * dtype_bytes();
    op(lanes::kAutogradThread, op_name("autograd::EmbeddingBackward0"),
       elementwise(op_name("embedding_backward_kernel"), 3 * act_bytes));
  }

  void head_forward(std::int32_t microbatch) {
    begin_block(Block::Head, -1, Phase::Forward, microbatch);
    const std::int64_t T = tokens();
    const std::int64_t d = model_.d_model;
    const std::int64_t vshard = model_.vocab_size / config_.tp;
    const std::int32_t tid = lanes::kMainThread;
    op(tid, op_name("aten::native_layer_norm"),
       elementwise(op_name("layer_norm_fwd_kernel"),
                   3 * T * d * dtype_bytes()));
    op(tid, op_name("aten::linear"),
       gemm(op_name("sm90_xmma_gemm_bf16_lm_head"), T, vshard, d));
    op(tid, op_name("aten::log_softmax"),
       elementwise(op_name("vocab_parallel_cross_entropy_kernel"),
                   3 * T * vshard * dtype_bytes()));
    // Vocab-parallel loss reduction (small TP all-reduce of per-token loss).
    tp_allreduce(tid, T * 4);
  }

  void head_backward() {
    begin_block(Block::Head, -1, Phase::Backward, microbatch_);
    const std::int64_t T = tokens();
    const std::int64_t d = model_.d_model;
    const std::int64_t vshard = model_.vocab_size / config_.tp;
    const std::int32_t tid = lanes::kAutogradThread;
    op(tid, op_name("autograd::NllLossBackward0"),
       elementwise(op_name("cross_entropy_backward_kernel"),
                   3 * T * vshard * dtype_bytes()));
    op(tid, op_name("autograd::MmBackward0"),
       gemm(op_name("sm90_xmma_gemm_bf16_lm_head_dgrad"), T, d, vshard));
    compute(tid, gemm(op_name("sm90_xmma_gemm_bf16_lm_head_wgrad"), d, vshard,
                      T));
    op(tid, op_name("autograd::NativeLayerNormBackward0"),
       elementwise(op_name("layer_norm_bwd_kernel"),
                   4 * T * d * dtype_bytes()));
  }

  void forward_layer(std::int32_t layer, std::int32_t microbatch) {
    begin_block(Block::Layer, layer, Phase::Forward, microbatch);
    const std::int64_t T = tokens();
    const std::int64_t d = model_.d_model;
    const std::int64_t ff_shard = model_.d_ff / config_.tp;
    const std::int64_t d_shard = d / config_.tp;
    const std::int64_t act = T * d * dtype_bytes();
    const std::int32_t tid = lanes::kMainThread;

    op(tid, op_name("aten::native_layer_norm"),
       elementwise(op_name("layer_norm_fwd_kernel"), 3 * act));
    op(tid, op_name("aten::linear"),
       gemm(op_name("sm90_xmma_gemm_bf16_qkv"), T, 3 * d_shard, d));
    op(tid, op_name("aten::scaled_dot_product_attention"),
       attention(op_name("flash_fwd_kernel")));
    op(tid, op_name("aten::linear"),
       gemm(op_name("sm90_xmma_gemm_bf16_attn_proj"), T, d, d_shard));
    tp_allreduce(tid, act);
    op(tid, op_name("aten::add_"),
       elementwise(op_name("vectorized_elementwise_kernel"), 3 * act));

    op(tid, op_name("aten::native_layer_norm"),
       elementwise(op_name("layer_norm_fwd_kernel"), 3 * act));
    op(tid, op_name("aten::linear"),
       gemm(op_name("sm90_xmma_gemm_bf16_fc1"), T, ff_shard, d));
    op(tid, op_name("aten::gelu"),
       elementwise(op_name("gelu_forward_kernel"),
                   2 * T * ff_shard * dtype_bytes()));
    op(tid, op_name("aten::linear"),
       gemm(op_name("sm90_xmma_gemm_bf16_fc2"), T, d, ff_shard));
    tp_allreduce(tid, act);
    op(tid, op_name("aten::add_"),
       elementwise(op_name("vectorized_elementwise_kernel"), 3 * act));
  }

  void backward_layer(std::int32_t layer, std::int32_t microbatch) {
    begin_block(Block::Layer, layer, Phase::Backward, microbatch);
    const std::int64_t T = tokens();
    const std::int64_t d = model_.d_model;
    const std::int64_t ff_shard = model_.d_ff / config_.tp;
    const std::int64_t d_shard = d / config_.tp;
    const std::int64_t act = T * d * dtype_bytes();
    const std::int32_t tid = lanes::kAutogradThread;

    op(tid, op_name("autograd::AddBackward0"),
       elementwise(op_name("vectorized_elementwise_kernel"), 2 * act));
    op(tid, op_name("autograd::MmBackward0"),  // fc2
       gemm(op_name("sm90_xmma_gemm_bf16_fc2_dgrad"), T, ff_shard, d));
    compute(tid,
            gemm(op_name("sm90_xmma_gemm_bf16_fc2_wgrad"), d, ff_shard, T));
    op(tid, op_name("autograd::GeluBackward0"),
       elementwise(op_name("gelu_backward_kernel"),
                   3 * T * ff_shard * dtype_bytes()));
    op(tid, op_name("autograd::MmBackward0"),  // fc1
       gemm(op_name("sm90_xmma_gemm_bf16_fc1_dgrad"), T, d, ff_shard));
    compute(tid,
            gemm(op_name("sm90_xmma_gemm_bf16_fc1_wgrad"), d, ff_shard, T));
    tp_allreduce(tid, act);
    op(tid, op_name("autograd::NativeLayerNormBackward0"),
       elementwise(op_name("layer_norm_bwd_kernel"), 4 * act));
    op(tid, op_name("autograd::FlashAttentionBackward0"),
       attention(op_name("flash_bwd_kernel")));
    op(tid, op_name("autograd::MmBackward0"),  // attn out projection
       gemm(op_name("sm90_xmma_gemm_bf16_attn_dgrad"), T, d_shard, d));
    compute(tid,
            gemm(op_name("sm90_xmma_gemm_bf16_attn_wgrad"), d_shard, d, T));
    op(tid, op_name("autograd::MmBackward0"),  // qkv
       gemm(op_name("sm90_xmma_gemm_bf16_qkv_dgrad"), T, d, 3 * d_shard));
    compute(tid,
            gemm(op_name("sm90_xmma_gemm_bf16_qkv_wgrad"), d, 3 * d_shard, T));
    tp_allreduce(tid, act);
    op(tid, op_name("autograd::NativeLayerNormBackward0"),
       elementwise(op_name("layer_norm_bwd_kernel"), 4 * act));
  }

  /// One DP gradient bucket: reducer hook on the autograd thread launches
  /// an all-reduce on the DP stream after the bucket's grads are ready.
  void dp_bucket_allreduce(std::int64_t param_elems, std::int32_t bucket) {
    // The bucket index rides in the layer field so each bucket forms a
    // distinct block instance for template extraction.
    begin_block(Block::Dp, bucket, Phase::Backward, -1);
    record_wait(lanes::kAutogradThread, lanes::kComputeStream,
                lanes::kDpStream);
    cpu(lanes::kAutogradThread, op_name("c10d::allreduce_"));
    comm_kernel(lanes::kAutogradThread,
                op_name("ncclDevKernel_AllReduce_Sum_bf16_RING"),
                CommOp::AllReduce, dp_group_, dp_instance_++,
                lanes::kDpStream, [&](const Communicators& c) {
                  return CollectiveDesc{cost::CollectiveKind::AllReduce,
                                        param_elems * dtype_bytes(),
                                        c.config->dp, c.dp};
                });
  }

  void forward_pass(std::int32_t microbatch) {
    begin_block(Block::Sched, -1, Phase::Forward, microbatch);
    cpu(lanes::kMainThread, op_name("megatron::forward_step"));
    if (stage_ > 0) {
      begin_block(Block::Pp, -1, Phase::Forward, microbatch);
      p2p(lanes::kMainThread, /*send=*/false, /*forward_dir=*/true,
          stage_ - 1, stage_, microbatch);
    }
    if (stage_ == 0) embedding_forward(microbatch);
    const std::int32_t layers_per_stage = model_.num_layers / config_.pp;
    for (std::int32_t i = 0; i < layers_per_stage; ++i) {
      forward_layer(stage_ * layers_per_stage + i, microbatch);
    }
    if (stage_ == config_.pp - 1) {
      head_forward(microbatch);
    } else {
      begin_block(Block::Pp, -1, Phase::Forward, microbatch);
      p2p(lanes::kMainThread, /*send=*/true, /*forward_dir=*/true, stage_,
          stage_ + 1, microbatch);
    }
  }

  void backward_pass(std::int32_t microbatch) {
    begin_block(Block::Sched, -1, Phase::Backward, microbatch);
    cpu(lanes::kMainThread, op_name("megatron::backward_step"));
    if (stage_ < config_.pp - 1) {
      begin_block(Block::Pp, -1, Phase::Backward, microbatch);
      p2p(lanes::kMainThread, /*send=*/false, /*forward_dir=*/false,
          stage_ + 1, stage_, microbatch);
    }
    // Main thread dispatches into the autograd engine; the first autograd
    // op of this segment waits on the dispatch (InterThread dependency).
    begin_block(Block::Sched, -1, Phase::Backward, microbatch);
    pending_thread_dep_[thread_slot(lanes::kAutogradThread)] =
        cpu(lanes::kMainThread, op_name("torch::autograd::backward"));

    if (stage_ == config_.pp - 1) head_backward();
    const std::int32_t layers_per_stage = model_.num_layers / config_.pp;
    const bool last_microbatch = microbatch == config_.microbatches() - 1;
    std::int32_t layers_in_bucket = 0;
    std::int64_t bucket_params = 0;
    std::int32_t bucket_index = 0;
    for (std::int32_t i = layers_per_stage - 1; i >= 0; --i) {
      backward_layer(stage_ * layers_per_stage + i, microbatch);
      if (last_microbatch) {
        ++layers_in_bucket;
        bucket_params += model_.params_per_layer() / config_.tp;
        if (layers_in_bucket == options_.bucket_layers || i == 0) {
          // Embedding / LM-head grads join the final bucket of their stage.
          if (i == 0 && stage_ == 0) {
            bucket_params +=
                (model_.vocab_size + model_.seq_len) * model_.d_model /
                config_.tp;
          }
          if (i == 0 && stage_ == config_.pp - 1) {
            bucket_params += model_.vocab_size * model_.d_model / config_.tp;
          }
          dp_bucket_allreduce(bucket_params, bucket_index++);
          layers_in_bucket = 0;
          bucket_params = 0;
        }
      }
    }
    if (stage_ == 0) embedding_backward();

    // Main thread resumes once the autograd segment drains.
    if (const TaskId last = last_cpu_[thread_slot(lanes::kAutogradThread)];
        last != kInvalidTask) {
      pending_thread_dep_[thread_slot(lanes::kMainThread)] = last;
    }
    if (stage_ > 0) {
      begin_block(Block::Pp, -1, Phase::Backward, microbatch);
      p2p(lanes::kMainThread, /*send=*/true, /*forward_dir=*/false, stage_,
          stage_ - 1, microbatch);
    }
  }

  void optimizer_epilogue() {
    // All DP buckets must land before gradient clipping / optimizer: a
    // blocking stream sync, whose wait is a *runtime* dependency the
    // simulator resolves.
    begin_block(Block::Opt, -1, Phase::Optimizer, -1);
    cpu(lanes::kMainThread, op_name("cudaStreamSynchronize"),
        EventCategory::CudaRuntime, lanes::kDpStream);

    // Global grad-norm: local reduction + all-reduce across the model-
    // parallel group (synchronizes all pipeline stages and TP ranks).
    begin_block(Block::Norm, -1, Phase::Optimizer, -1);
    const std::int64_t params =
        model_.params_per_rank(config_.tp, config_.pp, stage_);
    op(lanes::kMainThread, op_name("megatron::clip_grad_norm"),
       elementwise(op_name("multi_tensor_l2norm_kernel"),
                   params * dtype_bytes()));
    record_wait(lanes::kMainThread, lanes::kComputeStream, lanes::kTpStream);
    cpu(lanes::kMainThread, op_name("c10d::allreduce_"));
    comm_kernel(lanes::kMainThread,
                op_name("ncclDevKernel_AllReduce_Sum_f32_RING"),
                CommOp::AllReduce, ctx_.group("mp_dp", kDpRank), 0,
                lanes::kTpStream, [](const Communicators& comms) {
                  const ParallelConfig& c = *comms.config;
                  cost::CommPlacement placement;
                  placement.group_size = c.tp * c.pp;
                  placement.nodes_spanned = std::max<std::int32_t>(
                      1, c.tp * c.pp * c.dp / c.gpus_per_node);
                  return CollectiveDesc{cost::CollectiveKind::AllReduce, 8,
                                        c.tp * c.pp, placement};
                });
    record_wait(lanes::kMainThread, lanes::kTpStream, lanes::kComputeStream);

    // Fused Adam over the stage's parameter shard, in chunks the way
    // multi_tensor_apply launches.
    begin_block(Block::Opt, -1, Phase::Optimizer, -1);
    cpu(lanes::kMainThread, op_name("Optimizer.step#Adam.step"));
    constexpr std::int32_t kAdamChunks = 4;
    for (std::int32_t c = 0; c < kAdamChunks; ++c) {
      compute(lanes::kMainThread,
              elementwise(op_name("multi_tensor_apply_kernel_adam"),
                          params / kAdamChunks * 28));
    }
    cpu(lanes::kMainThread, op_name("Optimizer.zero_grad#Adam.zero_grad"));
    KernelDesc memset =
        elementwise(op_name("Memset (Device)"), params * dtype_bytes());
    kernel(lanes::kMainThread, memset, lanes::kComputeStream,
           EventCategory::Memset);
    cpu(lanes::kMainThread, op_name("cudaDeviceSynchronize"),
        EventCategory::CudaRuntime);
  }

  BuildContext& ctx_;
  ExecutionGraph& graph_;
  DurationProvider& provider_;
  const ModelSpec& model_;
  const ParallelConfig& config_;
  const BuildOptions& options_;
  std::int32_t stage_;
  std::int32_t tp_rank_;
  std::int32_t rank_;
  std::int32_t layers_per_stage_;
  std::int32_t microbatch_slots_;

  // annotation context
  Block block_ = Block::Sched;
  std::int32_t layer_ = -1;
  Phase phase_ = Phase::Forward;
  std::int32_t microbatch_ = -1;

  // per-rank construction state
  std::vector<Communicators> comms_;  ///< the leader's first
  std::int64_t seq_ = 0;
  std::int64_t next_correlation_ = 1;
  std::int64_t next_cuda_event_ = 1;
  std::array<TaskId, kThreads> last_cpu_;
  std::array<TaskId, kThreads> pending_thread_dep_;
  std::array<TaskId, kStreams> last_kernel_;
  std::array<std::vector<TaskId>, kStreams> pending_waits_;
  std::uint32_t tp_group_;
  std::uint32_t dp_group_;
  std::int64_t tp_instance_ = 0;
  std::int64_t dp_instance_ = 0;
  /// (block, phase, layer, microbatch) instance -> (next cpu ordinal, next
  /// kernel ordinal); mirrors template extraction's counters.
  std::vector<std::pair<std::int32_t, std::int32_t>> ordinals_;
  std::size_t ordinal_slot_ = 0;
};

}  // namespace

IterationGraphBuilder::IterationGraphBuilder(
    ModelSpec model, ParallelConfig config, DurationProvider& provider,
    BuildOptions options, std::vector<std::int32_t> sibling_dps)
    : model_(std::move(model)),
      config_(config),
      provider_(provider),
      options_(options),
      sibling_dps_(std::move(sibling_dps)) {}

BuiltJob IterationGraphBuilder::build() {
  std::vector<Placement> placements{Placement(config_)};
  for (std::int32_t dp : sibling_dps_) {
    ParallelConfig sibling = config_;
    sibling.dp = dp;
    placements.emplace_back(sibling);
  }
  for (const Placement& p : placements) {
    if (std::string err = p.config().validate(model_); !err.empty()) {
      throw std::invalid_argument("IterationGraphBuilder: " + err);
    }
  }
  BuiltJob job;
  job.model = model_;
  job.config = config_;
  job.options = options_;
  BuildContext ctx(job.graph, std::move(placements));
  for (std::int32_t stage = 0; stage < config_.pp; ++stage) {
    for (std::int32_t t = 0; t < config_.tp; ++t) {
      RankBuilder rank(ctx, provider_, model_, config_, options_, stage, t);
      rank.build();
      if (stage == 0 && t == 0) {
        // Ranks differ only in their boundary work (embedding, head, p2p),
        // so the first rank sizes the rest; the slack covers the boundary
        // stages, and capacity never touched costs no memory.
        const std::size_t ranks =
            static_cast<std::size_t>(config_.tp) * config_.pp;
        job.graph.reserve(job.graph.size() * ranks * 5 / 4,
                          job.graph.edges().size() * ranks * 5 / 4);
      }
    }
  }
  // Build-time classification: materialize the columnar metadata from the
  // id columns before the job is handed out.
  job.graph.finalize();
  const std::span<const std::int64_t> leader = job.graph.events().dur_column();
  job.sibling_durations.assign(
      sibling_dps_.size(),
      std::vector<std::int64_t>(leader.begin(), leader.end()));
  for (const BuildContext::SiblingDuration& d : ctx.sibling_durations) {
    job.sibling_durations[d.sibling][static_cast<std::size_t>(d.task)] = d.ns;
  }
  return job;
}

}  // namespace lumos::workload
