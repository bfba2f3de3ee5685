// Tests for model specs (paper Tables 1 & 2), parallelism placement,
// pipeline schedules, and the iteration graph builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>

#include "cluster/ground_truth.h"
#include "core/graph_manipulator.h"
#include "core/trace_parser.h"
#include "costmodel/kernel_model.h"
#include "io/fnv.h"
#include "test_util.h"
#include "workload/analytical_provider.h"
#include "workload/graph_builder.h"
#include "workload/model_spec.h"
#include "workload/parallelism.h"
#include "workload/schedule.h"

namespace lumos::workload {
namespace {

// ---------------------------------------------------------------------------
// Model specs (Tables 1 & 2)
// ---------------------------------------------------------------------------

TEST(ModelSpec, Table1Architectures) {
  const ModelSpec m15 = ModelSpec::gpt3_15b();
  EXPECT_EQ(m15.num_layers, 48);
  EXPECT_EQ(m15.d_model, 6144);
  EXPECT_EQ(m15.d_ff, 12288);
  EXPECT_EQ(m15.num_heads, 48);
  EXPECT_EQ(m15.head_dim, 128);

  const ModelSpec m175 = ModelSpec::gpt3_175b();
  EXPECT_EQ(m175.num_layers, 96);
  EXPECT_EQ(m175.d_model, 12288);
  EXPECT_EQ(m175.d_ff, 49152);
  EXPECT_EQ(m175.num_heads, 96);
  EXPECT_EQ(m175.head_dim, 128);
}

TEST(ModelSpec, ParamCountsMatchNominalSizes) {
  // The computed parameter count should be within ~15% of the nominal name
  // (the paper's 44B variant is architecturally ~58B; see DESIGN.md).
  EXPECT_NEAR(static_cast<double>(ModelSpec::gpt3_15b().param_count()),
              15e9, 15e9 * 0.10);
  EXPECT_NEAR(static_cast<double>(ModelSpec::gpt3_117b().param_count()),
              117e9, 117e9 * 0.10);
  EXPECT_NEAR(static_cast<double>(ModelSpec::gpt3_175b().param_count()),
              175e9, 175e9 * 0.10);
}

TEST(ModelSpec, Table2VariantsDeriveFrom15B) {
  const ModelSpec base = ModelSpec::gpt3_15b();
  EXPECT_EQ(ModelSpec::gpt3_v1().num_layers, 64);
  EXPECT_EQ(ModelSpec::gpt3_v1().d_model, base.d_model);
  EXPECT_EQ(ModelSpec::gpt3_v2().num_layers, 96);
  EXPECT_EQ(ModelSpec::gpt3_v3().d_model, 9216);
  EXPECT_EQ(ModelSpec::gpt3_v3().num_layers, base.num_layers);
  EXPECT_EQ(ModelSpec::gpt3_v4().d_model, 12288);
  // V4 matches the 44B architecture (paper Table 2).
  EXPECT_EQ(ModelSpec::gpt3_v4().d_model, ModelSpec::gpt3_44b().d_model);
  EXPECT_EQ(ModelSpec::gpt3_v4().d_ff, ModelSpec::gpt3_44b().d_ff);
}

TEST(ModelSpec, StageParamsSumToTotal) {
  const ModelSpec m = ModelSpec::gpt3_15b();
  const std::int32_t tp = 2, pp = 4;
  std::int64_t total = 0;
  for (std::int32_t s = 0; s < pp; ++s) {
    total += m.params_per_rank(tp, pp, s) * tp;
  }
  EXPECT_NEAR(static_cast<double>(total),
              static_cast<double>(m.param_count() + m.vocab_size * m.d_model),
              1e7);  // untied LM head counted once extra
}

// ---------------------------------------------------------------------------
// Parallelism & placement
// ---------------------------------------------------------------------------

TEST(ParallelConfig, LabelFormat) {
  ParallelConfig c;
  c.tp = 8;
  c.pp = 4;
  c.dp = 16;
  EXPECT_EQ(c.label(), "8x4x16");
  EXPECT_EQ(c.world_size(), 512);
}

TEST(ParallelConfig, MicrobatchDefaultIsTwicePp) {
  ParallelConfig c;
  c.pp = 4;
  EXPECT_EQ(c.microbatches(), 8);
  c.num_microbatches = 5;
  EXPECT_EQ(c.microbatches(), 5);
}

TEST(ParallelConfig, ValidationCatchesBadConfigs) {
  const ModelSpec m = ModelSpec::gpt3_15b();  // 48 layers, 48 heads
  ParallelConfig ok;
  ok.tp = 4;
  ok.pp = 4;
  ok.dp = 2;
  EXPECT_EQ(ok.validate(m), "");

  ParallelConfig bad_pp = ok;
  bad_pp.pp = 5;  // 48 % 5 != 0
  EXPECT_NE(bad_pp.validate(m), "");

  ParallelConfig bad_tp = ok;
  bad_tp.tp = 5;  // 48 % 5 != 0
  EXPECT_NE(bad_tp.validate(m), "");

  ParallelConfig tp_too_big = ok;
  tp_too_big.tp = 16;  // exceeds gpus_per_node
  EXPECT_NE(tp_too_big.validate(m), "");
}

TEST(Placement, RankCoordRoundTrip) {
  ParallelConfig c;
  c.tp = 4;
  c.pp = 2;
  c.dp = 8;
  Placement p(c);
  for (std::int32_t r = 0; r < c.world_size(); ++r) {
    EXPECT_EQ(p.global_rank(p.coord(r)), r);
  }
}

TEST(Placement, TpGroupsStayInsideNodes) {
  ParallelConfig c;
  c.tp = 8;
  c.pp = 4;
  c.dp = 4;
  Placement p(c);
  for (std::int32_t r = 0; r < c.world_size(); r += 17) {
    EXPECT_EQ(p.tp_placement(r).nodes_spanned, 1)
        << "tp group of rank " << r << " crosses nodes";
  }
}

TEST(Placement, DpGroupsCrossNodesAtScale) {
  ParallelConfig c;
  c.tp = 8;
  c.pp = 4;
  c.dp = 16;  // 512 GPUs
  Placement p(c);
  EXPECT_EQ(p.dp_placement(0).group_size, 16);
  EXPECT_GT(p.dp_placement(0).nodes_spanned, 1);
}

TEST(Placement, GroupsPartitionTheWorld) {
  ParallelConfig c;
  c.tp = 2;
  c.pp = 2;
  c.dp = 4;
  Placement p(c);
  std::set<std::int32_t> seen;
  for (std::int32_t r = 0; r < c.world_size(); ++r) {
    auto g = p.tp_group(r);
    EXPECT_EQ(g.size(), 2u);
    EXPECT_NE(std::find(g.begin(), g.end(), r), g.end());
    seen.insert(g.begin(), g.end());
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(c.world_size()));
}

// ---------------------------------------------------------------------------
// Pipeline schedules
// ---------------------------------------------------------------------------

TEST(Schedule, GPipeRunsAllForwardsThenAllBackwards) {
  auto s = pipeline_schedule(SchedulePolicy::GPipe, 0, 4, 3);
  EXPECT_EQ(to_string(s), "F0 F1 F2 B0 B1 B2");
}

TEST(Schedule, OneFOneBMatchesMegatronPattern) {
  // 4 stages, 4 micro-batches; stage 0 has 3 warmup forwards.
  EXPECT_EQ(to_string(pipeline_schedule(SchedulePolicy::OneFOneB, 0, 4, 4)),
            "F0 F1 F2 F3 B0 B1 B2 B3");
  // Last stage alternates from the start.
  EXPECT_EQ(to_string(pipeline_schedule(SchedulePolicy::OneFOneB, 3, 4, 4)),
            "F0 B0 F1 B1 F2 B2 F3 B3");
  // Middle stage: warmup of (p - s - 1) forwards.
  EXPECT_EQ(to_string(pipeline_schedule(SchedulePolicy::OneFOneB, 2, 4, 4)),
            "F0 F1 B0 F2 B1 F3 B2 B3");
}

TEST(Schedule, PaperFigure4Example) {
  // Fig. 4: rank 0 of a 4-stage pipeline with 8 micro-batches (2x PP with
  // microbatches = TP*PP): F1 F2 F3 F4 B1 F5 B2 F6 B3 F7 B4 F8 B5 B6 B7 B8
  // (1-indexed in the paper; 0-indexed here).
  EXPECT_EQ(to_string(pipeline_schedule(SchedulePolicy::OneFOneB, 0, 4, 8)),
            "F0 F1 F2 F3 B0 F4 B1 F5 B2 F6 B3 F7 B4 B5 B6 B7");
}

class ScheduleProperties
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ScheduleProperties, EveryMicrobatchForwardThenBackwardOnce) {
  auto [policy_int, stages, microbatches] = GetParam();
  const auto policy = static_cast<SchedulePolicy>(policy_int);
  for (std::int32_t stage = 0; stage < stages; ++stage) {
    auto schedule = pipeline_schedule(policy, stage, stages, microbatches);
    ASSERT_EQ(schedule.size(), static_cast<std::size_t>(2 * microbatches));
    std::set<std::int32_t> fwd_seen, bwd_seen;
    for (const PipelineAction& a : schedule) {
      if (a.kind == PassKind::Forward) {
        // Forward of m must precede backward of m.
        EXPECT_FALSE(bwd_seen.count(a.microbatch));
        EXPECT_TRUE(fwd_seen.insert(a.microbatch).second);
      } else {
        EXPECT_TRUE(fwd_seen.count(a.microbatch));
        EXPECT_TRUE(bwd_seen.insert(a.microbatch).second);
      }
    }
    EXPECT_EQ(fwd_seen.size(), static_cast<std::size_t>(microbatches));
    EXPECT_EQ(bwd_seen.size(), static_cast<std::size_t>(microbatches));
    // Backwards complete in order (required for bucketed DP grads).
    std::int32_t prev = -1;
    for (const PipelineAction& a : schedule) {
      if (a.kind == PassKind::Backward) {
        EXPECT_EQ(a.microbatch, prev + 1);
        prev = a.microbatch;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduleProperties,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(SchedulePolicy::OneFOneB),
                          static_cast<int>(SchedulePolicy::GPipe)),
        ::testing::Values(1, 2, 4, 8, 16),
        ::testing::Values(1, 2, 8, 32)));

TEST(Schedule, InvalidArgumentsThrow) {
  EXPECT_THROW(pipeline_schedule(SchedulePolicy::OneFOneB, 4, 4, 2),
               std::invalid_argument);
  EXPECT_THROW(pipeline_schedule(SchedulePolicy::OneFOneB, -1, 4, 2),
               std::invalid_argument);
  EXPECT_THROW(pipeline_schedule(SchedulePolicy::OneFOneB, 0, 4, 0),
               std::invalid_argument);
}

TEST(Schedule, BubbleFractionFormula) {
  EXPECT_DOUBLE_EQ(ideal_bubble_fraction(1, 8), 0.0);
  EXPECT_DOUBLE_EQ(ideal_bubble_fraction(4, 8), 3.0 / 11.0);
  EXPECT_DOUBLE_EQ(ideal_bubble_fraction(16, 8), 15.0 / 23.0);
}

// ---------------------------------------------------------------------------
// Iteration graph builder
// ---------------------------------------------------------------------------

workload::BuiltJob build_tiny(std::int32_t tp = 2, std::int32_t pp = 2) {
  static cost::KernelPerfModel model;
  static AnalyticalProvider provider(model);
  IterationGraphBuilder builder(testutil::tiny_model(),
                                testutil::tiny_config(tp, pp, 2), provider);
  return builder.build();
}

TEST(GraphBuilder, RejectsInvalidConfig) {
  cost::KernelPerfModel model;
  AnalyticalProvider provider(model);
  ParallelConfig bad = testutil::tiny_config();
  bad.pp = 3;  // 8 layers % 3 != 0
  IterationGraphBuilder builder(testutil::tiny_model(), bad, provider);
  EXPECT_THROW(builder.build(), std::invalid_argument);
}

TEST(GraphBuilder, GraphIsAcyclic) {
  auto job = build_tiny();
  core::TaskId hint = core::kInvalidTask;
  EXPECT_TRUE(job.graph.is_acyclic(&hint)) << "cycle at task " << hint;
}

TEST(GraphBuilder, MaterializesOneReplica) {
  auto job = build_tiny(2, 2);
  EXPECT_EQ(job.graph.ranks().size(), 4u);  // tp*pp
}

TEST(GraphBuilder, EveryRankHasExpectedLanes) {
  auto job = build_tiny(2, 2);
  std::map<std::int32_t, std::set<std::int64_t>> streams;
  std::map<std::int32_t, std::set<std::int64_t>> threads;
  for (const core::Task& t : testutil::task_views(job.graph)) {
    (t.is_gpu() ? streams : threads)[t.processor.rank].insert(
        t.processor.lane);
  }
  for (const auto& [rank, s] : streams) {
    EXPECT_TRUE(s.count(lanes::kComputeStream)) << rank;
    EXPECT_TRUE(s.count(lanes::kTpStream)) << rank;
    EXPECT_TRUE(s.count(lanes::kDpStream)) << rank;
    // pp=2: every stage either sends or receives.
    EXPECT_TRUE(s.count(lanes::kPpSendStream) ||
                s.count(lanes::kPpRecvStream))
        << rank;
  }
  for (const auto& [rank, t] : threads) {
    EXPECT_TRUE(t.count(lanes::kMainThread)) << rank;
    EXPECT_TRUE(t.count(lanes::kAutogradThread)) << rank;
  }
}

TEST(GraphBuilder, ContainsAllDependencyClasses) {
  auto job = build_tiny();
  auto hist = job.graph.edge_type_histogram();
  EXPECT_GT(hist[core::DepType::IntraThread], 0u);
  EXPECT_GT(hist[core::DepType::InterThread], 0u);
  EXPECT_GT(hist[core::DepType::CpuToGpu], 0u);
  EXPECT_GT(hist[core::DepType::IntraStream], 0u);
  EXPECT_GT(hist[core::DepType::InterStream], 0u);
}

TEST(GraphBuilder, EveryKernelHasExactlyOneLaunch) {
  auto job = build_tiny();
  std::map<std::pair<std::int32_t, std::int64_t>, int> launches, kernels;
  for (const core::Task& t : testutil::task_views(job.graph)) {
    if (t.is_gpu()) {
      ++kernels[{t.processor.rank, t.event.correlation}];
    } else if (trace::launches_device_work(t.cuda_api())) {
      ++launches[{t.processor.rank, t.event.correlation}];
    }
  }
  EXPECT_EQ(launches, kernels);
  for (const auto& [key, n] : kernels) EXPECT_EQ(n, 1);
}

TEST(GraphBuilder, LayerCoverageIsComplete) {
  auto job = build_tiny(2, 2);
  const std::int32_t mbs = job.config.microbatches();
  // Each of the 8 layers must appear (forward) exactly mbs times per tp
  // rank of its owning stage.
  std::map<std::int32_t, int> fwd_gemm_count;
  for (const core::Task& t : testutil::task_views(job.graph)) {
    if (t.is_gpu() && t.event.layer >= 0 && t.event.phase == "forward" &&
        t.event.name == "sm90_xmma_gemm_bf16_qkv") {
      ++fwd_gemm_count[t.event.layer];
    }
  }
  ASSERT_EQ(fwd_gemm_count.size(), 8u);
  for (const auto& [layer, count] : fwd_gemm_count) {
    EXPECT_EQ(count, 2 * mbs) << "layer " << layer;  // 2 tp ranks
  }
}

TEST(GraphBuilder, TpAllReducePerLayerAndDirection) {
  auto job = build_tiny(2, 1);
  // tp=2, pp=1: per micro-batch per rank, each layer has 2 forward + 2
  // backward TP all-reduces, plus 1 in the head (loss) block.
  std::map<std::string, int> per_phase;
  for (const core::Task& t : testutil::task_views(job.graph)) {
    if (t.is_collective_kernel() &&
        t.event.collective.group.rfind("tp_", 0) == 0 &&
        t.processor.rank == 0) {
      ++per_phase[t.event.phase];
    }
  }
  const int mbs = job.config.microbatches();
  EXPECT_EQ(per_phase["forward"], mbs * (2 * 8 + 1));
  EXPECT_EQ(per_phase["backward"], mbs * 2 * 8);
}

TEST(GraphBuilder, CollectiveInstancesAlignAcrossTpRanks) {
  auto job = build_tiny(2, 2);
  // For every (group, instance) there must be exactly group-internal
  // member count tasks: tp groups have 2, pp pairs have 2, dp groups 1.
  std::map<std::pair<std::string, std::int64_t>, int> members;
  for (const core::Task& t : testutil::task_views(job.graph)) {
    if (t.is_collective_kernel()) {
      ++members[{t.event.collective.group, t.event.collective.instance}];
    }
  }
  for (const auto& [key, count] : members) {
    const std::string& group = key.first;
    if (group.rfind("tp_", 0) == 0 || group.rfind("pp_", 0) == 0) {
      EXPECT_EQ(count, 2) << group << "#" << key.second;
    } else if (group.rfind("dp_", 0) == 0) {
      EXPECT_EQ(count, 1) << group;
    } else if (group.rfind("mp_", 0) == 0) {
      EXPECT_EQ(count, 4) << group;  // tp*pp ranks
    }
  }
}

TEST(GraphBuilder, DpBucketCountMatchesBucketing) {
  BuildOptions opts;
  opts.bucket_layers = 2;
  cost::KernelPerfModel model;
  AnalyticalProvider provider(model);
  IterationGraphBuilder builder(testutil::tiny_model(),
                                testutil::tiny_config(2, 2, 2), provider,
                                opts);
  auto job = builder.build();
  // 4 layers per stage / 2 per bucket = 2 buckets per rank.
  std::map<std::int32_t, int> buckets_per_rank;
  for (const core::Task& t : testutil::task_views(job.graph)) {
    if (t.is_collective_kernel() &&
        t.event.collective.group.rfind("dp_", 0) == 0) {
      ++buckets_per_rank[t.processor.rank];
    }
  }
  for (const auto& [rank, n] : buckets_per_rank) {
    EXPECT_EQ(n, 2) << "rank " << rank;
  }
}

TEST(GraphBuilder, GradientsAllReducedOnlyOnLastMicrobatch) {
  auto job = build_tiny();
  for (const core::Task& t : testutil::task_views(job.graph)) {
    if (t.is_collective_kernel() &&
        t.event.collective.group.rfind("dp_", 0) == 0) {
      EXPECT_EQ(t.event.block, "dp");
      EXPECT_EQ(t.event.phase, "backward");
    }
  }
}

TEST(GraphBuilder, DeterministicConstruction) {
  auto a = build_tiny();
  auto b = build_tiny();
  ASSERT_EQ(a.graph.size(), b.graph.size());
  ASSERT_EQ(a.graph.edges().size(), b.graph.edges().size());
  for (std::size_t i = 0; i < a.graph.size(); ++i) {
    const auto id = static_cast<core::TaskId>(i);
    EXPECT_EQ(a.graph.task(id).event, b.graph.task(id).event);
  }
}

TEST(GraphBuilder, HeadAndEmbedOnlyOnBoundaryStages) {
  auto job = build_tiny(2, 2);
  Placement placement(job.config);
  for (const core::Task& t : testutil::task_views(job.graph)) {
    const std::int32_t stage = placement.coord(t.processor.rank).pp_rank;
    if (t.event.block == "embed") {
      EXPECT_EQ(stage, 0);
    }
    if (t.event.block == "head") {
      EXPECT_EQ(stage, 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Builder goldens: FNV-1a over every task field and the full edge list of a
// few representative builds. They pin the builders' exact output (task
// order, names, annotations, durations, edges), so any change to how graphs
// are constructed must reproduce these digests bit for bit.
// ---------------------------------------------------------------------------

std::uint64_t graph_digest(const core::ExecutionGraph& g) {
  io::Fnv1a h;
  auto str = [&h](std::string_view s) {
    h.update_pod(static_cast<std::uint64_t>(s.size()));
    h.update(s);
  };
  h.update_pod(static_cast<std::uint64_t>(g.size()));
  for (std::size_t i = 0; i < g.size(); ++i) {
    const core::Task t = g.task(static_cast<core::TaskId>(i));
    const trace::TraceEvent& e = t.event;
    h.update_pod(t.processor.rank);
    h.update_pod(t.processor.gpu);
    h.update_pod(t.processor.lane);
    str(e.name);
    h.update_pod(static_cast<std::uint8_t>(e.cat));
    h.update_pod(e.ts_ns);
    h.update_pod(e.dur_ns);
    h.update_pod(e.pid);
    h.update_pod(e.tid);
    h.update_pod(e.correlation);
    h.update_pod(e.stream);
    h.update_pod(e.cuda_event);
    h.update_pod(e.layer);
    h.update_pod(e.microbatch);
    str(e.phase);
    str(e.block);
    str(e.collective.op);
    str(e.collective.group);
    h.update_pod(e.collective.bytes);
    h.update_pod(e.collective.group_size);
    h.update_pod(e.collective.instance);
    h.update_pod(e.gemm.m);
    h.update_pod(e.gemm.n);
    h.update_pod(e.gemm.k);
    h.update_pod(e.bytes_moved);
  }
  h.update_pod(static_cast<std::uint64_t>(g.edges().size()));
  for (const core::Edge& e : g.edges()) {
    h.update_pod(e.src);
    h.update_pod(e.dst);
    h.update_pod(static_cast<std::uint8_t>(e.type));
  }
  return h.digest();
}

ParallelConfig fig7_base_config() {
  ParallelConfig c;
  c.tp = 2;
  c.pp = 2;
  c.dp = 4;
  return c;
}

TEST(GraphBuilderGolden, Analytical15B2x2x4) {
  cost::KernelPerfModel model{cost::HardwareSpec::h100_cluster()};
  AnalyticalProvider provider(model);
  IterationGraphBuilder builder(ModelSpec::gpt3_15b(), fig7_base_config(),
                                provider);
  const BuiltJob job = builder.build();
  EXPECT_EQ(job.graph.size(), 36364u);
  EXPECT_EQ(job.graph.edges().size(), 50036u);
  EXPECT_EQ(graph_digest(job.graph), 18294517192479413847ULL);
}

TEST(GraphBuilderGolden, AnalyticalTiny) {
  cost::KernelPerfModel model{cost::HardwareSpec::h100_cluster()};
  AnalyticalProvider provider(model);
  IterationGraphBuilder builder(testutil::tiny_model(),
                                testutil::tiny_config(), provider);
  const BuiltJob job = builder.build();
  EXPECT_EQ(job.graph.size(), 6544u);
  EXPECT_EQ(graph_digest(job.graph), 16180813455361219197ULL);
}

TEST(GraphBuilderGolden, TemplateRebuildsFromSeed1Baseline) {
  const ModelSpec model = ModelSpec::gpt3_15b();
  cluster::GroundTruthEngine engine(model, fig7_base_config());
  const cluster::GroundTruthRun run = engine.run_profiled(1);
  const core::ExecutionGraph profiled = core::TraceParser().parse(run.trace);
  EXPECT_EQ(graph_digest(profiled), 6427957038123341176ULL);

  cost::KernelPerfModel kernel_model{cost::HardwareSpec::h100_cluster()};
  core::GraphManipulator manipulator(profiled, model, fig7_base_config(),
                                     kernel_model);
  EXPECT_EQ(manipulator.templates().num_cpu_keys(), 130u);
  EXPECT_EQ(manipulator.templates().num_kernel_keys(), 47u);

  const BuiltJob pp4 = manipulator.with_parallelism(4, 8);
  EXPECT_EQ(pp4.graph.size(), 73384u);
  EXPECT_EQ(graph_digest(pp4.graph), 14606569923102743797ULL);
  EXPECT_EQ(manipulator.templates().fallback_count(), 320u);

  const BuiltJob pp16 = manipulator.with_parallelism(16, 4);
  EXPECT_EQ(pp16.graph.size(), 311040u);
  EXPECT_EQ(graph_digest(pp16.graph), 3024315026119453418ULL);
  // Cumulative over both rebuilds.
  EXPECT_EQ(manipulator.templates().fallback_count(), 9280u);
}

// A DP family rebuilt in one walk: every sibling's duration column is the
// standalone build's at that dp, and everything the compiled program and
// the breakdown read besides durations is the leader's. Fails first if a
// builder change makes graph structure depend on dp.
TEST(GraphBuilderGolden, DpFamilyMatchesStandaloneRebuilds) {
  const ModelSpec model = ModelSpec::gpt3_15b();
  cluster::GroundTruthEngine engine(model, fig7_base_config());
  const core::ExecutionGraph profiled =
      core::TraceParser().parse(engine.run_profiled(1).trace);
  cost::KernelPerfModel kernel_model{cost::HardwareSpec::h100_cluster()};
  core::GraphManipulator manipulator(profiled, model, fig7_base_config(),
                                     kernel_model);
  const std::vector<std::int32_t> siblings = {8, 16, 32};

  for (const std::int32_t pp : {4, 16}) {
    SCOPED_TRACE("pp=" + std::to_string(pp));
    ParallelConfig config = fig7_base_config();
    config.pp = pp;
    const BuiltJob family = manipulator.with_spec(model, config, siblings);
    const core::ExecutionGraph& leader = family.graph;
    EXPECT_EQ(graph_digest(leader),
              graph_digest(manipulator.with_parallelism(pp, 4).graph));
    ASSERT_EQ(family.sibling_durations.size(), siblings.size());

    const core::TaskMetaTable& lm = leader.meta();
    for (std::size_t k = 0; k < siblings.size(); ++k) {
      SCOPED_TRACE("dp=" + std::to_string(siblings[k]));
      const BuiltJob standalone =
          manipulator.with_parallelism(pp, siblings[k]);
      const core::ExecutionGraph& g = standalone.graph;
      ASSERT_EQ(g.size(), leader.size());
      const std::span<const std::int64_t> dur = g.events().dur_column();
      EXPECT_TRUE(std::equal(dur.begin(), dur.end(),
                             family.sibling_durations[k].begin(),
                             family.sibling_durations[k].end()));

      EXPECT_EQ(g.edges(), leader.edges());
      const std::span<const std::int64_t> ts = g.events().ts_column();
      const std::span<const std::int64_t> leader_ts =
          leader.events().ts_column();
      EXPECT_TRUE(std::equal(ts.begin(), ts.end(), leader_ts.begin(),
                             leader_ts.end()));
      const core::TaskMetaTable& m = g.meta();
      std::size_t lane_mismatches = 0;
      for (std::size_t i = 0; i < g.size(); ++i) {
        const auto id = static_cast<core::TaskId>(i);
        if (m.lane(id) != lm.lane(id) ||
            m.lanes().rank_index(m.lane(id)) !=
                lm.lanes().rank_index(lm.lane(id)) ||
            m.group_index(id) != lm.group_index(id)) {
          ++lane_mismatches;
        }
      }
      EXPECT_EQ(lane_mismatches, 0u);
      ASSERT_EQ(m.collective_groups().size(), lm.collective_groups().size());
      for (std::size_t gi = 0; gi < m.collective_groups().size(); ++gi) {
        const core::CollectiveGroupMeta& a = m.collective_groups()[gi];
        const core::CollectiveGroupMeta& b = lm.collective_groups()[gi];
        ASSERT_EQ(m.group_view(a.group), lm.group_view(b.group));
        ASSERT_EQ(a.instance, b.instance);
        ASSERT_EQ(a.members, b.members);
      }
    }
  }
}

}  // namespace
}  // namespace lumos::workload
