// GraphManipulator & TemplateProvider tests (paper §3.4 / §4.3): generating
// new execution graphs from profiled ones and predicting their performance.
#include <gtest/gtest.h>

#include "analysis/metrics.h"
#include "cluster/ground_truth.h"
#include "core/graph_manipulator.h"
#include "core/simulator.h"
#include "core/template_provider.h"
#include "core/trace_parser.h"
#include "test_util.h"

namespace lumos::core {
namespace {

using testutil::tiny_config;
using testutil::tiny_model;

class ManipulatorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster::GroundTruthEngine engine(tiny_model(), tiny_config(2, 2, 2));
    run_ = std::make_unique<cluster::GroundTruthRun>(engine.run_profiled(21));
    parsed_ = TraceParser().parse(run_->trace);
    manip_ = std::make_unique<GraphManipulator>(
        parsed_, tiny_model(), tiny_config(2, 2, 2), kernel_model_);
  }

  double actual_ms(std::int32_t tp, std::int32_t pp, std::int32_t dp,
                   workload::ModelSpec model = tiny_model()) const {
    cluster::GroundTruthEngine engine(model, tiny_config(tp, pp, dp));
    return static_cast<double>(engine.run_actual(99).iteration_ns) / 1e6;
  }

  cost::KernelPerfModel kernel_model_;
  std::unique_ptr<cluster::GroundTruthRun> run_;
  ExecutionGraph parsed_;
  std::unique_ptr<GraphManipulator> manip_;
};

TEST_F(ManipulatorFixture, TemplateExtractionCoversProfiledKeys) {
  const TemplateProvider& t = manip_->templates();
  EXPECT_GT(t.num_cpu_keys(), 20u);
  EXPECT_GT(t.num_kernel_keys(), 20u);
}

TEST_F(ManipulatorFixture, IdentityRebuildReproducesIterationTime) {
  // Rebuilding the *same* configuration from templates and predicting must
  // land very close to the profiled iteration (the durations are the
  // profiled ones; only jitter averaging differs).
  workload::BuiltJob same = manip_->with_parallelism(2, 2);
  SimResult predicted = replay(same.graph);
  ASSERT_TRUE(predicted.complete());
  const double err = analysis::percent_error(
      static_cast<double>(predicted.makespan_ns),
      static_cast<double>(run_->iteration_ns));
  EXPECT_LT(err, 5.0);
}

TEST_F(ManipulatorFixture, IdentityRebuildPreservesStructure) {
  workload::BuiltJob same = manip_->with_parallelism(2, 2);
  EXPECT_EQ(same.graph.size(), run_->job.graph.size());
  EXPECT_EQ(same.graph.edges().size(), run_->job.graph.edges().size());
}

TEST_F(ManipulatorFixture, DataParallelismChangeKeepsLocalWork) {
  workload::BuiltJob scaled = manip_->with_data_parallelism(8);
  // Same explicit rank count (one replica materialized), same task count.
  EXPECT_EQ(scaled.graph.size(), run_->job.graph.size());
  EXPECT_EQ(scaled.config.dp, 8);
  // Only DP communication durations may change.
  ASSERT_EQ(scaled.graph.size(), run_->job.graph.size());
  for (std::size_t i = 0; i < scaled.graph.size(); ++i) {
    const Task a = run_->job.graph.task(static_cast<TaskId>(i));
    const Task b = scaled.graph.task(static_cast<TaskId>(i));
    ASSERT_EQ(a.event.name, b.event.name);
    if (a.is_collective_kernel() &&
        a.event.collective.group.rfind("dp_", 0) == 0) {
      EXPECT_EQ(b.event.collective.group_size, 8);
    }
  }
}

TEST_F(ManipulatorFixture, LargerDpGroupSlowsDpCollectives) {
  workload::BuiltJob scaled = manip_->with_data_parallelism(16);
  std::int64_t base_dp = 0, scaled_dp = 0;
  for (const Task& t : testutil::task_views(run_->job.graph)) {
    if (t.is_collective_kernel() &&
        t.event.collective.group.rfind("dp_", 0) == 0) {
      base_dp += t.event.dur_ns;
    }
  }
  for (const Task& t : testutil::task_views(scaled.graph)) {
    if (t.is_collective_kernel() &&
        t.event.collective.group.rfind("dp_", 0) == 0) {
      scaled_dp += t.event.dur_ns;
    }
  }
  EXPECT_GT(scaled_dp, base_dp);
}

TEST_F(ManipulatorFixture, PpChangeRestagesLayers) {
  workload::BuiltJob scaled = manip_->with_pipeline_parallelism(4);
  EXPECT_EQ(scaled.config.pp, 4);
  EXPECT_EQ(scaled.graph.ranks().size(), 8u);  // tp*pp = 2*4
  // Every stage now owns 2 of the 8 layers.
  workload::Placement placement(scaled.config);
  std::map<std::int32_t, std::set<std::int32_t>> layers_per_stage;
  for (const Task& t : testutil::task_views(scaled.graph)) {
    if (t.event.layer >= 0 && t.event.block == "layer") {
      layers_per_stage[placement.coord(t.processor.rank).pp_rank].insert(
          t.event.layer);
    }
  }
  ASSERT_EQ(layers_per_stage.size(), 4u);
  for (const auto& [stage, layers] : layers_per_stage) {
    EXPECT_EQ(layers.size(), 2u) << "stage " << stage;
  }
}

TEST_F(ManipulatorFixture, PpChangePredictionTracksActual) {
  workload::BuiltJob scaled = manip_->with_pipeline_parallelism(4);
  SimResult predicted = replay(scaled.graph);
  ASSERT_TRUE(predicted.complete());
  const double err = analysis::percent_error(
      static_cast<double>(predicted.makespan_ns) / 1e6, actual_ms(2, 4, 2));
  EXPECT_LT(err, 15.0);
}

TEST_F(ManipulatorFixture, CombinedScalingPredictionCompletes) {
  workload::BuiltJob scaled = manip_->with_parallelism(4, 8);
  SimResult predicted = replay(scaled.graph);
  EXPECT_TRUE(predicted.complete());
}

TEST_F(ManipulatorFixture, MoreLayersDuplicateTasks) {
  workload::BuiltJob deeper = manip_->with_num_layers(16);
  EXPECT_GT(deeper.graph.size(), run_->job.graph.size());
  std::set<std::int32_t> layers;
  for (const Task& t : testutil::task_views(deeper.graph)) {
    if (t.event.layer >= 0 && t.event.block == "layer") {
      layers.insert(t.event.layer);
    }
  }
  EXPECT_EQ(layers.size(), 16u);
}

TEST_F(ManipulatorFixture, MoreLayersPredictionTracksActual) {
  workload::ModelSpec deeper_model = tiny_model();
  deeper_model.num_layers = 16;
  workload::BuiltJob deeper = manip_->with_num_layers(16);
  SimResult predicted = replay(deeper.graph);
  ASSERT_TRUE(predicted.complete());
  const double err = analysis::percent_error(
      static_cast<double>(predicted.makespan_ns) / 1e6,
      actual_ms(2, 2, 2, deeper_model));
  EXPECT_LT(err, 15.0);
}

TEST_F(ManipulatorFixture, HiddenSizeChangeRescalesGemms) {
  workload::BuiltJob wider = manip_->with_hidden_size(2048, 8192);
  // QKV GEMMs must get ~4x slower (flops scale with d^2 in the
  // compute-bound regime); verify they grew substantially.
  auto mean_gemm = [](const ExecutionGraph& g) {
    double total = 0;
    int n = 0;
    for (const Task& t : testutil::task_views(g)) {
      if (t.event.name == "sm90_xmma_gemm_bf16_qkv") {
        total += static_cast<double>(t.event.dur_ns);
        ++n;
      }
    }
    return total / n;
  };
  EXPECT_GT(mean_gemm(wider.graph), 2.0 * mean_gemm(run_->job.graph));
}

TEST_F(ManipulatorFixture, HiddenSizePredictionTracksActual) {
  workload::ModelSpec wider_model = tiny_model();
  wider_model.d_model = 2048;
  wider_model.d_ff = 8192;
  wider_model.head_dim = 2048 / wider_model.num_heads;
  workload::BuiltJob wider = manip_->with_hidden_size(2048, 8192);
  SimResult predicted = replay(wider.graph);
  ASSERT_TRUE(predicted.complete());
  const double err = analysis::percent_error(
      static_cast<double>(predicted.makespan_ns) / 1e6,
      actual_ms(2, 2, 2, wider_model));
  EXPECT_LT(err, 15.0);
}

TEST_F(ManipulatorFixture, TensorParallelismIsRejected) {
  EXPECT_THROW(manip_->with_tensor_parallelism(4), std::invalid_argument);
}

TEST_F(ManipulatorFixture, InvalidArchitectureIsRejected) {
  workload::ModelSpec bad = tiny_model();
  bad.num_layers = 9;  // not divisible by pp=2
  EXPECT_THROW(manip_->with_model(bad), std::invalid_argument);
}

TEST_F(ManipulatorFixture, FallbackUsedOnlyForUnseenKeys) {
  // Rebuilding the same config must not need the analytical fallback.
  manip_->with_parallelism(2, 2);
  EXPECT_EQ(manip_->templates().fallback_count(), 0u);
}

TEST(TemplateProviderStandalone, FallsBackForUnseenKeys) {
  // A pp=1 profile has no pipeline p2p templates; scaling to pp=2 must
  // fall back to the analytical model for send/recv rather than fail.
  cluster::GroundTruthEngine engine(tiny_model(), tiny_config(2, 1, 2));
  auto run = engine.run_profiled(5);
  ExecutionGraph parsed = TraceParser().parse(run.trace);
  cost::KernelPerfModel km;
  GraphManipulator manip(parsed, tiny_model(), tiny_config(2, 1, 2), km);
  workload::BuiltJob scaled = manip.with_pipeline_parallelism(2);
  EXPECT_GT(manip.templates().fallback_count(), 0u);
  SimResult predicted = replay(scaled.graph);
  EXPECT_TRUE(predicted.complete());
}

TEST(TemplateProviderStandalone, CommTemplatesUseMinimumDuration) {
  // Build a graph with two occurrences of the same collective key with
  // different (wait-inflated) durations; the template must use the min.
  ExecutionGraph g;
  for (std::int64_t dur : {500, 900}) {
    Task t;
    t.processor = {0, true, 13};
    t.event.cat = trace::EventCategory::Kernel;
    t.event.name = "ncclDevKernel_AllReduce_Sum_bf16_RING";
    t.event.block = "layer";
    t.event.phase = "forward";
    t.event.layer = 0;
    t.event.microbatch = dur == 500 ? 0 : 1;
    t.event.dur_ns = dur;
    t.event.collective = {"allreduce", "tp_pp0_dp0", 1024, 2, 0};
    g.add_task(std::move(t));
  }
  cost::KernelPerfModel km;
  TemplateProvider provider(g, tiny_model(), tiny_config(2, 1, 1), km);
  workload::KernelDesc desc;
  desc.name = workload::op_name("ncclDevKernel_AllReduce_Sum_bf16_RING");
  desc.block = workload::Block::Layer;
  desc.phase = workload::Phase::Forward;
  desc.ordinal = 0;
  desc.collective = workload::CollectiveDesc{
      cost::CollectiveKind::AllReduce, 1024, 2,
      {.group_size = 2, .nodes_spanned = 1}};
  EXPECT_EQ(provider.kernel_ns(desc), 500);
}

}  // namespace
}  // namespace lumos::core
