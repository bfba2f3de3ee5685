#include "core/graph_manipulator.h"

#include <stdexcept>

namespace lumos::core {

GraphManipulator::GraphManipulator(const ExecutionGraph& profiled,
                                   workload::ModelSpec base_model,
                                   workload::ParallelConfig base_config,
                                   const cost::KernelPerfModel& kernel_model,
                                   workload::BuildOptions build_options)
    : base_model_(std::move(base_model)),
      base_config_(base_config),
      kernel_model_(kernel_model),
      build_options_(build_options),
      provider_(std::make_unique<TemplateProvider>(
          profiled, base_model_, base_config_, kernel_model)) {}

workload::BuiltJob GraphManipulator::rebuild(
    const workload::ModelSpec& model, workload::ParallelConfig config,
    std::vector<std::int32_t> sibling_dps) const {
  workload::IterationGraphBuilder builder(model, config, *provider_,
                                          build_options_,
                                          std::move(sibling_dps));
  return builder.build();
}

workload::BuiltJob GraphManipulator::with_data_parallelism(
    std::int32_t new_dp) const {
  workload::ParallelConfig config = base_config_;
  config.dp = new_dp;
  return rebuild(base_model_, config);
}

workload::BuiltJob GraphManipulator::with_pipeline_parallelism(
    std::int32_t new_pp) const {
  workload::ParallelConfig config = base_config_;
  config.pp = new_pp;
  return rebuild(base_model_, config);
}

workload::BuiltJob GraphManipulator::with_parallelism(
    std::int32_t new_pp, std::int32_t new_dp) const {
  workload::ParallelConfig config = base_config_;
  config.pp = new_pp;
  config.dp = new_dp;
  return rebuild(base_model_, config);
}

workload::BuiltJob GraphManipulator::with_model(
    const workload::ModelSpec& new_model) const {
  return rebuild(new_model, base_config_);
}

workload::BuiltJob GraphManipulator::with_num_layers(
    std::int32_t new_layers) const {
  workload::ModelSpec model = base_model_;
  model.num_layers = new_layers;
  return with_model(model);
}

workload::BuiltJob GraphManipulator::with_hidden_size(
    std::int64_t d_model, std::int64_t d_ff) const {
  return with_model(resized_model(base_model_, d_model, d_ff));
}

workload::ModelSpec GraphManipulator::resized_model(workload::ModelSpec base,
                                                    std::int64_t d_model,
                                                    std::int64_t d_ff) {
  base.d_model = d_model;
  base.d_ff = d_ff;
  base.head_dim = d_model / base.num_heads;
  return base;
}

workload::BuiltJob GraphManipulator::with_tensor_parallelism(
    std::int32_t) const {
  // Matching the paper (§3.4): "We currently do not support modifications
  // to tensor parallelism, as it is typically fixed in practice."
  throw std::invalid_argument(
      "GraphManipulator: tensor-parallelism manipulation is not supported "
      "(see paper §3.4); re-profile with the desired TP degree instead");
}

workload::BuiltJob GraphManipulator::with_spec(
    const workload::ModelSpec& model, workload::ParallelConfig config,
    std::vector<std::int32_t> sibling_dps) const {
  if (config.tp != base_config_.tp) {
    throw std::invalid_argument(
        "GraphManipulator: tensor-parallelism manipulation is not supported "
        "(see paper §3.4); re-profile with the desired TP degree instead");
  }
  return rebuild(model, config, std::move(sibling_dps));
}

}  // namespace lumos::core
