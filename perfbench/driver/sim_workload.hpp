// The benchmark driver's calls into src/sim, kept in one place.
//
// SimWorkload makes the public calls scenario::run_scenario makes for a DAG
// workload, in the same order: the dataset preset, the simulator (genesis +
// register_client), one step per series unit, periodic checkpoints, the
// store drain. The round simulator and the event-driven simulator are hidden
// behind one step_unit(), so a change that merges the two simulators only
// has to follow here.
//
// Only the spec features the benchmark workloads use are mirrored; a spec
// with dynamics, attacks or a baseline algorithm is rejected rather than run
// differently from the runner. The benchmark compares this path's series
// against `specdag run` on the same seed, so any drift from the runner fails
// the run.
#pragma once

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/attacks.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/async_simulator.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "snapshot/checkpoint.hpp"

namespace perfbench {

namespace scenario = specdag::scenario;
namespace sim = specdag::sim;

inline void require_supported(const scenario::ScenarioSpec& spec) {
  if (spec.algorithm != scenario::AlgorithmKind::kDag || spec.dynamics.any() ||
      spec.attacks.any() || spec.community_metrics_every != 0 || spec.evaluate_consensus ||
      spec.record_client_accuracies || spec.visibility_delay_rounds != 0) {
    throw std::invalid_argument("perfdriver: spec \"" + spec.name +
                                "\" uses a feature the traced driver does not mirror");
  }
}

// The runner's preset construction: the registry preset for the dataset,
// regenerated with the spec's client/sample counts when it overrides them.
inline sim::ExperimentPreset build_preset(const scenario::ScenarioSpec& spec) {
  using scenario::DatasetPreset;
  const sim::PresetOptions options{spec.seed, spec.paper_scale};
  sim::ExperimentPreset preset;
  switch (spec.dataset) {
    case DatasetPreset::kFmnistClustered: preset = sim::fmnist_clustered_preset(options); break;
    case DatasetPreset::kFmnistRelaxed: preset = sim::fmnist_relaxed_preset(options); break;
    case DatasetPreset::kFmnistByAuthor: preset = sim::fmnist_by_author_preset(options); break;
    case DatasetPreset::kPoets: preset = sim::poets_preset(options); break;
    case DatasetPreset::kCifar: preset = sim::cifar_preset(options); break;
    case DatasetPreset::kFedproxSynthetic: preset = sim::fedprox_synthetic_preset(options); break;
  }
  if (spec.num_clients > 0 || spec.samples_per_client > 0) {
    if (spec.dataset == DatasetPreset::kFedproxSynthetic) {
      specdag::data::FedProxSyntheticConfig config;
      config.seed = spec.seed;
      if (spec.num_clients > 0) config.num_clients = spec.num_clients;
      preset.dataset = specdag::data::make_fedprox_synthetic(config);
    } else {
      specdag::data::SyntheticDigitsConfig config;
      config.seed = spec.seed;
      if (spec.dataset == DatasetPreset::kFmnistRelaxed) {
        config.relax_min = 0.15;
        config.relax_max = 0.20;
      }
      if (spec.num_clients > 0) config.num_clients = spec.num_clients;
      if (spec.samples_per_client > 0) config.samples_per_client = spec.samples_per_client;
      preset.dataset = spec.dataset == DatasetPreset::kFmnistByAuthor
                           ? specdag::data::make_fmnist_by_author(config)
                           : specdag::data::make_fmnist_clustered(config);
    }
  }
  return preset;
}

class SimWorkload {
 public:
  // Builds the simulator the runner would build for `spec` (genesis and one
  // register_client per dataset client happen here).
  SimWorkload(const scenario::ScenarioSpec& spec, sim::ExperimentPreset preset)
      : spec_(spec),
        factory_(preset.factory),
        attacks_(spec.attacks, spec.seed, preset.dataset.clients.size()) {
    require_supported(spec);
    if (spec.simulator == scenario::SimKind::kRound) {
      sim::SimulatorConfig config;
      config.client = spec.client;
      config.rounds = spec.rounds;
      config.clients_per_round = std::min(spec.clients_per_round, preset.dataset.clients.size());
      config.parallel_prepare = spec.parallel_prepare;
      config.threads = spec.threads;
      config.seed = spec.seed;
      config.store = spec.store;
      config.keep_history = false;
      round_ = std::make_unique<sim::DagSimulator>(std::move(preset.dataset), preset.factory,
                                                   config);
    } else {
      sim::AsyncSimulatorConfig config;
      config.client = spec.client;
      config.broadcast_latency = spec.broadcast_latency;
      config.seed = spec.seed;
      config.threads = spec.parallel_prepare ? spec.threads : 1;
      config.store = spec.store;
      async_ = std::make_unique<sim::AsyncDagSimulator>(std::move(preset.dataset), preset.factory,
                                                        config);
    }
    previous_dag_size_ = network().dag().size();
  }

  // Runs series unit `unit` (0-based): one round of the round simulator, or
  // virtual time up to unit + 1 on the event-driven one. Returns the series
  // point the runner records for it.
  scenario::ScenarioPoint step_unit(std::size_t unit) {
    scenario::ScenarioPoint point;
    point.round = unit + 1;
    if (round_) {
      const sim::RoundRecord& record = round_->run_round();
      point.mean_accuracy = record.mean_trained_accuracy();
      point.mean_loss = record.mean_trained_loss();
      point.publishes = record.publish_count();
      point.mean_walk_seconds = record.mean_walk_seconds();
      double evals = 0.0;
      for (const auto& r : record.results) evals += static_cast<double>(r.walk_stats.evaluations);
      if (!record.results.empty()) {
        point.mean_walk_evaluations = evals / static_cast<double>(record.results.size());
      }
      point.active_clients = round_->active_client_count();
    } else {
      const std::vector<sim::AsyncStepRecord> records =
          async_->run_until(static_cast<double>(unit + 1));
      if (!records.empty()) {
        double acc = 0.0, loss = 0.0, walk_seconds = 0.0, walk_evals = 0.0;
        for (const auto& record : records) {
          acc += record.result.trained_eval.accuracy;
          loss += record.result.trained_eval.loss;
          walk_seconds += record.result.walk_stats.seconds;
          walk_evals += static_cast<double>(record.result.walk_stats.evaluations);
        }
        const auto n = static_cast<double>(records.size());
        point.mean_accuracy = acc / n;
        point.mean_loss = loss / n;
        point.mean_walk_seconds = walk_seconds / n;
        point.mean_walk_evaluations = walk_evals / n;
      }
      point.publishes = network().dag().size() - previous_dag_size_;
      point.active_clients = async_->active_client_count();
    }
    point.dag_size = network().dag().size();
    previous_dag_size_ = point.dag_size;
    return point;
  }

  // Whether the runner writes a checkpoint after `completed` units.
  bool checkpoint_due(std::size_t completed) const {
    const scenario::CheckpointSpec& checkpoint = spec_.checkpoint;
    return checkpoint.enabled() && completed % checkpoint.every_n_rounds == 0;
  }

  // Writes the checkpoint due after `completed` units the way the runner
  // does (then prunes to keep_last). Returns the written path.
  std::string write_checkpoint(std::size_t completed, const scenario::ScenarioResult& partial) {
    const scenario::CheckpointSpec& checkpoint = spec_.checkpoint;
    std::filesystem::create_directories(checkpoint.dir);
    const std::string path = specdag::snapshot::checkpoint_path(checkpoint.dir, completed);
    if (round_) {
      specdag::snapshot::write_checkpoint(path, spec_, completed, partial, *round_, attacks_);
    } else {
      specdag::snapshot::write_checkpoint(path, spec_, completed, partial, *async_, attacks_);
    }
    specdag::snapshot::prune_checkpoints(checkpoint.dir, checkpoint.keep_last);
    return path;
  }

  specdag::core::SpecializingDag& network() { return round_ ? round_->network() : async_->network(); }
  const specdag::data::FederatedDataset& dataset() const {
    return round_ ? round_->dataset() : async_->dataset();
  }
  const sim::PhaseTimings& perf() const { return round_ ? round_->perf() : async_->perf(); }
  const specdag::nn::ModelFactory& factory() const { return factory_; }

 private:
  scenario::ScenarioSpec spec_;
  specdag::nn::ModelFactory factory_;
  scenario::AttackController attacks_;
  std::unique_ptr<sim::DagSimulator> round_;
  std::unique_ptr<sim::AsyncDagSimulator> async_;
  std::size_t previous_dag_size_ = 0;
};

}  // namespace perfbench
