// perfdriver: the in-process half of the specdag benchmark. perfbench/run.py
// drives it; the end-to-end runs go through `specdag run`, timed from outside.
//
//   perfdriver info
//       SIMD backend of the delta codec, whether obs is compiled in, and the
//       hardware thread count, as one JSON line.
//   perfdriver setup --spec FILE --seeds S1,S2,...
//       For each seed: the dataset preset build and the simulator
//       construction (genesis + register_client), timed with tracing off.
//       Passes over the seeds repeat until a second has gone by.
//   perfdriver trace --spec FILE --seed S --out-dir DIR
//       One traced run: the runner's public calls in the runner's order
//       (preset -> simulator -> one step per unit -> checkpoints -> drain ->
//       finalize) with a span around each call, then probes on the final
//       state. Writes DIR/spans.json and DIR/series.jsonl and prints the
//       per-layer metrics as one JSON line.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fl/evaluation.hpp"
#include "fl/trainer.hpp"
#include "metrics/client_graph.hpp"
#include "metrics/community.hpp"
#include "metrics/dag_metrics.hpp"
#include "nn/batch_executor.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "scenario/config.hpp"
#include "sim_workload.hpp"
#include "store/delta_codec.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using specdag::Rng;
using specdag::Timer;
using specdag::scenario::Json;
namespace dag = specdag::dag;
namespace fl = specdag::fl;
namespace metrics = specdag::metrics;
namespace nn = specdag::nn;
namespace obs = specdag::obs;
namespace store = specdag::store;

// ------------------------------------------------------------------ spans ---

// In-memory span log: name, start, end (seconds since the tracer started)
// and the index of the enclosing span (-1 at top level).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

class Tracer {
 public:
  int open(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  double close(int id) {
    spans_[id].end = now();
    stack_.pop_back();
    return spans_[id].end - spans_[id].start;
  }
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name) : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// Duration summed over spans named `name`.
double total_seconds(const std::vector<Span>& spans, const std::string& name) {
  double sum = 0.0;
  for (const Span& span : spans) {
    if (span.name == name) sum += span.end - span.start;
  }
  return sum;
}

// Self time per span name: duration minus the time its children cover.
Json self_seconds_by_name(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end - spans[i].start;
  for (const Span& span : spans) {
    if (span.parent >= 0) self[span.parent] -= span.end - span.start;
  }
  std::vector<std::pair<std::string, double>> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(totals.begin(), totals.end(),
                           [&](const auto& entry) { return entry.first == spans[i].name; });
    if (it == totals.end()) {
      totals.emplace_back(spans[i].name, self[i]);
    } else {
      it->second += self[i];
    }
  }
  Json json = Json::make_object();
  for (const auto& [name, seconds] : totals) json.set(name, seconds);
  return json;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  Json array = Json::make_array();
  for (const Span& span : spans) {
    Json row = Json::make_object();
    row.set("name", span.name);
    row.set("start", span.start);
    row.set("end", span.end);
    row.set("parent", span.parent);
    array.as_array().push_back(std::move(row));
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfdriver: cannot write " + path);
  out << array.dump() << "\n";
}

// ---------------------------------------------------------------- helpers ---

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// The highest percentile with at least ten samples above it, as
// (percentile, value); the median when there are too few samples for one.
std::pair<double, double> tail_percentile(std::vector<double> values) {
  if (values.size() <= 10) return {50.0, median(values)};
  std::sort(values.begin(), values.end());
  const std::size_t rank = values.size() - 11;  // 10 samples lie above it
  return {100.0 * static_cast<double>(rank + 1) / static_cast<double>(values.size()),
          values[rank]};
}

std::uint64_t counter_now(const char* name) { return obs::Registry::snapshot().counter(name); }

scenario::ScenarioSpec load_spec(const std::string& path, std::uint64_t seed) {
  scenario::ScenarioSpec spec = scenario::spec_from_json(Json::parse_file(path));
  spec.seed = seed;
  spec.validate();
  return spec;
}

// ------------------------------------------------------------------ modes ---

int cmd_info() {
  Json json = Json::make_object();
  json.set("simd", std::string(store::delta_codec_backend()));
#ifdef SPECDAG_OBS_DISABLED
  json.set("obs_compiled", false);
#else
  json.set("obs_compiled", true);
#endif
  json.set("hardware_threads", static_cast<int>(std::thread::hardware_concurrency()));
  std::cout << json.dump() << "\n";
  return 0;
}

int cmd_setup(const std::string& spec_path, const std::vector<std::uint64_t>& seeds) {
  // Enough repeats for a steady median even where one set-up is short.
  constexpr double kMinSeconds = 1.0;
  // Tracing off, metrics off: the same obs state as `specdag run --obs off`.
  obs::Context context(false);
  obs::ContextScope scope(&context);
  Json rows = Json::make_array();
  Timer elapsed;
  for (std::size_t i = 0; i < seeds.size() || elapsed.elapsed_seconds() < kMinSeconds; ++i) {
    const std::uint64_t seed = seeds[i % seeds.size()];
    const scenario::ScenarioSpec spec = load_spec(spec_path, seed);
    Timer data_timer;
    sim::ExperimentPreset preset = build_preset(spec);
    const double data_s = data_timer.elapsed_seconds();
    Timer genesis_timer;
    std::optional<SimWorkload> workload;
    workload.emplace(spec, std::move(preset));
    const double genesis_s = genesis_timer.elapsed_seconds();
    workload.reset();
    Json row = Json::make_object();
    row.set("seed", seed);
    row.set("data_build_s", data_s);
    row.set("genesis_s", genesis_s);
    rows.as_array().push_back(std::move(row));
  }
  Json json = Json::make_object();
  json.set("setup", std::move(rows));
  std::cout << json.dump() << "\n";
  return 0;
}

// Per-layer probes on the workload's final state (after the traced run).
// Each probe makes one layer's public call on the run's own data.
struct ProbeResults {
  double walk_us = 0.0;
  double train_us = 0.0;
  double train_samples_per_s = 0.0;
  double eval_us = 0.0;
  double append_us = 0.0;
  double encode_mbps = 0.0;
  double decode_mbps = 0.0;
  bool roundtrip_ok = true;
  std::size_t probe_clients = 0;
  std::size_t lanes = 0;
};

ProbeResults run_probes(const scenario::ScenarioSpec& spec, SimWorkload& workload,
                        double lanes_mean) {
  ProbeResults probe;
  specdag::core::SpecializingDag& net = workload.network();
  dag::Dag& graph = net.dag();
  const specdag::data::FederatedDataset& dataset = workload.dataset();
  const std::size_t dag_size_before = graph.size();

  // tipsel: DagClient::prepare_walks per client, per walk it made.
  std::vector<fl::WalkPhase> phases;
  std::vector<int> handles;
  std::vector<double> walk_us;
  Timer budget;
  for (std::size_t h = 0; h < dataset.clients.size(); ++h) {
    if (phases.size() >= 64 || (phases.size() >= 8 && budget.elapsed_seconds() > 0.5)) break;
    const std::uint64_t walks_before = counter_now("tipsel.walks");
    Timer timer;
    fl::WalkPhase phase = net.client(static_cast<int>(h)).prepare_walks(graph);
    const double seconds = timer.elapsed_seconds();
    const std::uint64_t walks = std::max<std::uint64_t>(1, counter_now("tipsel.walks") - walks_before);
    walk_us.push_back(seconds * 1e6 / static_cast<double>(walks));
    phases.push_back(std::move(phase));
    handles.push_back(static_cast<int>(h));
  }
  probe.walk_us = median(walk_us);
  probe.probe_clients = phases.size();

  // nn: local training of every probed client from its walk's averaged
  // model, fused in groups of the run's mean lane count (scalar SGD when the
  // executor does not support the model, e.g. the LSTM).
  const fl::TrainConfig& train = spec.client.train;
  const std::size_t lanes = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(lanes_mean)), 1, phases.size());
  probe.lanes = lanes;
  const double samples_per_client = static_cast<double>(
      train.local_epochs * train.local_batches * train.batch_size);
  std::vector<nn::WeightVector> trained(phases.size());
  std::vector<double> train_us, train_rate, eval_us;
  nn::BatchExecutor exec(workload.factory());
  nn::Sequential model = workload.factory()();
  for (std::size_t first = 0; first < phases.size(); first += lanes) {
    const std::size_t group = std::min(lanes, phases.size() - first);
    std::vector<Rng> rngs;
    for (std::size_t i = 0; i < group; ++i) rngs.push_back(phases[first + i].train_rng);
    Timer timer;
    if (exec.supported()) {
      std::vector<fl::BatchTrainLane> batch(group);
      for (std::size_t i = 0; i < group; ++i) {
        batch[i].client = &dataset.clients[handles[first + i]];
        batch[i].start = &phases[first + i].averaged;
        batch[i].rng = &rngs[i];
      }
      fl::train_local_batched(exec, batch, train);
      for (std::size_t i = 0; i < group; ++i) trained[first + i] = std::move(batch[i].trained);
    } else {
      for (std::size_t i = 0; i < group; ++i) {
        model.set_weights(phases[first + i].averaged);
        fl::train_local_sgd(model, dataset.clients[handles[first + i]], train, rngs[i]);
        trained[first + i] = model.get_weights();
      }
    }
    const double seconds = timer.elapsed_seconds();
    train_us.push_back(seconds * 1e6 / static_cast<double>(group));
    train_rate.push_back(samples_per_client * static_cast<double>(group) / seconds);
  }
  // nn: the publish gate's evaluation of trained + reference model.
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const specdag::data::ClientData& client = dataset.clients[handles[i]];
    std::vector<const nn::WeightVector*> models{&trained[i]};
    if (phases[i].reference_weights) models.push_back(phases[i].reference_weights.get());
    Timer timer;
    if (exec.supported()) {
      fl::evaluate_models_batched(exec, models, client);
    } else {
      for (const nn::WeightVector* weights : models) {
        fl::evaluate_weights_on_test(model, *weights, client);
      }
    }
    eval_us.push_back(timer.elapsed_seconds() * 1e6 / static_cast<double>(models.size()));
  }
  probe.train_us = median(train_us);
  probe.train_samples_per_s = median(train_rate);
  probe.eval_us = median(eval_us);

  // dag: append every trained model on its walk's parents.
  std::vector<double> append_us;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    auto weights = std::make_shared<const nn::WeightVector>(std::move(trained[i]));
    auto base = std::make_shared<const nn::WeightVector>(phases[i].averaged);
    Timer timer;
    graph.add_transaction(phases[i].result.parents, std::move(weights), handles[i],
                          spec.rounds + 1, false, std::move(base));
    append_us.push_back(timer.elapsed_seconds() * 1e6);
  }
  graph.store().drain();
  probe.append_us = median(append_us);

  // store: the delta codec on the run's own payload/base pairs (the last
  // transactions the run committed, against their parents' average).
  std::vector<nn::WeightVector> payloads, bases;
  for (std::size_t id = dag_size_before; id-- > 1 && payloads.size() < 256;) {
    const std::vector<dag::TxId> parents = graph.parents(static_cast<dag::TxId>(id));
    if (parents.empty()) continue;
    std::vector<dag::WeightsPtr> held;
    std::vector<const nn::WeightVector*> views;
    for (dag::TxId parent : parents) {
      held.push_back(graph.weights(parent));
      views.push_back(held.back().get());
    }
    bases.push_back(nn::average_weights(views));
    payloads.push_back(*graph.weights(static_cast<dag::TxId>(id)));
  }
  std::vector<double> encode_rate, decode_rate;
  for (int pass = 0; pass < 3 && !payloads.empty(); ++pass) {
    double bytes = 0.0, encode_s = 0.0, decode_s = 0.0;
    nn::WeightVector out;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      const std::size_t count = payloads[i].size();
      Timer encode_timer;
      const std::vector<std::uint8_t> encoded =
          store::encode_delta(payloads[i].data(), bases[i].data(), count);
      encode_s += encode_timer.elapsed_seconds();
      out.assign(count, 0.0f);
      Timer decode_timer;
      store::decode_delta(encoded.data(), encoded.size(), bases[i].data(), out.data(), count);
      decode_s += decode_timer.elapsed_seconds();
      if (std::memcmp(out.data(), payloads[i].data(), count * sizeof(float)) != 0) {
        probe.roundtrip_ok = false;
      }
      bytes += static_cast<double>(count * sizeof(float));
    }
    encode_rate.push_back(bytes / 1e6 / encode_s);
    decode_rate.push_back(bytes / 1e6 / decode_s);
  }
  probe.encode_mbps = median(encode_rate);
  probe.decode_mbps = median(decode_rate);
  return probe;
}

int cmd_trace(const std::string& spec_path, std::uint64_t seed, const std::string& out_dir) {
  scenario::ScenarioSpec spec = load_spec(spec_path, seed);
  std::filesystem::create_directories(out_dir);
  if (spec.checkpoint.enabled()) spec.checkpoint.dir = out_dir + "/checkpoints";

  // Metrics on (tracing is this driver's own spans): the counters the
  // program reports under summary.obs, read from this run's context.
  obs::Context context(true);
  obs::ContextScope scope(&context);
  Tracer tracer;

  std::optional<SimWorkload> workload;
  {
    sim::ExperimentPreset preset;
    {
      ScopedSpan span(tracer, "data.build");
      preset = build_preset(spec);
    }
    ScopedSpan span(tracer, "core.genesis");
    workload.emplace(spec, std::move(preset));
  }

  scenario::ScenarioResult result;  // series so far: checkpoints embed it
  result.scenario = spec.name;
  result.algorithm = scenario::to_string(spec.algorithm);
  result.seed = spec.seed;
  std::vector<double> unit_seconds;
  double snapshot_bytes = 0.0;
  for (std::size_t unit = 0; unit < spec.rounds; ++unit) {
    const int id = tracer.open("sim.unit");
    result.series.push_back(workload->step_unit(unit));
    unit_seconds.push_back(tracer.close(id));

    const store::StoreStats stats = workload->network().dag().store().stats();
    scenario::StoreResidencyPoint residency;
    residency.round = unit + 1;
    residency.pending_encodes = stats.pending_encodes;
    residency.raw_payloads = stats.anchors + stats.pending_encodes;
    residency.delta_payloads = stats.deltas;
    residency.resident_bytes = stats.resident_payload_bytes;
    result.store_series.push_back(residency);

    if (workload->checkpoint_due(unit + 1)) {
      ScopedSpan span(tracer, "snapshot.write");
      const std::string path = workload->write_checkpoint(unit + 1, result);
      snapshot_bytes += static_cast<double>(std::filesystem::file_size(path));
    }
  }
  specdag::core::SpecializingDag& net = workload->network();
  {
    ScopedSpan span(tracer, "store.drain");
    net.dag().store().drain();
  }
  const obs::MetricsSnapshot totals = obs::Registry::snapshot();

  // The runner's finalize over the finished DAG.
  std::vector<int> true_clusters;
  for (const auto& client : workload->dataset().clients) true_clusters.push_back(client.true_cluster);
  double pureness = 0.0;
  {
    ScopedSpan span(tracer, "metrics.finalize");
    {
      ScopedSpan child(tracer, "metrics.pureness");
      pureness = metrics::approval_pureness(net.dag(), true_clusters).pureness;
    }
    const int graph_span = tracer.open("metrics.client_graph");
    const metrics::ClientGraph client_graph =
        metrics::build_client_graph(net.dag(), true_clusters.size());
    tracer.close(graph_span);
    {
      ScopedSpan child(tracer, "metrics.louvain");
      Rng louvain_rng = Rng(spec.seed).fork(0x10CA);
      metrics::louvain(client_graph, louvain_rng);
    }
    metrics::dag_weight_summary(net.dag());
  }
  const double run_end = tracer.now();

  const std::size_t dag_size = net.dag().size();
  const sim::PhaseTimings perf = workload->perf();
  const store::StoreStats store_stats = net.dag().store().stats();
  const store::EvalCacheStats cache_stats = net.eval_cache()->stats();
  const std::size_t tail = std::max<std::size_t>(1, result.series.size() / 10);
  double tail_sum = 0.0;
  for (std::size_t i = result.series.size() - tail; i < result.series.size(); ++i) {
    tail_sum += result.series[i].mean_accuracy;
  }
  const double final_accuracy = tail_sum / static_cast<double>(tail);
  scenario::write_series_jsonl(result, out_dir + "/series.jsonl");

  const std::uint64_t batches = totals.counter("train.batches");
  const std::uint64_t walks = totals.counter("tipsel.walks");
  // No fused batches means the scalar path trained one client at a time.
  const double lanes_mean =
      batches > 0 ? static_cast<double>(totals.counter("train.fused_lanes")) /
                        static_cast<double>(batches)
                  : 1.0;

  const ProbeResults probe = run_probes(spec, *workload, lanes_mean);

  // Teardown is part of the runner's wall clock (the simulator dies inside
  // run_scenario), so it is timed here and added to the traced wall.
  const double teardown_start = tracer.now();
  {
    ScopedSpan span(tracer, "core.teardown");
    workload.reset();
  }
  const double teardown_s = tracer.now() - teardown_start;
  const double wall = run_end + teardown_s;

  const std::vector<Span>& spans = tracer.spans();
  double top_level = 0.0;
  for (const Span& span : spans) {
    if (span.parent < 0) top_level += span.end - span.start;
  }
  write_spans(out_dir + "/spans.json", spans);
  const auto [tail_pct, tail_value] = tail_percentile(unit_seconds);

  Json layers = Json::make_object();
  layers.set("data.build_s", total_seconds(spans, "data.build"));
  layers.set("core.genesis_s", total_seconds(spans, "core.genesis"));
  layers.set("sim.unit_s.p50", median(unit_seconds));
  layers.set("sim.unit_s.tail", tail_value);
  layers.set("sim.unit_s.tail_pct", tail_pct);
  layers.set("sim.units", unit_seconds.size());
  layers.set("sim.steps", perf.prepares);
  layers.set("sim.lanes_mean", lanes_mean);
  layers.set("tipsel.walk_us", probe.walk_us);
  layers.set("tipsel.walks", walks);
  layers.set("tipsel.evals_per_walk",
             walks > 0 ? static_cast<double>(totals.counter("tipsel.evaluations")) /
                             static_cast<double>(walks)
                       : 0.0);
  layers.set("evalcache.hit_ratio", cache_stats.hit_rate());
  layers.set("nn.train_us", probe.train_us);
  layers.set("nn.train_samples_per_s", probe.train_samples_per_s);
  layers.set("nn.eval_us", probe.eval_us);
  layers.set("dag.append_us", probe.append_us);
  layers.set("store.encode_MBps", probe.encode_mbps);
  layers.set("store.decode_MBps", probe.decode_mbps);
  layers.set("store.drain_s", total_seconds(spans, "store.drain"));
  layers.set("store.delta_ratio", store_stats.delta_ratio());
  layers.set("store.lru_hit_ratio", store_stats.lru_hit_rate());
  layers.set("store.resident_mb", static_cast<double>(store_stats.resident_payload_bytes) / 1e6);
  layers.set("snapshot.write_s", total_seconds(spans, "snapshot.write"));
  layers.set("snapshot.mb", snapshot_bytes / 1e6);
  layers.set("metrics.finalize_s", total_seconds(spans, "metrics.finalize"));
  layers.set("scenario.self_s", wall - top_level);
  layers.set("trace.coverage", top_level / wall);

  Json json = Json::make_object();
  json.set("seed", spec.seed);
  json.set("final_accuracy", final_accuracy);
  json.set("pureness", pureness);
  json.set("dag_size", dag_size);
  json.set("commits", perf.commits);
  json.set("prepares", perf.prepares);
  json.set("traced_wall_s", wall);
  json.set("top_level_s", top_level);
  json.set("probe_clients", probe.probe_clients);
  json.set("probe_lanes", probe.lanes);
  json.set("store_roundtrip_ok", probe.roundtrip_ok);
  json.set("self_s", self_seconds_by_name(spans));
  json.set("layers", std::move(layers));
  std::cout << json.dump() << "\n";
  return 0;
}

std::uint64_t parse_seed(const std::string& text) {
  std::size_t used = 0;
  const unsigned long long value = std::stoull(text, &used);
  if (used != text.size()) throw std::invalid_argument("perfdriver: bad seed \"" + text + "\"");
  return value;
}

int usage() {
  std::cerr << "usage: perfdriver info\n"
               "       perfdriver setup --spec FILE --seeds S1,S2,...\n"
               "       perfdriver trace --spec FILE --seed S --out-dir DIR\n";
  return 2;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::string spec_path, out_dir;
  std::vector<std::uint64_t> seeds;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--spec") {
      spec_path = value;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else if (flag == "--seed" || flag == "--seeds") {
      std::size_t start = 0;
      while (start <= value.size()) {
        const std::size_t comma = std::min(value.find(',', start), value.size());
        seeds.push_back(parse_seed(value.substr(start, comma - start)));
        start = comma + 1;
      }
    } else {
      return usage();
    }
  }
  if (command == "info") return cmd_info();
  if (spec_path.empty() || seeds.empty()) return usage();
  if (command == "setup") return cmd_setup(spec_path, seeds);
  if (command == "trace" && seeds.size() == 1 && !out_dir.empty()) {
    return cmd_trace(spec_path, seeds.front(), out_dir);
  }
  return usage();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "perfdriver: " << error.what() << "\n";
    return 1;
  }
}
