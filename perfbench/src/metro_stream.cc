// metro_stream: one warm session on a large sharded network.
//
// One driver thread feeds one warm DCRNN session (h=64, T'=3,
// resync_every 12) through Append then Forecast on every tick. The
// network is a SynPEMS07-like graph scaled up to N=1024, split into 2
// halo shards placed with Placement::kPartition under a budget of 2
// threads. This is the only workload on the single-session forms
// (Append / Forecast, the engine's AdvanceState / ForecastFromState),
// the router's shard split and stitch, and a diffusion working set larger
// than L2. Every 12th tick rebuilds the carried state from the window, so
// the latency tail is made of resync ticks, deterministically.

#include <cstdio>
#include <memory>
#include <unistd.h>

#include "perfbench/src/bench.h"
#include "src/core/rng.h"
#include "src/data/dataset.h"
#include "src/graph/shard.h"
#include "src/nn/module.h"
#include "src/serve/router.h"
#include "src/serve/session.h"
#include "src/train/checkpoint.h"
#include "src/train/model_zoo.h"

namespace perfbench {
namespace {

namespace T = dyhsl::tensor;
namespace serve = dyhsl::serve;

constexpr int64_t kNodes = 1024;
constexpr int64_t kHorizon = 3;
// DCRNN's own default width. At h=16 a tick took ~4 ms and its median
// spread 15-30% over seeds on the 4-vCPU host this was sized on; at h=64
// a tick takes ~20 ms and spreads ~10%.
constexpr int64_t kHidden = 64;
constexpr int64_t kShards = 2;
constexpr int64_t kHaloHops = 2;
constexpr int64_t kResyncEvery = 12;
constexpr int64_t kDays = 2;
constexpr int kWarmupTicks = 60;
constexpr int kMaeTicks = 256;
// Traced runs call each shard engine directly after every this many
// timed ticks.
constexpr int kDirectEvery = 4;

struct Metro {
  std::unique_ptr<serve::ForecastRouter> router;
  std::unique_ptr<serve::SessionManager> manager;
};

}  // namespace

Report RunMetroStream(const Args& args, Tracer* tracer) {
  Report report;
  // ---- Inputs: network, traffic, shard plan, shard checkpoints.
  const dyhsl::data::TrafficDataset dataset =
      dyhsl::data::TrafficDataset::Generate(
          dyhsl::data::DatasetSpec::Pems07Like(
              (static_cast<double>(kNodes) + 0.5) / 883.0, kDays, args.seed));
  dyhsl::train::ForecastTask task =
      dyhsl::train::ForecastTask::FromDataset(dataset);
  task.horizon = kHorizon;
  const int64_t n = task.num_nodes;
  const T::Tensor& flow = dataset.traffic().flow;
  const int64_t steps = flow.size(0);
  const int64_t spd = task.steps_per_day;
  const dyhsl::graph::ShardPlan plan =
      dyhsl::graph::ShardPlan::Build(task.spatial_adj, kShards, kHaloHops);
  dyhsl::train::ZooConfig zoo;
  zoo.hidden_dim = kHidden;
  zoo.seed = kModelSeed;
  const std::string prefix =
      args.out_dir + "/metro_stream-" + std::to_string(::getpid());
  {
    dyhsl::train::ZooConfig trained = zoo;
    trained.seed = kModelSeed + 1;
    auto model = dyhsl::train::MakeNeuralModel("DCRNN", task, trained);
    const dyhsl::Status saved = dyhsl::train::ShardCheckpointSet::Save(
        plan, *dynamic_cast<dyhsl::nn::Module*>(model.get()), prefix);
    if (!saved.ok()) report.Fail("checkpoint save: " + saved.ToString());
  }
  // The stream starts at a seeded calendar position; tick k reads
  // simulated step k mod steps, so a run may outlast the simulation.
  const int64_t start =
      static_cast<int64_t>(dyhsl::Rng(args.seed).NextBelow(
          static_cast<uint64_t>(steps)));
  auto raw = [&](int64_t tick) { return flow.Alias((tick % steps) * n, {n}); };
  // The MakeInput window (T, N, F) ending at `tick`, built from the same
  // wrapped stream the session sees.
  auto window_at = [&](int64_t tick) {
    T::Tensor x({task.history, n, task.input_dim});
    for (int64_t t = 0; t < task.history; ++t) {
      const int64_t step = tick - task.history + 1 + t;
      const float tod =
          static_cast<float>(step % spd) / static_cast<float>(spd);
      const float dow = static_cast<float>((step / spd) % 7) / 7.0f;
      const float* r = raw(step).data();
      for (int64_t i = 0; i < n; ++i) {
        float* f = x.data() + (t * n + i) * task.input_dim;
        f[0] = dataset.scaler().Transform(r[i]);
        f[1] = tod;
        f[2] = dow;
      }
    }
    return x;
  };
  if (!BitIdentical(window_at(task.history - 1), dataset.MakeInput(0))) {
    report.Fail("reference window assembly differs from MakeInput");
  }

  // ---- Set-up: router, both shard engines (model construction, shard
  // checkpoint validation and load, prepack enrollment), the session
  // manager, the session open and the history fill. The last one serves.
  dyhsl::serve::RouterOptions router_options;
  router_options.placement = serve::Placement::kPartition;
  router_options.thread_budget = 2;
  serve::EngineOptions options;
  options.max_batch = 1;
  options.max_delay_us = 0;
  options.num_workers = 1;
  serve::SessionOptions session;
  session.model = "dcrnn";
  session.warm_state = true;
  session.resync_every = kResyncEvery;
  session.start_tick = start;
  const std::string id = "metro";
  Metro metro;
  auto set_up = [&](uint64_t rep) {
    metro.manager.reset();
    metro.router.reset();
    Tracer::Span setup_span(tracer, "setup", rep);
    const Clock::time_point t0 = Clock::now();
    metro.router = serve::ForecastRouter::Create(router_options).ValueOrDie();
    dyhsl::Status status;
    {
      Tracer::Span span(tracer, "serve.router.AddShardedModel", rep);
      status = metro.router->AddShardedModel(
          "dcrnn", task, plan, serve::ZooFactory("DCRNN", zoo), prefix,
          options);
    }
    if (!status.ok()) {
      report.Fail("AddShardedModel: " + status.ToString());
      return -1.0;
    }
    metro.manager = std::make_unique<serve::SessionManager>(metro.router.get());
    status = metro.manager->Open(id, session);
    for (int64_t t = 0; status.ok() && t < task.history; ++t) {
      status = metro.manager->Append(id, start + t, raw(start + t));
    }
    if (!status.ok()) {
      report.Fail("session open / history fill: " + status.ToString());
      return -1.0;
    }
    return MsBetween(t0, Clock::now()) / 1000.0;
  };
  SetupTimer setups;
  if (!setups.Block(set_up)) return report;
  serve::SessionManager* manager = metro.manager.get();

  // Traced runs interleave direct calls on each shard engine, at the
  // shapes the session produces, with the session ticks (outside their
  // timing), so both see the same host conditions.
  const serve::StreamRoute route =
      metro.router->RouteFor("dcrnn").ValueOrDie();
  std::vector<std::unique_ptr<dyhsl::train::StreamState>> side_states;
  std::vector<T::Tensor> local_frames;
  {
    const T::Tensor window = window_at(start + task.history);
    const float* last = window.data() + (task.history - 1) * n * task.input_dim;
    for (size_t s = 0; s < route.engines.size(); ++s) {
      const dyhsl::graph::ShardSpec& shard = (*route.shards)[s];
      T::Tensor local({shard.num_local(), task.input_dim});
      for (int64_t l = 0; l < shard.num_local(); ++l) {
        for (int64_t f = 0; f < task.input_dim; ++f) {
          local.data()[l * task.input_dim + f] =
              last[shard.locals[static_cast<size_t>(l)] * task.input_dim + f];
        }
      }
      local_frames.push_back(local);
      side_states.push_back(route.engines[s]->NewStreamState());
    }
  }

  // ---- Ticks. Warm-up ticks run the same code untimed.
  std::vector<double> tick_ms, tick_at_ms, traced, untraced;
  std::vector<std::pair<int64_t, T::Tensor>> after_resync;
  RelativeMae quality(task.scaler_mean);
  int64_t resyncs = manager->SessionInfo(id).ValueOrDie().resyncs;
  Clock::time_point timed_start = Clock::now();
  Clock::time_point deadline = timed_start;
  int64_t tick = start + task.history;
  for (int timed_ticks = -kWarmupTicks; ; ++tick, ++timed_ticks) {
    const bool timed = timed_ticks >= 0;
    if (timed_ticks == 0) {
      timed_start = Clock::now();
      deadline = timed_start +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(args.seconds));
    }
    if (timed && Clock::now() >= deadline) break;
    const T::Tensor frame = raw(tick);
    // Blocks of kResyncEvery ticks, so traced blocks hold resync ticks.
    tracer->set_active(timed && (tick / kResyncEvery) % 2 == 0);
    const bool recorded = tracer->recording();
    const Clock::time_point t0 = Clock::now();
    const dyhsl::Status appended = manager->Append(id, tick, frame);
    const Clock::time_point t1 = Clock::now();
    serve::ForecastResponse response;
    {
      Tracer::Span span(tracer, "serve.session.Forecast",
                        static_cast<uint64_t>(tick));
      response = manager->Forecast(id);
    }
    const Clock::time_point t2 = Clock::now();
    // Whether this tick's Append rebuilt the carried state is known only
    // after the call, so its span is recorded once classified.
    const int64_t now_resyncs = manager->SessionInfo(id).ValueOrDie().resyncs;
    const bool resynced = now_resyncs != resyncs;
    resyncs = now_resyncs;
    tracer->Add(resynced ? "serve.session.Append.resync"
                         : "serve.session.Append",
                static_cast<uint64_t>(tick), t0, t1);
    tracer->set_active(true);
    const double ms = MsBetween(t0, t2);

    const bool ok = appended.ok() && response.status.ok() &&
                    response.forecast.defined() &&
                    response.forecast.shape() == T::Shape{kHorizon, n} &&
                    AllFinite(response.forecast);
    if (timed) report.Count(ok);
    if (!ok) {
      report.Fail("tick " + std::to_string(tick) + ": " +
                  (appended.ok() ? response.status.ToString()
                                 : appended.ToString()));
      continue;
    }
    if (resynced) after_resync.emplace_back(tick, response.forecast);
    if (timed && timed_ticks < kMaeTicks) {
      for (int64_t h = 0; h < kHorizon; ++h) {
        quality.Add(response.forecast.data() + h * n,
                    raw(tick + 1 + h).data(), n);
      }
    }
    if (timed) {
      tick_ms.push_back(ms);
      tick_at_ms.push_back(MsBetween(timed_start, t0));
      (recorded ? traced : untraced).push_back(ms);
    }
    if (args.trace && timed && timed_ticks % kDirectEvery == 0) {
      for (size_t s = 0; s < route.engines.size(); ++s) {
        const std::string suffix = ".shard" + std::to_string(s);
        {
          Tracer::Span span(tracer, "serve.engine.AdvanceState" + suffix,
                            static_cast<uint64_t>(tick));
          route.engines[s]->AdvanceState(side_states[s].get(),
                                         local_frames[s]);
        }
        Tracer::Span span(tracer, "serve.engine.ForecastFromState" + suffix,
                          static_cast<uint64_t>(tick));
        if (!route.engines[s]->ForecastFromState(*side_states[s]).status.ok()) {
          report.Fail("direct ForecastFromState" + suffix);
        }
      }
    }
  }

  // ---- Post-resync forecasts against router Submit of the same window.
  for (const auto& [at, forecast] : after_resync) {
    serve::ForecastResponse reference =
        metro.router->Submit(serve::RouterRequest{"dcrnn", window_at(at)})
            .get();
    if (!reference.status.ok() ||
        !BitIdentical(reference.forecast, forecast)) {
      report.Fail("post-resync forecast at tick " + std::to_string(at) +
                  " differs from router Submit of the same window");
    }
  }
  if (after_resync.empty()) report.Fail("no resync tick was observed");

  report.Note("driver_threads", 1);
  report.Note("thread_budget", 2);
  report.Note("latency_samples", static_cast<double>(tick_ms.size()));
  report.Note("resync_checks", static_cast<double>(after_resync.size()));
  if (!args.trace) {
    report.Set("latency_p50_ms", FastestChunkMedian(tick_at_ms, tick_ms),
               "ms");
    report.Set("throughput_per_s",
               FastestChunkRate(tick_at_ms, tick_ms, 1.0), "1/s");
    report.Set("output_rel_mae", quality.Ratio(), "ratio");
  } else {
    const double tail = TailPercentile(tick_ms);
    report.Set("latency_samples", static_cast<double>(tick_ms.size()),
               "count");
    report.Set("latency_tail_pct", tail, "%");
    report.Set("latency_tail_ms", Quantile(tick_ms, tail / 100.0), "ms");
    report.Set("trace.overhead_share", OverheadShare(traced, untraced),
               "share");
    const double append = tracer->MedianMs("serve.session.Append", &report);
    const double forecast =
        tracer->MedianMs("serve.session.Forecast", &report);
    report.Set("serve.session.append_ms", append, "ms");
    report.Set("serve.session.resync_append_ms",
               tracer->MedianMs("serve.session.Append.resync", &report),
               "ms");
    report.Set("serve.session.forecast_ms", forecast, "ms");

    double engine_ms = 0.0;
    for (size_t s = 0; s < route.engines.size(); ++s) {
      const std::string suffix = ".shard" + std::to_string(s);
      const double advance =
          tracer->MedianMs("serve.engine.AdvanceState" + suffix, &report);
      const double from_state = tracer->MedianMs(
          "serve.engine.ForecastFromState" + suffix, &report);
      report.Set("serve.engine.advance_state_ms" + suffix, advance, "ms");
      report.Set("serve.engine.forecast_from_state_ms" + suffix, from_state,
                 "ms");
      engine_ms += advance + from_state;
    }
    report.Set("graph.shard.split_stitch_ms", append + forecast - engine_ms,
               "ms");
  }
  if (!args.trace) {
    if (!setups.Block(set_up)) return report;
    report.Set("setup_s", setups.seconds(), "s");
  }
  report.Note("setup_samples", static_cast<double>(setups.samples()));
  metro.manager.reset();
  metro.router.reset();
  for (int64_t s = 0; s < kShards; ++s) {
    std::remove(
        dyhsl::train::ShardCheckpointSet::ShardPath(prefix, s).c_str());
  }
  if (!args.trace) report.Set("peak_rss_mb", PeakRssMb(), "MB");
  return report;
}

}  // namespace perfbench
