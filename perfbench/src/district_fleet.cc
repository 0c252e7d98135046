// district_fleet: a fleet of streaming sessions ticked in lock-step.
//
// One driver thread ticks 256 warm DCRNN sessions (h=16, T=12, T'=3) and
// 16 windowed STGCN sessions on an N=24 district network (SynPEMS04-like
// at node_scale 0.08). Each session reads the simulated traffic from its
// own seeded offset. Every tick runs one AppendMany over all sessions,
// then one ForecastBatch per model. The engines run with a team of 1 and
// are reached only through the sessions' batched fast paths, never the
// engine queue. The forwards are tiny, so session bookkeeping, ring
// gathers, packing and dispatch dominate the tick. A team of 2 forks and
// joins hundreds of tiny parallel regions per tick, and each join waits
// for the slower of two vCPUs shared with the host's other tenants: over
// five seeds run interleaved, its tick medians spread 13% against 4% at
// a team of 1.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unistd.h>

#include "perfbench/src/bench.h"
#include "src/core/rng.h"
#include "src/data/dataset.h"
#include "src/nn/module.h"
#include "src/serve/router.h"
#include "src/serve/session.h"
#include "src/train/checkpoint.h"
#include "src/train/model_zoo.h"

namespace perfbench {
namespace {

namespace T = dyhsl::tensor;
namespace serve = dyhsl::serve;

constexpr int64_t kHorizon = 3;
constexpr int64_t kHidden = 16;
constexpr int kDcrnnSessions = 256;
constexpr int kStgcnSessions = 16;
constexpr int64_t kDays = 3;
constexpr int kWarmupTicks = 40;
// Every this many ticks the forecasts are checked against sequential
// per-session serving (outside the timed region of the tick).
constexpr int kCheckEvery = 25;
// output_rel_mae covers this many timed ticks, so it does not depend on how
// many ticks the run reaches.
constexpr int kMaeTicks = 250;
// DCRNN sessions shadowed by a second session fed through per-session
// Append, the unbatched reference for the batched warm carry.
constexpr int kShadows = 4;
// Normalized tolerance of batched warm carry against per-session carry.
constexpr double kWarmTolerance = 1e-5;
// Traced runs call the engines directly after every this many timed ticks.
constexpr int kDirectEvery = 4;

struct Fleet {
  std::unique_ptr<serve::ForecastRouter> router;
  std::unique_ptr<serve::SessionManager> manager;
};

}  // namespace

Report RunDistrictFleet(const Args& args, Tracer* tracer) {
  Report report;
  // ---- Inputs: network, traffic, checkpoints, per-session offsets.
  const dyhsl::data::TrafficDataset dataset =
      dyhsl::data::TrafficDataset::Generate(
          dyhsl::data::DatasetSpec::Pems04Like(0.08, kDays, args.seed));
  dyhsl::train::ForecastTask task =
      dyhsl::train::ForecastTask::FromDataset(dataset);
  task.horizon = kHorizon;
  const int64_t n = task.num_nodes;
  const T::Tensor& flow = dataset.traffic().flow;
  const int64_t steps = flow.size(0);
  dyhsl::train::ZooConfig zoo;
  zoo.hidden_dim = kHidden;
  zoo.seed = kModelSeed;
  const std::string prefix =
      args.out_dir + "/district_fleet-" + std::to_string(::getpid());
  const std::vector<std::string> keys = {"DCRNN", "STGCN"};
  for (const std::string& key : keys) {
    dyhsl::train::ZooConfig trained = zoo;
    trained.seed = kModelSeed + 1;
    auto model = dyhsl::train::MakeNeuralModel(key, task, trained);
    const dyhsl::Status saved = dyhsl::train::SaveCheckpoint(
        *dynamic_cast<dyhsl::nn::Module*>(model.get()),
        prefix + "." + key + ".ckpt");
    if (!saved.ok()) report.Fail("checkpoint save: " + saved.ToString());
  }
  std::vector<std::string> ids, dcrnn_ids, stgcn_ids;
  std::vector<int64_t> offsets;
  dyhsl::Rng rng(args.seed);
  for (int i = 0; i < kDcrnnSessions + kStgcnSessions; ++i) {
    const bool warm = i < kDcrnnSessions;
    ids.push_back((warm ? "dcrnn-" : "stgcn-") + std::to_string(i));
    (warm ? dcrnn_ids : stgcn_ids).push_back(ids.back());
    offsets.push_back(static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(steps))));
  }
  auto row = [&](int64_t offset, int64_t tick) {
    return flow.Alias(((offset + tick) % steps) * n, {n});
  };
  auto frames_at = [&](int64_t tick) {
    std::vector<T::Tensor> frames;
    frames.reserve(ids.size());
    for (int64_t offset : offsets) frames.push_back(row(offset, tick));
    return frames;
  };

  // ---- Set-up: router, both engines (model construction, checkpoint
  // load, prepack enrollment), the session manager, every session open
  // and the history fill. The last one serves.
  serve::EngineOptions options;
  options.max_batch = 1;
  options.max_delay_us = 0;
  options.num_workers = 1;
  options.team_size = 1;
  Fleet fleet;
  auto set_up = [&](uint64_t rep) {
    fleet.manager.reset();
    fleet.router.reset();
    Tracer::Span setup_span(tracer, "setup", rep);
    const Clock::time_point t0 = Clock::now();
    fleet.router = serve::ForecastRouter::Create().ValueOrDie();
    for (const std::string& key : keys) {
      Tracer::Span span(tracer, "serve.router.AddModel", rep);
      const dyhsl::Status added = fleet.router->AddModel(
          key == "DCRNN" ? "dcrnn" : "stgcn", task,
          serve::ZooFactory(key, zoo), prefix + "." + key + ".ckpt", options);
      if (!added.ok()) {
        report.Fail("AddModel " + key + ": " + added.ToString());
        return -1.0;
      }
    }
    fleet.manager = std::make_unique<serve::SessionManager>(fleet.router.get());
    for (const std::string& id : ids) {
      serve::SessionOptions session;
      session.warm_state = id.rfind("dcrnn", 0) == 0;
      session.model = session.warm_state ? "dcrnn" : "stgcn";
      const dyhsl::Status opened = fleet.manager->Open(id, session);
      if (!opened.ok()) {
        report.Fail("Open " + id + ": " + opened.ToString());
        return -1.0;
      }
    }
    for (int64_t tick = 0; tick < task.history; ++tick) {
      for (const dyhsl::Status& s :
           fleet.manager->AppendMany(ids, tick, frames_at(tick))) {
        if (!s.ok()) report.Fail("history fill: " + s.ToString());
      }
    }
    return MsBetween(t0, Clock::now()) / 1000.0;
  };
  SetupTimer setups;
  if (!setups.Block(set_up)) return report;
  serve::SessionManager* manager = fleet.manager.get();

  // Shadows replay the same ticks through per-session Append.
  std::vector<int> shadowed;
  for (int k = 0; k < kShadows; ++k) {
    shadowed.push_back(k * (kDcrnnSessions - 1) / (kShadows - 1));
    serve::SessionOptions session;
    session.model = "dcrnn";
    session.warm_state = true;
    const dyhsl::Status opened =
        manager->Open("shadow-" + std::to_string(k), session);
    if (!opened.ok()) report.Fail("shadow open: " + opened.ToString());
  }
  auto advance_shadows = [&](int64_t tick) {
    for (int k = 0; k < kShadows; ++k) {
      const dyhsl::Status s =
          manager->Append("shadow-" + std::to_string(k), tick,
                          row(offsets[static_cast<size_t>(shadowed[k])], tick));
      if (!s.ok()) report.Fail("shadow append: " + s.ToString());
    }
  };
  for (int64_t tick = 0; tick < task.history; ++tick) advance_shadows(tick);

  // Traced runs interleave direct engine calls, at the packed shapes the
  // sessions produce, with the ticks (outside their timing), so both see
  // the same host conditions.
  serve::ForecastEngine* dcrnn_engine =
      fleet.router->RouteFor("dcrnn").ValueOrDie().engines[0];
  serve::ForecastEngine* stgcn_engine =
      fleet.router->RouteFor("stgcn").ValueOrDie().engines[0];
  std::vector<std::unique_ptr<dyhsl::train::StreamState>> owned;
  std::vector<dyhsl::train::StreamState*> states;
  std::vector<const dyhsl::train::StreamState*> const_states;
  T::Tensor packed_frames, packed_windows;
  if (args.trace) {
    for (int i = 0; i < kDcrnnSessions; ++i) {
      owned.push_back(dcrnn_engine->NewStreamState());
      states.push_back(owned.back().get());
      const_states.push_back(owned.back().get());
    }
    const T::Tensor window = dataset.MakeInput(offsets[0] % (steps - 24));
    const int64_t frame = n * task.input_dim;
    packed_frames = T::Tensor({kDcrnnSessions, n, task.input_dim});
    packed_windows =
        T::Tensor({kStgcnSessions, task.history, n, task.input_dim});
    for (int i = 0; i < kDcrnnSessions; ++i) {
      std::copy(window.data() + (task.history - 1) * frame,
                window.data() + task.history * frame,
                packed_frames.data() + i * frame);
    }
    for (int i = 0; i < kStgcnSessions; ++i) {
      std::copy(window.data(), window.data() + window.numel(),
                packed_windows.data() + i * window.numel());
    }
  }

  // ---- Ticks. Warm-up ticks run the same code untimed.
  std::vector<double> tick_ms, tick_at_ms, traced, untraced;
  RelativeMae quality(task.scaler_mean);
  serve::RouterStats router_before;
  serve::SessionManagerStats manager_before;
  Clock::time_point timed_start = Clock::now();
  Clock::time_point deadline = timed_start;
  int64_t tick = task.history;
  for (int timed_ticks = -kWarmupTicks; ; ++tick, ++timed_ticks) {
    const bool timed = timed_ticks >= 0;
    if (timed_ticks == 0) {
      router_before = fleet.router->Stats();
      manager_before = manager->Stats();
      timed_start = Clock::now();
      deadline = timed_start +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(args.seconds));
    }
    if (timed && Clock::now() >= deadline) break;
    const std::vector<T::Tensor> frames = frames_at(tick);
    tracer->set_active(timed && tick % 2 == 0);
    std::vector<dyhsl::Status> appended;
    std::vector<serve::ForecastResponse> dcrnn, stgcn;
    bool recorded = false;
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Span span(tracer, "serve.session.AppendMany",
                        static_cast<uint64_t>(tick));
      recorded = span.recorded();
      appended = manager->AppendMany(ids, tick, frames);
    }
    {
      Tracer::Span span(tracer, "serve.session.ForecastBatch.dcrnn",
                        static_cast<uint64_t>(tick));
      dcrnn = manager->ForecastBatch(dcrnn_ids);
    }
    {
      Tracer::Span span(tracer, "serve.session.ForecastBatch.stgcn",
                        static_cast<uint64_t>(tick));
      stgcn = manager->ForecastBatch(stgcn_ids);
    }
    const double ms = MsBetween(t0, Clock::now());
    tracer->set_active(true);
    advance_shadows(tick);

    // Checks: every append ok; every forecast ok, (T', N) and finite.
    for (size_t i = 0; i < ids.size(); ++i) {
      const serve::ForecastResponse& r =
          i < dcrnn.size() ? dcrnn[i] : stgcn[i - dcrnn.size()];
      const bool ok = appended[i].ok() && r.status.ok() &&
                      r.forecast.defined() &&
                      r.forecast.shape() == T::Shape{kHorizon, n} &&
                      AllFinite(r.forecast);
      if (timed) report.Count(ok);
      if (!ok) {
        report.Fail("session " + ids[i] + " tick " + std::to_string(tick) +
                    ": " + (r.status.ok() ? appended[i].ToString()
                                          : r.status.ToString()));
        continue;
      }
      if (timed && timed_ticks < kMaeTicks) {
        for (int64_t h = 0; h < kHorizon; ++h) {
          quality.Add(r.forecast.data() + h * n,
                      row(offsets[i], tick + 1 + h).data(), n);
        }
      }
    }
    if (tick % kCheckEvery == 0) {
      for (size_t i = 0; i < stgcn_ids.size(); ++i) {
        const serve::ForecastResponse seq = manager->Forecast(stgcn_ids[i]);
        if (!seq.status.ok() ||
            !BitIdentical(seq.forecast, stgcn[i].forecast)) {
          report.Fail("batched STGCN forecast of " + stgcn_ids[i] +
                      " differs from sequential Forecast at tick " +
                      std::to_string(tick));
        }
      }
      for (int k = 0; k < kShadows; ++k) {
        const serve::ForecastResponse seq =
            manager->Forecast("shadow-" + std::to_string(k));
        const T::Tensor& batched =
            dcrnn[static_cast<size_t>(shadowed[k])].forecast;
        if (!seq.status.ok() || seq.forecast.shape() != batched.shape() ||
            MaxAbsDiff(seq.forecast, batched) / task.scaler_std >
                kWarmTolerance) {
          report.Fail("batched warm DCRNN forecast of session " +
                      std::to_string(shadowed[k]) +
                      " exceeds 1e-5 of per-session carry at tick " +
                      std::to_string(tick));
        }
      }
    }
    if (timed) {
      tick_ms.push_back(ms);
      tick_at_ms.push_back(MsBetween(timed_start, t0));
      (recorded ? traced : untraced).push_back(ms);
    }
    if (args.trace && timed && timed_ticks % kDirectEvery == 0) {
      const uint64_t id = static_cast<uint64_t>(tick);
      {
        Tracer::Span span(tracer, "serve.engine.AdvanceStateBatch", id);
        dcrnn_engine->AdvanceStateBatch(states, packed_frames);
      }
      {
        Tracer::Span span(tracer, "serve.engine.ForecastFromStateBatch", id);
        if (!dcrnn_engine->ForecastFromStateBatch(const_states).status.ok()) {
          report.Fail("direct ForecastFromStateBatch");
        }
      }
      Tracer::Span span(tracer, "serve.engine.SubmitBatch", id);
      if (!stgcn_engine->SubmitBatch(packed_windows).status.ok()) {
        report.Fail("direct SubmitBatch");
      }
    }
  }
  const serve::RouterStats router_after = fleet.router->Stats();
  const serve::SessionManagerStats manager_after = manager->Stats();

  const double sessions = static_cast<double>(ids.size());
  report.Note("driver_threads", 1);
  report.Note("engine_team", 1);
  report.Note("latency_samples", static_cast<double>(tick_ms.size()));
  if (!args.trace) {
    report.Set("latency_p50_ms", FastestChunkMedian(tick_at_ms, tick_ms),
               "ms");
    report.Set("throughput_per_s",
               FastestChunkRate(tick_at_ms, tick_ms, sessions), "1/s");
    report.Set("output_rel_mae", quality.Ratio(), "ratio");
  } else {
    const double tail = TailPercentile(tick_ms);
    report.Set("latency_samples", static_cast<double>(tick_ms.size()),
               "count");
    report.Set("latency_tail_pct", tail, "%");
    report.Set("latency_tail_ms", Quantile(tick_ms, tail / 100.0), "ms");
    report.Set("trace.overhead_share", OverheadShare(traced, untraced),
               "share");
    const double append_many =
        tracer->MedianMs("serve.session.AppendMany", &report);
    const double batch_dcrnn =
        tracer->MedianMs("serve.session.ForecastBatch.dcrnn", &report);
    const double batch_stgcn =
        tracer->MedianMs("serve.session.ForecastBatch.stgcn", &report);
    report.Set("serve.session.append_many_ms", append_many, "ms");
    report.Set("serve.session.forecast_batch_ms.dcrnn", batch_dcrnn, "ms");
    report.Set("serve.session.forecast_batch_ms.stgcn", batch_stgcn, "ms");
    const int64_t group_forwards = manager_after.batch.batched_forecasts -
                                   manager_before.batch.batched_forecasts;
    if (group_forwards == 0) report.Fail("the manager recorded no batch");
    report.Set("serve.session.batch_occupancy_mean",
               static_cast<double>(manager_after.batch.batch_size_sum -
                                   manager_before.batch.batch_size_sum) /
                   static_cast<double>(std::max<int64_t>(group_forwards, 1)),
               "count");
    const int64_t hits =
        router_after.total.prepack.hits - router_before.total.prepack.hits;
    const int64_t lookups = hits + router_after.total.prepack.misses -
                            router_before.total.prepack.misses;
    if (lookups == 0) report.Fail("the engines recorded no prepack lookup");
    report.Set("tensor.prepack.hit_ratio",
               static_cast<double>(hits) /
                   static_cast<double>(std::max<int64_t>(lookups, 1)),
               "share");

    const double advance =
        tracer->MedianMs("serve.engine.AdvanceStateBatch", &report);
    const double from_state =
        tracer->MedianMs("serve.engine.ForecastFromStateBatch", &report);
    const double submit =
        tracer->MedianMs("serve.engine.SubmitBatch", &report);
    report.Set("serve.engine.advance_state_batch_ms", advance, "ms");
    report.Set("serve.engine.forecast_from_state_batch_ms", from_state, "ms");
    report.Set("serve.engine.submit_batch_ms", submit, "ms");
    const double session_ms = append_many + batch_dcrnn + batch_stgcn;
    report.Set("serve.session.overhead_share",
               (session_ms - advance - from_state - submit) / session_ms,
               "share");
  }
  if (!args.trace) {
    if (!setups.Block(set_up)) return report;
    report.Set("setup_s", setups.seconds(), "s");
  }
  report.Note("setup_samples", static_cast<double>(setups.samples()));
  fleet.manager.reset();
  fleet.router.reset();
  for (const std::string& key : keys) {
    std::remove((prefix + "." + key + ".ckpt").c_str());
  }
  if (!args.trace) report.Set("peak_rss_mb", PeakRssMb(), "MB");
  return report;
}

}  // namespace perfbench
