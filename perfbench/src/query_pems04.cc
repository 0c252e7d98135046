// query_pems04: closed-loop DyHSL queries through the router and the
// engine's micro-batching queue.
//
// Four client threads each send one window and wait for its forecast
// before sending the next. They call ForecastRouter::Submit on one
// unsharded DyHSL engine with the paper's defaults (d=64, Lp=6, Ls=2,
// I=32, J=6, dense incidence, dropout 0), restored from a checkpoint of
// a seeded model, on a full-size (N=307) SynPEMS04-like network. The
// engine runs 2 workers x team 1 with max_batch 8. The loop is closed
// because open-loop latency is not steady under the current batcher:
// batch formation depends on arrival timing (see README.md).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <unistd.h>

#include "perfbench/src/bench.h"
#include "src/autograd/inference.h"
#include "src/autograd/ops.h"
#include "src/core/parallel.h"
#include "src/core/rng.h"
#include "src/data/dataset.h"
#include "src/graph/temporal_graph.h"
#include "src/models/dyhsl.h"
#include "src/serve/router.h"
#include "src/tensor/ops.h"
#include "src/tensor/prepack.h"
#include "src/tensor/workspace.h"
#include "src/train/checkpoint.h"

namespace perfbench {
namespace {

namespace ag = dyhsl::autograd;
namespace T = dyhsl::tensor;
using dyhsl::Rng;

constexpr int kClients = 4;
constexpr int64_t kWorkers = 2;
constexpr int64_t kMaxBatch = 8;
constexpr int64_t kDays = 3;
// Distinct test windows the clients cycle through; each has one
// ForecastNow reference computed before the timed phase.
constexpr int kPoolWindows = 48;
constexpr double kWarmupSeconds = 1.5;
// Traced runs alternate recording on and off in slots of this length.
constexpr double kTraceSlotSeconds = 0.25;
// Traced runs time this many direct checkpoint loads.
constexpr int kCheckpointLoads = 25;

struct Sample {
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  double compute_ms = 0.0;
  int64_t batch = 0;
  bool traced = false;
  /// Send time, ms since the loop started.
  double sent_ms = 0.0;
};

struct Pool {
  std::vector<T::Tensor> windows;
  std::vector<T::Tensor> references;
};

// Runs the closed loop for `seconds`; returns per-request samples and
// the wall time from the first send to the last reply.
std::vector<Sample> RunClients(dyhsl::serve::ForecastRouter* router,
                               const Pool& pool, double seconds,
                               uint64_t seed, Tracer* tracer, bool timed,
                               Report* report, double* wall_ms) {
  std::vector<std::vector<Sample>> per_client(kClients);
  std::atomic<int64_t> next_id{0};
  std::mutex fail_mu;
  // Warm-up requests are never traced, so spans describe the timed loop.
  tracer->set_active(timed);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<Clock::time_point> last_reply(kClients, start);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(seed * 7919 + static_cast<uint64_t>(c));
      std::vector<int> order(pool.windows.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
      rng.Shuffle(&order);
      size_t cursor = 0;
      while (Clock::now() < deadline) {
        const int idx = order[cursor++ % order.size()];
        const int64_t id = next_id++;
        Sample sample;
        dyhsl::serve::ForecastResponse response;
        {
          Tracer::Span span(tracer, "serve.router.Submit",
                            static_cast<uint64_t>(id));
          const Clock::time_point sent = Clock::now();
          response = router
                         ->Submit(dyhsl::serve::RouterRequest{
                             "dyhsl", pool.windows[static_cast<size_t>(idx)]})
                         .get();
          last_reply[static_cast<size_t>(c)] = Clock::now();
          sample.latency_ms =
              MsBetween(sent, last_reply[static_cast<size_t>(c)]);
          sample.sent_ms = MsBetween(start, sent);
          sample.traced = span.recorded();
        }
        const bool ok =
            response.status.ok() &&
            BitIdentical(response.forecast,
                         pool.references[static_cast<size_t>(idx)]);
        if (!ok) {
          std::lock_guard<std::mutex> lock(fail_mu);
          report->Fail("query " + std::to_string(id) + " window " +
                       std::to_string(idx) + ": " +
                       (response.status.ok() ? "differs from ForecastNow"
                                             : response.status.ToString()));
        }
        if (timed) {
          std::lock_guard<std::mutex> lock(fail_mu);
          report->Count(ok);
        }
        sample.queue_ms = response.queue_micros / 1000.0;
        sample.compute_ms = response.compute_micros / 1000.0;
        sample.batch = response.batch_size;
        per_client[static_cast<size_t>(c)].push_back(sample);
      }
    });
  }
  // Traced runs interleave recorded and unrecorded slots so the tracing
  // overhead is measured within one run, under the same conditions.
  if (tracer->enabled() && timed) {
    for (int slot = 0; Clock::now() < deadline; ++slot) {
      tracer->set_active(slot % 2 == 0);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kTraceSlotSeconds));
    }
  }
  for (std::thread& t : clients) t.join();
  tracer->set_active(true);
  Clock::time_point end = start;
  for (const Clock::time_point& t : last_reply) end = std::max(end, t);
  *wall_ms = MsBetween(start, end);
  std::vector<Sample> all;
  for (const auto& samples : per_client) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  return all;
}

// Enrolls every 2-D parameter of a replay block so its GEMMs take the
// same prepacked path the served model's do; Release on destruction.
class Enrolled {
 public:
  explicit Enrolled(const dyhsl::nn::Module& module) {
    for (const ag::Variable& p : module.Parameters()) {
      if (p.value().dim() != 2) continue;
      T::PrepackCache::Instance().Enroll(p.value());
      ptrs_.push_back(p.value().data());
    }
  }
  ~Enrolled() {
    for (const float* p : ptrs_) T::PrepackCache::Instance().Release(p);
  }
  Enrolled(const Enrolled&) = delete;
  Enrolled& operator=(const Enrolled&) = delete;

 private:
  std::vector<const float*> ptrs_;
};

// Times `fn` `reps` times under a span named `name`, resetting the
// arena between calls; returns the median.
template <typename Fn>
double Replay(Tracer* tracer, Report* report, const std::string& name,
              int reps, T::Workspace* workspace, Fn fn) {
  for (int r = 0; r < reps; ++r) {
    {
      T::WorkspaceScope scope(workspace);
      Tracer::Span span(tracer, name, static_cast<uint64_t>(r));
      fn();
    }
    workspace->Reset();
  }
  return tracer->MedianMs(name, report);
}

// Grad-free replays of the served model and of its blocks at the
// model's shapes, on the calling thread under the engine worker's team
// size (1) with prepack lookups on, like an engine worker.
void ReplayModel(dyhsl::serve::ForecastEngine* engine,
                 const dyhsl::train::ForecastTask& task,
                 const dyhsl::models::DyHslConfig& config, const Pool& pool,
                 Tracer* tracer, Report* report) {
  dyhsl::core::TeamScope team(engine->team_size());
  ag::InferenceModeGuard no_grad;
  T::PrepackLookupScope prepack;
  T::Workspace workspace;
  auto* model = engine->mutable_model();
  const int64_t n = task.num_nodes, steps = task.history;
  const T::Tensor x1 = T::PackBatch({pool.windows[0]});
  const T::Tensor x4 = T::PackBatch(
      {pool.windows[0], pool.windows[1], pool.windows[2], pool.windows[3]});
  report->Set("models.dyhsl.forward_b1_ms",
              Replay(tracer, report, "models.dyhsl.forward_b1", 8, &workspace,
                     [&] { model->Forward(x1, false); }),
              "ms");
  report->Set("models.dyhsl.forward_b4_per_item_ms",
              Replay(tracer, report, "models.dyhsl.forward_b4", 6, &workspace,
                     [&] { model->Forward(x4, false); }) /
                  4.0,
              "ms");

  Rng rng(config.seed + 1);
  dyhsl::models::PriorGraphEncoder encoder(
      n, steps, task.input_dim, config.hidden_dim, config.prior_layers,
      dyhsl::graph::BuildNormalizedTemporalOp(task.spatial_adj, steps), &rng);
  Enrolled encoder_packs(encoder);
  report->Set("models.dyhsl.prior_encoder_ms",
              Replay(tracer, report, "models.dyhsl.prior_encoder", 8,
                     &workspace, [&] { encoder.Forward(ag::Variable(x1)); }),
              "ms");
  // Hidden states outside any arena, so they survive the replay resets.
  const ag::Variable h = encoder.Forward(ag::Variable(x1));
  const auto* dyhsl_model = dynamic_cast<dyhsl::models::DyHsl*>(model);
  dyhsl::models::IgcBlock igc(config.hidden_dim, &rng);
  Enrolled igc_packs(igc);
  for (int64_t eps : config.window_sizes) {
    const int64_t pooled = steps / eps;
    ag::Variable delta =
        ag::Reshape(h, {1, steps, n, config.hidden_dim});
    if (eps > 1) delta = ag::MaxPoolAxis(delta, 1, eps);
    delta = ag::Reshape(delta, {1, pooled * n, config.hidden_dim});
    const auto adj =
        dyhsl::graph::BuildNormalizedTemporalOp(task.spatial_adj, pooled);
    const std::string suffix = ".e" + std::to_string(eps);
    if (dyhsl_model != nullptr) {
      report->Set("models.dyhsl.dhsl_ms" + suffix,
                  Replay(tracer, report, "models.dyhsl.dhsl" + suffix, 8,
                         &workspace,
                         [&] { dyhsl_model->dhsl().Forward(delta); }),
                  "ms");
    } else {
      report->Fail("served model is not a DyHsl");
    }
    report->Set("models.dyhsl.igc_ms" + suffix,
                Replay(tracer, report, "models.dyhsl.igc" + suffix, 8,
                       &workspace, [&] { igc.Forward(adj, delta); }),
                "ms");
  }
}

}  // namespace

Report RunQueryPems04(const Args& args, Tracer* tracer) {
  namespace serve = dyhsl::serve;
  Report report;
  // ---- Inputs (not part of set-up): network, traffic, a checkpoint of a
  // seeded model, and the pool of test windows with their references'
  // targets.
  const dyhsl::data::TrafficDataset dataset =
      dyhsl::data::TrafficDataset::Generate(
          dyhsl::data::DatasetSpec::Pems04Like(1.0, kDays, args.seed));
  const dyhsl::train::ForecastTask task =
      dyhsl::train::ForecastTask::FromDataset(dataset);
  dyhsl::models::DyHslConfig config;
  config.dropout = 0.0f;
  config.seed = kModelSeed;
  const std::string checkpoint = args.out_dir + "/query_pems04-" +
                                 std::to_string(::getpid()) + ".ckpt";
  {
    dyhsl::models::DyHslConfig trained = config;
    trained.seed = kModelSeed + 1;
    dyhsl::models::DyHsl model(task, trained);
    const dyhsl::Status saved = dyhsl::train::SaveCheckpoint(model, checkpoint);
    if (!saved.ok()) report.Fail("checkpoint save: " + saved.ToString());
  }
  Pool pool;
  std::vector<T::Tensor> targets;
  {
    const auto test = dataset.test_range();
    std::vector<int64_t> starts;
    for (int64_t t0 = test.begin; t0 < test.end; ++t0) starts.push_back(t0);
    Rng rng(args.seed);
    rng.Shuffle(&starts);
    for (int i = 0; i < kPoolWindows; ++i) {
      pool.windows.push_back(dataset.MakeInput(starts[static_cast<size_t>(i)]));
      targets.push_back(dataset.MakeTarget(starts[static_cast<size_t>(i)]));
    }
  }

  // ---- Set-up: router, engine, model construction, checkpoint load and
  // prepack enrollment. The last one serves.
  serve::EngineOptions options;
  options.max_batch = kMaxBatch;
  options.num_workers = kWorkers;
  options.team_size = 1;
  std::unique_ptr<serve::ForecastRouter> router;
  auto set_up = [&](uint64_t rep) {
    router.reset();
    Tracer::Span setup_span(tracer, "setup", rep);
    const Clock::time_point t0 = Clock::now();
    auto created = serve::ForecastRouter::Create();
    if (!created.ok()) {
      report.Fail("router create: " + created.status().ToString());
      return -1.0;
    }
    router = std::move(created).ValueOrDie();
    dyhsl::Status added;
    {
      Tracer::Span span(tracer, "serve.router.AddModel", rep);
      added = router->AddModel("dyhsl", task, serve::DyHslFactory(config),
                               checkpoint, options);
    }
    const double seconds = MsBetween(t0, Clock::now()) / 1000.0;
    if (!added.ok()) {
      report.Fail("AddModel: " + added.ToString());
      return -1.0;
    }
    return seconds;
  };
  SetupTimer setups;
  if (!setups.Block(set_up)) return report;
  serve::ForecastEngine* engine =
      router->RouteFor("dyhsl").ValueOrDie().engines[0];

  // ---- References: ForecastNow on every pool window, before timing.
  RelativeMae quality(task.scaler_mean);
  for (size_t i = 0; i < pool.windows.size(); ++i) {
    serve::ForecastResponse ref = engine->ForecastNow(pool.windows[i]);
    const bool ok = ref.status.ok() && ref.forecast.defined() &&
                    ref.forecast.shape() ==
                        T::Shape{task.horizon, task.num_nodes} &&
                    AllFinite(ref.forecast);
    if (!ok) {
      report.Fail("ForecastNow reference " + std::to_string(i));
      return report;
    }
    quality.Add(ref.forecast.data(), targets[i].data(), ref.forecast.numel());
    pool.references.push_back(ref.forecast);
  }

  // ---- Warm-up (arenas, prepack slots, first fork), then the timed loop.
  double wall_ms = 0.0;
  RunClients(router.get(), pool, kWarmupSeconds, args.seed + 17, tracer,
             /*timed=*/false, &report, &wall_ms);
  const serve::EngineStats before = engine->Snapshot();
  const std::vector<Sample> samples =
      RunClients(router.get(), pool, args.seconds, args.seed, tracer,
                 /*timed=*/true, &report, &wall_ms);
  const serve::EngineStats after = engine->Snapshot();

  std::vector<double> latency, sent_ms, queue, compute, overhead, traced,
      untraced;
  double busy_ms = 0.0;
  for (const Sample& s : samples) {
    latency.push_back(s.latency_ms);
    sent_ms.push_back(s.sent_ms);
    queue.push_back(s.queue_ms);
    compute.push_back(s.compute_ms);
    overhead.push_back(s.latency_ms - s.queue_ms - s.compute_ms);
    if (s.batch > 0) busy_ms += s.compute_ms / static_cast<double>(s.batch);
    (s.traced ? traced : untraced).push_back(s.latency_ms);
  }
  report.Note("clients", kClients);
  report.Note("engine_workers_x_team", "2x1");
  report.Note("latency_samples", static_cast<double>(latency.size()));

  if (!args.trace) {
    report.Set("latency_p50_ms", FastestChunkMedian(sent_ms, latency),
               "ms");
    report.Set("throughput_per_s",
               FastestChunkRate(sent_ms, latency, kClients), "1/s");
    report.Set("output_rel_mae", quality.Ratio(), "ratio");
  } else {
    const double tail = TailPercentile(latency);
    report.Set("latency_samples", static_cast<double>(latency.size()),
               "count");
    report.Set("latency_tail_pct", tail, "%");
    report.Set("latency_tail_ms", Quantile(latency, tail / 100.0), "ms");
    report.Set("serve.engine.queue_wait_ms.p50", Median(queue), "ms");
    report.Set("serve.engine.queue_wait_ms.tail",
               Quantile(queue, tail / 100.0), "ms");
    report.Set("serve.engine.compute_ms", Median(compute), "ms");
    report.Set("serve.router.overhead_ms", Median(overhead), "ms");
    const int64_t batches = after.batches - before.batches;
    if (batches == 0) report.Fail("the engine recorded no batch");
    report.Set("serve.engine.batch_size_mean",
               static_cast<double>(after.requests - before.requests) /
                   static_cast<double>(std::max<int64_t>(batches, 1)),
               "count");
    report.Set("serve.engine.worker_idle_share",
               1.0 - busy_ms / (wall_ms * static_cast<double>(kWorkers)),
               "share");
    const int64_t hits = after.prepack.hits - before.prepack.hits;
    const int64_t lookups = hits + after.prepack.misses - before.prepack.misses;
    if (lookups == 0) report.Fail("the engine recorded no prepack lookup");
    if (after.prepack.bytes == 0) report.Fail("the engine prepacked nothing");
    report.Set("tensor.prepack.hit_ratio",
               static_cast<double>(hits) /
                   static_cast<double>(std::max<int64_t>(lookups, 1)),
               "share");
    report.Set("tensor.prepack.bytes", static_cast<double>(after.prepack.bytes),
               "B");
    report.Set("serve.engine.create_ms",
               tracer->MedianMs("serve.router.AddModel", &report), "ms");
    report.Set("trace.overhead_share", OverheadShare(traced, untraced),
               "share");
    ReplayModel(engine, task, config, pool, tracer, &report);
    for (int rep = 0; rep < kCheckpointLoads; ++rep) {
      dyhsl::models::DyHsl fresh(task, config);
      Tracer::Span span(tracer, "train.checkpoint.LoadCheckpoint",
                        static_cast<uint64_t>(rep));
      const dyhsl::Status loaded =
          dyhsl::train::LoadCheckpoint(&fresh, checkpoint);
      if (!loaded.ok()) report.Fail("LoadCheckpoint: " + loaded.ToString());
    }
    report.Set("train.checkpoint.load_ms",
               tracer->MedianMs("train.checkpoint.LoadCheckpoint", &report),
               "ms");
  }
  if (!args.trace) {
    if (!setups.Block(set_up)) return report;
    report.Set("setup_s", setups.seconds(), "s");
  }
  report.Note("setup_samples", static_cast<double>(setups.samples()));
  router.reset();
  std::remove(checkpoint.c_str());
  if (!args.trace) report.Set("peak_rss_mb", PeakRssMb(), "MB");
  return report;
}

}  // namespace perfbench
