// train_pems08: DyHSL training steps at the paper's defaults.
//
// One thread with an OpenMP team of 2 runs taped DyHSL training steps
// (d=64, Lp=6, Ls=2, I=32, J=6, dropout 0.1, Adam lr 2e-3, gradient
// clip 5, batch 16) on full-size SynPEMS08 (N=170), shuffled by the
// seed. The run is a fixed number of steps derived from --seconds, not
// a wall-time budget, so the loss sequence is bit-reproducible for a
// seed at a fixed thread count. This is the only workload on the taped
// forward, backward, optimizer and batching paths, and the memory-heavy
// one; prepack lookups are off in training.

#include <algorithm>
#include <cmath>
#include <memory>

#include "perfbench/src/bench.h"
#include "src/core/parallel.h"
#include "src/data/dataset.h"
#include "src/models/dyhsl.h"
#include "src/optim/optimizer.h"
#include "src/tensor/workspace.h"
#include "src/train/forecast_model.h"

namespace perfbench {
namespace {

constexpr int kTeam = 2;
constexpr int64_t kBatch = 16;
constexpr float kLearningRate = 2e-3f;
constexpr float kGradClip = 5.0f;
constexpr int64_t kDays = 2;
// Steps per second of --seconds. A step takes about 0.8 s at a team of 2
// on the reference machine, so the run lasts about 0.8 x --seconds.
constexpr double kStepsPerSecond = 1.0;

}  // namespace

Report RunTrainPems08(const Args& args, Tracer* tracer) {
  Report report;
  dyhsl::core::TeamScope team(kTeam);
  const dyhsl::data::TrafficDataset dataset =
      dyhsl::data::TrafficDataset::Generate(
          dyhsl::data::DatasetSpec::Pems08Like(1.0, kDays, args.seed));
  const dyhsl::train::ForecastTask task =
      dyhsl::train::ForecastTask::FromDataset(dataset);
  dyhsl::models::DyHslConfig config;
  config.seed = kModelSeed;

  // ---- Set-up: model and optimizer construction. The last one trains.
  std::unique_ptr<dyhsl::models::DyHsl> model;
  std::unique_ptr<dyhsl::optim::Adam> optimizer;
  auto set_up = [&](uint64_t rep) {
    optimizer.reset();
    model.reset();
    Tracer::Span span(tracer, "setup", rep);
    const Clock::time_point t0 = Clock::now();
    model = std::make_unique<dyhsl::models::DyHsl>(task, config);
    optimizer = std::make_unique<dyhsl::optim::Adam>(
        model->Parameters(), kLearningRate, 0.9f, 0.999f, 1e-8f, 0.0f);
    return MsBetween(t0, Clock::now()) / 1000.0;
  };
  SetupTimer setups;
  setups.Block(set_up);

  dyhsl::data::BatchIterator batches(&dataset, dataset.train_range(), kBatch,
                                     /*shuffle=*/true, args.seed);
  dyhsl::tensor::Workspace workspace;
  // Warm-up: one forward and backward without an optimizer step grows the
  // arena and forks the team; the gradients are dropped.
  {
    dyhsl::data::BatchIterator warm(&dataset, dataset.val_range(), kBatch,
                                    /*shuffle=*/false, args.seed);
    dyhsl::data::BatchIterator::Batch batch;
    warm.Next(&batch);
    {
      dyhsl::tensor::WorkspaceScope scope(&workspace);
      dyhsl::autograd::Variable loss = dyhsl::train::MaskedMaeLoss(
          model->Forward(batch.x, /*training=*/true), batch.y);
      loss.Backward();
      optimizer->ZeroGrad();
    }
    workspace.Reset();
  }

  const int steps = std::max(
      4, static_cast<int>(std::lround(args.seconds * kStepsPerSecond)));
  std::vector<double> step_ms, step_at_ms, traced, untraced;
  const Clock::time_point timed_start = Clock::now();
  RelativeMae quality(task.scaler_mean);
  for (int step = 0; step < steps; ++step) {
    const uint64_t id = static_cast<uint64_t>(step);
    tracer->set_active(step % 2 == 0);
    const bool recorded = tracer->recording();
    double loss_value = 0.0;
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Span step_span(tracer, "train.step", id);
      dyhsl::data::BatchIterator::Batch batch;
      {
        Tracer::Span span(tracer, "data.BatchIterator.Next", id);
        // The last batch of an epoch is short; skip it, so every step
        // trains kBatch windows and the step times are comparable.
        if (!batches.Next(&batch) || batch.x.size(0) < kBatch) {
          batches.Reset();
          batches.Next(&batch);
        }
      }
      dyhsl::tensor::WorkspaceScope scope(&workspace);
      dyhsl::autograd::Variable loss;
      {
        Tracer::Span span(tracer, "models.dyhsl.Forward.taped", id);
        loss = dyhsl::train::MaskedMaeLoss(
            model->Forward(batch.x, /*training=*/true), batch.y);
      }
      {
        Tracer::Span span(tracer, "autograd.Variable.Backward", id);
        loss.Backward();
      }
      {
        Tracer::Span span(tracer, "optim.Adam.Step", id);
        dyhsl::optim::ClipGradNorm(optimizer->params(), kGradClip);
        optimizer->Step();
        optimizer->ZeroGrad();
      }
      loss_value = loss.value().data()[0];
      quality.AddReduced(loss_value,
                         quality.BaselineMae(batch.y.data(), batch.y.numel()));
    }
    workspace.Reset();
    const double ms = MsBetween(t0, Clock::now());
    tracer->set_active(true);
    const bool ok = std::isfinite(loss_value);
    report.Count(ok);
    if (!ok) report.Fail("non-finite loss at step " + std::to_string(step));
    step_ms.push_back(ms);
    step_at_ms.push_back(MsBetween(timed_start, t0));
    (recorded ? traced : untraced).push_back(ms);
  }

  report.Note("driver_threads", 1);
  report.Note("openmp_team", kTeam);
  report.Note("steps", steps);
  if (!args.trace) {
    setups.Block(set_up);
    report.Set("setup_s", setups.seconds(), "s");
    report.Set("latency_p50_ms", FastestChunkMedian(step_at_ms, step_ms),
               "ms");
    report.Set("throughput_per_s",
               FastestChunkRate(step_at_ms, step_ms, kBatch), "1/s");
    report.Set("output_rel_mae", quality.Ratio(), "ratio");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const double tail = TailPercentile(step_ms);
    report.Set("latency_samples", static_cast<double>(step_ms.size()),
               "count");
    report.Set("latency_tail_pct", tail, "%");
    report.Set("latency_tail_ms", Quantile(step_ms, tail / 100.0), "ms");
    report.Set("trace.overhead_share", OverheadShare(traced, untraced),
               "share");
    report.Set("data.batch_ms",
               tracer->MedianMs("data.BatchIterator.Next", &report), "ms");
    report.Set("models.dyhsl.forward_taped_ms",
               tracer->MedianMs("models.dyhsl.Forward.taped", &report), "ms");
    report.Set("autograd.backward_ms",
               tracer->MedianMs("autograd.Variable.Backward", &report), "ms");
    report.Set("optim.step_ms", tracer->MedianMs("optim.Adam.Step", &report),
               "ms");
    if (workspace.bytes_reserved() == 0) {
      report.Fail("the training arena reserved nothing");
    }
    report.Set("tensor.workspace.reserved_mb",
               static_cast<double>(workspace.bytes_reserved()) / (1 << 20),
               "MB");
  }
  report.Note("setup_samples", static_cast<double>(setups.samples()));
  return report;
}

}  // namespace perfbench
