// Shared pieces of the repository benchmark: command-line arguments, the
// result record every workload fills, sample statistics, the RSS reader
// and the span tracer.
//
// A workload is one function `Report RunX(const Args&, Tracer*)`. It
// generates its inputs from Args::seed, sets the program up, warms it,
// measures for Args::seconds, checks every output, and fills a Report:
// end-to-end metrics when tracing is off, per-layer metrics when it is on.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Initial weights of every model. The workload seed drives only the
/// generated inputs (network, traffic, offsets, orders, shuffles), so the
/// program does the same arithmetic on every seed. Checkpoints hold the
/// weights of kModelSeed + 1, so loading one replaces every parameter.
constexpr uint64_t kModelSeed = 21;

/// Parsed command line: --workload --seed --seconds --trace --out-dir.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for trace files and scratch files.
  std::string out_dir = ".bench_build/results";
};

/// What one run reports. `attempted` counts the timed operations
/// (requests, session-ticks, ticks or steps); `failed` counts those that
/// returned an error status or an incorrect output. `correct` is false
/// when any check failed, including checks outside the timed phase.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Record metadata (thread budgets, sample counts) printed beside the
  /// result, never part of the metric set.
  void Note(const std::string& key, const std::string& value);
  void Note(const std::string& key, double value);

  /// Counts one timed operation and whether it succeeded.
  void Count(bool ok);
  /// Marks a failed check; `what` is kept for the log (first few only).
  void Fail(const std::string& what);

  bool correct() const { return failed_checks_ == 0 && failed_ == 0; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::map<std::string, std::pair<double, std::string>>& metrics()
      const {
    return metrics_;
  }
  const std::map<std::string, std::string>& notes() const { return notes_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t failed_checks_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> notes_;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

/// latency_p50_ms and throughput_per_s come from the fastest stretch of the
/// timed phase. The samples, in the order of their start time `at_ms`, are
/// cut into chunks of kChunkSamples consecutive samples; a remainder joins
/// the last chunk, so a run of fewer than 2 * kChunkSamples samples (a
/// training run) is one chunk. The host this benchmark was sized on has
/// slow phases from a few seconds to whole runs; host noise only ever adds
/// time, so the fastest chunk is the estimate of the program's own speed
/// that moves least with them. A chunk holds a hundred samples (about two
/// seconds) so that its median does not flip with how the micro-batcher
/// happened to group a few requests.
constexpr size_t kChunkSamples = 100;

/// latency_p50_ms: the lowest chunk median of `values` (ms).
double FastestChunkMedian(const std::vector<double>& at_ms,
                          const std::vector<double>& values);

/// throughput_per_s: the highest chunk rate, where a chunk's rate is
/// `per_sample` units over the mean duration of its samples (`values`,
/// ms). One driver thread: units per tick or step over the mean tick or
/// step time. A closed loop of c clients: c over the mean latency, the
/// completion rate by Little's law.
double FastestChunkRate(const std::vector<double>& at_ms,
                        const std::vector<double>& values, double per_sample);

/// The highest percentile among 99, 95, 90 and 50 with at least ten
/// samples strictly above its value, or 0 when even the median has fewer.
double TailPercentile(const std::vector<double>& values);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// Exercises Quantile, TailPercentile, the chunk rules, PeakRssMb and
/// Report's failure counting on known inputs; returns an empty string or
/// what went wrong.
std::string SelfCheck();

/// True when every element is finite.
bool AllFinite(const dyhsl::tensor::Tensor& t);
/// True when both tensors have the same shape and identical bytes.
bool BitIdentical(const dyhsl::tensor::Tensor& a,
                  const dyhsl::tensor::Tensor& b);
/// Largest |a - b| over all elements (shapes must match).
double MaxAbsDiff(const dyhsl::tensor::Tensor& a,
                  const dyhsl::tensor::Tensor& b);

/// output_rel_mae: the masked MAE of a workload's outputs over the masked
/// MAE of a constant forecast of the training mean on the same readings
/// (readings at or below 1e-3 are dropouts, the PEMS convention). The
/// ratio is 1 for a model that has learned nothing and falls as it
/// learns; unlike the raw MAE it does not scale with the flow level of
/// the network a seed generates.
class RelativeMae {
 public:
  explicit RelativeMae(float training_mean) : mean_(training_mean) {}
  void Add(const float* pred, const float* truth, int64_t n);
  /// Adds one already-reduced pair (a training step's loss and the
  /// constant forecast's masked MAE on the same batch).
  void AddReduced(double mae, double baseline_mae) {
    abs_sum_ += mae;
    base_sum_ += baseline_mae;
  }
  /// Masked MAE of the constant training-mean forecast over `truth`.
  double BaselineMae(const float* truth, int64_t n) const;
  double Ratio() const { return base_sum_ > 0.0 ? abs_sum_ / base_sum_ : 0.0; }

 private:
  float mean_;
  double abs_sum_ = 0.0;
  double base_sum_ = 0.0;
};

/// setup_s. One set-up takes milliseconds, and the host this benchmark was
/// sized on has slow phases from under a second to whole runs, so set-up
/// is timed in two blocks: one before the timed phase and one after it,
/// once the serving instance is no longer needed. A block repeats the
/// set-up for at least kSetupBlockSeconds and kMinSetupsPerBlock times.
/// setup_s is the fastest set-up of both blocks, for the reason given at
/// kChunkSamples.
constexpr double kSetupBlockSeconds = 1.0;
constexpr int kMinSetupsPerBlock = 5;

class SetupTimer {
 public:
  /// Runs one block. `set_up(rep)` replaces the previous instance with a
  /// new one and returns the seconds the new one took, or a negative
  /// number when it failed (after failing the report). Returns false on
  /// a failure.
  template <typename Fn>
  bool Block(Fn set_up) {
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kSetupBlockSeconds));
    for (int reps = 0; reps < kMinSetupsPerBlock || Clock::now() < end;
         ++reps) {
      const double s = set_up(static_cast<uint64_t>(samples_++));
      if (s < 0.0) return false;
      if (fastest_ < 0.0 || s < fastest_) fastest_ = s;
    }
    return true;
  }

  /// The fastest set-up so far.
  double seconds() const { return fastest_; }
  int64_t samples() const { return samples_; }

 private:
  double fastest_ = -1.0;
  int64_t samples_ = 0;
};

/// In-memory span recorder. A span has a name, start, end, the span that
/// was open on the same thread when it started (its parent) and the id of
/// the request, tick or step it belongs to. Spans are only recorded while
/// the tracer is enabled and active; the traced run toggles `active` to
/// interleave traced and untraced units and measure the tracing overhead.
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    uint64_t id = 0;
    int64_t seq = 0;
    int64_t parent = -1;
    int tid = 0;
    double start_us = 0.0;
    double end_us = 0.0;
    double ms() const { return (end_us - start_us) / 1000.0; }
  };

  /// RAII span. Does nothing when the tracer is off or inactive.
  class Span {
   public:
    Span(Tracer* tracer, std::string name, uint64_t id);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// True when this span will be recorded.
    bool recorded() const { return seq_ >= 0; }

   private:
    Tracer* tracer_;
    std::string name_;
    uint64_t id_;
    int64_t seq_ = -1;
    int64_t parent_ = -1;
    Clock::time_point start_;
  };

  explicit Tracer(bool enabled);

  /// Records a finished span whose name was only known after the call,
  /// as a child of the span open on this thread, if recording.
  void Add(std::string name, uint64_t id, Clock::time_point start,
           Clock::time_point end);

  bool enabled() const { return enabled_; }
  /// Recording switch for the current unit of work (thread-safe).
  void set_active(bool active);
  bool recording() const;

  /// Median duration of the spans recorded with this exact name. When
  /// there are none, the layer was not measured: fails `report` and
  /// returns 0.
  double MedianMs(const std::string& name, Report* report) const;

  /// Writes Chrome trace-event JSON to `json_path` and a per-name
  /// calls / total / self table to `table_path`; returns the table.
  std::string Write(const std::string& json_path,
                    const std::string& table_path) const;

 private:
  int64_t Open(int64_t* parent);
  void Close(std::string name, uint64_t id, int64_t seq, int64_t parent,
             Clock::time_point start, Clock::time_point end);

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  bool active_ = true;
  int64_t next_seq_ = 0;
  std::map<std::thread::id, int> tids_;
  std::vector<SpanRecord> spans_;
};

Report RunQueryPems04(const Args& args, Tracer* tracer);
Report RunDistrictFleet(const Args& args, Tracer* tracer);
Report RunMetroStream(const Args& args, Tracer* tracer);
Report RunTrainPems08(const Args& args, Tracer* tracer);

/// Share of extra latency in traced units over untraced ones.
inline double OverheadShare(const std::vector<double>& traced,
                            const std::vector<double>& untraced) {
  const double base = Median(untraced);
  return base > 0.0 ? Median(traced) / base - 1.0 : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
