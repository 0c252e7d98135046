#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "perfbench/src/bench.h"

namespace perfbench {

// ---------------------------------------------------------------- Report --

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_[key] = value;
}

void Report::Note(const std::string& key, double value) {
  std::ostringstream out;
  out << value;
  notes_[key] = out.str();
}

void Report::Count(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::Fail(const std::string& what) {
  ++failed_checks_;
  if (failures_.size() < 8) failures_.push_back(what);
}

// ------------------------------------------------------------ Statistics --

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

namespace {

// `values` in the order of `at_ms`, cut into chunks of kChunkSamples; the
// remainder joins the last chunk.
std::vector<std::vector<double>> Chunks(const std::vector<double>& at_ms,
                                        const std::vector<double>& values) {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return at_ms[a] < at_ms[b]; });
  std::vector<std::vector<double>> chunks;
  for (size_t i = 0; i < order.size(); ++i) {
    if (chunks.empty() ||
        (i % kChunkSamples == 0 && order.size() - i >= kChunkSamples)) {
      chunks.emplace_back();
    }
    chunks.back().push_back(values[order[i]]);
  }
  return chunks;
}

}  // namespace

double FastestChunkMedian(const std::vector<double>& at_ms,
                          const std::vector<double>& values) {
  double fastest = 0.0;
  for (const std::vector<double>& chunk : Chunks(at_ms, values)) {
    const double median = Median(chunk);
    if (fastest == 0.0 || median < fastest) fastest = median;
  }
  return fastest;
}

double FastestChunkRate(const std::vector<double>& at_ms,
                        const std::vector<double>& values, double per_sample) {
  double fastest = 0.0;
  for (const std::vector<double>& chunk : Chunks(at_ms, values)) {
    double sum_ms = 0.0;
    for (double ms : chunk) sum_ms += ms;
    fastest = std::max(fastest, 1000.0 * per_sample *
                                    static_cast<double>(chunk.size()) / sum_ms);
  }
  return fastest;
}

double TailPercentile(const std::vector<double>& values) {
  for (double pct : {99.0, 95.0, 90.0, 50.0}) {
    const double cut = Quantile(values, pct / 100.0);
    const auto beyond =
        std::count_if(values.begin(), values.end(),
                      [cut](double v) { return v > cut; });
    if (beyond >= 10) return pct;
  }
  return 0.0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string SelfCheck() {
  // Percentile rule: 1000 distinct samples support p99 (exactly ten lie
  // above it); 900 leave nine above p99, so the tail falls back to p95;
  // 21 support only the median, and 15 support nothing.
  auto ramp = [](int n) {
    std::vector<double> v(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) v[static_cast<size_t>(i)] = n - i;
    return v;
  };
  if (TailPercentile(ramp(1000)) != 99.0) return "tail rule at n=1000";
  if (TailPercentile(ramp(900)) != 95.0) return "tail rule at n=900";
  if (TailPercentile(ramp(21)) != 50.0) return "tail rule at n=21";
  if (TailPercentile(ramp(15)) != 0.0) return "tail rule at n=15";
  if (Median({3.0, 1.0, 2.0}) != 2.0 || Quantile({1.0, 2.0}, 0.5) != 1.5) {
    return "quantile interpolation";
  }
  // Chunks: 250 samples in reverse time order make chunks of 100 and 150.
  // The first 100 in time read 7 ms, the other 150 read 1 ms, except that
  // 40 of them read 15 ms: medians 7 and 1, means 7 and 4.73.
  {
    std::vector<double> at, ms;
    for (int i = 249; i >= 0; --i) {
      at.push_back(i);
      ms.push_back(i < 100 ? 7.0 : i < 210 ? 1.0 : 15.0);
    }
    if (FastestChunkMedian(at, ms) != 1.0) return "fastest chunk median";
    const double mean = (110.0 * 1.0 + 40.0 * 15.0) / 150.0;
    if (std::fabs(FastestChunkRate(at, ms, 2.0) - 2000.0 / mean) > 1e-9) {
      return "fastest chunk rate";
    }
    // Fewer than two chunks' worth: one chunk of everything.
    if (FastestChunkMedian({0, 1, 2}, {3, 1, 2}) != 2.0 ||
        FastestChunkRate({0, 1}, {1, 3}, 1.0) != 500.0) {
      return "single chunk";
    }
  }
  // RSS reader: touching 8 MiB must not leave the peak below it.
  const double before = PeakRssMb();
  if (before <= 0.0) return "VmHWM unreadable";
  {
    const size_t bytes = size_t{8} << 20;
    std::unique_ptr<char[]> block(new char[bytes]);
    std::memset(block.get(), 1, bytes);
    volatile char sink = block[bytes - 1];
    (void)sink;
  }
  if (PeakRssMb() < 8.0) return "VmHWM below a touched 8 MiB block";
  // Failure counting: a failed operation and a failed check both make
  // the report incorrect; successes alone do not.
  Report report;
  report.Count(true);
  if (!report.correct() || report.attempted() != 1) return "count ok";
  report.Count(false);
  if (report.correct() || report.failed() != 1 || report.attempted() != 2) {
    return "count failure";
  }
  Report checked;
  checked.Count(true);
  checked.Fail("synthetic");
  if (checked.correct() || checked.failed() != 0) return "failed check";
  return "";
}

bool AllFinite(const dyhsl::tensor::Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

bool BitIdentical(const dyhsl::tensor::Tensor& a,
                  const dyhsl::tensor::Tensor& b) {
  return a.defined() && b.defined() && a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

double MaxAbsDiff(const dyhsl::tensor::Tensor& a,
                  const dyhsl::tensor::Tensor& b) {
  double worst = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::fabs(static_cast<double>(a.data()[i]) -
                                      b.data()[i]));
  }
  return worst;
}

void RelativeMae::Add(const float* pred, const float* truth, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (std::fabs(truth[i]) > 1e-3f) {
      abs_sum_ += std::fabs(static_cast<double>(pred[i]) - truth[i]);
      base_sum_ += std::fabs(static_cast<double>(mean_) - truth[i]);
    }
  }
}

double RelativeMae::BaselineMae(const float* truth, int64_t n) const {
  double sum = 0.0;
  int64_t count = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (std::fabs(truth[i]) > 1e-3f) {
      sum += std::fabs(static_cast<double>(mean_) - truth[i]);
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

// ---------------------------------------------------------------- Tracer --

namespace {
// Open spans of the calling thread, innermost last (parent links).
thread_local std::vector<int64_t> t_open_spans;
}  // namespace

Tracer::Span::Span(Tracer* tracer, std::string name, uint64_t id)
    : tracer_(tracer), name_(std::move(name)), id_(id) {
  if (tracer_ != nullptr && tracer_->recording()) {
    seq_ = tracer_->Open(&parent_);
    start_ = Clock::now();
  }
}

Tracer::Span::~Span() {
  if (seq_ < 0) return;
  tracer_->Close(std::move(name_), id_, seq_, parent_, start_, Clock::now());
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

void Tracer::Add(std::string name, uint64_t id, Clock::time_point start,
                 Clock::time_point end) {
  if (!recording()) return;
  int64_t parent = -1;
  const int64_t seq = Open(&parent);
  Close(std::move(name), id, seq, parent, start, end);
}

void Tracer::set_active(bool active) {
  std::lock_guard<std::mutex> lock(mu_);
  active_ = active;
}

bool Tracer::recording() const {
  if (!enabled_) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

int64_t Tracer::Open(int64_t* parent) {
  *parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  int64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = next_seq_++;
  }
  t_open_spans.push_back(seq);
  return seq;
}

void Tracer::Close(std::string name, uint64_t id, int64_t seq,
                   int64_t parent, Clock::time_point start,
                   Clock::time_point end) {
  if (!t_open_spans.empty() && t_open_spans.back() == seq) {
    t_open_spans.pop_back();
  }
  SpanRecord record;
  record.name = std::move(name);
  record.id = id;
  record.seq = seq;
  record.parent = parent;
  record.start_us =
      std::chrono::duration<double, std::micro>(start - origin_).count();
  record.end_us =
      std::chrono::duration<double, std::micro>(end - origin_).count();
  std::lock_guard<std::mutex> lock(mu_);
  auto tid = tids_.emplace(std::this_thread::get_id(),
                           static_cast<int>(tids_.size()));
  record.tid = tid.first->second;
  spans_.push_back(std::move(record));
}

double Tracer::MedianMs(const std::string& name, Report* report) const {
  std::vector<double> durations;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& s : spans_) {
      if (s.name == name) durations.push_back(s.ms());
    }
  }
  if (durations.empty()) report->Fail("no span " + name + " was recorded");
  return Median(durations);
}

std::string Tracer::Write(const std::string& json_path,
                          const std::string& table_path) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (std::FILE* out = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(out, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(out,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %llu, \"span\": %lld, \"parent\": %lld}}%s\n",
                   s.name.c_str(), s.tid, s.start_us, s.end_us - s.start_us,
                   static_cast<unsigned long long>(s.id),
                   static_cast<long long>(s.seq),
                   static_cast<long long>(s.parent),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "], \"displayTimeUnit\": \"ms\"}\n");
    std::fclose(out);
  }
  // Self time: a span's duration minus its direct children's, which run
  // on the same thread and so never overlap each other.
  std::map<int64_t, double> child_ms;
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) child_ms[s.parent] += s.ms();
  }
  struct Row {
    int64_t calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const SpanRecord& s : spans_) {
    Row& row = rows[s.name];
    row.calls += 1;
    row.total += s.ms();
    auto it = child_ms.find(s.seq);
    row.self += s.ms() - (it == child_ms.end() ? 0.0 : it->second);
  }
  std::ostringstream table;
  char line[256];
  std::snprintf(line, sizeof(line), "%-44s %8s %12s %12s %10s\n", "span",
                "calls", "total_ms", "self_ms", "mean_ms");
  table << line;
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof(line), "%-44s %8lld %12.3f %12.3f %10.4f\n",
                  name.c_str(), static_cast<long long>(row.calls), row.total,
                  row.self, row.total / static_cast<double>(row.calls));
    table << line;
  }
  if (std::FILE* out = std::fopen(table_path.c_str(), "w")) {
    std::fputs(table.str().c_str(), out);
    std::fclose(out);
  }
  return table.str();
}

}  // namespace perfbench
