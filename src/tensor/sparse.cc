#include "src/tensor/sparse.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/core/check.h"
#include "src/core/parallel.h"
#include "src/tensor/simd.h"

namespace dyhsl::tensor {

namespace {

// Shared CSR × dense core: out(b, r, :) = beta * out + sum_k v_k x(b, c_k, :)
// for the structure given by row_ptr/col_idx. `val_perm`, when non-null,
// indirects value reads (the transposed-pattern case). Parallelism is over
// (batch, row) only — each output row is accumulated sequentially in CSR
// order, so results are bit-identical for every OpenMP thread count.
void SpMMCore(int64_t batch, int64_t rows, const int64_t* row_ptr,
              const int64_t* col_idx, const float* vals,
              const int64_t* val_perm, const float* px, int64_t x_rows,
              int64_t f, float beta, float* po) {
  const int64_t x_step = x_rows * f;
  const int64_t o_step = rows * f;
  const int64_t nnz = row_ptr[rows];
  // Scoped to the calling thread's ThreadBudget slice (see
  // core::TeamScope): engine workers' sparse products stay inside their
  // partition of the machine instead of each forking a full team.
  const int team = core::TeamThreads();
  (void)team;  // consumed only by the pragma; unused without OpenMP
#pragma omp parallel for collapse(2) num_threads(team) \
    if (batch * nnz * f > 16384)
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t r = 0; r < rows; ++r) {
      float* orow = po + b * o_step + r * f;
      const int64_t k0 = row_ptr[r], k1 = row_ptr[r + 1];
      int64_t k = k0;
      if (beta == 0.0f) {
        // The first nonzero initializes the row (out may be uninitialized).
        if (k0 == k1) {
          for (int64_t c = 0; c < f; ++c) orow[c] = 0.0f;
          continue;
        }
        const float v = vals[val_perm != nullptr ? val_perm[k0] : k0];
        const float* xrow = px + b * x_step + col_idx[k0] * f;
        for (int64_t c = 0; c < f; ++c) orow[c] = v * xrow[c];
        k = k0 + 1;
      } else if (beta != 1.0f) {
        for (int64_t c = 0; c < f; ++c) orow[c] *= beta;
      }
      for (; k < k1; ++k) {
        const float v = vals[val_perm != nullptr ? val_perm[k] : k];
        const float* xrow = px + b * x_step + col_idx[k] * f;
        for (int64_t c = 0; c < f; ++c) orow[c] += v * xrow[c];
      }
    }
  }
}

struct DenseDims {
  int64_t batch;
  int64_t rows;
  int64_t f;
};

DenseDims CheckDense(const Tensor& x, int64_t expected_rows,
                     const char* what) {
  DYHSL_CHECK_MSG(x.dim() == 2 || x.dim() == 3,
                  std::string(what) + ": dense operand must be 2-D or 3-D");
  bool batched = x.dim() == 3;
  DenseDims d;
  d.batch = batched ? x.size(0) : 1;
  d.rows = batched ? x.size(1) : x.size(0);
  d.f = batched ? x.size(2) : x.size(1);
  DYHSL_CHECK_MSG(d.rows == expected_rows,
                  std::string(what) + " dim mismatch: dense operand has " +
                      std::to_string(d.rows) + " rows, expected " +
                      std::to_string(expected_rows));
  return d;
}

}  // namespace

CsrMatrix CsrMatrix::FromTriplets(int64_t rows, int64_t cols,
                                  std::vector<Triplet> triplets) {
  DYHSL_CHECK_GE(rows, 0);
  DYHSL_CHECK_GE(cols, 0);
  for (const Triplet& t : triplets) {
    DYHSL_CHECK_GE(t.row, 0);
    DYHSL_CHECK_LT(t.row, rows);
    DYHSL_CHECK_GE(t.col, 0);
    DYHSL_CHECK_LT(t.col, cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  int64_t last_row = -1;
  int64_t last_col = -1;
  for (const Triplet& t : triplets) {
    if (t.row == last_row && t.col == last_col) {
      m.values_.back() += t.value;  // merge duplicate coordinate
      continue;
    }
    m.col_idx_.push_back(t.col);
    m.values_.push_back(t.value);
    m.row_ptr_[t.row + 1] += 1;
    last_row = t.row;
    last_col = t.col;
  }
  for (int64_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

CsrMatrix CsrMatrix::Identity(int64_t n) {
  std::vector<Triplet> t;
  t.reserve(n);
  for (int64_t i = 0; i < n; ++i) t.push_back({i, i, 1.0f});
  return FromTriplets(n, n, std::move(t));
}

CsrMatrix CsrMatrix::Transposed() const {
  std::vector<Triplet> t;
  t.reserve(values_.size());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      t.push_back({col_idx_[k], r, values_[k]});
    }
  }
  return FromTriplets(cols_, rows_, std::move(t));
}

CsrMatrix CsrMatrix::WithValues(std::vector<float> values) const {
  DYHSL_CHECK_EQ(static_cast<int64_t>(values.size()), nnz());
  CsrMatrix m = *this;
  m.values_ = std::move(values);
  return m;
}

CsrMatrix CsrMatrix::RowNormalized() const {
  CsrMatrix m = *this;
  for (int64_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      sum += values_[k];
    }
    if (sum <= 0.0) continue;
    float inv = static_cast<float>(1.0 / sum);
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      m.values_[k] *= inv;
    }
  }
  return m;
}

CsrMatrix CsrMatrix::SymNormalized() const {
  DYHSL_CHECK_EQ(rows_, cols_);
  std::vector<double> degree(rows_, 0.0);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      degree[r] += values_[k];
    }
  }
  std::vector<float> dinv(rows_);
  for (int64_t r = 0; r < rows_; ++r) {
    dinv[r] = degree[r] > 0.0
                  ? static_cast<float>(1.0 / std::sqrt(degree[r]))
                  : 0.0f;
  }
  CsrMatrix m = *this;
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      m.values_[k] *= dinv[r] * dinv[col_idx_[k]];
    }
  }
  return m;
}

CsrMatrix CsrMatrix::WithSelfLoops(float weight) const {
  DYHSL_CHECK_EQ(rows_, cols_);
  std::vector<Triplet> t;
  t.reserve(values_.size() + rows_);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      t.push_back({r, col_idx_[k], values_[k]});
    }
    t.push_back({r, r, weight});
  }
  return FromTriplets(rows_, cols_, std::move(t));
}

Tensor CsrMatrix::ToDense() const {
  Tensor d = Tensor::Zeros({rows_, cols_});
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      d.data()[r * cols_ + col_idx_[k]] += values_[k];
    }
  }
  return d;
}

namespace {

// Fills t_row_ptr / t_col_idx / t_perm from the (already set) forward
// structure. Counting-sort transpose: scanning A's rows in order fills
// each transpose row with ascending column (= original row) indices.
void BuildPatternTranspose(CsrPattern* p) {
  const int64_t nnz = p->nnz();
  p->t_row_ptr.assign(p->cols + 1, 0);
  for (int64_t k = 0; k < nnz; ++k) p->t_row_ptr[p->col_idx[k] + 1] += 1;
  for (int64_t c = 0; c < p->cols; ++c) p->t_row_ptr[c + 1] += p->t_row_ptr[c];
  p->t_col_idx.resize(nnz);
  p->t_perm.resize(nnz);
  std::vector<int64_t> cursor(p->t_row_ptr.begin(), p->t_row_ptr.end() - 1);
  for (int64_t r = 0; r < p->rows; ++r) {
    for (int64_t k = p->row_ptr[r]; k < p->row_ptr[r + 1]; ++k) {
      int64_t slot = cursor[p->col_idx[k]]++;
      p->t_col_idx[slot] = r;
      p->t_perm[slot] = k;
    }
  }
}

}  // namespace

std::shared_ptr<const CsrPattern> CsrPattern::FromCsr(const CsrMatrix& m) {
  auto p = std::make_shared<CsrPattern>();
  p->rows = m.rows();
  p->cols = m.cols();
  p->row_ptr = m.row_ptr();
  p->col_idx = m.col_idx();
  BuildPatternTranspose(p.get());
  return p;
}

std::shared_ptr<const CsrPattern> RowTopKPattern(const float* data,
                                                 int64_t rows, int64_t cols,
                                                 int64_t k,
                                                 float* out_values) {
  DYHSL_CHECK_GE(k, 1);
  k = std::min(k, cols);
  auto p = std::make_shared<CsrPattern>();
  p->rows = rows;
  p->cols = cols;
  p->row_ptr.resize(rows + 1);
  for (int64_t r = 0; r <= rows; ++r) p->row_ptr[r] = r * k;
  p->col_idx.resize(rows * k);
  // Per-row selection through the startup-dispatched SIMD table: identical
  // indices at every level (largest magnitude, ties toward the lower
  // column, ascending output — the documented RowTopK contract). Rows are
  // independent, so the loop parallelizes with per-thread scratch and
  // stays bit-identical for every thread count.
  const simd::Ops& ops = simd::Active();
  const int select_team = core::TeamThreads();
  (void)select_team;
#pragma omp parallel num_threads(select_team) if (rows * cols > 16384)
  {
    std::vector<float> scratch(simd::TopKScratchFloats(cols));
#pragma omp for
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = data + r * cols;
      int64_t* cidx = p->col_idx.data() + r * k;
      ops.topk_select(row, cols, k, scratch.data(), cidx);
      if (out_values != nullptr) {
        for (int64_t i = 0; i < k; ++i) out_values[r * k + i] = row[cidx[i]];
      }
    }
  }
  BuildPatternTranspose(p.get());
  return p;
}

void GatherPatternSlice(const CsrPattern& p, const float* dense,
                        float* out_values) {
  const int64_t cols = p.cols;
  const int team = core::TeamThreads();
  (void)team;
#pragma omp parallel for num_threads(team) if (p.nnz() > 16384)
  for (int64_t r = 0; r < p.rows; ++r) {
    const float* row = dense + r * cols;
    for (int64_t k = p.row_ptr[r]; k < p.row_ptr[r + 1]; ++k) {
      out_values[k] = row[p.col_idx[k]];
    }
  }
}

int64_t CountDriftedRows(const CsrPattern& p, const float* dense) {
  DYHSL_CHECK_GT(p.rows, 0);
  const int64_t k = p.nnz() / p.rows;
  DYHSL_CHECK_EQ(p.nnz(), p.rows * k);  // uniform-k (RowTopKPattern) only
  const simd::Ops& ops = simd::Active();
  const int64_t cols = p.cols;
  const int team = core::TeamThreads();
  (void)team;
  int64_t drifted = 0;
#pragma omp parallel for num_threads(team) reduction(+ : drifted) \
    if (p.rows * cols > 16384)
  for (int64_t r = 0; r < p.rows; ++r) {
    const float* row = dense + r * cols;
    const int64_t* cidx = p.col_idx.data() + r * k;
    // Weakest kept magnitude under the *current* values...
    float t = std::fabs(row[cidx[0]]);
    for (int64_t i = 1; i < k; ++i) {
      t = std::min(t, std::fabs(row[cidx[i]]));
    }
    // ...and the vectorized margin test: exactly the k kept entries reach
    // it iff the kept set is still the exact top-k. Any non-kept entry at
    // or above t (a flipped k-th/(k+1)-th margin) inflates the count;
    // boundary ties inflate it too, which errs toward re-selection.
    if (ops.count_ge_abs(row, cols, t) != k) ++drifted;
  }
  return drifted;
}

namespace {

TopKPatternCache::Stats& ThreadTally() {
  static thread_local TopKPatternCache::Stats tally;
  return tally;
}

}  // namespace

TopKPatternCache::Stats TopKPatternCache::ThreadCounters() {
  return ThreadTally();
}

void TopKPatternCache::CountOnThread(const Stats& event) {
  ThreadTally() += event;
}

TopKPatternCache::TopKPatternCache() : TopKPatternCache(Options()) {}

TopKPatternCache::TopKPatternCache(Options options) : options_(options) {
  DYHSL_CHECK_GE(options_.drift_threshold, 0.0f);
  DYHSL_CHECK_LE(options_.drift_threshold, 1.0f);
}

void TopKPatternCache::Clear() { entries_.clear(); }

std::shared_ptr<const CsrPattern> TopKPatternCache::SelectOrReuse(
    int64_t slot, const float* data, int64_t rows, int64_t cols, int64_t k) {
  DYHSL_CHECK_GE(k, 1);
  k = std::min(k, cols);
  Entry* entry = nullptr;
  for (Entry& e : entries_) {
    if (e.slot == slot && e.rows == rows && e.cols == cols && e.k == k) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) {
    entries_.push_back({slot, rows, cols, k, nullptr});
    entry = &entries_.back();
  }
  Stats event;
  if (entry->pattern != nullptr) {
    event.drifted_rows = CountDriftedRows(*entry->pattern, data);
    if (static_cast<float>(event.drifted_rows) <=
        options_.drift_threshold * static_cast<float>(rows)) {
      event.reuses = 1;
    } else {
      event.drift_reselects = 1;
    }
  } else {
    event.selects = 1;
  }
  stats_ += event;
  CountOnThread(event);
  if (event.reuses == 0) entry->pattern = RowTopKPattern(data, rows, cols, k);
  return entry->pattern;
}

Tensor SpMM(const CsrMatrix& a, const Tensor& x) {
  DenseDims d = CheckDense(x, a.cols(), "SpMM");
  Shape out_shape = x.dim() == 3 ? Shape{d.batch, a.rows(), d.f}
                                 : Shape{a.rows(), d.f};
  Tensor out(out_shape);
  SpMMCore(d.batch, a.rows(), a.row_ptr().data(), a.col_idx().data(),
           a.values().data(), nullptr, x.data(), d.rows, d.f, 0.0f,
           out.data());
  return out;
}

void SpMMInto(const CsrMatrix& a, const Tensor& x, float beta, Tensor* out) {
  DenseDims d = CheckDense(x, a.cols(), "SpMMInto");
  Shape out_shape = x.dim() == 3 ? Shape{d.batch, a.rows(), d.f}
                                 : Shape{a.rows(), d.f};
  DYHSL_CHECK_MSG(out->shape() == out_shape,
                  "SpMMInto: out shape " + ShapeToString(out->shape()) +
                      " != expected " + ShapeToString(out_shape));
  SpMMCore(d.batch, a.rows(), a.row_ptr().data(), a.col_idx().data(),
           a.values().data(), nullptr, x.data(), d.rows, d.f, beta,
           out->data());
}

Tensor SpMMPattern(const CsrPattern& p, const Tensor& values, const Tensor& x,
                   bool trans_a) {
  int64_t out_rows = trans_a ? p.cols : p.rows;
  int64_t in_rows = trans_a ? p.rows : p.cols;
  DenseDims d = CheckDense(x, in_rows, "SpMMPattern");
  Shape out_shape = x.dim() == 3 ? Shape{d.batch, out_rows, d.f}
                                 : Shape{out_rows, d.f};
  Tensor out(out_shape);
  SpMMPatternInto(p, values, x, trans_a, 0.0f, &out);
  return out;
}

void SpMMPatternInto(const CsrPattern& p, const Tensor& values,
                     const Tensor& x, bool trans_a, float beta, Tensor* out) {
  DYHSL_CHECK_EQ(values.numel(), p.nnz());
  int64_t out_rows = trans_a ? p.cols : p.rows;
  int64_t in_rows = trans_a ? p.rows : p.cols;
  DenseDims d = CheckDense(x, in_rows, "SpMMPatternInto");
  Shape out_shape = x.dim() == 3 ? Shape{d.batch, out_rows, d.f}
                                 : Shape{out_rows, d.f};
  DYHSL_CHECK_MSG(out->shape() == out_shape,
                  "SpMMPatternInto: out shape " + ShapeToString(out->shape()) +
                      " != expected " + ShapeToString(out_shape));
  if (trans_a) {
    SpMMCore(d.batch, p.cols, p.t_row_ptr.data(), p.t_col_idx.data(),
             values.data(), p.t_perm.data(), x.data(), d.rows, d.f, beta,
             out->data());
  } else {
    SpMMCore(d.batch, p.rows, p.row_ptr.data(), p.col_idx.data(),
             values.data(), nullptr, x.data(), d.rows, d.f, beta,
             out->data());
  }
}

void SpMMPatternSliceInto(const CsrPattern& p, const float* values,
                          const float* x, int64_t f, bool trans_a, float beta,
                          float* out) {
  if (trans_a) {
    SpMMCore(1, p.cols, p.t_row_ptr.data(), p.t_col_idx.data(), values,
             p.t_perm.data(), x, p.rows, f, beta, out);
  } else {
    SpMMCore(1, p.rows, p.row_ptr.data(), p.col_idx.data(), values, nullptr,
             x, p.cols, f, beta, out);
  }
}

Tensor Sddmm(const CsrPattern& p, const Tensor& a, const Tensor& b) {
  DenseDims da = CheckDense(a, p.rows, "Sddmm lhs");
  DenseDims db = CheckDense(b, p.cols, "Sddmm rhs");
  DYHSL_CHECK_EQ(a.dim(), b.dim());
  DYHSL_CHECK_EQ(da.batch, db.batch);
  DYHSL_CHECK_EQ(da.f, db.f);
  Tensor out({p.nnz()});
  const int64_t a_step = da.rows * da.f;
  const int64_t b_step = db.rows * db.f;
  // Parallel over A's rows; the batch reduction stays sequential per
  // nonzero, so the sum order (and the bits) never depend on thread count.
  const int64_t* row_ptr = p.row_ptr.data();
  const int64_t* col_idx = p.col_idx.data();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t d = da.f;
  const int64_t batch = da.batch;
  const int team = core::TeamThreads();
  (void)team;  // consumed only by the pragma; unused without OpenMP
#pragma omp parallel for num_threads(team) \
    if (p.nnz() * d * batch > 16384)
  for (int64_t r = 0; r < p.rows; ++r) {
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const int64_t c = col_idx[k];
      float acc = 0.0f;
      for (int64_t bi = 0; bi < batch; ++bi) {
        const float* arow = pa + bi * a_step + r * d;
        const float* brow = pb + bi * b_step + c * d;
        for (int64_t j = 0; j < d; ++j) acc += arow[j] * brow[j];
      }
      po[k] = acc;
    }
  }
  return out;
}

void SddmmSliceInto(const CsrPattern& p, const float* a, const float* b,
                    int64_t d, float beta, float* out_values) {
  const int64_t* row_ptr = p.row_ptr.data();
  const int64_t* col_idx = p.col_idx.data();
  const int team = core::TeamThreads();
  (void)team;  // consumed only by the pragma; unused without OpenMP
#pragma omp parallel for num_threads(team) \
    if (p.nnz() * d > 16384)
  for (int64_t r = 0; r < p.rows; ++r) {
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const float* arow = a + r * d;
      const float* brow = b + col_idx[k] * d;
      float acc = 0.0f;
      for (int64_t j = 0; j < d; ++j) acc += arow[j] * brow[j];
      out_values[k] = (beta == 0.0f ? 0.0f : beta * out_values[k]) + acc;
    }
  }
}

namespace {

// Rescales the kept entries of one row so the row sum is preserved.
// Rows whose kept sum is not positive are left unscaled: renormalization
// targets stochastic (nonnegative) matrices, where a nonpositive kept sum
// only occurs for all-zero rows.
void RenormalizeRow(std::vector<Triplet>* triplets, size_t row_begin,
                    double original_sum) {
  double kept = 0.0;
  for (size_t i = row_begin; i < triplets->size(); ++i) {
    kept += (*triplets)[i].value;
  }
  if (kept <= 0.0) return;
  float scale = static_cast<float>(original_sum / kept);
  for (size_t i = row_begin; i < triplets->size(); ++i) {
    (*triplets)[i].value *= scale;
  }
}

}  // namespace

CsrMatrix RowTopKSlice(const float* data, int64_t rows, int64_t cols,
                       int64_t k, bool renormalize) {
  DYHSL_CHECK_GE(k, 1);
  k = std::min(k, cols);
  std::vector<Triplet> triplets;
  triplets.reserve(rows * k);
  // Same dispatched selection as RowTopKPattern: largest magnitude first,
  // equal magnitudes break toward the lower column index, deterministic at
  // every dispatch level.
  const simd::Ops& ops = simd::Active();
  std::vector<float> scratch(simd::TopKScratchFloats(cols));
  std::vector<int64_t> order(k);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = data + r * cols;
    ops.topk_select(row, cols, k, scratch.data(), order.data());
    size_t row_begin = triplets.size();
    double row_sum = 0.0;
    if (renormalize) {
      for (int64_t c = 0; c < cols; ++c) row_sum += row[c];
    }
    for (int64_t i = 0; i < k; ++i) {
      triplets.push_back({r, order[i], row[order[i]]});
    }
    if (renormalize) RenormalizeRow(&triplets, row_begin, row_sum);
  }
  return CsrMatrix::FromTriplets(rows, cols, std::move(triplets));
}

CsrMatrix RowTopK(const Tensor& dense, int64_t k, bool renormalize) {
  DYHSL_CHECK_EQ(dense.dim(), 2);
  return RowTopKSlice(dense.data(), dense.size(0), dense.size(1), k,
                      renormalize);
}

CsrMatrix RowThreshold(const Tensor& dense, float threshold,
                       bool renormalize) {
  DYHSL_CHECK_EQ(dense.dim(), 2);
  // A negative threshold keeps every entry — a densify disguised as a
  // sparsify, always a caller bug.
  DYHSL_CHECK_GE(threshold, 0.0f);
  const int64_t rows = dense.size(0), cols = dense.size(1);
  const float* data = dense.data();
  std::vector<Triplet> triplets;
  // Vectorized predicate + compress-store of the surviving columns; the
  // triplet build then only touches survivors.
  const simd::Ops& ops = simd::Active();
  std::vector<int32_t> kept(cols);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = data + r * cols;
    size_t row_begin = triplets.size();
    double row_sum = 0.0;
    if (renormalize) {
      for (int64_t c = 0; c < cols; ++c) row_sum += row[c];
    }
    const int64_t count = ops.compress_ge_abs(row, cols, threshold,
                                              kept.data());
    for (int64_t i = 0; i < count; ++i) {
      triplets.push_back({r, kept[i], row[kept[i]]});
    }
    if (renormalize) RenormalizeRow(&triplets, row_begin, row_sum);
  }
  return CsrMatrix::FromTriplets(rows, cols, std::move(triplets));
}

}  // namespace dyhsl::tensor
