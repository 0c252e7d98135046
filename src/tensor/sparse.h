// Compressed-sparse-row matrices and the sparse kernel family.
//
// The structure operators of DyHSL are sparse at heart: the temporal graph
// Ā of paper Eq. 4–5 is a normalized road adjacency, the predefined
// hypergraph propagation G = D_v⁻¹ Λ D_e⁻¹ Λᵀ is a product of sparse
// incidences, and the learned incidence Λ is effectively sparse after
// normalization. This header provides the kernels the execution stack runs
// those operators on without densifying:
//
//  * CsrMatrix        — immutable structure + values (graphs, hypergraphs)
//  * SpMM / SpMMInto  — sparse × dense with batch support and beta
//                       accumulate modes (beta=1 writes straight into
//                       autograd gradient buffers)
//  * CsrPattern       — structure-only pattern with a precomputed transpose
//                       and the value permutation linking the two, shared
//                       by ops whose values change every step (learned Λ)
//  * Sddmm            — sampled dense-dense matmul, the VJP w.r.t. sparse
//                       values of an SpMM
//  * RowTopK / RowThreshold — deterministic sparsification of a dense
//                       matrix into CSR
//
// All kernels parallelize over output rows only, so results are
// bit-identical for every OpenMP thread count; outputs are allocated
// through Tensor and therefore land on the step Workspace arena whenever a
// scope is active.

#ifndef DYHSL_TENSOR_SPARSE_H_
#define DYHSL_TENSOR_SPARSE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/tensor/tensor.h"

namespace dyhsl::tensor {

/// \brief One (row, col, value) entry used to build a CSR matrix.
struct Triplet {
  int64_t row;
  int64_t col;
  float value;
};

/// \brief Immutable CSR sparse matrix of float values.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// \brief Builds from triplets; duplicate (row, col) entries are summed.
  static CsrMatrix FromTriplets(int64_t rows, int64_t cols,
                                std::vector<Triplet> triplets);

  /// \brief Identity matrix of size n.
  static CsrMatrix Identity(int64_t n);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int64_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  /// \brief Transposed copy (CSR of A^T).
  CsrMatrix Transposed() const;

  /// \brief Same structure, new values (`values.size()` must equal nnz).
  CsrMatrix WithValues(std::vector<float> values) const;

  /// \brief Returns a copy whose rows sum to 1 (zero rows left untouched).
  /// This is the normalization the paper uses for the temporal graph
  /// (sum_j A_bar(v, u) = 1 below Eq. 5).
  CsrMatrix RowNormalized() const;

  /// \brief Symmetric normalization D^-1/2 (A) D^-1/2 (for GCN baselines).
  CsrMatrix SymNormalized() const;

  /// \brief Returns A + I (self loops added; existing diagonal summed).
  CsrMatrix WithSelfLoops(float weight = 1.0f) const;

  /// \brief Dense copy (tests / small matrices only).
  Tensor ToDense() const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int64_t> row_ptr_;
  std::vector<int64_t> col_idx_;
  std::vector<float> values_;
};

/// \brief Structure-only CSR pattern with a precomputed transpose and the
/// value permutation between them. Shared (immutably, via shared_ptr) by
/// ops whose values change every step while the sparsity stays fixed — the
/// taped sparse-values ops in src/autograd/sparse.h run both the forward
/// product and the transposed backward product against one pattern without
/// rebuilding structure.
struct CsrPattern {
  int64_t rows = 0;
  int64_t cols = 0;
  /// A structure (row-major CSR).
  std::vector<int64_t> row_ptr;
  std::vector<int64_t> col_idx;
  /// A^T structure; the value of A^T at slot k is values[t_perm[k]].
  std::vector<int64_t> t_row_ptr;
  std::vector<int64_t> t_col_idx;
  std::vector<int64_t> t_perm;

  int64_t nnz() const { return static_cast<int64_t>(col_idx.size()); }

  /// \brief Extracts the structure of `m` (values ignored).
  static std::shared_ptr<const CsrPattern> FromCsr(const CsrMatrix& m);
};

/// \brief Sparse-dense product  A (rows x cols)  *  X (cols x f)  ->
/// (rows x f). X may also be 3-D (batch, cols, f) giving (batch, rows, f).
Tensor SpMM(const CsrMatrix& a, const Tensor& x);

/// \brief out = A X + beta * out. `out` must be preallocated to the SpMM
/// result shape; beta 0 overwrites (out may be uninitialized), any other
/// beta scales the existing contents first. beta=1 accumulates straight
/// into autograd gradient buffers, mirroring the dense MatMulInto path.
void SpMMInto(const CsrMatrix& a, const Tensor& x, float beta, Tensor* out);

/// \brief Pattern + external values product: y = op(A) X where A has the
/// structure of `p` and the values of `values` (length nnz). With
/// `trans_a` the product runs against the precomputed transpose, reading
/// values through the pattern's permutation. X 2-D or 3-D batched.
Tensor SpMMPattern(const CsrPattern& p, const Tensor& values, const Tensor& x,
                   bool trans_a = false);

/// \brief out = op(A) X + beta * out variant of SpMMPattern.
void SpMMPatternInto(const CsrPattern& p, const Tensor& values,
                     const Tensor& x, bool trans_a, float beta, Tensor* out);

/// \brief Raw single-slice building block for per-batch sparse ops:
/// out (out_rows x f) = op(A) x (+ beta * out) over bare pointers, where
/// x has op(A).cols() rows of width f.
void SpMMPatternSliceInto(const CsrPattern& p, const float* values,
                          const float* x, int64_t f, bool trans_a, float beta,
                          float* out);

/// \brief Sampled dense-dense matmul: out[k] = dot(a[row_k, :], b[col_k, :])
/// for every structural nonzero k of the pattern — the VJP of SpMM w.r.t.
/// the sparse values. a is (rows, d) or (B, rows, d), b is (cols, d) or
/// (B, cols, d) with matching batch; batched inputs are summed over the
/// batch. Returns a dense (nnz) tensor.
Tensor Sddmm(const CsrPattern& p, const Tensor& a, const Tensor& b);

/// \brief Raw single-slice SDDMM: out_values[k] = beta * out_values[k] +
/// dot(a[row_k, :], b[col_k, :]) with a (rows x d), b (cols x d).
void SddmmSliceInto(const CsrPattern& p, const float* a, const float* b,
                    int64_t d, float beta, float* out_values);

/// \brief Sparsifies a dense matrix to its k largest-magnitude entries per
/// row (deterministic ties: the lower column index wins), k clamped to the
/// column count. With `renormalize`, kept entries of each row are rescaled
/// to preserve the row's original sum (so row-stochastic matrices stay
/// row-stochastic); rows whose kept sum is not positive are left unscaled.
CsrMatrix RowTopK(const Tensor& dense, int64_t k, bool renormalize = false);

/// \brief Raw variant of RowTopK over a (rows x cols) row-major buffer.
CsrMatrix RowTopKSlice(const float* data, int64_t rows, int64_t cols,
                       int64_t k, bool renormalize = false);

/// \brief One-pass top-k sparsification straight to a CsrPattern — the
/// per-step hot path of the DHSL sparse mode. Selection semantics match
/// RowTopK (largest magnitude, ties toward the lower column); every row
/// keeps exactly min(k, cols) entries so row_ptr is implicit. When
/// `out_values` is non-null it receives the kept entries (length
/// rows * min(k, cols)) in pattern order. Selection runs on the
/// runtime-dispatched SIMD layer (src/tensor/simd.h); all dispatch levels
/// are bit-identical, so the pattern never depends on the host ISA.
std::shared_ptr<const CsrPattern> RowTopKPattern(const float* data,
                                                 int64_t rows, int64_t cols,
                                                 int64_t k,
                                                 float* out_values = nullptr);

/// \brief Keeps entries with |value| >= threshold (rows may become empty;
/// threshold must be >= 0 — a negative threshold would silently keep
/// everything and is rejected). `renormalize` as in RowTopK, with the same
/// nonpositive-kept-sum guard: a row whose entries are all dropped (or
/// whose kept sum is not positive) is left unscaled rather than divided by
/// zero, so thresholding can never introduce NaNs — but such a row no
/// longer preserves its original sum. Callers that need row-stochastic
/// outputs must pick thresholds below each row's maximum.
CsrMatrix RowThreshold(const Tensor& dense, float threshold,
                       bool renormalize = false);

/// \brief Gathers the entries of a row-major (rows x cols) dense slab at
/// the pattern's structural nonzeros into `out_values` (length nnz,
/// pattern order) — the O(nnz) SDDMM-style value refresh that replaces
/// re-selection when a cached pattern is reused.
void GatherPatternSlice(const CsrPattern& p, const float* dense,
                        float* out_values);

/// \brief Counts the rows of a uniform-k top-k pattern whose selection is
/// no longer exactly the top-k of `dense` (rows x cols, row-major): a row
/// has drifted when its k-th/(k+1)-th magnitude margin flipped, i.e. some
/// non-kept entry now matches or exceeds the weakest kept one. The check
/// is conservative (boundary ties count as drift) and vectorized — one
/// k-entry gather plus one horizontal threshold count per row. `p` must
/// come from RowTopKPattern (every row holds exactly nnz/rows entries).
int64_t CountDriftedRows(const CsrPattern& p, const float* dense);

/// \brief Reuses top-k CsrPatterns across steps, amortizing selection.
///
/// The DHSL sparse step re-selected the top-k of Λ every MHCE iteration
/// and every time step, O(rows * cols) each, even though the learned
/// pattern barely moves between adjacent steps. SelectOrReuse instead
/// keeps the last pattern per (slot, rows, cols, k) stream and runs the
/// CountDriftedRows check (O(rows * cols / lanes)): while the drifted-row
/// fraction stays at or below `drift_threshold`, the cached pattern is
/// returned and callers refresh values with an O(nnz) gather; past it, a
/// fresh selection replaces the cache entry.
///
/// Exactness: a reuse with zero drifted rows is *exact* — the cached
/// pattern equals what fresh selection would produce, so downstream
/// products and gradients are identical. With 0 < drifted <= threshold *
/// rows the pattern is stale on the drifted rows only: products are
/// approximate there, and gradients remain the exact subgradients of the
/// *cached* selection (hard top-k is piecewise constant in its pattern).
/// drift_threshold = 0 reuses only exact patterns.
///
/// Not thread-safe: intended to live thread-local (one per serving worker
/// or training loop), which also keeps patterns warm per session.
class TopKPatternCache {
 public:
  struct Options {
    /// Fraction of rows allowed to drift before re-selecting, in [0, 1].
    float drift_threshold = 0.05f;
  };

  struct Stats {
    int64_t selects = 0;          ///< fresh selections (cold or shape change)
    int64_t reuses = 0;           ///< cache hits (drift at or below threshold)
    int64_t drift_reselects = 0;  ///< re-selections forced by drift
    int64_t drifted_rows = 0;     ///< total drifted rows seen on reuse checks

    Stats& operator+=(const Stats& other) {
      selects += other.selects;
      reuses += other.reuses;
      drift_reselects += other.drift_reselects;
      drifted_rows += other.drifted_rows;
      return *this;
    }
    Stats operator-(const Stats& other) const {
      Stats out = *this;
      out.selects -= other.selects;
      out.reuses -= other.reuses;
      out.drift_reselects -= other.drift_reselects;
      out.drifted_rows -= other.drifted_rows;
      return out;
    }
  };

  TopKPatternCache();
  explicit TopKPatternCache(Options options);

  /// \brief Pattern for the (rows x cols) row-major slab: cached when the
  /// drift check passes, freshly selected otherwise. `slot` separates
  /// independent streams sharing this cache (e.g. batch items).
  std::shared_ptr<const CsrPattern> SelectOrReuse(int64_t slot,
                                                  const float* data,
                                                  int64_t rows, int64_t cols,
                                                  int64_t k);

  const Options& options() const { return options_; }
  const Stats& stats() const { return stats_; }
  void Clear();

  /// \brief The calling thread's counters, summed over every structure
  /// cache that ran on it: each SelectOrReuse, plus every event another
  /// cache reports through CountOnThread. Monotonic; a serving call
  /// samples it before and after and keeps the difference.
  static Stats ThreadCounters();
  /// \brief Adds one cache event to the calling thread's counters — for
  /// structure caches built outside this class (DHGNN's hypergraph).
  static void CountOnThread(const Stats& event);

 private:
  struct Entry {
    int64_t slot;
    int64_t rows;
    int64_t cols;
    int64_t k;
    std::shared_ptr<const CsrPattern> pattern;
  };

  Options options_;
  Stats stats_;
  std::vector<Entry> entries_;  // a handful of (slot, shape) streams
};

/// \brief CSR matrix bundled with its transpose so autograd can run the
/// backward product without rebuilding structure every step.
struct SparseOp {
  CsrMatrix forward;
  CsrMatrix transpose;

  static std::shared_ptr<SparseOp> Create(CsrMatrix matrix) {
    auto op = std::make_shared<SparseOp>();
    op->transpose = matrix.Transposed();
    op->forward = std::move(matrix);
    return op;
  }
};

}  // namespace dyhsl::tensor

#endif  // DYHSL_TENSOR_SPARSE_H_
