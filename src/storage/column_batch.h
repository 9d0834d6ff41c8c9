// Columnar batches for the vectorized data plan (DESIGN.md §17).
//
// A ColumnBatch is a window of up to kColumnBatchRows rows over a
// Relation's tuple store — either a dense range [begin, begin+n) or an
// explicit row-id list — with lazy per-column gathering into
// ColumnVectors. A ColumnVector classifies the gathered window: when
// every cell is non-null and of one concrete type it exposes a flat
// typed array (int64_t / double / const std::string*) that the
// predicate kernels below iterate with branch-light, SIMD-friendly
// loops; otherwise it degrades to kMixed and the kernels fall back to
// per-row Value::Satisfies through boxed pointers (never copies).
//
// The kernels filter a selection vector — a vector of row ordinals
// into the batch — in place, compacting it to the ordinals whose rows
// pass. They are bit-identical to evaluating Value::Satisfies on every
// row: fast paths exist only for exact same-type comparisons, where
// Satisfies reduces to the plain scalar comparison; every other pair
// (cross-numeric, NULLs, string-vs-numeric) routes through Satisfies
// itself.

#ifndef VIEWAUTH_STORAGE_COLUMN_BATCH_H_
#define VIEWAUTH_STORAGE_COLUMN_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/tuple.h"
#include "types/value.h"

namespace viewauth {

// Rows per batch. 1024 keeps the working set (a handful of gathered
// columns plus the selection vector) inside L1/L2 while amortizing
// per-batch overhead (governor ticks, kernel dispatch) to noise.
inline constexpr uint32_t kColumnBatchRows = 1024;

// Classification of a gathered column window.
enum class ColumnClass {
  kInt64,   // every cell non-null int64; i64() is valid
  kDouble,  // every cell non-null double; f64() is valid
  kString,  // every cell non-null string; str() is valid
  kMixed,   // anything else (NULLs or mixed types); boxed access only
};

// One gathered column window. Always holds boxed pointers to the
// source Values (for fallbacks and materialization); additionally
// holds a flat typed array when the window is uniform.
class ColumnVector {
 public:
  // Gathers `count` cells of column `col` from rows
  // [begin, begin + count) of `rows`.
  void GatherDense(std::span<const Tuple> rows, size_t begin, size_t count,
                   int col);
  // Gathers `count` cells of column `col` from rows ids[0..count).
  void GatherIds(std::span<const Tuple> rows, const uint32_t* ids,
                 size_t count, int col);

  ColumnClass cls() const { return cls_; }
  size_t size() const { return boxed_.size(); }

  const int64_t* i64() const { return i64_.data(); }
  const double* f64() const { return f64_.data(); }
  const std::string* const* str() const { return str_.data(); }
  // Boxed cell access; valid for every class.
  const Value& value(size_t i) const { return *boxed_[i]; }

 private:
  void Classify();

  ColumnClass cls_ = ColumnClass::kMixed;
  std::vector<const Value*> boxed_;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<const std::string*> str_;
};

// A window of rows over a Relation's rows with per-column
// lazily gathered ColumnVectors. Reusable: Reset* keeps column
// capacity across batches.
class ColumnBatch {
 public:
  // Dense window over rows [begin, begin + count).
  void ResetDense(std::span<const Tuple> rows, size_t begin, size_t count,
                  int arity);
  // Window over the listed row ids (pointer must stay valid while the
  // batch is in use).
  void ResetIds(std::span<const Tuple> rows, const uint32_t* ids,
                size_t count, int arity);

  size_t size() const { return count_; }
  // Source row index (into the relation) of batch ordinal `i`.
  uint32_t row_id(size_t i) const {
    return ids_ != nullptr ? ids_[i] : static_cast<uint32_t>(begin_ + i);
  }
  const Tuple& row(size_t i) const { return rows_[row_id(i)]; }

  // Column `col`, gathered on first access per Reset.
  const ColumnVector& column(int col);
  // Boxed cell access without forcing a gather of the whole column.
  const Value& value(size_t i, int col) const {
    return row(i).values()[col];
  }

  // Materializes batch ordinal `i` projected onto `cols` (the adapter
  // back to tuple-land at plan output boundaries).
  Tuple ProjectRow(size_t i, const std::vector<int>& cols) const;

 private:
  std::span<const Tuple> rows_;
  size_t begin_ = 0;
  const uint32_t* ids_ = nullptr;
  size_t count_ = 0;
  std::vector<ColumnVector> columns_;
  std::vector<char> gathered_;
};

// Resets `sel` to the identity selection [0, n).
void ResetSelection(std::vector<uint32_t>* sel, size_t n);

// Keeps the selected rows where `col[i] op rhs` per Value::Satisfies.
void FilterColumnConst(const ColumnVector& col, Comparator op,
                       const Value& rhs, std::vector<uint32_t>* sel);

// Keeps the selected rows where `lhs[i] op rhs[i]` per Value::Satisfies.
void FilterColumnColumn(const ColumnVector& lhs, Comparator op,
                        const ColumnVector& rhs, std::vector<uint32_t>* sel);

// Keeps the selected rows whose cell is non-null.
void FilterNotNull(const ColumnVector& col, std::vector<uint32_t>* sel);

}  // namespace viewauth

#endif  // VIEWAUTH_STORAGE_COLUMN_BATCH_H_
