#include "storage/column_batch.h"

namespace viewauth {

namespace {

// Dispatches a scalar comparison over the six comparators with the
// branch hoisted out of the row loop. `Body` receives a predicate
// functor and runs the compaction loop with it inlined.
template <typename Body>
void WithComparator(Comparator op, Body body) {
  switch (op) {
    case Comparator::kEq:
      body([](const auto& a, const auto& b) { return a == b; });
      return;
    case Comparator::kNe:
      body([](const auto& a, const auto& b) { return a != b; });
      return;
    case Comparator::kLt:
      body([](const auto& a, const auto& b) { return a < b; });
      return;
    case Comparator::kLe:
      body([](const auto& a, const auto& b) { return a <= b; });
      return;
    case Comparator::kGt:
      body([](const auto& a, const auto& b) { return a > b; });
      return;
    case Comparator::kGe:
      body([](const auto& a, const auto& b) { return a >= b; });
      return;
  }
}

// Branch-light compaction: sel[out] = sel[i]; out += keep.
template <typename Keep>
void Compact(std::vector<uint32_t>* sel, Keep keep) {
  uint32_t* data = sel->data();
  size_t out = 0;
  const size_t n = sel->size();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t idx = data[i];
    data[out] = idx;
    out += static_cast<size_t>(keep(idx));
  }
  sel->resize(out);
}

}  // namespace

void ColumnVector::Classify() {
  const size_t n = boxed_.size();
  bool all_i64 = true;
  bool all_f64 = true;
  bool all_str = true;
  for (size_t i = 0; i < n && (all_i64 || all_f64 || all_str); ++i) {
    const Value& v = *boxed_[i];
    all_i64 = all_i64 && v.is_int64();
    all_f64 = all_f64 && v.is_double();
    all_str = all_str && v.is_string();
  }
  if (n == 0) {
    cls_ = ColumnClass::kMixed;
    return;
  }
  if (all_i64) {
    cls_ = ColumnClass::kInt64;
    i64_.resize(n);
    for (size_t i = 0; i < n; ++i) i64_[i] = boxed_[i]->int64_value();
  } else if (all_f64) {
    cls_ = ColumnClass::kDouble;
    f64_.resize(n);
    for (size_t i = 0; i < n; ++i) f64_[i] = boxed_[i]->double_value();
  } else if (all_str) {
    cls_ = ColumnClass::kString;
    str_.resize(n);
    for (size_t i = 0; i < n; ++i) str_[i] = &boxed_[i]->string_value();
  } else {
    cls_ = ColumnClass::kMixed;
  }
}

void ColumnVector::GatherDense(std::span<const Tuple> rows, size_t begin,
                               size_t count, int col) {
  boxed_.resize(count);
  for (size_t i = 0; i < count; ++i) {
    boxed_[i] = &rows[begin + i].values()[col];
  }
  Classify();
}

void ColumnVector::GatherIds(std::span<const Tuple> rows,
                             const uint32_t* ids, size_t count, int col) {
  boxed_.resize(count);
  for (size_t i = 0; i < count; ++i) {
    boxed_[i] = &rows[ids[i]].values()[col];
  }
  Classify();
}

void ColumnBatch::ResetDense(std::span<const Tuple> rows, size_t begin,
                             size_t count, int arity) {
  rows_ = rows;
  begin_ = begin;
  ids_ = nullptr;
  count_ = count;
  columns_.resize(arity);
  gathered_.assign(arity, 0);
}

void ColumnBatch::ResetIds(std::span<const Tuple> rows, const uint32_t* ids,
                           size_t count, int arity) {
  rows_ = rows;
  begin_ = 0;
  ids_ = ids;
  count_ = count;
  columns_.resize(arity);
  gathered_.assign(arity, 0);
}

const ColumnVector& ColumnBatch::column(int col) {
  if (gathered_[col] == 0) {
    if (ids_ != nullptr) {
      columns_[col].GatherIds(rows_, ids_, count_, col);
    } else {
      columns_[col].GatherDense(rows_, begin_, count_, col);
    }
    gathered_[col] = 1;
  }
  return columns_[col];
}

Tuple ColumnBatch::ProjectRow(size_t i, const std::vector<int>& cols) const {
  std::vector<Value> values;
  values.reserve(cols.size());
  const Tuple& r = row(i);
  for (int c : cols) values.push_back(r.values()[c]);
  return Tuple(std::move(values));
}

void ResetSelection(std::vector<uint32_t>* sel, size_t n) {
  sel->resize(n);
  uint32_t* data = sel->data();
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<uint32_t>(i);
}

void FilterColumnConst(const ColumnVector& col, Comparator op,
                       const Value& rhs, std::vector<uint32_t>* sel) {
  // Fast paths only where Satisfies reduces to the plain scalar
  // comparison: exact same concrete type on both sides.
  if (col.cls() == ColumnClass::kInt64 && rhs.is_int64()) {
    const int64_t* a = col.i64();
    const int64_t b = rhs.int64_value();
    WithComparator(op, [&](auto pred) {
      Compact(sel, [&](uint32_t i) { return pred(a[i], b); });
    });
    return;
  }
  if (col.cls() == ColumnClass::kDouble && rhs.is_double()) {
    const double* a = col.f64();
    const double b = rhs.double_value();
    WithComparator(op, [&](auto pred) {
      Compact(sel, [&](uint32_t i) { return pred(a[i], b); });
    });
    return;
  }
  if (col.cls() == ColumnClass::kString && rhs.is_string()) {
    const std::string* const* a = col.str();
    const std::string& b = rhs.string_value();
    WithComparator(op, [&](auto pred) {
      Compact(sel, [&](uint32_t i) { return pred(*a[i], b); });
    });
    return;
  }
  // NULL constant never satisfies any comparator.
  if (rhs.is_null()) {
    sel->clear();
    return;
  }
  Compact(sel, [&](uint32_t i) { return col.value(i).Satisfies(op, rhs); });
}

void FilterColumnColumn(const ColumnVector& lhs, Comparator op,
                        const ColumnVector& rhs, std::vector<uint32_t>* sel) {
  if (lhs.cls() == ColumnClass::kInt64 && rhs.cls() == ColumnClass::kInt64) {
    const int64_t* a = lhs.i64();
    const int64_t* b = rhs.i64();
    WithComparator(op, [&](auto pred) {
      Compact(sel, [&](uint32_t i) { return pred(a[i], b[i]); });
    });
    return;
  }
  if (lhs.cls() == ColumnClass::kDouble && rhs.cls() == ColumnClass::kDouble) {
    const double* a = lhs.f64();
    const double* b = rhs.f64();
    WithComparator(op, [&](auto pred) {
      Compact(sel, [&](uint32_t i) { return pred(a[i], b[i]); });
    });
    return;
  }
  if (lhs.cls() == ColumnClass::kString && rhs.cls() == ColumnClass::kString) {
    const std::string* const* a = lhs.str();
    const std::string* const* b = rhs.str();
    WithComparator(op, [&](auto pred) {
      Compact(sel, [&](uint32_t i) { return pred(*a[i], *b[i]); });
    });
    return;
  }
  Compact(sel, [&](uint32_t i) {
    return lhs.value(i).Satisfies(op, rhs.value(i));
  });
}

void FilterNotNull(const ColumnVector& col, std::vector<uint32_t>* sel) {
  // Uniform typed windows are null-free by construction.
  if (col.cls() != ColumnClass::kMixed) return;
  Compact(sel, [&](uint32_t i) { return !col.value(i).is_null(); });
}

}  // namespace viewauth
