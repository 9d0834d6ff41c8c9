// Tuples: fixed-arity rows of Values with value-based equality and
// hashing, so relations can enforce set semantics.

#ifndef VIEWAUTH_STORAGE_TUPLE_H_
#define VIEWAUTH_STORAGE_TUPLE_H_

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "types/value.h"

namespace viewauth {

class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  int arity() const { return static_cast<int>(values_.size()); }
  const Value& at(int i) const { return values_.at(i); }
  Value& at(int i) { return values_.at(i); }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value value) { values_.push_back(std::move(value)); }

  // Concatenation of two tuples (used by the product operator).
  static Tuple Concat(const Tuple& left, const Tuple& right);

  // Projection onto the given column indices, in the given order.
  Tuple Project(const std::vector<int>& columns) const;

  bool operator==(const Tuple& other) const { return values_ == other.values_; }
  bool operator!=(const Tuple& other) const { return !(*this == other); }
  // Lexicographic order (for deterministic printing).
  bool operator<(const Tuple& other) const;

  size_t Hash() const;

  // e.g. "(Jones, manager, 26000)".
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

std::ostream& operator<<(std::ostream& os, const Tuple& tuple);

}  // namespace viewauth

#endif  // VIEWAUTH_STORAGE_TUPLE_H_
