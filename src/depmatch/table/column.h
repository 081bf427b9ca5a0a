// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Column: dictionary-encoded columnar storage for one attribute.
//
// Every cell is stored as a 32-bit code into a per-column dictionary of
// distinct values; nulls are the sentinel code kNullCode. Dictionary
// encoding serves two masters at once:
//   * it is the standard storage layout for analytic column stores, and
//   * the matching algorithm needs values only as opaque symbols, so the
//     statistics layer can operate directly on codes without touching
//     the dictionary.

#ifndef DEPMATCH_TABLE_COLUMN_H_
#define DEPMATCH_TABLE_COLUMN_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "depmatch/table/value.h"

namespace depmatch {

// Append-only dictionary-encoded column.
class Column {
 public:
  // Code stored for null cells. Valid dictionary codes are >= 0.
  static constexpr int32_t kNullCode = -1;

  explicit Column(DataType type) : type_(type) {}

  Column(const Column&) = default;
  Column& operator=(const Column&) = default;
  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  DataType type() const { return type_; }
  size_t size() const { return codes_.size(); }
  size_t null_count() const { return null_count_; }
  // Number of distinct non-null values.
  size_t distinct_count() const { return dictionary_.size(); }

  // Appends a cell, interning it into the dictionary. Null values are
  // accepted for every column type. Precondition: non-null `value`'s
  // physical type matches type().
  void Append(const Value& value);

  // Reserves room for `rows` cells and `distinct` dictionary entries, so
  // a bulk fill of known size (the wire decoder) does not regrow or
  // rehash.
  void Reserve(size_t rows, size_t distinct);

  // Appends a cell by existing dictionary code (fast path for generators).
  // Precondition: code == kNullCode or 0 <= code < distinct_count().
  void AppendCode(int32_t code);

  // Dictionary code of row `row` (kNullCode for null).
  int32_t code(size_t row) const { return codes_[row]; }
  const std::vector<int32_t>& codes() const { return codes_; }

  // The value at row `row` (Value::Null() for nulls).
  Value GetValue(size_t row) const;

  // Distinct non-null values in first-appearance order.
  const std::vector<Value>& dictionary() const { return dictionary_; }

  // Dictionary code for `value`, or kNullCode if absent / null.
  int32_t LookupCode(const Value& value) const;

 private:
  DataType type_;
  std::vector<int32_t> codes_;
  std::vector<Value> dictionary_;
  std::unordered_map<Value, int32_t, ValueHash> dictionary_index_;
  size_t null_count_ = 0;
};

}  // namespace depmatch

#endif  // DEPMATCH_TABLE_COLUMN_H_
