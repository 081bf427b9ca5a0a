// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// NestedValue: a JSON-like document tree (null, bool, int, double,
// string, array, object). The substrate for the paper's future-work
// direction of matching nested (XML/object) schemas: collections of
// documents are flattened to relational tables (see flatten.h) and
// matched with the ordinary two-step algorithm.
//
// Objects preserve insertion order (so flattened column order is
// deterministic) but look up keys by name.

#ifndef DEPMATCH_NESTED_DOCUMENT_H_
#define DEPMATCH_NESTED_DOCUMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "depmatch/common/status.h"

namespace depmatch {
namespace nested {

enum class NodeKind {
  kNull,
  kBool,
  kInt,
  kDouble,
  kString,
  kArray,
  kObject,
};

std::string_view NodeKindToString(NodeKind kind);

// Deepest nesting of arrays/objects (JSON) or elements (XML) that
// ParseJson and ParseXml accept; deeper input is InvalidArgument. Both
// parsers recurse once per level, so the cap bounds their stack use on
// hostile input, far above the depth of any real document.
inline constexpr size_t kMaxNestingDepth = 512;

class NestedValue {
 public:
  // Constructs null.
  NestedValue() : kind_(NodeKind::kNull) {}

  static NestedValue Null() { return NestedValue(); }
  static NestedValue Bool(bool v);
  static NestedValue Int(int64_t v);
  static NestedValue Double(double v);
  static NestedValue String(std::string v);
  static NestedValue Array();
  static NestedValue Object();

  NestedValue(const NestedValue&) = default;
  NestedValue& operator=(const NestedValue&) = default;
  NestedValue(NestedValue&&) = default;
  NestedValue& operator=(NestedValue&&) = default;

  NodeKind kind() const { return kind_; }
  bool is_null() const { return kind_ == NodeKind::kNull; }
  bool is_scalar() const {
    return kind_ != NodeKind::kArray && kind_ != NodeKind::kObject;
  }

  // Scalar accessors; preconditions: matching kind().
  bool bool_value() const { return bool_; }
  int64_t int_value() const { return int_; }
  double double_value() const { return double_; }
  const std::string& string_value() const { return string_; }

  // Array interface; precondition: kind() == kArray.
  size_t array_size() const { return array_.size(); }
  const NestedValue& array_element(size_t i) const { return array_[i]; }
  void Append(NestedValue element) { array_.push_back(std::move(element)); }

  // Object interface; precondition: kind() == kObject.
  size_t object_size() const { return members_.size(); }
  const std::string& member_name(size_t i) const {
    return members_[i].first;
  }
  const NestedValue& member_value(size_t i) const {
    return members_[i].second;
  }
  // Adds or replaces member `name`.
  void Set(std::string name, NestedValue value);
  // Pointer to the member, or nullptr.
  const NestedValue* Find(std::string_view name) const;

  // Compact JSON serialization (stable member order).
  std::string ToJson() const;

  friend bool operator==(const NestedValue& a, const NestedValue& b);
  friend bool operator!=(const NestedValue& a, const NestedValue& b) {
    return !(a == b);
  }

 private:
  NodeKind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<NestedValue> array_;
  std::vector<std::pair<std::string, NestedValue>> members_;
};

}  // namespace nested
}  // namespace depmatch

#endif  // DEPMATCH_NESTED_DOCUMENT_H_
