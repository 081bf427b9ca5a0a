#include "depmatch/table/column.h"

#include <limits>

#include "depmatch/common/logging.h"

namespace depmatch {

void Column::Append(const Value& value) {
  if (value.is_null()) {
    codes_.push_back(kNullCode);
    ++null_count_;
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      DEPMATCH_CHECK(value.is_int64());
      break;
    case DataType::kDouble:
      DEPMATCH_CHECK(value.is_double());
      break;
    case DataType::kString:
      DEPMATCH_CHECK(value.is_string());
      break;
  }
  auto it = dictionary_index_.find(value);
  if (it != dictionary_index_.end()) {
    codes_.push_back(it->second);
    return;
  }
  DEPMATCH_CHECK_LT(dictionary_.size(),
                    static_cast<size_t>(std::numeric_limits<int32_t>::max()));
  int32_t code = static_cast<int32_t>(dictionary_.size());
  dictionary_.push_back(value);
  dictionary_index_.emplace(value, code);
  codes_.push_back(code);
}

void Column::Reserve(size_t rows, size_t distinct) {
  codes_.reserve(rows);
  dictionary_.reserve(distinct);
  dictionary_index_.reserve(distinct);
}

void Column::AppendCode(int32_t code) {
  if (code == kNullCode) {
    codes_.push_back(kNullCode);
    ++null_count_;
    return;
  }
  DEPMATCH_CHECK_GE(code, 0);
  DEPMATCH_CHECK_LT(static_cast<size_t>(code), dictionary_.size());
  codes_.push_back(code);
}

Value Column::GetValue(size_t row) const {
  DEPMATCH_CHECK_LT(row, codes_.size());
  int32_t code = codes_[row];
  if (code == kNullCode) return Value::Null();
  return dictionary_[static_cast<size_t>(code)];
}

int32_t Column::LookupCode(const Value& value) const {
  if (value.is_null()) return kNullCode;
  auto it = dictionary_index_.find(value);
  if (it == dictionary_index_.end()) return kNullCode;
  return it->second;
}

}  // namespace depmatch
