#include "bat/column.h"

#include <algorithm>

#include "util/check.h"

namespace recycledb {

namespace {

struct SizeVisitor {
  template <typename T>
  size_t operator()(const std::vector<T>& v) const {
    return v.size();
  }
};

struct MemVisitor {
  template <typename T>
  size_t operator()(const std::vector<T>& v) const {
    return v.capacity() * sizeof(T);
  }
  size_t operator()(const std::vector<std::string>& v) const {
    size_t bytes = v.capacity() * sizeof(std::string);
    for (const auto& s : v) bytes += s.capacity();
    return bytes;
  }
};

}  // namespace

Column::Column(TypeTag type, Storage storage)
    : type_(type), storage_(std::move(storage)) {
  mem_bytes_ = std::visit(MemVisitor{}, storage_);
}

size_t Column::size() const {
  return std::visit(SizeVisitor{}, storage_);
}

Scalar Column::GetScalar(size_t i) const {
  RDB_CHECK(i < size());
  switch (type_) {
    case TypeTag::kBit:
      return Scalar::Bit(Data<int8_t>()[i] != 0);
    case TypeTag::kInt:
      return Scalar::Int(Data<int32_t>()[i]);
    case TypeTag::kDate:
      return Scalar::DateVal(Data<int32_t>()[i]);
    case TypeTag::kLng:
      return Scalar::Lng(Data<int64_t>()[i]);
    case TypeTag::kDbl:
      return Scalar::Dbl(Data<double>()[i]);
    case TypeTag::kOid:
      return Scalar::OidVal(Data<Oid>()[i]);
    case TypeTag::kStr:
      return Scalar::Str(Data<std::string>()[i]);
    case TypeTag::kVoid:
      break;
  }
  RDB_UNREACHABLE();
}

void Column::ComputeSorted() {
  sorted_ = std::visit(
      [](const auto& v) { return std::is_sorted(v.begin(), v.end()); },
      storage_);
}

}  // namespace recycledb
