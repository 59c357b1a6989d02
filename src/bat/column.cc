#include "bat/column.h"

#include <type_traits>

#include "util/check.h"

namespace recycledb {

namespace {

struct SizeVisitor {
  template <typename T>
  size_t operator()(const std::vector<T>& v) const { return v.size(); }
};

struct MemVisitor {
  template <typename T>
  size_t operator()(const std::vector<T>& v) const {
    return v.capacity() * sizeof(T);
  }
};

}  // namespace

Column::Column(TypeTag type, Storage storage, StringHeapPtr heap)
    : type_(type), storage_(std::move(storage)), heap_(std::move(heap)) {
  RDB_CHECK((type_ == TypeTag::kStr) == (heap_ != nullptr));
  mem_bytes_ = std::visit(MemVisitor{}, storage_);
}

template <>
std::shared_ptr<Column> Column::Make<std::string>(TypeTag type,
                                                 std::vector<std::string> v,
                                                 StringHeapPtr heap) {
  RDB_CHECK(type == TypeTag::kStr && heap == nullptr);
  StringHeapBuilder builder;
  std::vector<StrCode> codes;
  codes.reserve(v.size());
  for (const auto& s : v) codes.push_back(builder.Intern(s));
  return Make(type, std::move(codes), builder.Finish());
}

size_t Column::size() const { return std::visit(SizeVisitor{}, storage_); }

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
      return Scalar::Str(std::string(heap_->Get(Data<StrCode>()[i])));
    case TypeTag::kVoid:
      break;
  }
  RDB_UNREACHABLE();
}

void Column::ComputeSorted() {
  // One scan: a step down clears both flags, an equal step clears key.
  auto scan = [&](size_t n, auto less) {
    sorted_ = key_ = true;
    for (size_t i = 1; i < n && sorted_; ++i) {
      if (less(i, i - 1)) {
        sorted_ = key_ = false;
      } else if (!less(i - 1, i)) {
        key_ = false;
      }
    }
  };
  std::visit(
      [&](const auto& v) {
        using T = typename std::decay_t<decltype(v)>::value_type;
        if constexpr (std::is_same_v<T, StrCode>) {
          scan(v.size(), [&](size_t a, size_t b) {
            return heap_->Get(v[a]) < heap_->Get(v[b]);
          });
        } else {
          scan(v.size(), [&](size_t a, size_t b) { return v[a] < v[b]; });
        }
      },
      storage_);
}

}  // namespace recycledb
