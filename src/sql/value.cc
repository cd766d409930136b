#include "sql/value.h"

#include <cstdio>

#include "common/macros.h"

namespace qbism::sql {

Value Value::Int(int64_t v) {
  Value value;
  value.kind_ = Kind::kInt;
  value.int_ = v;
  return value;
}

Value Value::Double(double v) {
  Value value;
  value.kind_ = Kind::kDouble;
  value.double_ = v;
  return value;
}

Value Value::String(std::string v) {
  Value value;
  value.kind_ = Kind::kString;
  value.string_ = std::move(v);
  return value;
}

Value Value::LongField(storage::LongFieldId id) {
  Value value;
  value.kind_ = Kind::kLongField;
  value.long_field_ = id;
  return value;
}

Value Value::Object(std::shared_ptr<const void> object,
                    std::string type_name) {
  Value value;
  value.kind_ = Kind::kObject;
  value.object_ = std::move(object);
  value.object_type_ = std::move(type_name);
  return value;
}

Result<int64_t> Value::AsInt() const {
  if (kind_ != Kind::kInt) {
    return Status::InvalidArgument("Value: expected integer, got " +
                                   ToString());
  }
  return int_;
}

Result<double> Value::AsDouble() const {
  if (kind_ == Kind::kDouble) return double_;
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  return Status::InvalidArgument("Value: expected number, got " + ToString());
}

Result<std::string> Value::AsString() const {
  if (kind_ != Kind::kString) {
    return Status::InvalidArgument("Value: expected string, got " +
                                   ToString());
  }
  return string_;
}

Result<storage::LongFieldId> Value::AsLongField() const {
  if (kind_ != Kind::kLongField) {
    return Status::InvalidArgument("Value: expected long field, got " +
                                   ToString());
  }
  return long_field_;
}

Result<int> Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    return Status::InvalidArgument("Value: cannot compare NULL");
  }
  auto numeric = [](Kind k) { return k == Kind::kInt || k == Kind::kDouble; };
  if (numeric(kind_) && numeric(other.kind_)) {
    if (kind_ == Kind::kInt && other.kind_ == Kind::kInt) {
      return int_ < other.int_ ? -1 : (int_ > other.int_ ? 1 : 0);
    }
    double a = kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
    double b = other.kind_ == Kind::kInt ? static_cast<double>(other.int_)
                                         : other.double_;
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (kind_ != other.kind_) {
    return Status::InvalidArgument("Value: comparing incompatible kinds");
  }
  switch (kind_) {
    case Kind::kString:
      return string_.compare(other.string_) < 0
                 ? -1
                 : (string_ == other.string_ ? 0 : 1);
    case Kind::kLongField:
      return long_field_.value < other.long_field_.value
                 ? -1
                 : (long_field_.value == other.long_field_.value ? 0 : 1);
    default:
      return Status::InvalidArgument("Value: kind is not comparable");
  }
}

Result<bool> Value::Equals(const Value& other) const {
  QBISM_ASSIGN_OR_RETURN(int cmp, Compare(other));
  return cmp == 0;
}

std::string Value::ToString() const {
  switch (kind_) {
    case Kind::kNull:
      return "NULL";
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", double_);
      return buf;
    }
    case Kind::kString:
      return "'" + string_ + "'";
    case Kind::kLongField:
      return "<longfield:" + std::to_string(long_field_.value) + ">";
    case Kind::kObject:
      return "<" + object_type_ + ">";
  }
  return "?";
}

Status Value::SerializeTo(std::vector<uint8_t>* out) const {
  ByteWriter w(out);
  w.PutU8(static_cast<uint8_t>(kind_));
  switch (kind_) {
    case Kind::kNull:
      return Status::OK();
    case Kind::kInt:
      w.PutI64(int_);
      return Status::OK();
    case Kind::kDouble:
      w.PutF64(double_);
      return Status::OK();
    case Kind::kString:
      w.PutU64(string_.size());
      w.PutBytes(reinterpret_cast<const uint8_t*>(string_.data()),
                 string_.size());
      return Status::OK();
    case Kind::kLongField:
      w.PutU64(long_field_.value);
      return Status::OK();
    case Kind::kObject:
      return Status::InvalidArgument(
          "Value: transient object values are not storable; write them "
          "through a long field first");
  }
  return Status::Internal("Value: unknown kind");
}

Result<Value> Value::DeserializeFrom(ByteReader* in) {
  QBISM_ASSIGN_OR_RETURN(uint8_t tag, in->GetU8());
  switch (static_cast<Kind>(tag)) {
    case Kind::kNull:
      return Value::Null();
    case Kind::kInt: {
      QBISM_ASSIGN_OR_RETURN(int64_t v, in->GetI64());
      return Value::Int(v);
    }
    case Kind::kDouble: {
      QBISM_ASSIGN_OR_RETURN(double d, in->GetF64());
      return Value::Double(d);
    }
    case Kind::kString: {
      QBISM_ASSIGN_OR_RETURN(uint64_t len, in->GetU64());
      QBISM_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes, in->GetSpan(len));
      return Value::String(std::string(bytes.begin(), bytes.end()));
    }
    case Kind::kLongField: {
      QBISM_ASSIGN_OR_RETURN(uint64_t v, in->GetU64());
      return Value::LongField(storage::LongFieldId{v});
    }
    case Kind::kObject:
      return Status::Corruption("Value: object kind in stored record");
  }
  return Status::Corruption("Value: unknown kind tag");
}

Status Value::SkipSerialized(ByteReader* in) {
  QBISM_ASSIGN_OR_RETURN(uint8_t tag, in->GetU8());
  switch (static_cast<Kind>(tag)) {
    case Kind::kNull:
      return Status::OK();
    case Kind::kInt:
    case Kind::kDouble:
    case Kind::kLongField:
      return in->Skip(8);
    case Kind::kString: {
      QBISM_ASSIGN_OR_RETURN(uint64_t len, in->GetU64());
      return in->Skip(len);
    }
    case Kind::kObject:
      return Status::Corruption("Value: object kind in stored record");
  }
  return Status::Corruption("Value: unknown kind tag");
}

}  // namespace qbism::sql
