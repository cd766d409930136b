#ifndef QBISM_SQL_VALUE_H_
#define QBISM_SQL_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/long_field.h"

namespace qbism::sql {

/// Runtime value flowing through query execution. Storable kinds (null,
/// int, double, string, long-field handle) can be serialized into heap
/// records; the `kObject` kind carries transient extension objects —
/// REGIONs, DATA_REGIONs, meshes — produced and consumed by user-defined
/// functions, mirroring how Starburst encapsulated spatial types behind
/// SQL functions over long fields (§5.1).
class Value {
 public:
  enum class Kind : uint8_t {
    kNull = 0,
    kInt = 1,
    kDouble = 2,
    kString = 3,
    kLongField = 4,
    kObject = 5,  // transient; not storable
  };

  Value() : kind_(Kind::kNull) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v);
  static Value Double(double v);
  static Value String(std::string v);
  static Value LongField(storage::LongFieldId id);
  /// Wraps an extension object with a type tag (e.g. "REGION").
  static Value Object(std::shared_ptr<const void> object,
                      std::string type_name);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Typed accessors; fail with InvalidArgument on a kind mismatch.
  Result<int64_t> AsInt() const;
  Result<double> AsDouble() const;  // accepts kInt too (widening)
  Result<std::string> AsString() const;
  Result<storage::LongFieldId> AsLongField() const;

  /// Downcasts an object value; `type_name` must match the stored tag.
  template <typename T>
  Result<std::shared_ptr<const T>> AsObject(std::string_view type_name) const {
    if (kind_ != Kind::kObject || object_type_ != type_name) {
      return Status::InvalidArgument("Value: expected object of type " +
                                     std::string(type_name));
    }
    return std::static_pointer_cast<const T>(object_);
  }

  const std::string& object_type() const { return object_type_; }

  /// SQL-style comparison for WHERE evaluation. Numeric kinds compare
  /// numerically across int/double; otherwise kinds must match. Returns
  /// <0, 0, >0; comparing null or objects is an error.
  Result<int> Compare(const Value& other) const;

  /// True when two values are equal under Compare semantics.
  Result<bool> Equals(const Value& other) const;

  /// Debug / result rendering.
  std::string ToString() const;

  /// Serialization into heap records. Object values are rejected.
  Status SerializeTo(std::vector<uint8_t>* out) const;
  /// Decodes one value; a tag or length that overruns `in` is
  /// Corruption.
  static Result<Value> DeserializeFrom(ByteReader* in);

  /// Advances `in` past one serialized value without constructing it
  /// (no string allocation). The batch VM's scan path uses this to skip
  /// columns the query never references.
  static Status SkipSerialized(ByteReader* in);

 private:
  Kind kind_;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  storage::LongFieldId long_field_;
  std::shared_ptr<const void> object_;
  std::string object_type_;
};

/// Well-known object type tags used by the spatial extension.
inline constexpr std::string_view kRegionTypeName = "REGION";
inline constexpr std::string_view kDataRegionTypeName = "DATA_REGION";
/// A REGION still in its elias-deltas stored form: set-op chains pass
/// these between UDFs without ever materializing a run list.
inline constexpr std::string_view kEncodedRegionTypeName = "ENCODED_REGION";

}  // namespace qbism::sql

#endif  // QBISM_SQL_VALUE_H_
