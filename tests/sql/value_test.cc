#include "sql/value.h"

#include <gtest/gtest.h>

#include "sql/schema.h"

namespace qbism::sql {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(7).AsInt().value(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble().value(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString().value(), "hi");
  EXPECT_EQ(Value::LongField({9}).AsLongField().value().value, 9u);
  // Int widens to double.
  EXPECT_DOUBLE_EQ(Value::Int(3).AsDouble().value(), 3.0);
  // Mismatches fail.
  EXPECT_FALSE(Value::Int(1).AsString().ok());
  EXPECT_FALSE(Value::String("x").AsInt().ok());
  EXPECT_FALSE(Value::Null().AsInt().ok());
}

TEST(ValueTest, ObjectRoundTrip) {
  auto payload = std::make_shared<int>(42);
  Value v = Value::Object(payload, "ANSWER");
  EXPECT_EQ(v.kind(), Value::Kind::kObject);
  EXPECT_EQ(v.object_type(), "ANSWER");
  auto back = v.AsObject<int>("ANSWER");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back.value(), 42);
  EXPECT_FALSE(v.AsObject<int>("OTHER").ok());
}

TEST(ValueTest, CompareNumeric) {
  EXPECT_EQ(Value::Int(1).Compare(Value::Int(2)).value(), -1);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)).value(), 0);
  EXPECT_EQ(Value::Int(3).Compare(Value::Int(2)).value(), 1);
  // Mixed int/double.
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.5)).value(), -1);
  EXPECT_EQ(Value::Double(2.0).Compare(Value::Int(2)).value(), 0);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_EQ(Value::String("abc").Compare(Value::String("abd")).value(), -1);
  EXPECT_EQ(Value::String("abc").Compare(Value::String("abc")).value(), 0);
  EXPECT_TRUE(Value::String("x").Equals(Value::String("x")).value());
}

TEST(ValueTest, CompareErrors) {
  EXPECT_FALSE(Value::Null().Compare(Value::Int(1)).ok());
  EXPECT_FALSE(Value::Int(1).Compare(Value::String("1")).ok());
  auto obj = Value::Object(std::make_shared<int>(1), "X");
  EXPECT_FALSE(obj.Compare(obj).ok());
}

TEST(ValueTest, SerializeDeserializeAllStorableKinds) {
  std::vector<Value> values{Value::Null(), Value::Int(-12345),
                            Value::Double(3.25), Value::String("hello world"),
                            Value::LongField({77})};
  std::vector<uint8_t> bytes;
  for (const Value& v : values) ASSERT_TRUE(v.SerializeTo(&bytes).ok());
  ByteReader in(bytes);
  for (const Value& expected : values) {
    auto v = Value::DeserializeFrom(&in);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->kind(), expected.kind());
    EXPECT_EQ(v->ToString(), expected.ToString());
  }
  EXPECT_TRUE(in.AtEnd());
}

TEST(ValueTest, ObjectsNotStorable) {
  std::vector<uint8_t> bytes;
  Value obj = Value::Object(std::make_shared<int>(1), "X");
  EXPECT_FALSE(obj.SerializeTo(&bytes).ok());
}

TEST(ValueTest, DeserializeTruncatedFails) {
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(Value::Int(5).SerializeTo(&bytes).ok());
  bytes.pop_back();
  ByteReader in(bytes);
  EXPECT_FALSE(Value::DeserializeFrom(&in).ok());
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::String("ab").ToString(), "'ab'");
  EXPECT_EQ(Value::LongField({3}).ToString(), "<longfield:3>");
}

TEST(SchemaTest, ColumnTypeParsing) {
  EXPECT_EQ(ColumnTypeFromString("int").value(), ColumnType::kInt);
  EXPECT_EQ(ColumnTypeFromString("double").value(), ColumnType::kDouble);
  EXPECT_EQ(ColumnTypeFromString("string").value(), ColumnType::kString);
  EXPECT_EQ(ColumnTypeFromString("longfield").value(),
            ColumnType::kLongField);
  EXPECT_FALSE(ColumnTypeFromString("bogus").ok());
}

TEST(SchemaTest, ValueMatchesType) {
  EXPECT_TRUE(ValueMatchesType(Value::Int(1), ColumnType::kInt));
  EXPECT_TRUE(ValueMatchesType(Value::Int(1), ColumnType::kDouble));
  EXPECT_FALSE(ValueMatchesType(Value::Double(1), ColumnType::kInt));
  EXPECT_TRUE(ValueMatchesType(Value::Null(), ColumnType::kString));
  EXPECT_FALSE(ValueMatchesType(Value::String("x"), ColumnType::kLongField));
}

TEST(SchemaTest, RowSerializationRoundTrip) {
  TableSchema schema("t", {{"id", ColumnType::kInt},
                           {"name", ColumnType::kString},
                           {"score", ColumnType::kDouble},
                           {"data", ColumnType::kLongField}});
  Row row{Value::Int(1), Value::String("alpha"), Value::Double(0.5),
          Value::LongField({11})};
  auto bytes = SerializeRow(schema, row).MoveValue();
  Row back = DeserializeRow(schema, bytes).MoveValue();
  ASSERT_EQ(back.size(), 4u);
  EXPECT_EQ(back[0].AsInt().value(), 1);
  EXPECT_EQ(back[1].AsString().value(), "alpha");
  EXPECT_DOUBLE_EQ(back[2].AsDouble().value(), 0.5);
  EXPECT_EQ(back[3].AsLongField().value().value, 11u);
}

TEST(SchemaTest, SerializeValidatesArityAndTypes) {
  TableSchema schema("t", {{"id", ColumnType::kInt}});
  EXPECT_FALSE(SerializeRow(schema, {}).ok());
  EXPECT_FALSE(SerializeRow(schema, {Value::String("x")}).ok());
  EXPECT_TRUE(SerializeRow(schema, {Value::Null()}).ok());  // nullable
}

TEST(SchemaTest, ColumnIndexLookup) {
  TableSchema schema("t", {{"a", ColumnType::kInt}, {"b", ColumnType::kInt}});
  EXPECT_EQ(schema.ColumnIndex("a").value(), 0u);
  EXPECT_EQ(schema.ColumnIndex("b").value(), 1u);
  EXPECT_FALSE(schema.ColumnIndex("c").ok());
}

TEST(SchemaTest, DeserializeRejectsTrailingBytes) {
  TableSchema schema("t", {{"id", ColumnType::kInt}});
  auto bytes = SerializeRow(schema, {Value::Int(1)}).MoveValue();
  bytes.push_back(0);
  EXPECT_FALSE(DeserializeRow(schema, bytes).ok());
}

}  // namespace
}  // namespace qbism::sql
