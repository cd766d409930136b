#include "sql/lexer.h"

#include <gtest/gtest.h>

namespace qbism::sql {
namespace {

TEST(LexerTest, EmptyInput) {
  auto tokens = Tokenize("").MoveValue();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, Token::Kind::kEnd);
}

TEST(LexerTest, IdentifiersAndKeywords) {
  auto tokens = Tokenize("select Foo _bar x9").MoveValue();
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].kind, Token::Kind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "select");
  EXPECT_EQ(tokens[1].text, "Foo");
  EXPECT_EQ(tokens[2].text, "_bar");
  EXPECT_EQ(tokens[3].text, "x9");
}

TEST(LexerTest, IntegerAndFloatLiterals) {
  auto tokens = Tokenize("42 3.14 1e3 2.5e-2 7").MoveValue();
  EXPECT_EQ(tokens[0].kind, Token::Kind::kInteger);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].kind, Token::Kind::kFloat);
  EXPECT_DOUBLE_EQ(tokens[1].float_value, 3.14);
  EXPECT_EQ(tokens[2].kind, Token::Kind::kFloat);
  EXPECT_DOUBLE_EQ(tokens[2].float_value, 1000.0);
  EXPECT_EQ(tokens[3].kind, Token::Kind::kFloat);
  EXPECT_DOUBLE_EQ(tokens[3].float_value, 0.025);
  EXPECT_EQ(tokens[4].kind, Token::Kind::kInteger);
}

TEST(LexerTest, StringsWithEscapedQuotes) {
  auto tokens = Tokenize("'hello' 'it''s'").MoveValue();
  EXPECT_EQ(tokens[0].kind, Token::Kind::kString);
  EXPECT_EQ(tokens[0].text, "hello");
  EXPECT_EQ(tokens[1].text, "it's");
}

TEST(LexerTest, QuoteLiteralReadsBackAsOneString) {
  for (const std::string name : {"ntal", "o'brien", "o'brien's",
                                 "it's o'brien's", "'", "no_such' or 'a'='a"}) {
    const std::string literal = QuoteLiteral(name);
    auto tokens = Tokenize("x = " + literal);
    ASSERT_TRUE(tokens.ok()) << literal << ": " << tokens.status().ToString();
    ASSERT_EQ(tokens->size(), 4u) << literal;  // x, =, the string, end
    EXPECT_EQ((*tokens)[2].kind, Token::Kind::kString) << literal;
    EXPECT_EQ((*tokens)[2].text, name);
  }
  EXPECT_EQ(QuoteLiteral(""), "''");
  EXPECT_EQ(QuoteLiteral("it's"), "'it''s'");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("'oops").ok());
}

TEST(LexerTest, OperatorsAndSymbols) {
  auto tokens = Tokenize("= <> < <= > >= + - * / ( ) , . !=").MoveValue();
  const char* expected[] = {"=",  "<>", "<", "<=", ">", ">=", "+",
                            "-",  "*",  "/", "(",  ")", ",",  ".",
                            "<>"};  // != normalizes to <>
  for (size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(tokens[i].kind, Token::Kind::kSymbol) << i;
    EXPECT_EQ(tokens[i].text, expected[i]) << i;
  }
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens =
      Tokenize("select -- this is a comment\n x").MoveValue();
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "select");
  EXPECT_EQ(tokens[1].text, "x");
}

TEST(LexerTest, QualifiedColumnTokenizes) {
  auto tokens = Tokenize("wv.studyId").MoveValue();
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].text, "wv");
  EXPECT_EQ(tokens[1].text, ".");
  EXPECT_EQ(tokens[2].text, "studyId");
}

TEST(LexerTest, UnexpectedCharacterFails) {
  auto result = Tokenize("select @ from");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(LexerTest, PositionsRecorded) {
  auto tokens = Tokenize("ab cd").MoveValue();
  EXPECT_EQ(tokens[0].position, 0u);
  EXPECT_EQ(tokens[1].position, 3u);
}

}  // namespace
}  // namespace qbism::sql
