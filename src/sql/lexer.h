#ifndef QBISM_SQL_LEXER_H_
#define QBISM_SQL_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace qbism::sql {

/// Lexical token of the SQL dialect.
struct Token {
  enum class Kind {
    kIdentifier,  // unquoted word (keywords are identifiers; the parser
                  // compares them case-insensitively)
    kInteger,
    kFloat,
    kString,  // contents without quotes
    kSymbol,  // one of: , ( ) . * = <> <= >= < > + - /
    kEnd,
  };

  Kind kind = Kind::kEnd;
  std::string text;
  int64_t int_value = 0;
  double float_value = 0.0;
  size_t position = 0;  // byte offset in the input, for error messages
};

/// Tokenizes a SQL string. Comments ("-- ... end of line") are skipped.
Result<std::vector<Token>> Tokenize(const std::string& sql);

/// `text` as a SQL string literal: in single quotes, with each quote in
/// it doubled, so Tokenize reads it back as one kString token equal to
/// `text`. Every name pasted into generated SQL goes through it.
std::string QuoteLiteral(std::string_view text);

}  // namespace qbism::sql

#endif  // QBISM_SQL_LEXER_H_
