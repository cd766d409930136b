#include "sql/lexer.h"

#include <cctype>
#include <cstdlib>

namespace qbism::sql {

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    Token token;
    token.position = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_')) {
        ++i;
      }
      token.kind = Token::Kind::kIdentifier;
      token.text = sql.substr(start, i - start);
      tokens.push_back(std::move(token));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i < n && sql[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(sql[i + 1]))) {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
        size_t j = i + 1;
        if (j < n && (sql[j] == '+' || sql[j] == '-')) ++j;
        if (j < n && std::isdigit(static_cast<unsigned char>(sql[j]))) {
          is_float = true;
          i = j;
          while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
        }
      }
      token.text = sql.substr(start, i - start);
      if (is_float) {
        token.kind = Token::Kind::kFloat;
        token.float_value = std::strtod(token.text.c_str(), nullptr);
      } else {
        token.kind = Token::Kind::kInteger;
        token.int_value = std::strtoll(token.text.c_str(), nullptr, 10);
      }
      tokens.push_back(std::move(token));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string content;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {  // escaped quote
            content.push_back('\'');
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        content.push_back(sql[i]);
        ++i;
      }
      if (!closed) {
        return Status::InvalidArgument("SQL lexer: unterminated string at " +
                                       std::to_string(token.position));
      }
      token.kind = Token::Kind::kString;
      token.text = std::move(content);
      tokens.push_back(std::move(token));
      continue;
    }
    // Multi-character operators.
    auto symbol = [&](std::string text) {
      token.kind = Token::Kind::kSymbol;
      token.text = std::move(text);
      tokens.push_back(token);
    };
    if (c == '<') {
      if (i + 1 < n && sql[i + 1] == '>') {
        symbol("<>");
        i += 2;
      } else if (i + 1 < n && sql[i + 1] == '=') {
        symbol("<=");
        i += 2;
      } else {
        symbol("<");
        ++i;
      }
      continue;
    }
    if (c == '>') {
      if (i + 1 < n && sql[i + 1] == '=') {
        symbol(">=");
        i += 2;
      } else {
        symbol(">");
        ++i;
      }
      continue;
    }
    if (c == '!' && i + 1 < n && sql[i + 1] == '=') {
      symbol("<>");
      i += 2;
      continue;
    }
    if (std::string("(),.*=+-/").find(c) != std::string::npos) {
      symbol(std::string(1, c));
      ++i;
      continue;
    }
    return Status::InvalidArgument("SQL lexer: unexpected character '" +
                                   std::string(1, c) + "' at offset " +
                                   std::to_string(i));
  }
  Token end;
  end.kind = Token::Kind::kEnd;
  end.position = n;
  tokens.push_back(end);
  return tokens;
}

std::string QuoteLiteral(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('\'');
  for (char c : text) {
    if (c == '\'') out.push_back('\'');
    out.push_back(c);
  }
  out.push_back('\'');
  return out;
}

}  // namespace qbism::sql
