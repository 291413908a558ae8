// Minimal C++ tokenizer for nicmcast_lint, the nicmcast-* analyzer.
//
// It needs no clang development environment, so the checks run wherever
// the simulator builds: it produces a token stream with source positions,
// strips comments and literals, and records `NOLINT(<check>): reason`-style
// suppressions (current-line and next-line forms).  It is deliberately not
// a preprocessor: directives are skipped line-wise, macros are not
// expanded.  The checks built on top are conservative textual
// approximations of the patterns they ban.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace nicmcast::tidy {

struct Token {
  enum class Kind {
    kIdentifier,  // identifiers and keywords alike
    kNumber,
    kString,    // string literal (any encoding prefix, raw or not)
    kCharLit,   // character literal
    kPunct,     // one operator/punctuator per token ("::", "->", "<=", ...)
    kEndOfFile,
  };
  Kind kind = Kind::kEndOfFile;
  std::string_view text;  // view into the lexed source
  int line = 0;           // 1-based
  int col = 0;            // 1-based
};

/// One `NOLINT(<check>)`-family annotation.  `checks` empty means "all
/// checks" (a bare suppression — which nicmcast-bare-nolint rejects).
struct Nolint {
  int line = 0;  // the line the suppression applies to
  std::vector<std::string> checks;
  // Metadata for nicmcast-bare-nolint.  `comment_line`/`col` locate the
  // keyword itself (for next-line suppressions they differ from `line`);
  // `has_checks` is true only for a non-empty explicit check list, and
  // `has_justification` when prose follows the list on the same comment.
  int comment_line = 0;
  int col = 1;
  bool has_checks = false;
  bool has_justification = false;
};

struct LexResult {
  std::vector<Token> tokens;  // terminated by a kEndOfFile token
  std::vector<Nolint> nolints;
};

/// Tokenizes `source`.  The returned tokens view into `source`, which must
/// outlive the result.  Comments, whitespace and preprocessor directives
/// are consumed; suppression comments (current-line and next-line forms)
/// are recorded with the line they suppress.
[[nodiscard]] LexResult lex(std::string_view source);

/// True when `nolints` suppresses `check` on `line`.
[[nodiscard]] bool is_suppressed(const std::vector<Nolint>& nolints, int line,
                                 std::string_view check);

}  // namespace nicmcast::tidy
