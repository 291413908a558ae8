// Fixture-driven tests for the nicmcast-* determinism checks.
//
// Every fixture under fixtures/ annotates the lines it expects flagged
// with `// EXPECT: <check-name>`; all other lines must stay clean.  The
// tests run the portable engine in-process and compare the (line, check)
// sets exactly — both directions, so a silent check regression (missed
// positive) and an overeager check (flagged negative) both fail.
//
// scripts/check_fixtures.py runs the nicmcast_lint binary over the same
// fixtures and EXPECT annotations (the nicmcast_fixture_driver_portable
// ctest), parsing its output the way run_static_analysis.py does.
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "checks.hpp"
#include "lexer.hpp"

namespace nicmcast::tidy {
namespace {

using LineCheck = std::pair<int, std::string>;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(NICMCAST_LINT_FIXTURE_DIR) + "/" +
                           name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::set<LineCheck> expected_findings(const std::string& source) {
  std::set<LineCheck> out;
  std::istringstream in(source);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t at = line.find("// EXPECT: ");
    if (at == std::string::npos) continue;
    std::string check = line.substr(at + 11);
    const std::size_t end = check.find_first_of(" \t\r");
    if (end != std::string::npos) check = check.substr(0, end);
    out.emplace(lineno, check);
  }
  return out;
}

std::set<LineCheck> actual_findings(const std::string& name,
                                    const std::string& source) {
  SymbolTable symbols;
  collect_declarations(source, symbols);
  std::set<LineCheck> out;
  for (const Diagnostic& d :
       run_checks(name, source, symbols, CheckOptions{})) {
    out.emplace(d.line, d.check);
  }
  return out;
}

void run_fixture(const std::string& name) {
  const std::string source = read_fixture(name);
  ASSERT_FALSE(source.empty());
  const std::set<LineCheck> expected = expected_findings(source);
  const std::set<LineCheck> actual = actual_findings(name, source);

  for (const LineCheck& want : expected) {
    EXPECT_TRUE(actual.count(want) != 0)
        << name << ":" << want.first << " expected a " << want.second
        << " diagnostic but the check stayed silent";
  }
  for (const LineCheck& got : actual) {
    EXPECT_TRUE(expected.count(got) != 0)
        << name << ":" << got.first << " unexpected " << got.second
        << " diagnostic on a line meant to be clean";
  }
}

TEST(NicmcastTidyFixtures, NondeterministicIteration) {
  run_fixture("nondeterministic_iteration.cpp");
}

TEST(NicmcastTidyFixtures, PointerOrder) { run_fixture("pointer_order.cpp"); }

TEST(NicmcastTidyFixtures, WallClock) { run_fixture("wall_clock.cpp"); }

TEST(NicmcastTidyFixtures, DescriptorEscape) {
  run_fixture("descriptor_escape.cpp");
}

TEST(NicmcastTidyFixtures, InlineFunctionCapture) {
  run_fixture("inline_function_capture.cpp");
}

TEST(NicmcastTidyFixtures, MemoryOrderAudit) {
  run_fixture("memory_order_audit.cpp");
}

TEST(NicmcastTidyFixtures, ShardStateEscape) {
  run_fixture("shard_state_escape.cpp");
}

TEST(NicmcastTidyFixtures, ThreadNondeterminism) {
  run_fixture("thread_nondeterminism.cpp");
}

TEST(NicmcastTidyFixtures, BareNolint) { run_fixture("bare_nolint.cpp"); }

// Every fixture must exercise both polarities: at least one EXPECT line
// (the check fires) and at least one function-bearing clean line (the
// check knows when to stay silent).
TEST(NicmcastTidyFixtures, FixturesCoverBothPolarities) {
  for (const char* name :
       {"nondeterministic_iteration.cpp", "pointer_order.cpp",
        "wall_clock.cpp", "descriptor_escape.cpp",
        "inline_function_capture.cpp", "memory_order_audit.cpp",
        "shard_state_escape.cpp", "thread_nondeterminism.cpp",
        "bare_nolint.cpp"}) {
    const std::string source = read_fixture(name);
    EXPECT_GE(expected_findings(source).size(), 3u)
        << name << " should seed several positive cases";
    EXPECT_NE(source.find("negative"), std::string::npos)
        << name << " should carry negative cases too";
  }
}

// --- Engine unit tests: suppression and lexer behaviour -------------------

TEST(NicmcastTidySuppression, NolintOnLine) {
  const std::string src = "long f() { return time(nullptr); }  "
                          "// NOLINT(nicmcast-wall-clock): fixture\n";
  SymbolTable symbols;
  collect_declarations(src, symbols);
  EXPECT_TRUE(run_checks("x.cpp", src, symbols, CheckOptions{}).empty());
}

// A bare suppression still silences the other checks — but it is itself a
// nicmcast-bare-nolint finding, and that finding cannot be suppressed by
// the very comment it indicts.
TEST(NicmcastTidySuppression, BareNolintSuppressesOthersButIsFlagged) {
  const std::string src = "long f() { return time(nullptr); }  // NOLINT\n";
  SymbolTable symbols;
  const auto diags = run_checks("x.cpp", src, symbols, CheckOptions{});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check, "nicmcast-bare-nolint");
}

TEST(NicmcastTidySuppression, CheckNameWithoutJustificationIsFlagged) {
  const std::string src = "long f() { return time(nullptr); }  "
                          "// NOLINT(nicmcast-wall-clock)\n";
  SymbolTable symbols;
  const auto diags = run_checks("x.cpp", src, symbols, CheckOptions{});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check, "nicmcast-bare-nolint");
}

TEST(NicmcastTidySuppression, NolintNextLine) {
  const std::string src =
      "// NOLINTNEXTLINE(nicmcast-wall-clock): fixture\n"
      "long f() { return time(nullptr); }\n";
  SymbolTable symbols;
  EXPECT_TRUE(run_checks("x.cpp", src, symbols, CheckOptions{}).empty());
}

TEST(NicmcastTidySuppression, WrongCheckNameDoesNotSuppress) {
  const std::string src = "long f() { return time(nullptr); }  "
                          "// NOLINT(nicmcast-pointer-order): wrong one\n";
  SymbolTable symbols;
  const auto diags = run_checks("x.cpp", src, symbols, CheckOptions{});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check, "nicmcast-wall-clock");
}

TEST(NicmcastTidyPaths, WallClockAllowedUnderHarness) {
  const std::string src = "long f() { return time(nullptr); }\n";
  SymbolTable symbols;
  EXPECT_TRUE(
      run_checks("src/harness/bench_io.cpp", src, symbols, CheckOptions{})
          .empty());
  EXPECT_EQ(
      run_checks("src/nic/nic.cpp", src, symbols, CheckOptions{}).size(),
      1u);
}

TEST(NicmcastTidyLexer, TokensCarryPositions) {
  const LexResult r = lex("int x = 1;\nfoo(bar);\n");
  ASSERT_GE(r.tokens.size(), 8u);
  EXPECT_EQ(r.tokens[0].text, "int");
  EXPECT_EQ(r.tokens[0].line, 1);
  EXPECT_EQ(r.tokens[4].text, ";");
  EXPECT_EQ(r.tokens[5].text, "foo");
  EXPECT_EQ(r.tokens[5].line, 2);
}

TEST(NicmcastTidyLexer, CommentsStringsAndPreprocessorAreSkipped) {
  const LexResult r = lex("#include <unordered_map>\n"
                          "// rand() in a comment\n"
                          "/* time(nullptr) */\n"
                          "const char* s = \"rand()\";\n");
  for (const Token& t : r.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "unordered_map");
  }
}

TEST(NicmcastTidyLexer, RawStringsAreOneToken) {
  const LexResult r = lex("auto s = R\"(time(nullptr))\";\n");
  SymbolTable symbols;
  EXPECT_TRUE(run_checks("x.cpp", "auto s = R\"(time(nullptr))\";\n",
                         symbols, CheckOptions{})
                  .empty());
  bool found_string = false;
  for (const Token& t : r.tokens) {
    if (t.kind == Token::Kind::kString) found_string = true;
  }
  EXPECT_TRUE(found_string);
}

}  // namespace
}  // namespace nicmcast::tidy
