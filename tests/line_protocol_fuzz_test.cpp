// Deterministic fuzz suite for the line protocol.
//
// Request side: mutated lines go through LineHandler::Handle over a stub
// service. Response side: mutated lines go through every client-side Parse*
// helper. The mutations are every truncation, oversized (20+ digit) and
// negative numbers, non-digits, embedded NULs, and 1 MiB tokens. Property:
// nothing crashes, and every reply is one dot-terminated OK or ERR block.
// tools/ci.sh runs this suite under ASan+UBSan, which is what turns "no
// crash" into "no UB".

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/label_dictionary.h"
#include "server/line_protocol.h"
#include "server/query_service.h"

namespace bigindex {
namespace {

// Fixed answers for every verb, so each request that parses reaches the
// handler's response formatting without an engine or an index.
class StubService : public QueryService {
 public:
  StatusOr<QueryResult> Query(EngineQuery query) override {
    last_query = query;
    QueryResult result;
    Answer answer;
    answer.root = 1;
    answer.vertices = {1, 2};
    answer.keyword_vertices.assign(query.keywords.size(), 2);
    answer.score = 3;
    result.answers.push_back(answer);
    result.wall_ms = 0.5;
    result.breakdown.layer = 1;
    return result;
  }
  uint64_t epoch() const override { return epoch_; }
  uint64_t BumpEpoch() override { return ++epoch_; }
  ServiceStats Snapshot() const override { return {}; }
  std::vector<std::string> AlgorithmNames() const override {
    return {"bkws", "blinks"};
  }
  ServiceIdentity Identity() const override {
    return {.fingerprint = 0xabc, .num_layers = 2};
  }
  StatusOr<UpdateOutcome> ApplyUpdate(
      std::span<const GraphUpdate> updates) override {
    return UpdateOutcome{.applied = updates.size(),
                         .layers_rebuilt = 1,
                         .epoch = BumpEpoch(),
                         .mode = UpdateOutcome::Mode::kIncremental};
  }
  StatusOr<uint64_t> Rollback() override { return BumpEpoch(); }
  StatusOr<BoundaryExport> Boundary() override {
    BoundaryExport ex;
    ex.radius_cap = 4;
    ex.vertices = {{1, 7}, {2, 8}};
    ex.edges = {{1, 2}};
    ex.cut_edges = {{2, 9}};
    return ex;
  }

  EngineQuery last_query;

 private:
  uint64_t epoch_ = 1;
};

constexpr size_t kHugeToken = size_t{1} << 20;  // 1 MiB

// Spellings substituted for every digit run: oversized, negative,
// signed, non-digit, and empty.
constexpr const char* kNumberSpellings[] = {
    "123456789012345678901234",   // 24 digits: overflows every integer
    "18446744073709551616",       // UINT64_MAX + 1
    "-1",
    "-123456789012345678901234",
    "+7",
    "x",
    "1x",
    "0x1f",
    "1e999",
    "nan",
    "",
};

// [begin, end) of each maximal run of ASCII digits in `line`.
std::vector<std::pair<size_t, size_t>> DigitRuns(const std::string& line) {
  std::vector<std::pair<size_t, size_t>> runs;
  for (size_t i = 0; i < line.size();) {
    if (!std::isdigit(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[j]))) {
      ++j;
    }
    runs.emplace_back(i, j);
    i = j;
  }
  return runs;
}

// Every mutation of `line` the suite feeds: truncation at every byte, each
// digit run respelled, a NUL inserted before every byte and at the end, and
// three 1 MiB variants (a trailing token, the first digit run, and the
// first token).
std::vector<std::string> Mutations(const std::string& line) {
  std::vector<std::string> out;
  for (size_t n = 0; n <= line.size(); ++n) out.push_back(line.substr(0, n));
  const auto runs = DigitRuns(line);
  for (const auto& [b, e] : runs) {
    for (const char* spelling : kNumberSpellings) {
      out.push_back(line.substr(0, b) + spelling + line.substr(e));
    }
  }
  for (size_t i = 0; i <= line.size(); ++i) {
    std::string s = line;
    s.insert(i, 1, '\0');
    out.push_back(std::move(s));
  }
  out.push_back(line + " " + std::string(kHugeToken, '9'));
  if (!runs.empty()) {
    const auto [b, e] = runs.front();
    out.push_back(line.substr(0, b) + std::string(kHugeToken, '7') +
                  line.substr(e));
  }
  const size_t first_space = line.find(' ');
  out.push_back(std::string(kHugeToken, 'q') +
                (first_space == std::string::npos ? ""
                                                  : line.substr(first_space)));
  return out;
}

// A short printable rendering of `s` for failure messages.
std::string Preview(const std::string& s) {
  std::string out;
  for (char c : s.substr(0, 60)) {
    if (c == '\0') {
      out += "\\0";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  if (s.size() > 60) out += "... (" + std::to_string(s.size()) + " bytes)";
  return out;
}

// One OK or ERR block: a head starting "OK" or "ERR ", ending in the
// terminator line ".", with no "." line before it.
::testing::AssertionResult IsFramedBlock(const std::string& reply) {
  if (!reply.ends_with("\n.\n")) {
    return ::testing::AssertionFailure()
           << "not dot-terminated: " << Preview(reply);
  }
  if (!reply.starts_with("OK\n") && !reply.starts_with("OK ") &&
      !reply.starts_with("ERR ")) {
    return ::testing::AssertionFailure()
           << "head is neither OK nor ERR: " << Preview(reply);
  }
  const size_t terminator = reply.size() - 2;
  for (size_t pos = 0; pos < terminator;) {
    const size_t nl = reply.find('\n', pos);
    if (reply.compare(pos, nl - pos, ".") == 0) {
      return ::testing::AssertionFailure()
             << "terminator line inside the block at byte " << pos;
    }
    pos = nl + 1;
  }
  return ::testing::AssertionSuccess();
}

// Every verb the handler dispatches, with each option it parses. "trace on"
// is left out so the suite never turns the process-wide tracer on.
const std::vector<std::string>& RequestSeeds() {
  static const std::vector<std::string> seeds = {
      "query bkws 1,2 top_k=10 layer=1 deadline_ms=250 exact=1 beta=0.5",
      "query blinks alpha,3 layer=-1",
      "update add:1:2 remove:30:4",
      "stats",
      "metrics",
      "trace status",
      "trace dump",
      "trace off",
      "bump",
      "rollback",
      "boundary",
      "algos",
      "info",
      "ping",
      "quit",
  };
  return seeds;
}

TEST(LineProtocolFuzzTest, EveryMutatedRequestGetsOneFramedReply) {
  StubService service;
  LabelDictionary dict;
  dict.Intern("alpha");
  LineHandler handler(&service, &dict);
  size_t requests = 0;
  for (const std::string& seed : RequestSeeds()) {
    for (const std::string& line : Mutations(seed)) {
      LineHandler::Result result = handler.Handle(line);
      ASSERT_TRUE(IsFramedBlock(result.response))
          << "request '" << Preview(line) << "'";
      ++requests;
    }
  }
  EXPECT_GT(requests, 500u);
}

// Each line holds an integer field where a 20+ digit or negative value is
// out of range; the handler must answer ERR, never run a different request.
TEST(LineProtocolFuzzTest, OutOfRangeRequestNumbersAreErrors) {
  StubService service;
  LineHandler handler(&service);
  for (const char* bad : {"123456789012345678901234", "-123456789012345678901234",
                          "18446744073709551616", "1x", "x"}) {
    const std::string b = bad;
    for (const std::string& line :
         {"query bkws " + b, "query bkws 1 top_k=" + b,
          "query bkws 1 layer=" + b, "update add:" + b + ":1",
          "update remove:1:" + b}) {
      LineHandler::Result result = handler.Handle(line);
      EXPECT_TRUE(result.response.starts_with("ERR "))
          << "request '" << line << "' answered " << Preview(result.response);
    }
  }
  for (const std::string line :
       {"query bkws -1", "query bkws 1 top_k=-1", "query bkws 1 layer=-2",
        "update add:-1:1"}) {
    EXPECT_TRUE(handler.Handle(line).response.starts_with("ERR ")) << line;
  }
}

// deadline_ms accepts any finite budget. One too large for the clock must
// read as "no deadline", not overflow into an already-expired one; one far
// below zero is expired, like every non-positive budget.
TEST(LineProtocolFuzzTest, OversizedDeadlinesKeepTheirSign) {
  StubService service;
  LineHandler handler(&service);
  for (const char* budget : {"1e30", "123456789012345678901234", "1e308"}) {
    ASSERT_TRUE(handler.Handle(std::string("query bkws 1 deadline_ms=") +
                               budget)
                    .response.starts_with("OK "))
        << budget;
    EXPECT_FALSE(service.last_query.eval.deadline.Expired()) << budget;
  }
  for (const char* budget : {"-1e30", "-123456789012345678901234", "-1e308"}) {
    ASSERT_TRUE(handler.Handle(std::string("query bkws 1 deadline_ms=") +
                               budget)
                    .response.starts_with("OK "))
        << budget;
    EXPECT_TRUE(service.last_query.eval.deadline.Expired()) << budget;
  }
}

// Client-side parsers: every mutation of a well-formed response line either
// parses or returns an error, without crashing.
TEST(LineProtocolFuzzTest, ClientParsersSurviveMutatedLines) {
  size_t inputs = 0;
  auto feed = [&inputs](const std::string& seed, auto parse) {
    for (const std::string& line : Mutations(seed)) {
      parse(line);
      ++inputs;
    }
  };
  feed("A root=12 score=3 kw=4,5 v=4,5,12", [](const std::string& line) {
    Answer answer;
    (void)ParseAnswerLine(line, &answer);
  });
  feed("A root=- score=0 kw=1 v=1", [](const std::string& line) {
    Answer answer;
    (void)ParseAnswerLine(line, &answer);
  });
  feed("OK n=2 ms=0.25 layer=1", [](const std::string& line) {
    QueryResult result;
    (void)ParseQueryHeadLine(line, &result);
  });
  feed("OK epoch=42", [](const std::string& line) {
    uint64_t epoch = 0;
    (void)ParseEpochLine(line, &epoch);
  });
  feed("ERR InvalidArgument: bad value '7' for option 'top_k'",
       [](const std::string& line) { (void)ParseErrLine(line); });
  feed("OK epoch=3 checksum=1f2e layers=4 shard=1/4 algos=bkws,blinks "
       "updates=1/0/0 rollbacks=0 epoch_age_s=1.5",
       [](const std::string& line) {
         WireInfo info;
         (void)ParseInfoLine(line, &info);
       });
  feed("add:1:2", [](const std::string& token) {
    GraphUpdate up;
    (void)ParseUpdateOp(token, &up);
  });
  feed("remove:30:4", [](const std::string& token) {
    GraphUpdate up;
    (void)ParseUpdateOp(token, &up);
  });
  feed("OK applied=2 skipped=1 rebuilt=3 epoch=9 mode=incremental",
       [](const std::string& line) {
         UpdateOutcome outcome;
         (void)ParseUpdateOutcomeLine(line, &outcome);
       });
  const std::vector<std::string> boundary = {
      "OK vertices=2 edges=1 cut=1 radius=4", "v 1 7", "v 2 8", "e 1 2",
      "c 2 9"};
  for (size_t i = 0; i < boundary.size(); ++i) {
    feed(boundary[i], [&](const std::string& line) {
      std::vector<std::string> lines = boundary;
      lines[i] = line;
      BoundaryExport ex;
      (void)ParseBoundaryBlock(lines, &ex);
    });
  }
  EXPECT_GT(inputs, 1000u);
}

// Each response line holds a required integer field whose 20+ digit or
// negative value must be rejected, not wrapped or truncated.
TEST(LineProtocolFuzzTest, OutOfRangeResponseNumbersAreRejected) {
  for (const char* bad : {"123456789012345678901234", "-1",
                          "-123456789012345678901234", "1x"}) {
    const std::string b = bad;
    Answer answer;
    EXPECT_FALSE(ParseAnswerLine("A root=" + b + " score=1 kw=1 v=1", &answer)
                     .ok()) << b;
    EXPECT_FALSE(ParseAnswerLine("A root=1 score=" + b + " kw=1 v=1", &answer)
                     .ok()) << b;
    EXPECT_FALSE(ParseAnswerLine("A root=1 score=1 kw=" + b + " v=1", &answer)
                     .ok()) << b;
    EXPECT_FALSE(ParseAnswerLine("A root=1 score=1 kw=1 v=1," + b, &answer)
                     .ok()) << b;
    QueryResult result;
    EXPECT_FALSE(ParseQueryHeadLine("OK n=" + b + " ms=1 layer=1", &result)
                     .ok()) << b;
    EXPECT_FALSE(ParseQueryHeadLine("OK n=1 ms=1 layer=" + b, &result).ok())
        << b;
    uint64_t epoch = 0;
    EXPECT_FALSE(ParseEpochLine("OK epoch=" + b, &epoch).ok()) << b;
    WireInfo info;
    EXPECT_FALSE(ParseInfoLine("OK epoch=" + b + " shard=0/0", &info).ok())
        << b;
    EXPECT_FALSE(ParseInfoLine("OK epoch=1 shard=" + b + "/4", &info).ok())
        << b;
    EXPECT_FALSE(ParseInfoLine("OK epoch=1 shard=1/4 layers=" + b, &info)
                     .ok()) << b;
    GraphUpdate up;
    EXPECT_FALSE(ParseUpdateOp("add:" + b + ":1", &up).ok()) << b;
    EXPECT_FALSE(ParseUpdateOp("remove:1:" + b, &up).ok()) << b;
    UpdateOutcome outcome;
    EXPECT_FALSE(ParseUpdateOutcomeLine("OK applied=" + b + " epoch=1",
                                        &outcome).ok()) << b;
    EXPECT_FALSE(ParseUpdateOutcomeLine("OK applied=1 epoch=" + b, &outcome)
                     .ok()) << b;
    BoundaryExport ex;
    const std::vector<std::string> head_bad = {"OK vertices=" + b + " cut=0"};
    EXPECT_FALSE(ParseBoundaryBlock(head_bad, &ex).ok()) << b;
    const std::vector<std::string> record_bad = {"OK vertices=1 cut=0",
                                                 "v " + b + " 7"};
    EXPECT_FALSE(ParseBoundaryBlock(record_bad, &ex).ok()) << b;
  }
  WireInfo info;
  EXPECT_FALSE(
      ParseInfoLine("OK epoch=1 shard=0/0 checksum=1234567890abcdef01", &info)
          .ok());
}

}  // namespace
}  // namespace bigindex
