// Hardened protocol surface: a table of malformed, hostile, and merely
// confused request lines runs through the serve loop, and every one must
// come back as a structured {"ok":false,"error":...} response — with the
// server still alive and serving valid requests afterwards. A parse error
// must never terminate pwu_serve.

#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "service/session_manager.hpp"
#include "util/json.hpp"

namespace pwu::service {
namespace {

namespace json = util::json;

struct MalformedCase {
  const char* name;
  std::string request;
  /// Substring the structured error must contain ("" = any non-empty).
  std::string error_contains;
};

std::vector<MalformedCase> malformed_cases() {
  return {
      {"truncated JSON", R"({"op":"create","session":"x")", ""},
      {"not JSON at all", "garbage in, structured error out", ""},
      {"op of the wrong type", R"({"op":42})", ""},
      {"unknown op", R"({"op":"frobnicate"})", "unknown op"},
      // Sessions move only as checkpoint images; no wire transfer op.
      {"export op", R"({"op":"export","session":"s","offset":0})",
       "unknown op 'export'"},
      {"import op", R"({"op":"import","session":"s","commit":true})",
       "unknown op 'import'"},
      {"ask without session", R"({"op":"ask"})", "session"},
      {"unknown session", R"({"op":"ask","session":"ghost"})",
       "no session named"},
      {"levels of the wrong type",
       R"({"op":"tell","session":"s","levels":"abc","time":1.0})",
       "levels"},
      {"fractional level index",
       R"({"op":"tell","session":"s","levels":[1.5,0],"time":1.0})", ""},
      {"negative level index",
       R"({"op":"tell","session":"s","levels":[-3,0],"time":1.0})", ""},
      {"tell without time",
       R"({"op":"tell","session":"s","levels":[0,0,0,0,0,0,0,0]})",
       "time"},
      {"tell with unknown failure status",
       R"({"op":"tell","session":"s","levels":[0,0,0,0,0,0,0,0],)"
       R"("status":"exploded"})",
       "unknown status"},
      {"tell with negative failure cost",
       R"({"op":"tell","session":"s","levels":[0,0,0,0,0,0,0,0],)"
       R"("status":"crash","cost":-1.0})",
       "cost"},
      {"tell for a non-outstanding config",
       R"({"op":"tell","session":"s","levels":[0],"time":1.0})", ""},
      {"create with unknown workload",
       R"({"op":"create","session":"y","workload":"no-such-kernel"})",
       ""},
      {"create with an unparseable seed",
       R"({"op":"create","session":"y","workload":"atax",)"
       R"("seed":"notanumber"})",
       ""},
      {"create with a path-hostile session name",
       R"({"op":"create","session":"../escape","workload":"atax"})", ""},
      {"resume from a missing checkpoint",
       R"({"op":"resume","session":"z","path":"/nonexistent/z.ckpt"})",
       ""},
      {"request line exceeding the size cap",
       std::string((1 << 20) + 100, 'x'), "exceeds 1 MiB"},
  };
}

std::string valid_create() {
  return R"({"op":"create","session":"s","workload":"gesummv",)"
         R"("n_init":4,"n_batch":2,"n_max":8,"pool_size":60,"trees":4,)"
         R"("seed":13})";
}

TEST(ProtocolErrors, MalformedLinesGetStructuredErrorsAndServerSurvives) {
  const auto cases = malformed_cases();

  // One serve loop sees everything: a valid create, then each malformed
  // line immediately followed by a liveness probe, then a valid ask and a
  // shutdown — interleaved blank lines must be skipped without responses.
  std::ostringstream in_text;
  in_text << valid_create() << '\n';
  for (const auto& c : cases) {
    in_text << c.request << '\n';
    in_text << "\n  \t \n";  // blank lines between requests are ignored
    in_text << R"({"op":"status","session":"s"})" << '\n';
  }
  in_text << R"({"op":"ask","session":"s"})" << '\n';
  in_text << R"({"op":"shutdown"})" << '\n';

  SessionManager manager;
  std::istringstream in(in_text.str());
  std::ostringstream out;
  const std::size_t handled = run_serve_loop(in, out, manager);

  std::vector<json::Value> responses;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    ASSERT_FALSE(line.empty());
    responses.push_back(json::parse(line));  // every reply is valid JSON
  }

  // create + (error + probe) per case + ask + shutdown; blank lines
  // produced no responses and counted as nothing handled.
  const std::size_t expected = 1 + 2 * cases.size() + 2;
  EXPECT_EQ(handled, expected);
  ASSERT_EQ(responses.size(), expected);

  ASSERT_TRUE(responses.front().at("ok").as_bool())
      << responses.front().dump();

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const json::Value& error = responses[1 + 2 * i];
    const json::Value& probe = responses[2 + 2 * i];
    SCOPED_TRACE(cases[i].name);
    ASSERT_TRUE(error.is_object()) << error.dump();
    EXPECT_FALSE(error.at("ok").as_bool()) << error.dump();
    ASSERT_TRUE(error.at("error").is_string()) << error.dump();
    const std::string& message = error.at("error").as_string();
    EXPECT_FALSE(message.empty());
    if (!cases[i].error_contains.empty()) {
      EXPECT_NE(message.find(cases[i].error_contains), std::string::npos)
          << message;
    }
    // The very next request on the same connection succeeded: the server
    // is alive, and the session untouched by the malformed line.
    ASSERT_TRUE(probe.at("ok").as_bool()) << probe.dump();
    EXPECT_DOUBLE_EQ(probe.at("status").at("labeled").as_number(), 0.0);
  }

  // The post-table ask still works and the shutdown is acknowledged.
  const json::Value& asked = responses[expected - 2];
  ASSERT_TRUE(asked.at("ok").as_bool()) << asked.dump();
  EXPECT_EQ(asked.at("candidates").as_array().size(), 4u);  // n_init
  const json::Value& bye = responses.back();
  EXPECT_TRUE(bye.at("ok").as_bool());
  EXPECT_TRUE(bye.at("shutdown").as_bool());
}

TEST(ProtocolErrors, HandleRequestNeverThrowsForRequestLevelErrors) {
  SessionManager manager;
  for (const auto& c : malformed_cases()) {
    if (c.request.size() > (1 << 20)) continue;  // serve-loop-level guard
    SCOPED_TRACE(c.name);
    json::Value request;
    try {
      request = json::parse(c.request);
    } catch (const std::exception&) {
      continue;  // parse errors are the serve loop's department
    }
    json::Value response;
    EXPECT_NO_THROW(response = handle_request(manager, request));
    ASSERT_TRUE(response.is_object());
    EXPECT_FALSE(response.at("ok").as_bool()) << response.dump();
  }
  EXPECT_EQ(manager.size(), 0u);  // nothing malformed ever created state
}

}  // namespace
}  // namespace pwu::service
