#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "io/core_graph_io.h"
#include "util/prng.h"

namespace sunmap::io {
namespace {

TEST(CoreGraphIo, ParsesMinimalGraph) {
  std::istringstream in(R"(
app tiny
core a 2.0
core b hard 1.5 2.0
flow a b 100
)");
  const auto app = read_core_graph(in);
  EXPECT_EQ(app.name(), "tiny");
  EXPECT_EQ(app.num_cores(), 2);
  EXPECT_EQ(app.num_flows(), 1);
  EXPECT_TRUE(app.core(0).shape.soft);
  EXPECT_FALSE(app.core(1).shape.soft);
  EXPECT_DOUBLE_EQ(app.core(1).shape.width_mm, 1.5);
  EXPECT_DOUBLE_EQ(app.graph().edge(0).weight, 100.0);
}

TEST(CoreGraphIo, ParsesSoftWithAspectRange) {
  std::istringstream in(R"(
app aspects
core x soft 4.0 0.5 2.0
core y 1.0
flow x y 10
)");
  const auto app = read_core_graph(in);
  EXPECT_DOUBLE_EQ(app.core(0).shape.min_aspect, 0.5);
  EXPECT_DOUBLE_EQ(app.core(0).shape.max_aspect, 2.0);
}

TEST(CoreGraphIo, CommentsAndBlanksIgnored) {
  std::istringstream in(R"(
# a comment
app commented   # trailing comment

core a 1.0
core b 1.0  # another
flow a b 5
)");
  const auto app = read_core_graph(in);
  EXPECT_EQ(app.num_cores(), 2);
}

TEST(CoreGraphIo, FlowMayPrecedeCoreDefinitions) {
  // Flows are resolved after the whole file is read.
  std::istringstream in(R"(
app forward
flow a b 10
core a 1.0
core b 1.0
)");
  const auto app = read_core_graph(in);
  EXPECT_EQ(app.num_flows(), 1);
}

TEST(CoreGraphIo, ErrorsCarryLineNumbers) {
  std::istringstream missing_app("core a 1.0\n");
  EXPECT_THROW(
      {
        try {
          read_core_graph(missing_app);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(CoreGraphIo, RejectsMalformedInput) {
  auto parse = [](const char* text) {
    std::istringstream in(text);
    return read_core_graph(in);
  };
  EXPECT_THROW(parse("app x\ncore a notanumber\n"), std::runtime_error);
  EXPECT_THROW(parse("app x\nbogus y\n"), std::runtime_error);
  EXPECT_THROW(parse("app x\napp y\n"), std::runtime_error);
  EXPECT_THROW(parse("app x\ncore a 1.0 extra\n"), std::runtime_error);
  EXPECT_THROW(parse("app x\ncore a soft 1.0 2.0 0.5\n"),
               std::runtime_error);  // inverted aspect range
  EXPECT_THROW(parse("app x\ncore a 1.0\nflow a missing 5\n"),
               std::runtime_error);
  EXPECT_THROW(parse(""), std::runtime_error);
}

TEST(CoreGraphIo, RoundTripsBuiltinApps) {
  for (const auto& app :
       {apps::vopd(), apps::mpeg4(), apps::dsp_filter(), apps::netproc16()}) {
    std::istringstream in(core_graph_to_string(app));
    const auto parsed = read_core_graph(in);
    ASSERT_EQ(parsed.num_cores(), app.num_cores());
    ASSERT_EQ(parsed.num_flows(), app.num_flows());
    EXPECT_EQ(parsed.name(), app.name());
    for (int c = 0; c < app.num_cores(); ++c) {
      EXPECT_EQ(parsed.core(c).name, app.core(c).name);
      EXPECT_NEAR(parsed.core(c).shape.area_mm2, app.core(c).shape.area_mm2,
                  1e-9);
      EXPECT_EQ(parsed.core(c).shape.soft, app.core(c).shape.soft);
    }
    for (int e = 0; e < app.num_flows(); ++e) {
      EXPECT_EQ(parsed.graph().edge(e).src, app.graph().edge(e).src);
      EXPECT_EQ(parsed.graph().edge(e).dst, app.graph().edge(e).dst);
      EXPECT_NEAR(parsed.graph().edge(e).weight, app.graph().edge(e).weight,
                  1e-9);
    }
  }
}

TEST(CoreGraphIo, RejectsNonFiniteAndNonPositiveNumbersByLine) {
  // Each graph is valid but for one number; the refusal names its line.
  struct Case {
    const char* line2;
    const char* flow_ab;
  };
  const Case cases[] = {
      {"core a 1", "inf"},         {"core a 1", "nan"},
      {"core a 1", "-inf"},        {"core a 1", "0"},
      {"core a -3", "100"},        {"core a nan", "100"},
      {"core a inf", "100"},       {"core a hard -1 2", "100"},
      {"core a hard -1 -2", "100"}, {"core a hard 2 nan", "100"},
      {"core a soft 5 nan nan", "100"}, {"core a soft 5 0.5 inf", "100"},
      {"core a soft 0 0.5 2", "100"},
  };
  for (const auto& c : cases) {
    const std::string flow_line = std::string("flow a b ") + c.flow_ab;
    std::istringstream in(std::string("app t\n") + c.line2 +
                          "\ncore b 1\ncore c 1\n" + flow_line +
                          "\nflow b c 50\n");
    const std::string bad_line = std::string(c.line2) == "core a 1"
                                     ? "core graph line 5: "
                                     : "core graph line 2: ";
    try {
      (void)read_core_graph(in);
      ADD_FAILURE() << c.line2 << " / " << flow_line << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(bad_line, 0), 0u) << e.what();
    }
  }
}

/// Every number of a parsed graph that the mapper divides, sums or sizes
/// by is positive and finite.
void expect_valid_graph(const mapping::CoreGraph& app) {
  const auto positive_finite = [](double x) {
    return x > 0.0 && std::isfinite(x);
  };
  for (int c = 0; c < app.num_cores(); ++c) {
    const auto& shape = app.core(c).shape;
    EXPECT_TRUE(positive_finite(shape.area_mm2)) << shape.area_mm2;
    if (shape.soft) {
      EXPECT_TRUE(positive_finite(shape.min_aspect));
      EXPECT_TRUE(std::isfinite(shape.max_aspect));
      EXPECT_GE(shape.max_aspect, shape.min_aspect);
    } else {
      EXPECT_TRUE(positive_finite(shape.width_mm));
      EXPECT_TRUE(positive_finite(shape.height_mm));
    }
  }
  for (const auto& edge : app.graph().edges()) {
    EXPECT_TRUE(positive_finite(edge.weight)) << edge.weight;
  }
}

/// One seeded mutation of a core-graph text: a truncation, a byte flip, or
/// one numeric token replaced by a hostile number.
std::string mutate(const std::string& text, util::Prng& prng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(prng.next_below(n));
  };
  switch (prng.next_below(3)) {
    case 0:
      return text.substr(0, pick(text.size() + 1));
    case 1: {
      if (text.empty()) return text;
      std::string out = text;
      out[pick(out.size())] = static_cast<char>(prng.next_below(256));
      return out;
    }
    default: {
      // Start offsets of the tokens that begin like a number.
      std::vector<std::size_t> numbers;
      for (std::size_t at = 0; at < text.size(); ++at) {
        const bool starts = at == 0 || text[at - 1] == ' ' ||
                            text[at - 1] == '\n';
        const char ch = text[at];
        if (starts && ((ch >= '0' && ch <= '9') || ch == '-' || ch == '.')) {
          numbers.push_back(at);
        }
      }
      if (numbers.empty()) return text;
      static const char* kHostile[] = {"nan", "inf", "-1", "0", "1e309"};
      const std::size_t at = numbers[pick(numbers.size())];
      const std::size_t end = text.find_first_of(" \n", at);
      std::string out = text;
      out.replace(at, (end == std::string::npos ? text.size() : end) - at,
                  kHostile[pick(std::size(kHostile))]);
      return out;
    }
  }
}

TEST(CoreGraphIo, HostileMutationsEndInAValidGraphOrANamedError) {
  std::vector<std::string> corpus;
  for (const auto& app : {apps::vopd(), apps::mpeg4(), apps::dsp_filter(),
                          apps::netproc16(), apps::pip(), apps::mwd()}) {
    corpus.push_back(core_graph_to_string(app));
  }
  util::Prng prng(18);
  int refused = 0;
  constexpr int kCases = 4000;
  for (int i = 0; i < kCases; ++i) {
    std::string text = corpus[prng.next_below(corpus.size())];
    const auto mutations = 1 + prng.next_below(3);
    for (std::uint64_t m = 0; m < mutations; ++m) text = mutate(text, prng);
    std::istringstream in(text);
    try {
      expect_valid_graph(read_core_graph(in));
    } catch (const std::runtime_error& e) {
      ++refused;
      EXPECT_EQ(std::string(e.what()).rfind("core graph", 0), 0u) << e.what();
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "case " << i << ":\n" << text;
      return;
    }
  }
  // Both outcomes occur: the mutations are neither all benign nor all fatal.
  EXPECT_GT(refused, kCases / 10);
  EXPECT_LT(refused, kCases);
}

TEST(CoreGraphIo, MissingFileThrows) {
  EXPECT_THROW(read_core_graph_file("/nonexistent/sunmap.cg"),
               std::runtime_error);
}

}  // namespace
}  // namespace sunmap::io
