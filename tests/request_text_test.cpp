// The one request schema (io/request_text.h): strict values named by
// field, the flag -> text -> request round trip of every table field,
// daemon replies byte-identical to in-process explore() over every field
// family, worker-sharded sweeps over the same requests, and seeded hostile
// daemon text answered with a named error or ERR, never a crash.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "io/exploration_io.h"
#include "io/request_text.h"
#include "select/explorer.h"
#include "sweep/checkpoint.h"
#include "sweep/coordinator.h"
#include "sweep/daemon.h"
#include "topo/library.h"
#include "util/prng.h"

namespace sunmap::io {
namespace {

/// The CLI's collect step over an argument list.
RequestFields cli_fields(const std::vector<std::string>& args) {
  RequestFields fields;
  fields.by_flag = true;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const RequestField* field = field_by_flag(args[i]);
    if (field == nullptr) throw std::invalid_argument("not a field " + args[i]);
    fields.values[field->key] =
        field->kind == RequestField::Kind::kSwitch ? "1" : args.at(++i);
  }
  return fields;
}

/// A built request bound to its app and standard library, as the CLI and
/// the daemon bind it.
struct Bound {
  explicit Bound(BuiltRequest built_in)
      : built(std::move(built_in)),
        app(builtin_app(built.app_name)),
        library(topo::standard_library(app.num_cores(), built.extensions)) {
    built.request.app = &app;
    built.request.library = &library;
  }
  BuiltRequest built;
  mapping::CoreGraph app;
  std::vector<std::unique_ptr<topo::Topology>> library;
};

/// Everything a request carries: the checkpoint fingerprint plus the
/// fields it leaves out (threads, the sim tier, extensions).
std::string signature(const BuiltRequest& built) {
  const Bound bound(built);
  const auto& r = bound.built.request;
  return std::to_string(sweep::request_fingerprint(r)) + "|" +
         std::to_string(r.num_threads) + "|" +
         std::to_string(r.sim_finalists) + "|" + std::to_string(r.sim_rank) +
         "|" + std::to_string(built.extensions) + "|" +
         std::to_string(r.base.sim_use_event_engine) + "|" +
         std::to_string(r.base.sim_seed) + "|" +
         mapping::to_string(r.base.sim_traffic) + "|" +
         std::to_string(r.base.sim_burst_len) + "|" +
         std::to_string(r.base.sim_burst_duty);
}

std::string explore_json(const RequestFields& fields) {
  const Bound bound(build_request(fields));
  select::DesignSpaceExplorer explorer;
  return exploration_report_json(explorer.explore(bound.built.request));
}

/// Polls until a daemon answers (it binds its socket asynchronously).
std::string first_call(const std::string& socket, const std::string& text) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    try {
      return sweep::call_daemon(socket, text);
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ADD_FAILURE() << "daemon never came up";
  return {};
}

std::string error_of(const RequestFields& fields) {
  try {
    (void)build_request(fields);
  } catch (const RequestError& e) {
    return e.what();
  }
  return "(accepted)";
}

TEST(RequestText, StrictValuesAreRefusedByFieldName) {
  struct Case {
    const char* flag;
    const char* key;
    const char* value;
  };
  const Case cases[] = {
      {"--bandwidth", "bandwidths", "5x"},
      {"--restarts", "restarts", "3x"},
      {"--fault-penalty", "fault_penalty", "2.5zz"},
      {"--bandwidth", "bandwidths", "500abc"},
      {"--reheat", "reheat", "abc"},
      {"--threads", "threads", "99999999999"},
      {"--w-delay", "w_delay", "1e999"},
      {"--max-area", "areas", "inf"},
      {"--fault-seed", "fault_seed", "-1"},
      {"--swap-passes", "swap_passes", " 2"},
  };
  for (const auto& c : cases) {
    const std::string expected =
        std::string("bad value '") + c.value + "' for ";
    // CLI path: collected from flags, named by flag.
    const auto cli = cli_fields({"--app", "vopd", c.flag, c.value});
    EXPECT_EQ(error_of(cli).rfind(expected + c.flag, 0), 0u)
        << error_of(cli);
    // Daemon path: collected from request text, named by key.
    const auto daemon = parse_request_text(std::string("app=vopd\n") + c.key +
                                           "=" + c.value + "\n");
    EXPECT_EQ(error_of(daemon).rfind(expected + c.key, 0), 0u)
        << error_of(daemon);
  }
  EXPECT_EQ(error_of(cli_fields({"--app", "vopd", "--bandwidth", "5x"})),
            "bad value '5x' for --bandwidth");
}

TEST(RequestText, CountFieldsAreBoundedByName) {
  int bounded = 0;
  for (const RequestField& field : request_fields()) {
    if (field.max == 0) continue;
    ++bounded;
    const std::string at_max = std::to_string(field.max);
    const std::string over = std::to_string(field.max + 1);
    const std::string refusal =
        "bad value '" + over + "' for %s (must be <= " + at_max + ")";
    const auto named = [&](const std::string& name) {
      std::string text = refusal;
      return text.replace(text.find("%s"), 2, name);
    };
    EXPECT_EQ(error_of(cli_fields({"--app", "vopd", field.flag, over})),
              named(field.flag));
    EXPECT_EQ(error_of(parse_request_text(std::string("app=vopd\n") +
                                          field.key + "=" + over + "\n")),
              named(field.key));
    EXPECT_EQ(error_of(cli_fields({"--app", "vopd", field.flag, at_max})),
              "(accepted)")
        << field.flag;
  }
  EXPECT_EQ(bounded, 6);
  // A list field bounds each of its items.
  EXPECT_EQ(error_of(cli_fields({"--app", "vopd", "--restarts", "2,2000000000"})),
            "bad value '2000000000' for --restarts (must be <= 1024)");
}

TEST(RequestText, DaemonTextRefusesUnknownRepeatedAndMalformedLines) {
  EXPECT_THROW((void)parse_request_text("app=vopd\nbogus_key=42\n"),
               RequestError);
  EXPECT_THROW((void)parse_request_text("app=vopd\napp=pip\n"), RequestError);
  EXPECT_THROW((void)parse_request_text("app=vopd\nfaults\n"), RequestError);
  EXPECT_THROW((void)parse_request_text("\n"), RequestError);
  EXPECT_THROW((void)parse_request_text(""), RequestError);
  // An error quotes a hostile line, not all of it.
  try {
    (void)parse_request_text(std::string(100000, 'x'));
    ADD_FAILURE() << "a line without '=' was accepted";
  } catch (const RequestError& e) {
    EXPECT_LT(std::string(e.what()).size(), 200u);
  }
  // A line break inside a value would smuggle in a second field.
  EXPECT_THROW(
      (void)request_text(cli_fields({"--objective", "delay\nfaults=n1"})),
      RequestError);
  // The fault axis is honoured, not dropped.
  const auto built =
      build_request(parse_request_text("app=vopd\nfaults=n1\n\nignored"));
  ASSERT_EQ(built.request.fault_sets.size(), 1u);
  EXPECT_EQ(built.request.fault_sets[0].spec.kind,
            fault::FaultSpec::Kind::kEveryLink);
  // Sweeps take named fault specs only; one point takes explicit lists.
  const auto explicit_faults =
      cli_fields({"--app", "vopd", "--faults", "0-1,2-3/s4"});
  EXPECT_THROW((void)build_request(explicit_faults), RequestError);
  const auto point =
      build_request(explicit_faults, RequestShape::kSinglePoint);
  ASSERT_EQ(point.request.fault_sets.size(), 1u);
  EXPECT_EQ(point.request.fault_sets[0].spec.scenarios.size(), 2u);
}

TEST(RequestText, EveryFieldRoundTripsThroughDaemonText) {
  // One non-default value per field; a field added to the table without a
  // sample here fails the coverage check below.
  const std::map<std::string, std::string> samples = {
      {"--app", "pip"},
      {"--objective", "area,power"},
      {"--routing", "DO,SA"},
      {"--bandwidth", "600,800.5"},
      {"--max-area", "40"},
      {"--search", "sa,rsa"},
      {"--restarts", "2,3"},
      {"--swap-passes", "1,3"},
      {"--fplan-engine", "simplex"},
      {"--fplan-sizing-passes", "0,1"},
      {"--faults", "n1,rand2"},
      {"--fault-samples", "3"},
      {"--fault-seed", "9"},
      {"--fault-mode", "weighted"},
      {"--fault-penalty", "4.5"},
      {"--reheat", "2"},
      {"--w-delay", "2"},
      {"--w-area", "0.5"},
      {"--w-power", "3"},
      {"--sim-engine", "cycle"},
      {"--sim-finalists", "2"},
      {"--sim-validate", ""},
      {"--sim-rank", ""},
      {"--sim-seed", "7"},
      {"--sim-traffic", "bursty"},
      {"--sim-burst-len", "20"},
      {"--sim-burst-duty", "0.5"},
      {"--threads", "2"},
      {"--extensions", ""},
  };
  ASSERT_EQ(samples.size(), request_fields().size());
  const auto plain = signature(build_request(cli_fields({"--app", "vopd"})));
  for (const auto& field : request_fields()) {
    ASSERT_EQ(samples.count(field.flag), 1u) << field.flag;
    std::vector<std::string> args = {"--app", "vopd", field.flag};
    if (field.kind != RequestField::Kind::kSwitch) {
      args.push_back(samples.at(field.flag));
    }
    const auto flags = cli_fields(args);
    const auto direct = signature(build_request(flags));
    const auto text = request_text(flags);
    const auto through_text =
        signature(build_request(parse_request_text(text)));
    EXPECT_EQ(direct, through_text) << field.flag << " via\n" << text;
    EXPECT_NE(direct, plain) << field.flag << " did not reach the request";
  }
}

/// Requests over every field family: faults, both floorplan axes, weights
/// with reheats, and the sim tier.
std::vector<std::string> grid_texts() {
  return {
      "app=dsp\nobjectives=delay\nroutings=MP\nfaults=n1\n",
      "app=dsp\nobjectives=delay,power\nroutings=DO\nfaults=none,rand2\n"
      "fault_samples=2\nfault_seed=5\nfault_mode=weighted\nfault_penalty=3\n",
      "app=dsp\nobjectives=area\nroutings=DO\nfplan_engines=lp,simplex\n"
      "fplan_sizing_passes=0\n",
      "app=pip\nobjectives=weighted\nroutings=DO\nw_delay=2\nw_area=0.5\n"
      "w_power=1.5\nsearches=sa\nreheat=1\n",
      "app=pip\nroutings=DO,MP\nsim_finalists=2\nsim_rank=1\n"
      "sim_traffic=bursty\nsim_seed=4\n",
      "app=dsp\nroutings=DO\nsim_validate=1\nsim_engine=cycle\n"
      "sim_burst_len=20\nsim_burst_duty=0.4\nextensions=1\nthreads=2\n",
  };
}

TEST(RequestText, DaemonRepliesMatchInProcessExplore) {
  const auto texts = grid_texts();
  const std::string socket = testing::TempDir() + "request_text_grid.sock";
  sweep::DaemonOptions options;
  options.socket_path = socket;
  options.max_requests = static_cast<int>(texts.size());
  sweep::reset_stop();
  sweep::DaemonStats stats;
  std::thread server([&]() { stats = sweep::serve(options); });

  for (std::size_t i = 0; i < texts.size(); ++i) {
    const auto fields = parse_request_text(texts[i]);
    const auto sent = request_text(fields);
    const auto reply =
        i == 0 ? first_call(socket, sent) : sweep::call_daemon(socket, sent);
    EXPECT_EQ(reply, explore_json(fields)) << texts[i];
  }
  server.join();
  EXPECT_EQ(stats.requests_served, static_cast<int>(texts.size()));
  EXPECT_EQ(stats.requests_failed, 0);
}

TEST(RequestText, WorkerShardedSweepsMatchInProcess) {
  // The fault and floorplan requests of the grid (the sim tier needs an
  // in-process sweep).
  const auto texts = grid_texts();
  for (std::size_t i = 0; i < 3; ++i) {
    const auto fields = parse_request_text(texts[i]);
    const Bound bound(build_request(fields));
    sweep::SweepOptions options;
    options.num_workers = 2;
    auto result = sweep::run_sweep(bound.built.request, options);
    for (auto& point : result.report.results) {
      EXPECT_GE(point.worker_id, 0);
      point.shard_index = -1;
      point.worker_id = -1;
    }
    EXPECT_EQ(exploration_report_json(result.report), explore_json(fields))
        << texts[i];
  }
}

/// One seeded mutation of a valid request: truncation, a duplicated line,
/// a flipped byte, a dropped '=', an unknown key, or a huge number.
std::string mutate(const std::string& text, util::Prng& prng) {
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < text.size();) {
    const auto end = text.find('\n', at);
    lines.push_back(text.substr(at, end - at));
    at = end + 1;
  }
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(prng.next_below(n));
  };
  const auto join = [&]() {
    std::string out;
    for (const auto& line : lines) out += line + "\n";
    return out;
  };
  static const char* kHuge[] = {"99999999999999999999", "1e999",
                                "-99999999999999999999",
                                "184467440737095516160", "1e-999999"};
  switch (prng.next_below(7)) {
    case 0:
      return text.substr(0, pick(text.size()));
    case 1: {
      const std::size_t l = pick(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(l), lines[l]);
      return join();
    }
    case 2: {
      std::string out = text;
      out[pick(out.size())] = static_cast<char>(prng.next_below(256));
      return out;
    }
    case 3: {
      auto& line = lines[pick(lines.size())];
      line.erase(line.find('='), 1);
      return join();
    }
    case 4:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       pick(lines.size() + 1)),
                   "zz_unknown=1");
      return join();
    case 5: {
      auto& line = lines[pick(lines.size())];
      line = line.substr(0, line.find('=') + 1) + kHuge[pick(5)];
      return join();
    }
    default: {
      std::string out;
      for (std::size_t n = pick(64); n > 0; --n) {
        out += static_cast<char>(prng.next_below(256));
      }
      return out;
    }
  }
}

/// The parser's verdict on hostile text: true when it builds, false on a
/// named error. Any other exception fails the test.
bool parser_accepts(const std::string& text) {
  try {
    (void)build_request(parse_request_text(text));
    return true;
  } catch (const std::invalid_argument&) {
    return false;  // RequestError, or MapperConfig::validate naming a field.
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unnamed error " << e.what() << " on\n" << text;
    return false;
  }
}

TEST(RequestText, HostileDaemonTextGetsANamedErrorOrERR) {
  const std::vector<std::string> corpus = {
      "app=dsp\nobjectives=delay\nroutings=DO\nbandwidths=500\nfaults=rand2\n"
      "fault_samples=2\nfault_seed=5\nfault_mode=weighted\n"
      "fault_penalty=3\n",
      "app=pip\nobjectives=area\nroutings=DO\nfplan_engines=lp\n"
      "fplan_sizing_passes=1\nw_delay=2\nreheat=1\nsearches=greedy\n"
      "restarts=2\nswap_passes=1\nthreads=1\n",
      "app=dsp\nroutings=DO\nsim_finalists=1\nsim_rank=1\nsim_seed=3\n"
      "sim_traffic=bursty\nsim_burst_len=20\nsim_burst_duty=0.4\n"
      "sim_engine=event\nextensions=0\nareas=80\n",
  };
  // The parser alone, over many cases.
  util::Prng prng(20041);
  for (int i = 0; i < 3000; ++i) {
    (void)parser_accepts(mutate(corpus[prng.next_below(corpus.size())], prng));
  }

  // A live daemon over fewer: a text the parser refuses must get ERR, one
  // it accepts must get exactly the in-process report (or ERR where the
  // in-process explore() throws too).
  constexpr int kCases = 150;
  const std::string socket = testing::TempDir() + "request_text_hostile.sock";
  sweep::DaemonOptions options;
  options.socket_path = socket;
  options.max_requests = kCases + 1;
  sweep::reset_stop();
  sweep::DaemonStats stats;
  std::thread server([&]() { stats = sweep::serve(options); });
  (void)first_call(socket, corpus[0]);
  int refused = 0;
  for (int i = 1; i < kCases; ++i) {
    const auto text = mutate(corpus[prng.next_below(corpus.size())], prng);
    std::string expected;
    bool expect_ok = parser_accepts(text);
    if (expect_ok) {
      try {
        expected = explore_json(parse_request_text(text));
      } catch (const std::exception&) {
        expect_ok = false;
      }
    }
    refused += expect_ok ? 0 : 1;
    try {
      const auto reply = sweep::call_daemon(socket, text);
      EXPECT_TRUE(expect_ok) << "OK for a refused request:\n" << text;
      EXPECT_EQ(reply, expected) << text;
    } catch (const std::runtime_error& e) {
      EXPECT_FALSE(expect_ok) << "ERR " << e.what() << " on\n" << text;
    }
  }
  // Still serving: the last request is a clean one.
  EXPECT_EQ(sweep::call_daemon(socket, corpus[1]),
            explore_json(parse_request_text(corpus[1])));
  server.join();
  EXPECT_GT(refused, kCases / 2);
  EXPECT_EQ(stats.requests_failed, refused);
  EXPECT_EQ(stats.requests_served + stats.requests_failed, kCases + 1);
}

}  // namespace
}  // namespace sunmap::io
