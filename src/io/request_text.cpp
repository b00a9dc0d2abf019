#include "io/request_text.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/apps.h"

namespace sunmap::io {

namespace {

using Kind = RequestField::Kind;

// Each maximum is at least 16x the largest value the tests, examples and
// benchmarks send.
constexpr RequestField kFields[] = {
    {"app", "--app", Kind::kValue},
    {"objectives", "--objective", Kind::kList},
    {"routings", "--routing", Kind::kList},
    {"bandwidths", "--bandwidth", Kind::kList},
    {"areas", "--max-area", Kind::kList},
    {"searches", "--search", Kind::kList},
    {"restarts", "--restarts", Kind::kList, 1024},
    {"swap_passes", "--swap-passes", Kind::kList, 256},
    {"fplan_engines", "--fplan-engine", Kind::kList},
    {"fplan_sizing_passes", "--fplan-sizing-passes", Kind::kList},
    {"faults", "--faults", Kind::kList},
    {"fault_samples", "--fault-samples", Kind::kValue, 1024},
    {"fault_seed", "--fault-seed", Kind::kValue},
    {"fault_mode", "--fault-mode", Kind::kValue},
    {"fault_penalty", "--fault-penalty", Kind::kValue},
    {"reheat", "--reheat", Kind::kValue, 256},
    {"w_delay", "--w-delay", Kind::kValue},
    {"w_area", "--w-area", Kind::kValue},
    {"w_power", "--w-power", Kind::kValue},
    {"sim_finalists", "--sim-finalists", Kind::kValue, 1024},
    {"sim_validate", "--sim-validate", Kind::kSwitch},
    {"sim_rank", "--sim-rank", Kind::kSwitch},
    {"sim_seed", "--sim-seed", Kind::kValue},
    {"sim_traffic", "--sim-traffic", Kind::kValue},
    {"sim_burst_len", "--sim-burst-len", Kind::kValue},
    {"sim_burst_duty", "--sim-burst-duty", Kind::kValue},
    {"threads", "--threads", Kind::kValue, 256},
    {"extensions", "--extensions", Kind::kSwitch},
};

struct BuiltinApp {
  const char* name;
  mapping::CoreGraph (*make)();
};

constexpr BuiltinApp kApps[] = {
    {"vopd", apps::vopd},     {"mpeg4", apps::mpeg4}, {"dsp", apps::dsp_filter},
    {"netproc16", apps::netproc16}, {"pip", apps::pip}, {"mwd", apps::mwd},
};

const RequestField* field_by_key(const std::string& key) {
  for (const auto& field : kFields) {
    if (key == field.key) return &field;
  }
  return nullptr;
}

/// `text` in quotes for an error message, cut to a readable length: the
/// text may be a hostile client's whole request.
std::string quoted(const std::string& text) {
  constexpr std::size_t kMax = 64;
  return "'" + text.substr(0, kMax) + (text.size() > kMax ? "...'" : "'");
}

[[noreturn]] void bad_value(const std::string& text, const std::string& name,
                            const std::string& expected) {
  throw RequestError("bad value " + quoted(text) + " for " + name +
                     (expected.empty() ? "" : " (" + expected + ")"));
}

/// The one numeric parser: std::from_chars must consume `text` whole (no
/// leading space or '+', no suffix), doubles must be finite and integers
/// within T's range and at least `min`.
template <typename T>
T parse_number(const std::string& text, const std::string& name,
               T min = std::numeric_limits<T>::lowest()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) bad_value(text, name, "");
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) bad_value(text, name, "must be finite");
  } else {
    if (value < min) bad_value(text, name, "must be >= " + std::to_string(min));
  }
  return value;
}

/// `value`, parsed from `text`, refused when above its field's maximum.
template <typename T>
T at_most(const RequestField& field, T value, const std::string& text,
          const std::string& name) {
  if constexpr (std::is_same_v<T, int>) {
    if (field.max != 0 && value > field.max) {
      bad_value(text, name, "must be <= " + std::to_string(field.max));
    }
  }
  return value;
}

double parse_real(const std::string& text, const std::string& name) {
  return parse_number<double>(text, name);
}

std::uint64_t parse_seed(const std::string& text, const std::string& name) {
  return parse_number<std::uint64_t>(text, name);
}

/// `value` into a field: appended to an axis, assigned to anything else.
template <typename T>
void store(std::vector<T>& axis, T value) {
  axis.push_back(std::move(value));
}
template <typename T, typename V>
void store(T& field, V value) {
  field = std::move(value);
}

/// `text` matched against the spellings of an enumerated field.
template <typename T>
T parse_choice(const std::string& text, const std::string& name,
               std::initializer_list<std::pair<const char*, T>> choices) {
  std::string spellings;
  for (const auto& [spelling, value] : choices) {
    if (text == spelling) return value;
    spellings += (spellings.empty() ? "" : " | ") + std::string(spelling);
  }
  bad_value(text, name, spellings);
}

bool parse_switch(const std::string& text, const std::string& name) {
  return parse_choice<bool>(text, name, {{"0", false}, {"1", true}});
}

mapping::Objective parse_objective(const std::string& text,
                                   const std::string& name) {
  using mapping::Objective;
  return parse_choice<Objective>(text, name,
                                 {{"delay", Objective::kMinDelay},
                                  {"area", Objective::kMinArea},
                                  {"power", Objective::kMinPower},
                                  {"weighted", Objective::kWeighted}});
}

route::RoutingKind parse_routing(const std::string& text,
                                 const std::string& name) {
  std::string spellings;
  for (const route::RoutingKind kind : route::kAllRoutingKinds) {
    if (text == route::to_string(kind)) return kind;
    spellings += (spellings.empty() ? "" : " | ") +
                 std::string(route::to_string(kind));
  }
  bad_value(text, name, spellings);
}

mapping::SearchKind parse_search(const std::string& text,
                                 const std::string& name) {
  using mapping::SearchKind;
  return parse_choice<SearchKind>(
      text, name,
      {{"greedy", SearchKind::kGreedySwaps},
       {"greedy-swaps", SearchKind::kGreedySwaps},
       {"sa", SearchKind::kAnnealing},
       {"annealing", SearchKind::kAnnealing},
       {"rsa", SearchKind::kRestartAnnealing},
       {"restart", SearchKind::kRestartAnnealing},
       {"restart-annealing", SearchKind::kRestartAnnealing}});
}

fplan::Floorplanner::Engine parse_fplan_engine(const std::string& text,
                                               const std::string& name) {
  using Engine = fplan::Floorplanner::Engine;
  return parse_choice<Engine>(text, name,
                              {{"lp", Engine::kLongestPath},
                               {"longest-path", Engine::kLongestPath},
                               {"simplex", Engine::kSimplexLp},
                               {"simplex-lp", Engine::kSimplexLp}});
}

fault::Aggregation parse_fault_mode(const std::string& text,
                                    const std::string& name) {
  using fault::Aggregation;
  return parse_choice<Aggregation>(text, name,
                                   {{"worst", Aggregation::kWorstCase},
                                    {"worst-case", Aggregation::kWorstCase},
                                    {"weighted", Aggregation::kWeighted}});
}

/// Pieces of `text` between `separator`s, empty pieces kept.
std::vector<std::string> split(const std::string& text, char separator) {
  std::vector<std::string> pieces(1);
  for (const char c : text) {
    if (c == separator) {
      pieces.emplace_back();
    } else {
      pieces.back() += c;
    }
  }
  return pieces;
}

/// Items of a list field; empty items are skipped.
std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  for (auto& item : split(text, ',')) {
    if (!item.empty()) items.push_back(std::move(item));
  }
  return items;
}

/// One fault spec. `base` carries the sampler parameters of the
/// fault_samples/fault_seed fields, so their order does not matter.
/// Grammar: "none" | "n1" | "rand[M]" | explicit scenario list
/// "a-b,c-d,s7/..." ('/' separates scenarios, ',' separates faults,
/// "a-b" fails the channel between switches a and b, "sN" kills switch N).
fault::FaultSpec parse_fault_spec(const std::string& text,
                                  const fault::FaultSpec& base,
                                  const std::string& name) {
  using SpecKind = fault::FaultSpec::Kind;
  fault::FaultSpec spec = base;
  spec.scenarios.clear();
  if (text == "none") {
    spec.kind = SpecKind::kNone;
    return spec;
  }
  if (text == "n1") {
    spec.kind = SpecKind::kEveryLink;
    return spec;
  }
  if (text.rfind("rand", 0) == 0) {
    spec.kind = SpecKind::kRandom;
    if (text.size() > 4) {
      spec.faults_per_scenario = parse_number<int>(text.substr(4), name);
    }
    return spec;
  }
  spec.kind = SpecKind::kExplicit;
  for (const auto& scenario_text : split(text, '/')) {
    fault::ScenarioSpec scenario;
    for (const auto& item : split(scenario_text, ',')) {
      if (item.size() > 1 && item.front() == 's') {
        scenario.switches.push_back(parse_number<int>(item.substr(1), name));
        continue;
      }
      const auto dash = item.find('-', 1);
      if (dash == std::string::npos) {
        bad_value(text, name, "none | n1 | rand[M] | a-b,c-d,sN/...");
      }
      scenario.links.push_back(
          {parse_number<int>(item.substr(0, dash), name),
           parse_number<int>(item.substr(dash + 1), name)});
    }
    spec.scenarios.push_back(std::move(scenario));
  }
  return spec;
}

const BuiltinApp& find_app(const std::string& text, const std::string& name) {
  std::string spellings;
  for (const auto& app : kApps) {
    if (text == app.name) return app;
    spellings += (spellings.empty() ? "" : " | ") + std::string(app.name);
  }
  bad_value(text, name, spellings);
}

std::string field_name(const RequestFields& fields, const std::string& key) {
  const RequestField* field = field_by_key(key);
  return fields.by_flag && field != nullptr ? field->flag : key;
}

}  // namespace

std::span<const RequestField> request_fields() { return kFields; }

const RequestField* field_by_flag(const std::string& flag) {
  for (const auto& field : kFields) {
    if (flag == field.flag) return &field;
  }
  return nullptr;
}

RequestFields parse_request_text(const std::string& text) {
  RequestFields fields;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) break;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw RequestError("bad request line " + quoted(line) +
                         " (want key=value)");
    }
    const std::string key = line.substr(0, eq);
    if (field_by_key(key) == nullptr) {
      throw RequestError("unknown request field " + quoted(key));
    }
    if (!fields.values.emplace(key, line.substr(eq + 1)).second) {
      throw RequestError("repeated request field " + quoted(key));
    }
  }
  if (fields.values.empty()) throw RequestError("empty request");
  return fields;
}

std::string request_text(const RequestFields& fields) {
  std::string text;
  for (const auto& [key, value] : fields.values) {
    if (value.find_first_of("\r\n") != std::string::npos) {
      bad_value(value, field_name(fields, key), "holds a line break");
    }
    text += key + "=" + value + "\n";
  }
  return text;
}

BuiltRequest build_request(const RequestFields& fields, RequestShape shape) {
  for (const auto& entry : fields.values) {
    if (field_by_key(entry.first) == nullptr) {
      throw RequestError("unknown request field " + quoted(entry.first));
    }
  }
  const auto find = [&](const char* key) -> const std::string* {
    const auto it = fields.values.find(key);
    return it != fields.values.end() ? &it->second : nullptr;
  };
  // Parses field `key` into `target`: each item of a list field is
  // appended to the target axis, any other field's value assigned.
  const auto read = [&](const char* key, auto& target, const auto& parse) {
    const std::string* text = find(key);
    if (text == nullptr) return;
    const RequestField& field = *field_by_key(key);
    const std::string name = field_name(fields, key);
    const auto parse_item = [&](const std::string& item) {
      return at_most(field, parse(item, name), item, name);
    };
    if (field.kind != Kind::kList) return store(target, parse_item(*text));
    for (const auto& item : split_list(*text)) store(target, parse_item(item));
  };

  BuiltRequest built;
  auto& request = built.request;
  auto& base = request.base;
  using S = const std::string&;
  read("app", built.app_name,
       [](S text, S name) { return std::string(find_app(text, name).name); });
  read("extensions", built.extensions, parse_switch);
  read("objectives", request.objectives, parse_objective);
  read("routings", request.routings, parse_routing);
  read("bandwidths", request.link_bandwidths_mbps, parse_real);
  read("areas", request.max_areas_mm2, parse_real);
  read("searches", request.searches, parse_search);
  read("restarts", request.restart_counts, parse_int);
  read("swap_passes", request.swap_passes, parse_int);
  read("reheat", base.annealing_reheats, parse_int);
  read("w_delay", base.weights.delay, parse_real);
  read("w_area", base.weights.area, parse_real);
  read("w_power", base.weights.power, parse_real);
  read("fault_samples", base.faults.spec.num_scenarios, parse_int);
  read("fault_seed", base.faults.spec.seed, parse_seed);
  read("fault_mode", base.faults.aggregation, parse_fault_mode);
  read("fault_penalty", base.faults.infeasible_penalty, parse_real);
  read("sim_seed", base.sim_seed, parse_seed);
  read("sim_traffic", base.sim_traffic, [](S text, S name) {
    return parse_choice<mapping::SimTraffic>(
        text, name,
        {{"trace", mapping::SimTraffic::kTrace},
         {"bursty", mapping::SimTraffic::kBursty}});
  });
  read("sim_burst_len", base.sim_burst_len, parse_real);
  read("sim_burst_duty", base.sim_burst_duty, parse_real);
  read("sim_finalists", request.sim_finalists,
       [](S text, S name) { return parse_number<int>(text, name, 0); });
  read("sim_rank", request.sim_rank, parse_switch);
  bool sim_validate = false;
  read("sim_validate", sim_validate, parse_switch);
  read("threads", request.num_threads,
       [](S text, S name) { return parse_number<int>(text, name, 1); });

  // The floorplan axis is the cross product of the engine and sizing-pass
  // lists over the base floorplan options; either list left empty falls
  // back to the base value, and both empty leave the axis unswept.
  std::vector<fplan::Floorplanner::Engine> engines;
  std::vector<int> sizing;
  read("fplan_engines", engines, parse_fplan_engine);
  read("fplan_sizing_passes", sizing, parse_int);
  if (!engines.empty() || !sizing.empty()) {
    if (engines.empty()) engines.push_back(base.floorplan.engine);
    if (sizing.empty()) sizing.push_back(base.floorplan.sizing_passes);
    for (const auto engine : engines) {
      for (const int passes : sizing) {
        auto options = base.floorplan;
        options.engine = engine;
        options.sizing_passes = passes;
        request.floorplan_options.push_back(std::move(options));
      }
    }
  }

  // The fault axis comes after the fault_* fields, so every entry carries
  // their aggregation mode, penalty and sampler parameters.
  if (const std::string* text = find("faults")) {
    const std::string name = field_name(fields, "faults");
    const auto specs = shape == RequestShape::kSweep
                           ? split_list(*text)
                           : std::vector<std::string>{*text};
    for (const auto& spec_text : specs) {
      auto faults = base.faults;
      faults.spec = parse_fault_spec(spec_text, base.faults.spec, name);
      if (shape == RequestShape::kSweep &&
          faults.spec.kind == fault::FaultSpec::Kind::kExplicit) {
        bad_value(spec_text, name,
                  "sweeps take none | n1 | rand[M]; explicit scenario lists "
                  "need a single-point run");
      }
      request.fault_sets.push_back(std::move(faults));
    }
  }

  // --sim-rank needs an analytical prefilter: without --sim-finalists it
  // re-ranks the 3 best cells per group. --sim-validate lifts the cap.
  if (request.sim_rank && request.sim_finalists == 0) request.sim_finalists = 3;
  if (sim_validate) request.sim_finalists = std::numeric_limits<int>::max();

  base.validate();
  return built;
}

int parse_int(const std::string& text, const std::string& name) {
  return parse_number<int>(text, name);
}

mapping::CoreGraph builtin_app(const std::string& name) {
  return find_app(name, "app").make();
}

}  // namespace sunmap::io
