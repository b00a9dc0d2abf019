#pragma once

#include <map>
#include <span>
#include <stdexcept>
#include <string>

#include "mapping/core_graph.h"
#include "select/explorer.h"

namespace sunmap::io {

/// The one request schema shared by every entry point: the CLI's flags,
/// the sweep daemon's `key=value` protocol and `sunmap_cli --call`, which
/// forwards the former as the latter. A request moves through three steps:
///
///   collect    CLI flags (field_by_flag) or daemon lines
///              (parse_request_text) -> RequestFields, raw text per key
///   build      build_request -> select::ExplorationRequest
///   serialize  request_text -> daemon lines
///
/// Every value parser lives behind build_request, so a field reads the
/// same from every entry point.
struct RequestField {
  enum class Kind {
    kSwitch,  ///< CLI flag without a value; the daemon key takes 0 or 1.
    kValue,   ///< One value.
    kList,    ///< Comma-separated values: one sweep axis.
  };
  const char* key;   ///< Daemon protocol key.
  const char* flag;  ///< CLI flag.
  Kind kind;
  /// Largest value of an integer field (of each item, for a list); 0 when
  /// unbounded. Bounds the work one request can ask for: a restart or
  /// thread count near INT_MAX would hold a daemon worker for hours.
  int max = 0;
};

/// The field table; the CLI usage text says what each field means.
[[nodiscard]] std::span<const RequestField> request_fields();

/// The table entry of a CLI flag; nullptr when none.
[[nodiscard]] const RequestField* field_by_flag(const std::string& flag);

/// A malformed request: an unknown or repeated field, a line without '=',
/// or a value its field cannot take. The message names the field (by CLI
/// flag or daemon key, as collected) and quotes the value.
class RequestError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Raw text per field key, as collected from one entry point.
struct RequestFields {
  std::map<std::string, std::string> values;
  /// Name fields by CLI flag (true) or daemon key (false) in errors.
  bool by_flag = false;
};

/// Daemon side of collect: newline-separated `key=value` lines up to a
/// blank line or the end of `text`. Throws RequestError on an empty
/// request, a line without '=', or an unknown or repeated key.
[[nodiscard]] RequestFields parse_request_text(const std::string& text);

/// The serialize step: one `key=value` line per field, in key order.
/// Throws RequestError when a value holds a line break (it would smuggle
/// in a second field).
[[nodiscard]] std::string request_text(const RequestFields& fields);

/// How `faults` reads. A sweep takes a comma list of named specs
/// (none | n1 | rand[M]); a single-point run takes one spec, which may be
/// an explicit scenario list "a-b,c-d,s7/..." whose commas separate the
/// faults of one scenario.
enum class RequestShape { kSweep, kSinglePoint };

/// An ExplorationRequest built from fields, plus the two fields that pick
/// what it borrows: `app` and `library` are left null for the caller to
/// bind (builtin_app(app_name) and the library over `extensions`).
struct BuiltRequest {
  select::ExplorationRequest request;
  std::string app_name;  ///< Empty when no `app` field was given.
  bool extensions = false;
};

/// The build step: parses every field, strictly (each value consumed
/// whole; doubles finite; integers in range) and validates the base
/// configuration. Throws RequestError naming the field and value, or
/// std::invalid_argument from MapperConfig::validate.
[[nodiscard]] BuiltRequest build_request(
    const RequestFields& fields, RequestShape shape = RequestShape::kSweep);

/// The strict integer parser every request field uses, for callers'
/// numeric options outside the request: `text` consumed whole and in int
/// range, else RequestError naming `name` and quoting `text`.
[[nodiscard]] int parse_int(const std::string& text, const std::string& name);

/// The built-in benchmark named `name` (vopd, mpeg4, dsp, netproc16, pip,
/// mwd); throws RequestError for any other name.
[[nodiscard]] mapping::CoreGraph builtin_app(const std::string& name);

}  // namespace sunmap::io
