#pragma once

#include <string>

namespace sunmap::sweep {

/// Persistent sweep service over a unix-domain stream socket. The daemon
/// keeps one evaluation-context pool per (application, library) pair alive
/// across every request it serves, so repeat sweeps over the same topology
/// library skip per-topology context construction entirely (they rebind —
/// see select::ExplorerContextPool and EvalContext::rebind).
///
/// Request protocol: newline-separated `key=value` lines terminated by a
/// blank line (or EOF). The keys are those of the request field table in
/// io/request_text.h, one per CLI evaluation flag, and a request is read
/// exactly as io::build_request reads the sweep flags; `app` is required.
/// An unknown or repeated key, or a value its field cannot take, is
/// answered with ERR.
///
/// A request larger than 64 KiB is refused with
/// `ERR request exceeds 65536 bytes` without being buffered further.
///
/// Response: `OK <byte count>\n` followed by exactly that many bytes of
/// io::exploration_report_json, or `ERR <message>\n`.
struct DaemonOptions {
  std::string socket_path;
  /// Return after serving this many requests; -1 serves until
  /// request_stop() (the CLI wires that to SIGINT). Exact at any
  /// accept_threads count: each accepted connection consumes one ticket of
  /// the budget before it is handled.
  int max_requests = -1;
  /// Accept-loop worker threads. Each worker accepts, parses, and serves
  /// whole requests; a context pool is locked per (app, library) pair, so
  /// concurrent requests over DIFFERENT pairs evaluate in parallel while
  /// requests sharing a pool serialize on its entry (the contexts are not
  /// shareable mid-explore). 1 — the default — reproduces the original
  /// single-threaded loop.
  int accept_threads = 1;
  /// Log one stderr line per request.
  bool verbose = false;
};

struct DaemonStats {
  int requests_served = 0;
  int requests_failed = 0;
};

/// Runs the daemon loop; returns when max_requests were served or
/// request_stop() was raised. Throws std::runtime_error when the socket
/// cannot be created or bound. The socket file is unlinked on return.
DaemonStats serve(const DaemonOptions& options);

/// Client side: connects to a daemon socket, submits one request (a blank
/// terminator line is appended if missing) and returns the JSON report
/// body. Throws std::runtime_error on connection failure or an ERR
/// response.
[[nodiscard]] std::string call_daemon(const std::string& socket_path,
                                      const std::string& request_text);

}  // namespace sunmap::sweep
