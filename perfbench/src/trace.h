#pragma once

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each library layer (nothing inside the
// library is instrumented), kept in memory, and written out at the end.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< Index of the enclosing span, -1 for a root.
    int run = 0;      ///< Pass the span belongs to.
  };

  /// Opens a span under the innermost open one; returns its index.
  int begin(const char* name);
  void end(int id);
  /// Starts a new run id for the spans that follow.
  void next_run() { ++run_; }
  [[nodiscard]] int run() const { return run_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  struct Totals {
    double total_s = 0.0;  ///< Summed span durations.
    double self_s = 0.0;   ///< Durations minus the time child spans cover.
    long count = 0;
  };
  /// Per-name totals over the spans of run `run`.
  [[nodiscard]] std::map<std::string, Totals> totals(int run) const;
  /// Summed duration of run `run`'s root spans.
  [[nodiscard]] double root_seconds(int run) const;

  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = 0;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
