#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int Tracer::begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int id) {
  // Scope closes spans innermost first, so `id` is the top of open_.
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::int64_t> Tracer::self_ns() const {
  // Children of every span, then each span's duration minus the union of
  // its children's intervals.
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end(), [&](int a, int b) {
      return spans_[static_cast<std::size_t>(a)].start_ns <
             spans_[static_cast<std::size_t>(b)].start_ns;
    });
    std::int64_t covered = 0;
    std::int64_t reach = spans_[i].start_ns;
    for (const int k : kids) {
      const auto& kid = spans_[static_cast<std::size_t>(k)];
      const std::int64_t from = std::max(reach, kid.start_ns);
      const std::int64_t to = std::min(kid.end_ns, spans_[i].end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    self[i] = spans_[i].end_ns - spans_[i].start_ns - covered;
  }
  return self;
}

std::map<std::string, Tracer::Totals> Tracer::totals(int run) const {
  const auto self = self_ns();
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].run != run) continue;
    auto& entry = totals[spans_[i].name];
    entry.total_s += 1e-9 * static_cast<double>(spans_[i].end_ns -
                                                spans_[i].start_ns);
    entry.self_s += 1e-9 * static_cast<double>(self[i]);
    ++entry.count;
  }
  return totals;
}

double Tracer::root_seconds(int run) const {
  std::int64_t total = 0;
  for (const auto& span : spans_) {
    if (span.run == run && span.parent < 0) total += span.end_ns - span.start_ns;
  }
  return 1e-9 * static_cast<double>(total);
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    throw std::runtime_error("Tracer: cannot write " + path);
  }
  const auto self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    std::fprintf(file,
                 "{\"id\": %zu, \"name\": \"%s\", \"run\": %d, "
                 "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"self_ns\": %lld}\n",
                 i, span.name, span.run, span.parent,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(self[i]));
  }
  std::fclose(file);
}

}  // namespace perfbench
