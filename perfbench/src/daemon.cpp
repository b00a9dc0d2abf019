// daemon_warm: sweep::serve in a forked child with 2 accept threads, driven
// closed-loop by 2 client threads over a seeded mix of small requests.
// Every reply is compared byte for byte with the in-process explore() JSON
// of the same request, computed before any timing.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "apps/apps.h"
#include "io/exploration_io.h"
#include "layers.h"
#include "mapping/eval_context.h"
#include "replay.h"
#include "select/explorer.h"
#include "sweep/coordinator.h"
#include "sweep/daemon.h"
#include "topo/library.h"
#include "util/prng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sm = sunmap::mapping;
namespace ss = sunmap::select;
using sunmap::route::RoutingKind;

constexpr int kSetupReps = 3;
constexpr int kClients = 2;
constexpr int kAcceptThreads = 2;
constexpr std::size_t kMinTimedRequests = 200;
constexpr int kMinBatches = 3;
constexpr double kBudgetS = 120.0;

/// One resident application, as the daemon holds it: the app, its standard
/// library and a warm context pool (the in-process reference path).
struct Resident {
  Resident(std::string name_in, sm::CoreGraph app_in)
      : name(std::move(name_in)), app(std::move(app_in)) {}

  std::string name;
  sm::CoreGraph app;
  std::vector<std::unique_ptr<sunmap::topo::Topology>> library;
  ss::ExplorerContextPool pool;
};

struct Request {
  std::size_t resident = 0;
  std::string text;  ///< The daemon protocol request.
  std::vector<sm::Objective> objectives;
  std::vector<RoutingKind> routings;
  std::vector<double> bandwidths;
  std::string reference;  ///< In-process explore() JSON.

  [[nodiscard]] ss::ExplorationRequest explore_request(Resident& r) const {
    ss::ExplorationRequest request;
    request.app = &r.app;
    request.library = &r.library;
    request.context_pool = &r.pool;
    request.objectives = objectives;
    request.routings = routings;
    request.link_bandwidths_mbps = bandwidths;
    return request;
  }
};

/// The resident apps; `library_s` gets the time spent in
/// topo::standard_library.
std::vector<std::unique_ptr<Resident>> make_residents(bool smoke,
                                                      double& library_s) {
  std::vector<std::pair<std::string, sm::CoreGraph>> apps;
  if (smoke) {
    apps = {{"dsp", sunmap::apps::dsp_filter()}, {"vopd", sunmap::apps::vopd()}};
  } else {
    apps = {{"vopd", sunmap::apps::vopd()},
            {"mpeg4", sunmap::apps::mpeg4()},
            {"dsp", sunmap::apps::dsp_filter()},
            {"netproc16", sunmap::apps::netproc16()}};
  }
  std::vector<std::unique_ptr<Resident>> residents;
  for (auto& [name, app] : apps) {
    auto resident = std::make_unique<Resident>(name, std::move(app));
    const double start = now_s();
    resident->library =
        sunmap::topo::standard_library(resident->app.num_cores());
    library_s += now_s() - start;
    residents.push_back(std::move(resident));
  }
  return residents;
}

Request make_request(const std::vector<std::unique_ptr<Resident>>& residents,
                     std::size_t resident, std::vector<int> objectives,
                     std::vector<int> routings, int bandwidths) {
  static const char* kObjectiveNames[] = {"delay", "area", "power"};
  static const sm::Objective kObjectives[] = {
      sm::Objective::kMinDelay, sm::Objective::kMinArea,
      sm::Objective::kMinPower};
  static const RoutingKind kRoutings[] = {RoutingKind::kDimensionOrdered,
                                          RoutingKind::kMinPath,
                                          RoutingKind::kSplitMin};
  Request request;
  request.resident = resident;
  request.text = "app=" + residents[resident]->name + "\nobjectives=";
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    request.text += (i > 0 ? "," : "");
    request.text += kObjectiveNames[objectives[i]];
    request.objectives.push_back(kObjectives[objectives[i]]);
  }
  request.text += "\nroutings=";
  for (std::size_t i = 0; i < routings.size(); ++i) {
    request.text += (i > 0 ? "," : "");
    request.text += sunmap::route::to_string(kRoutings[routings[i]]);
    request.routings.push_back(kRoutings[routings[i]]);
  }
  request.text += bandwidths == 1 ? "\nbandwidths=500\n"
                                  : "\nbandwidths=500,1000\n";
  request.bandwidths = bandwidths == 1 ? std::vector<double>{500.0}
                                       : std::vector<double>{500.0, 1000.0};
  return request;
}

/// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& items, sunmap::util::Prng& prng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[prng.next_below(i)]);
  }
}

/// `slots` subsets of size `size` of {0, 1, 2}: every such subset equally
/// often (cycling), in seeded order.
std::vector<std::vector<int>> balanced_subsets(int size, std::size_t slots,
                                               sunmap::util::Prng& prng) {
  static const std::vector<std::vector<int>> kSubsets[] = {
      {{0}, {1}, {2}}, {{0, 1}, {0, 2}, {1, 2}}, {{0, 1, 2}}};
  const auto& subsets = kSubsets[size - 1];
  std::vector<std::vector<int>> out;
  for (std::size_t i = 0; i < slots; ++i) {
    out.push_back(subsets[i % subsets.size()]);
  }
  shuffle(out, prng);
  return out;
}

/// The timed request mix: per app, one request of every size class
/// (1-3 objectives x 1-3 routings of DO/MP/SM x 1-2 bandwidths). Within
/// each app every objective subset of a given size, and every routing
/// subset of a given size, is used equally often; the seed decides which
/// class gets which subset. Balancing the subsets keeps the mix's total
/// work steady across seeds.
std::vector<Request> make_mix(
    const std::vector<std::unique_ptr<Resident>>& residents,
    std::uint64_t seed, bool smoke) {
  const int max_objectives = smoke ? 1 : 3;
  const int max_routings = smoke ? 2 : 3;
  const int max_bandwidths = smoke ? 1 : 2;
  sunmap::util::Prng prng(seed);
  std::vector<Request> mix;
  for (std::size_t r = 0; r < residents.size(); ++r) {
    std::vector<std::vector<std::vector<int>>> objective_sets, routing_sets;
    for (int n = 1; n <= max_objectives; ++n) {
      objective_sets.push_back(balanced_subsets(
          n, static_cast<std::size_t>(max_routings * max_bandwidths), prng));
    }
    for (int n = 1; n <= max_routings; ++n) {
      routing_sets.push_back(balanced_subsets(
          n, static_cast<std::size_t>(max_objectives * max_bandwidths), prng));
    }
    for (int o = 1; o <= max_objectives; ++o) {
      for (int k = 1; k <= max_routings; ++k) {
        for (int b = 1; b <= max_bandwidths; ++b) {
          auto& objectives = objective_sets[static_cast<std::size_t>(o - 1)];
          auto& routings = routing_sets[static_cast<std::size_t>(k - 1)];
          mix.push_back(make_request(residents, r, objectives.back(),
                                     routings.back(), b));
          objectives.pop_back();
          routings.pop_back();
        }
      }
    }
  }
  return mix;
}

/// Seeded order of one batch over the mix.
std::vector<std::size_t> batch_order(std::size_t n, std::uint64_t seed) {
  sunmap::util::Prng prng(seed);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  shuffle(order, prng);
  return order;
}

// ---- The daemon child. ----

/// What the child reports when it stops: counters at the mark (taken after
/// warm-up) and at exit, and whether serve() returned normally.
struct ChildReport {
  std::uint64_t contexts_mark = 0, contexts_end = 0;
  sm::EvalContext::CacheStats cache_mark, cache_end;
  int ok = 0;
};

std::atomic<std::uint64_t> g_mark_contexts{0};
std::atomic<std::uint64_t> g_mark_cache[4];
int g_ack_fd = -1;

void on_stop(int) { sunmap::sweep::request_stop(); }

void on_mark(int) {
  g_mark_contexts.store(sm::EvalContext::contexts_built());
  const auto cache = sm::EvalContext::cache_stats();
  g_mark_cache[0].store(cache.metrics_hits);
  g_mark_cache[1].store(cache.metrics_misses);
  g_mark_cache[2].store(cache.floorplan_hits);
  g_mark_cache[3].store(cache.floorplan_misses);
  const char ack = 'm';
  [[maybe_unused]] const auto n = ::write(g_ack_fd, &ack, 1);
}

[[noreturn]] void daemon_child(const std::string& socket, int report_fd,
                               int ack_fd) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  ::signal(SIGPIPE, SIG_IGN);
  g_ack_fd = ack_fd;
  struct sigaction action {};
  action.sa_flags = SA_RESTART;
  action.sa_handler = on_stop;
  ::sigaction(SIGTERM, &action, nullptr);
  action.sa_handler = on_mark;
  ::sigaction(SIGUSR1, &action, nullptr);

  ChildReport report;
  try {
    sunmap::sweep::DaemonOptions options;
    options.socket_path = socket;
    options.accept_threads = kAcceptThreads;
    (void)sunmap::sweep::serve(options);
    report.ok = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: daemon failed: %s\n", e.what());
  }
  report.contexts_mark = g_mark_contexts.load();
  report.contexts_end = sm::EvalContext::contexts_built();
  report.cache_mark = {g_mark_cache[0].load(), g_mark_cache[1].load(),
                       g_mark_cache[2].load(), g_mark_cache[3].load()};
  report.cache_end = sm::EvalContext::cache_stats();
  [[maybe_unused]] const auto n = ::write(report_fd, &report, sizeof(report));
  ::_exit(0);
}

/// Reads exactly `size` bytes from `fd`, waiting at most `timeout_ms`.
bool read_exact(int fd, void* data, std::size_t size, int timeout_ms) {
  auto* out = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < size) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return false;
    const ssize_t n = ::read(fd, out + done, size - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// A daemon child process: forked by the constructor (the caller must have
/// no other threads running), stopped by stop() or the destructor.
class DaemonProcess {
 public:
  explicit DaemonProcess(std::string socket) : socket_(std::move(socket)) {
    int report[2], ack[2];
    if (::pipe2(report, O_CLOEXEC) != 0 || ::pipe2(ack, O_CLOEXEC) != 0) {
      throw std::runtime_error("daemon: pipe() failed");
    }
    std::fflush(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("daemon: fork() failed");
    if (pid_ == 0) {
      ::close(report[0]);
      ::close(ack[0]);
      daemon_child(socket_, report[1], ack[1]);
    }
    ::close(report[1]);
    ::close(ack[1]);
    report_fd_ = report[0];
    ack_fd_ = ack[0];
    // Ready once the socket file exists (bind and listen are adjacent).
    for (int i = 0; i < 5000; ++i) {
      struct stat info {};
      if (::stat(socket_.c_str(), &info) == 0) return;
      ::usleep(1000);
    }
    throw std::runtime_error("daemon: socket never appeared");
  }

  ~DaemonProcess() {
    if (pid_ > 0) {
      double ignored = 0.0;
      stop(ignored);
    }
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// Snapshots the child's counters; returns once the child has.
  void mark() {
    ::kill(pid_, SIGUSR1);
    char ack = 0;
    if (!read_exact(ack_fd_, &ack, 1, 10000)) {
      throw std::runtime_error("daemon: no mark acknowledgement");
    }
  }

  /// Stops the child and reaps it; `peak_rss_mb` gets its max RSS.
  ChildReport stop(double& peak_rss_mb) {
    ChildReport report;
    ::kill(pid_, SIGTERM);
    if (!read_exact(report_fd_, &report, sizeof(report), 10000)) {
      ::kill(pid_, SIGKILL);
      report.ok = 0;
    }
    rusage usage{};
    int status = 0;
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    ::close(report_fd_);
    ::close(ack_fd_);
    pid_ = -1;
    return report;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  int report_fd_ = -1;
  int ack_fd_ = -1;
};

struct CallOutcome {
  std::size_t request = 0;
  double latency_s = 0.0;
  std::size_t bytes = 0;
  bool ok = false;
  std::string reply;  ///< Kept only when the reference is not known yet.
};

/// One closed-loop request: the round trip, then the byte comparison with
/// the reference (or, with `keep_reply`, the reply kept for a later
/// comparison). `drop` discards the reply (the self-test's injected
/// failure). `retry_connect` retries a refused connection, for the first
/// request after a fork, which may race the daemon's listen().
CallOutcome call(const std::string& socket, const std::vector<Request>& mix,
                 std::size_t i, bool drop, bool keep_reply = false,
                 bool retry_connect = false) {
  CallOutcome outcome;
  outcome.request = i;
  std::string reply;
  const double start = now_s();
  for (int attempt = 0;; ++attempt) {
    try {
      reply = sunmap::sweep::call_daemon(socket, mix[i].text);
      outcome.ok = true;
    } catch (const std::exception& e) {
      const bool refused =
          std::string(e.what()).find("cannot connect") != std::string::npos;
      if (retry_connect && refused && attempt < 1000) {
        ::usleep(1000);
        continue;
      }
      note("request %zu failed: %s", i, e.what());
    }
    break;
  }
  outcome.latency_s = now_s() - start;
  if (drop) reply.clear();
  outcome.bytes = reply.size();
  if (keep_reply) {
    outcome.reply = std::move(reply);
  } else if (outcome.ok && reply != mix[i].reference) {
    note("request %zu: reply differs from the in-process report", i);
    outcome.ok = false;
  }
  return outcome;
}

/// A batch over the mix in `order` on `clients` closed-loop clients.
std::vector<CallOutcome> run_batch_calls(const std::string& socket,
                                         const std::vector<Request>& mix,
                                         const std::vector<std::size_t>& order,
                                         int clients, bool drop_first) {
  std::atomic<std::size_t> cursor{0};
  std::vector<std::vector<CallOutcome>> outcomes(
      static_cast<std::size_t>(clients));
  const auto client = [&](int c) {
    for (;;) {
      const std::size_t k = cursor.fetch_add(1);
      if (k >= order.size()) break;
      outcomes[static_cast<std::size_t>(c)].push_back(
          call(socket, mix, order[k], drop_first && k == 0));
    }
  };
  std::vector<std::thread> others;
  for (int c = 1; c < clients; ++c) others.emplace_back(client, c);
  client(0);
  for (auto& thread : others) thread.join();
  std::vector<CallOutcome> all;
  for (auto& part : outcomes) all.insert(all.end(), part.begin(), part.end());
  return all;
}

void tally(const std::vector<CallOutcome>& outcomes, RunResult& result) {
  for (const auto& outcome : outcomes) {
    ++result.attempted;
    if (outcome.ok) continue;
    ++result.failed;
    result.problem("daemon request failed or its reply differs");
  }
}

}  // namespace

void run_daemon_warm(const Options& options, RunResult& result) {
  // Calibration threads are joined before the daemon is forked.
  const Calibration calibration = calibrate();
  note_calibration(calibration);

  double library_s = 0.0;
  auto residents = make_residents(options.smoke, library_s);
  auto mix = make_mix(residents, options.seed, options.smoke);
  // Warm-up: one request per app, which builds the daemon's context pool.
  std::vector<Request> warmups;
  for (std::size_t r = 0; r < residents.size(); ++r) {
    warmups.push_back(make_request(residents, r, {0}, {0}, 1));
  }
  std::filesystem::create_directories(".bench_build/perfbench");
  const std::string socket =
      ".bench_build/perfbench/daemon-" + std::to_string(::getpid()) + ".sock";

  // Set-up, several times: start the daemon and warm every app's pool. The
  // daemon is forked before the references below grow this process, so
  // its peak RSS is its own.
  std::vector<double> setup_s;
  std::unique_ptr<DaemonProcess> daemon;
  std::vector<CallOutcome> warm;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (daemon) {
      double ignored = 0.0;
      daemon->stop(ignored);
    }
    const double start = now_s();
    daemon = std::make_unique<DaemonProcess>(socket);
    for (std::size_t w = 0; w < warmups.size(); ++w) {
      warm.push_back(call(socket, warmups, w, false, true, w == 0));
    }
    setup_s.push_back(now_s() - start);
  }

  // References, before any timing: the in-process explore() JSON on warm
  // pools, as the daemon computes it.
  const ss::DesignSpaceExplorer explorer;
  for (auto* list : {&warmups, &mix}) {
    for (auto& request : *list) {
      request.reference = sunmap::io::exploration_report_json(explorer.explore(
          request.explore_request(*residents[request.resident])));
    }
  }
  for (auto& outcome : warm) {
    if (outcome.ok && outcome.reply != warmups[outcome.request].reference) {
      note("warm-up %zu: reply differs from the in-process report",
           outcome.request);
      outcome.ok = false;
    }
  }
  tally(warm, result);
  note("%zu distinct requests per batch over %zu apps", mix.size(),
       residents.size());
  daemon->mark();

  const double start = now_s();
  std::size_t batches = 0;
  const auto keep_going = [&](std::size_t requests, std::size_t min_requests) {
    const double elapsed = now_s() - start;
    return elapsed < kBudgetS &&
           (batches < static_cast<std::size_t>(kMinBatches) ||
            requests < min_requests || elapsed < options.seconds);
  };
  const std::size_t min_requests = options.smoke ? 0 : kMinTimedRequests;

  if (!options.trace) {
    std::vector<double> walls, latencies;
    while (keep_going(latencies.size(), min_requests)) {
      const auto order = batch_order(mix.size(), options.seed + batches);
      const double batch_start = now_s();
      const auto outcomes = run_batch_calls(
          socket, mix, order, kClients,
          options.inject_drop_reply && batches == 0);
      walls.push_back(now_s() - batch_start);
      tally(outcomes, result);
      for (const auto& outcome : outcomes) {
        latencies.push_back(outcome.latency_s);
      }
      ++batches;
    }
    double peak_rss_mb = 0.0;
    const ChildReport child = daemon->stop(peak_rss_mb);
    if (!child.ok) result.problem("daemon child did not stop cleanly");
    const double wall = median(walls);
    note("%zu batches, %zu timed request samples; latency quartiles %.2f / "
         "%.2f / %.2f ms", walls.size(), latencies.size(),
         1e3 * quantile(latencies, 0.25), 1e3 * quantile(latencies, 0.5),
         1e3 * quantile(latencies, 0.75));
    result.metric("wall_s", wall, "s");
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mb", peak_rss_mb, "MB");
    result.metric("request_p50_ms", 1e3 * quantile(latencies, 0.5), "ms");
    result.metric("request_p95_ms", 1e3 * quantile(latencies, 0.95), "ms");
    result.metric("requests_per_s", static_cast<double>(mix.size()) / wall,
                  "1/s");
    return;
  }

  // Traced run: serial single-client passes, so request spans nest; an
  // untraced serial pass precedes each traced one.
  Tracer tracer;
  std::vector<double> plain_walls, traced_walls, self_sums, span_counts;
  std::vector<double> call_ms(mix.size(), 0.0), latencies, reply_bytes;
  while (keep_going(latencies.size(), 0)) {
    const auto order = batch_order(mix.size(), options.seed + batches);
    double t = now_s();
    std::vector<CallOutcome> outcomes;
    for (const std::size_t i : order) {
      outcomes.push_back(call(socket, mix, i, false));
    }
    plain_walls.push_back(now_s() - t);
    tally(outcomes, result);

    tracer.next_run();
    outcomes.clear();
    {
      Scope root(&tracer, "pass");
      for (const std::size_t i : order) {
        Scope span(&tracer, "sweep.call");
        outcomes.push_back(call(socket, mix, i, options.inject_drop_reply &&
                                                    batches == 0 &&
                                                    i == order.front()));
      }
    }
    tally(outcomes, result);
    for (const auto& outcome : outcomes) {
      latencies.push_back(outcome.latency_s);
      call_ms[outcome.request] = 1e3 * outcome.latency_s;
      reply_bytes.push_back(static_cast<double>(outcome.bytes));
    }
    const auto totals = tracer.totals(tracer.run());
    double self_sum = 0.0, spans = 0.0;
    for (const auto& [name, total] : totals) {
      self_sum += total.self_s;
      spans += static_cast<double>(total.count);
    }
    traced_walls.push_back(tracer.root_seconds(tracer.run()));
    if (std::fabs(self_sum - traced_walls.back()) > 1e-6) {
      result.problem("span self times do not sum to the traced wall time");
    }
    self_sums.push_back(self_sum);
    span_counts.push_back(spans);
    ++batches;
  }

  // In-process replay of every request on the warm pools (outside the
  // passes): the layer breakdown of what the daemon does per request, and
  // the in-process time the IPC overhead is measured against.
  tracer.next_run();
  LayerCounts counts;
  std::vector<double> overhead_ms;
  CellProbe cells;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    auto& request = mix[i];
    const double t = now_s();
    const auto report = replay_explore(
        request.explore_request(*residents[request.resident]), tracer, counts);
    std::string json;
    {
      Scope span(&tracer, "io.json");
      json = sunmap::io::exploration_report_json(report);
    }
    overhead_ms.push_back(call_ms[i] - 1e3 * (now_s() - t));
    if (json != request.reference) {
      result.problem("warm-pool replay differs from the reference report");
    }
    std::vector<std::string> problems;
    const auto probe =
        probe_cells(report, residents[request.resident]->app, problems);
    for (const auto& what : problems) result.problem(what);
    cells.cells += probe.cells;
    cells.route_s += probe.route_s;
    cells.place_s += probe.place_s;
  }
  double peak_rss_mb = 0.0;
  const ChildReport child = daemon->stop(peak_rss_mb);
  if (!child.ok) result.problem("daemon child did not stop cleanly");

  LayerValues values;
  fill_from_trace(tracer.totals(tracer.run()), counts, values);
  // Context builds and cache hits as the daemon itself saw them over the
  // timed requests.
  values["mapping.contexts_built"] +=
      static_cast<double>(child.contexts_end - child.contexts_mark);
  const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
    return hits + misses > 0
               ? static_cast<double>(hits) / static_cast<double>(hits + misses)
               : 0.0;
  };
  values["mapping.metrics_hit_ratio"] =
      ratio(child.cache_end.metrics_hits - child.cache_mark.metrics_hits,
            child.cache_end.metrics_misses - child.cache_mark.metrics_misses);
  values["mapping.floorplan_hit_ratio"] = ratio(
      child.cache_end.floorplan_hits - child.cache_mark.floorplan_hits,
      child.cache_end.floorplan_misses - child.cache_mark.floorplan_misses);
  values["io.json_bytes"] = [&] {
    double bytes = 0.0;
    for (const auto& request : mix) bytes += request.reference.size();
    return bytes;
  }();
  if (cells.cells > 0) {
    values["route.route_us"] = 1e6 * cells.route_s / cells.cells;
    values["fplan.place_us"] = 1e6 * cells.place_s / cells.cells;
  }
  values["topo.library_s"] = library_s;
  values["sweep.call_p50_ms"] = 1e3 * quantile(latencies, 0.5);
  values["sweep.call_p95_ms"] = 1e3 * quantile(latencies, 0.95);
  values["sweep.overhead_p50_ms"] = median(overhead_ms);
  values["sweep.reply_bytes"] = median(reply_bytes);
  values["trace.wall_s"] = median(traced_walls);
  values["trace.untraced_wall_s"] = median(plain_walls);
  values["trace.overhead_s"] = median(traced_walls) - median(plain_walls);
  values["trace.self_sum_s"] = median(self_sums);
  values["trace.spans"] = median(span_counts);
  values["failed_frac"] =
      result.attempted > 0
          ? static_cast<double>(result.failed) / result.attempted
          : 0.0;
  values["check.digest_checked"] = 1.0;  // Every reply is byte-compared.
  add_calibration(calibration, values);

  if (values["mapping.contexts_built"] != 0.0) {
    result.problem("bypass: daemon_warm built contexts in timed requests");
  }
  for (const auto& [name, v] : values) {
    if ((name.rfind("sim.", 0) == 0 || name.rfind("fault.", 0) == 0) &&
        v != 0.0) {
      result.problem("bypass: " + name + " must read 0 on daemon_warm");
    }
  }
  note("%zu traced batches, %zu call samples; traced wall %.4f s vs "
       "untraced %.4f s", traced_walls.size(), latencies.size(),
       values["trace.wall_s"], values["trace.untraced_wall_s"]);

  std::filesystem::create_directories(options.out_dir);
  const std::string path = options.out_dir + "/daemon_warm-seed" +
                           std::to_string(options.seed) + ".jsonl";
  tracer.write_jsonl(path);
  note("spans written to %s", path.c_str());
  note_self_times(tracer, tracer.run());
  add_layer_metrics(values, result);
}

}  // namespace perfbench
