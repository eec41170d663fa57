// navbench: the repository benchmark, on two clocks.
//
//   navbench --workload <paper_plans|batch_overlap|serve_rw> --seed <n>
//            --seconds <s> --trace <0|1> [--out <dir>]
//
// Every run builds the engine's inputs from the seed, measures repeated
// passes of one workload for up to --seconds of wall time, checks every
// answer, and prints one JSON object as the last line of stdout. With
// --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate traced pass (spec.json lists both and
// says which end-to-end metric each layer metric should move).
//
// Clocks. `sim_*` values and the per-layer counts come from the engine's
// simulated clock and counters: they repeat exactly at a fixed seed, and
// every pass of a run is checked to reproduce the first bit for bit.
// Host values are process CPU seconds of this single-threaded program.
//
// Each pass builds a fresh database: the simulated drive's head position
// survives a run, so reusing a database would make later passes start
// from a different device state.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/harness.h"
#include "common/random.h"
#include "compiler/cost_model.h"
#include "compiler/executor.h"
#include "compiler/plan.h"
#include "compiler/shared_scan.h"
#include "compiler/workload_executor.h"
#include "observe/trace.h"
#include "serve/server.h"
#include "store/clustering.h"
#include "store/import.h"
#include "store/path_summary.h"
#include "txn/txn.h"
#include "xmark/generator.h"
#include "xpath/oracle.h"
#include "xpath/parser.h"

namespace {

using namespace navpath;

// ---------------------------------------------------------------------------
// Metric catalogue. The names and units here are the ones BENCHMARK.json
// lists; run.py refuses a result whose names differ from it.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},
    {"sim_s", "sim_s"},
    {"sim_gmean_s", "sim_s"},
    {"sim_p50_s", "sim_s"},
    {"sim_p95_s", "sim_s"},
    {"capacity_per_sim_s", "1/sim_s"},
};

constexpr MetricDef kPerLayer[] = {
    // Set-up layers (host CPU seconds, median over the run's set-ups).
    {"xmark.generate_s", "s"},
    {"store.import_s", "s"},
    {"compiler.stats_s", "s"},
    {"store.summary_s", "s"},
    // Front end (host CPU microseconds per query, median).
    {"xpath.parse_us", "us"},
    {"compiler.plan_us", "us"},
    {"compiler.optimizer_regret", "ratio"},
    // Workload executor.
    {"compiler.pulls", "count"},
    {"compiler.sched_decisions", "count"},
    {"compiler.pool_depth_p50", "count"},
    {"compiler.admission_wait_p50_s", "sim_s"},
    // Algebra.
    {"algebra.instances_created", "count"},
    {"algebra.speculative_instances", "count"},
    {"algebra.rs_probes", "count"},
    {"algebra.fallbacks", "count"},
    // Simulated-time split (Table 3): CPU and I/O wait over the pass.
    {"sim.cpu_s", "sim_s"},
    {"sim.io_wait_s", "sim_s"},
    // Store navigation.
    {"store.clusters_visited", "count"},
    {"store.inter_cluster_hops", "count"},
    {"store.node_tests", "count"},
    // Storage: disk.
    {"storage.disk_reads", "count"},
    {"storage.seq_read_frac", "ratio"},
    {"storage.seek_pages_per_read", "pages"},
    {"storage.elevator_depth_mean", "count"},
    {"storage.requests_merged", "count"},
    {"storage.async_reorderings", "count"},
    {"storage.disk_writes", "count"},
    {"storage.priority_jumps", "count"},
    // Storage: buffer.
    {"storage.buffer_hit_ratio", "ratio"},
    {"storage.evictions", "count"},
    {"storage.swizzles", "count"},
    // Prefix sharing.
    {"share.groups_adopted", "count"},
    {"share.groups_declined", "count"},
    {"share.instances_streamed", "count"},
    {"share.spills", "count"},
    {"share.private_fallbacks", "count"},
    {"share.makespan_vs_off", "ratio"},
    // Transactions.
    {"txn.commits", "count"},
    {"txn.aborts", "count"},
    {"txn.abort_ratio", "ratio"},
    {"txn.versions_reclaimed", "count"},
    {"txn.retired_pending", "count"},
    {"txn.commits_per_sim_s", "1/sim_s"},
    // Serving layer.
    {"serve.queue_wait_p95_s", "sim_s"},
    {"serve.shed", "count"},
    {"serve.degraded", "count"},
    {"serve.state_changes", "count"},
    {"serve.read_p95_s.r5", "sim_s"},
    {"serve.read_p95_s.r10", "sim_s"},
    {"serve.read_p95_s.r20", "sim_s"},
    {"serve.read_p95_s.r30", "sim_s"},
    {"serve.max_rung_under_slo", "1/sim_s"},
    {"serve.max_rate_under_slo", "1/sim_s"},
    // Tracing itself.
    {"trace.host_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

// ---------------------------------------------------------------------------
// Host clock and host-time spans.

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Host-time spans around the public calls into each layer, plus the
/// engine's own simulated-clock trace chunks, written out as one Chrome
/// trace. Spans of one query share its `query` id. Inactive (the
/// untraced pass) it only times.
class HostTrace {
 public:
  explicit HostTrace(bool active) : active_(active) {}

  bool active() const { return active_; }

  /// Runs `fn`, records a span named `name` when active, and returns the
  /// host CPU seconds it took.
  template <typename Fn>
  double Time(const char* name, std::uint64_t query, Fn&& fn) {
    const double begin = CpuSeconds();
    fn();
    const double end = CpuSeconds();
    if (active_) spans_.push_back({name, query, begin, end});
    return end - begin;
  }

  /// Appends the engine tracer's events (simulated clock) as their own
  /// Chrome-trace process `label`; each cold start restarts the engine's
  /// clock, so every run gets a process of its own.
  void AddEngineTrace(Database* db, const std::string& label) {
    const Tracer* tracer = db->tracer();
    if (!active_ || tracer == nullptr) return;
    std::string json = tracer->ToJson();
    const std::size_t open = json.find('[');
    const std::size_t close = json.rfind(']');
    if (open == std::string::npos || close == std::string::npos) return;
    const int pid = 100 + static_cast<int>(engine_.size());
    const std::string from = "\"pid\":1,";
    const std::string to = "\"pid\":" + std::to_string(pid) + ",";
    std::string events;
    events.reserve(close - open + close / 64);
    for (std::size_t at = open + 1; at < close;) {
      const std::size_t hit = json.find(from, at);
      const std::size_t stop = std::min(hit, close);
      events.append(json, at, stop - at);
      if (hit >= close) break;
      events += to;
      at = hit + from.size();
    }
    engine_.push_back("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                      std::to_string(pid) + ",\"args\":{\"name\":\"sim " +
                      label + "\"}}" +
                      (events.find_first_not_of(" \n") == std::string::npos
                           ? ""
                           : ",\n" + events));
  }

  Status Write(const std::string& path) const {
    std::string out = "{\"traceEvents\":[\n";
    out +=
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":"
        "{\"name\":\"host (process CPU time)\"}}";
    char buf[256];
    for (const HostSpan& s : spans_) {
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\","
                    "\"pid\":2,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"query\":%" PRIu64 "}}",
                    s.name, s.begin * 1e6, (s.end - s.begin) * 1e6, s.query);
      out += buf;
    }
    for (const std::string& chunk : engine_) out += ",\n" + chunk;
    out += "\n]}\n";
    return WriteTextFile(path, out);
  }

 private:
  struct HostSpan {
    const char* name;
    std::uint64_t query;
    double begin;
    double end;
  };

  bool active_;
  std::vector<HostSpan> spans_;
  std::vector<std::string> engine_;
};

// ---------------------------------------------------------------------------
// Small statistics helpers.

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double Seconds(SimTime t) { return SimClock::ToSeconds(t); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// One pass of a workload: set-up, measured phase, checks.

struct Pass {
  // Host clock.
  double setup_s = 0.0;  // median over the pass's fixture builds
  double host_s = 0.0;   // measured phase, excluding set-up
  std::vector<double> generate_s, import_s, stats_s, summary_s;
  std::vector<double> parse_us, plan_us;

  // Simulated clock and counters: deterministic at a fixed seed.
  std::map<std::string, double> sim;    // end-to-end sim_* and ok_ratio
  std::map<std::string, double> layer;  // per-layer counts and sim times
  std::map<std::string, double> traced_only;  // extra runs of a traced pass

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // errors and wrong answers
  std::uint64_t shed = 0;    // refused by the serving layer
  std::vector<std::string> errors;  // correctness failures

  void Error(const std::string& what) { errors.push_back(what); }
};

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "navbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(*result);
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

/// A freshly imported XMark database plus the DOM it was built from (the
/// correctness oracle evaluates queries on that DOM).
struct Fixture {
  std::unique_ptr<Database> db;
  DomTree tree;
  ImportedDocument doc;
  DocumentStats stats;
};

/// The layout XMarkFixture uses: subtree clustering with 1/8 page slack.
SubtreeClusteringPolicy FixturePolicy(std::size_t page_size) {
  return SubtreeClusteringPolicy(page_size - page_size / 8);
}

/// Builds the benchmark database the way XMarkFixture::Create does (bench
/// fragmentation defaults, subtree clustering), timing each layer's call.
Fixture BuildFixture(double scale, std::uint64_t seed, Pass* pass,
                     HostTrace* trace, bool trace_engine) {
  const FixtureOptions defaults;
  XMarkOptions xmark = defaults.xmark;
  xmark.scale = scale;
  xmark.seed = seed;

  auto db = std::make_unique<Database>(defaults.db);
  TagRegistry* tags = db->tags();
  Fixture fx{std::move(db), DomTree(tags), {}, {}};
  if (trace_engine) {
    TracerOptions options;
    options.max_events = 256u * 1024;  // bounds the trace file per run
    fx.db->EnableTracing(options);
  }
  const double gen = trace->Time("GenerateXMark", 0, [&] {
    fx.tree = GenerateXMark(xmark, tags);
  });
  const double imp = trace->Time("Database::Import", 0, [&] {
    SubtreeClusteringPolicy policy = FixturePolicy(fx.db->options().page_size);
    fx.doc = Must(fx.db->Import(fx.tree, &policy), "import");
  });
  const double st = trace->Time("DocumentStats::Build", 0, [&] {
    fx.stats = DocumentStats::Build(fx.tree, fx.doc, fx.db->options().page_size);
  });
  pass->layer["#doc_pages"] = static_cast<double>(fx.doc.page_count());
  pass->generate_s.push_back(gen);
  pass->import_s.push_back(imp);
  pass->stats_s.push_back(st);
  pass->setup_s = gen + imp + st;
  return fx;
}

/// Times PathSummary::Build on the fixture's document (Database::Import
/// builds it internally, so store.import_s includes this share).
/// Materializes the document once more on a scratch disk to obtain the
/// node placement the summary is built from.
void TimeSummaryBuild(Fixture* fx, Pass* pass, HostTrace* trace) {
  SimClock clock;
  Metrics metrics;
  const DatabaseOptions& options = fx->db->options();
  SimulatedDisk disk(options.disk_model, options.page_size, &clock, &metrics);
  const ClusterAssignment assignment =
      FixturePolicy(options.page_size).Assign(fx->tree);
  std::vector<PageId> node_pages;
  std::vector<std::pair<DomNodeId, PageId>> glue_pages;
  Must(MaterializeDocument(fx->tree, assignment, &disk, options.import,
                           &node_pages, &glue_pages)
           .status(),
       "materialize for summary timing");
  pass->summary_s.push_back(trace->Time("PathSummary::Build", 0, [&] {
    const auto summary = PathSummary::Build(fx->tree, node_pages, glue_pages);
    if (summary == nullptr || summary->total_instances() == 0) {
      pass->Error("PathSummary::Build produced an empty summary");
    }
  }));
}

/// Parses `text` and builds (without running) the plan of each of its
/// paths, timing both calls. The measured execution parses and plans on
/// its own; this isolates the front end's cost per query.
void TimeFrontEnd(Fixture* fx, const std::string& text,
                       const PlanOptions& plan, std::uint64_t query_id,
                       Pass* pass, HostTrace* trace) {
  PathQuery parsed;
  pass->parse_us.push_back(1e6 * trace->Time("ParseQuery", query_id, [&] {
    parsed = Must(ParseQuery(text, fx->db->tags()), "parse " + text);
  }));
  double plan_s = 0.0;
  for (const LocationPath& path : parsed.paths) {
    plan_s += trace->Time("BuildPlan", query_id, [&] {
      Must(BuildPlan(fx->db.get(), fx->doc, path, {}, plan).status(),
           "plan " + text);
    });
  }
  pass->plan_us.push_back(1e6 * plan_s);
}

/// Adds a run's database-metrics window to the pass's per-layer counts.
void AddMetrics(const Metrics& m, Pass* pass) {
  auto& L = pass->layer;
  L["algebra.instances_created"] += static_cast<double>(m.instances_created);
  L["algebra.speculative_instances"] +=
      static_cast<double>(m.speculative_instances);
  L["algebra.rs_probes"] += static_cast<double>(m.r_set_probes + m.s_set_probes);
  L["algebra.fallbacks"] += static_cast<double>(m.fallback_activations);
  L["store.clusters_visited"] += static_cast<double>(m.clusters_visited);
  L["store.inter_cluster_hops"] += static_cast<double>(m.inter_cluster_hops);
  L["store.node_tests"] += static_cast<double>(m.node_tests);
  L["storage.disk_reads"] += static_cast<double>(m.disk_reads);
  L["#disk_seq_reads"] += static_cast<double>(m.disk_seq_reads);
  L["#disk_seek_pages"] += static_cast<double>(m.disk_seek_pages);
  L["#elevator_batches"] += static_cast<double>(m.elevator_batches);
  L["#elevator_depth_sum"] += static_cast<double>(m.elevator_depth_sum);
  L["storage.requests_merged"] += static_cast<double>(m.requests_merged);
  L["storage.async_reorderings"] += static_cast<double>(m.async_reorderings);
  L["storage.disk_writes"] += static_cast<double>(m.disk_writes);
  L["storage.priority_jumps"] += static_cast<double>(m.priority_jumps);
  L["#buffer_hits"] += static_cast<double>(m.buffer_hits);
  L["#buffer_misses"] += static_cast<double>(m.buffer_misses);
  L["storage.evictions"] += static_cast<double>(m.buffer_evictions);
  L["storage.swizzles"] += static_cast<double>(m.swizzle_ops + m.unswizzle_ops);
  if (m.corruptions_detected != 0) {
    pass->Error("corruptions_detected = " +
                std::to_string(m.corruptions_detected));
  }
}

/// Checks, from outside the engine, that a run's simulated span splits
/// exactly into CPU and I/O wait (integer nanoseconds), and accumulates
/// the split. `span`/`cpu` are the run's reported window; the clock is
/// read right after the run, which cold-started it at zero.
void CheckConservation(const std::string& run, SimTime span, SimTime cpu,
                       const SimClock& clock, Pass* pass) {
  const SimTime clock_span = clock.now();
  const SimTime clock_cpu = clock.cpu_time();
  const SimTime io_wait = clock.io_wait_time();
  if (clock_span != span || clock_cpu != cpu || cpu + io_wait != span) {
    pass->Error(run + ": simulated time not conserved: span " +
                std::to_string(span) + " ns, cpu " + std::to_string(cpu) +
                " + io " + std::to_string(io_wait) + " ns (clock span " +
                std::to_string(clock_span) + ")");
  }
  pass->layer["#sim_cpu_ns"] += static_cast<double>(cpu);
  pass->layer["#sim_io_ns"] += static_cast<double>(span - cpu);
}

void AddScheduler(const RegistrySnapshot& s, Pass* pass) {
  auto& L = pass->layer;
  L["compiler.sched_decisions"] +=
      static_cast<double>(s.CounterOr("sched.decisions"));
  if (const HistogramSummary* h = s.FindHistogram("sched.pool_depth")) {
    L["#pool_depth_p50"] = std::max(L["#pool_depth_p50"],
                                    static_cast<double>(h->p50));
  }
  for (const char* name :
       {"share.groups_adopted", "share.groups_declined",
        "share.instances_streamed", "share.spills", "share.private_fallbacks"}) {
    L[name] += static_cast<double>(s.CounterOr(name));
  }
}

/// Derived per-layer values that are ratios of accumulated counts.
void FinishLayers(Pass* pass) {
  auto& L = pass->layer;
  L["storage.seq_read_frac"] =
      Ratio(L["#disk_seq_reads"], L["storage.disk_reads"]);
  L["storage.seek_pages_per_read"] =
      Ratio(L["#disk_seek_pages"], L["storage.disk_reads"]);
  L["storage.elevator_depth_mean"] =
      Ratio(L["#elevator_depth_sum"], L["#elevator_batches"]);
  L["storage.buffer_hit_ratio"] =
      Ratio(L["#buffer_hits"], L["#buffer_hits"] + L["#buffer_misses"]);
  L["compiler.pool_depth_p50"] = L["#pool_depth_p50"];
  L["sim.cpu_s"] = L["#sim_cpu_ns"] / 1e9;
  L["sim.io_wait_s"] = L["#sim_io_ns"] / 1e9;
}

// ---------------------------------------------------------------------------
// Workload: paper_plans — the paper's Sec. 6 experiment.

constexpr double kPaperScale = 0.5;

const char* PlanName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSimple:
      return "simple";
    case PlanKind::kXSchedule:
      return "xschedule";
    case PlanKind::kXScan:
      return "xscan";
  }
  return "?";
}

void RunPaperPlans(std::uint64_t seed, Pass* pass, HostTrace* trace,
                   bool verbose) {
  Fixture fx = BuildFixture(kPaperScale, seed, pass, trace, trace->active());
  const struct {
    const char* name;
    const char* text;
  } queries[] = {{"Q6'", kQ6Prime}, {"Q7", kQ7}, {"Q15", kQ15}};
  constexpr PlanKind kPlans[] = {PlanKind::kSimple, PlanKind::kXSchedule,
                                 PlanKind::kXScan};

  // Expected answers from the DOM, outside the measured phase.
  std::vector<PathQuery> parsed;
  std::vector<std::uint64_t> expected;
  for (const auto& q : queries) {
    parsed.push_back(Must(ParseQuery(q.text, fx.db->tags()), q.text));
    expected.push_back(OracleCount(fx.tree, parsed.back(), fx.tree.root()));
  }
  if (trace->active()) {
    TimeSummaryBuild(&fx, pass, trace);
    std::uint64_t id = 1;
    for (const auto& q : queries) {
      for (const PlanKind kind : kPlans) {
        TimeFrontEnd(&fx, q.text, PaperPlan(kind), id++, pass, trace);
      }
    }
  }

  std::vector<double> cells;      // the 3x3 grid, sim seconds
  double optimized_sum = 0.0;     // RunOptimized, summed over the queries
  double best_sum = 0.0;          // best of the three plans, summed
  SimTime pass_span = 0;
  std::uint64_t runs = 0;
  std::vector<std::string> table;
  const auto check_count = [&](const std::string& run, std::uint64_t got,
                               std::uint64_t want) {
    ++pass->attempted;
    if (got != want) {
      ++pass->failed;
      pass->Error(run + ": count " + std::to_string(got) + ", oracle " +
                  std::to_string(want));
    }
  };
  const auto record = [&](const std::string& run, const QueryRunResult& r) {
    CheckConservation(run, r.total_time, r.cpu_time, *fx.db->clock(), pass);
    AddMetrics(r.metrics, pass);
    pass_span += r.total_time;
    trace->AddEngineTrace(fx.db.get(), run);
    char line[160];
    std::snprintf(line, sizeof(line), "%-22s %10.4f %10.4f %10.4f %8.1f%%",
                  run.c_str(), Seconds(r.total_time), Seconds(r.cpu_time),
                  Seconds(r.total_time - r.cpu_time),
                  100.0 * r.cpu_fraction());
    table.push_back(line);
  };

  const double begin = CpuSeconds();
  std::vector<LogicalNode> q15_nodes;
  for (std::size_t qi = 0; qi < parsed.size(); ++qi) {
    const PathQuery& query = parsed[qi];
    double best = 0.0;
    for (const PlanKind kind : kPlans) {
      const std::string run =
          std::string(queries[qi].name) + "/" + PlanName(kind);
      ExecuteOptions exec;
      exec.plan = PaperPlan(kind);
      exec.collect_nodes = query.mode == PathQuery::Mode::kNodes;
      exec.cold_start = true;
      QueryRunResult r;
      trace->Time("ExecuteQuery", ++runs, [&] {
        r = Must(ExecuteQuery(fx.db.get(), fx.doc, query, exec), run);
      });
      check_count(run, r.count, expected[qi]);
      if (exec.collect_nodes) {
        // Node-mode results must be identical across plans.
        if (q15_nodes.empty()) {
          q15_nodes = r.nodes;
        } else if (r.nodes.size() != q15_nodes.size() ||
                   !std::equal(r.nodes.begin(), r.nodes.end(),
                               q15_nodes.begin(),
                               [](const LogicalNode& a, const LogicalNode& b) {
                                 return a.id == b.id && a.order == b.order;
                               })) {
          pass->Error(run + ": node-mode result differs across plans");
        }
      }
      cells.push_back(Seconds(r.total_time));
      best = best == 0.0 ? cells.back() : std::min(best, cells.back());
      record(run, r);
    }
    best_sum += best;
  }

  // Q7 through the shared-scan evaluator (paper Sec. 7): one XScan pass
  // feeds all three count() paths.
  {
    SharedScanOptions options;
    options.cold_start = true;
    SharedScanResult r;
    trace->Time("ExecuteQuerySharedScan", ++runs, [&] {
      r = Must(ExecuteQuerySharedScan(fx.db.get(), fx.doc, parsed[1], options),
               "Q7 shared scan");
    });
    check_count("Q7/shared-scan", r.combined.count, expected[1]);
    record("Q7/shared-scan", r.combined);
  }

  // What a user gets: the cost model picks the plan (RunOptimized).
  for (std::size_t qi = 0; qi < parsed.size(); ++qi) {
    const PathQuery& query = parsed[qi];
    const PlanKind kind =
        ChoosePlanKind(fx.stats, query, fx.db->options().disk_model,
                       fx.db->costs());
    const std::string run =
        std::string(queries[qi].name) + "/auto=" + PlanName(kind);
    ExecuteOptions exec;
    exec.plan = PaperPlan(kind);
    exec.collect_nodes = query.mode == PathQuery::Mode::kNodes;
    exec.cold_start = true;
    QueryRunResult r;
    trace->Time("ExecuteQuery", ++runs, [&] {
      r = Must(ExecuteQuery(fx.db.get(), fx.doc, query, exec), run);
    });
    check_count(run, r.count, expected[qi]);
    optimized_sum += Seconds(r.total_time);
    record(run, r);
  }
  pass->host_s = CpuSeconds() - begin;

  if (verbose) {
    std::fprintf(stderr, "%-22s %10s %10s %10s %9s\n", "run",
                 "sim[s]", "cpu[s]", "io[s]", "cpu%");
    for (const std::string& line : table) std::fprintf(stderr, "%s\n", line.c_str());
  }

  pass->sim["sim_s"] = optimized_sum;
  pass->sim["sim_gmean_s"] = GeoMean(cells);
  pass->sim["sim_p50_s"] = Median(cells);
  pass->sim["sim_p95_s"] = Percentile(cells, 0.95);
  pass->sim["capacity_per_sim_s"] =
      static_cast<double>(runs) / Seconds(pass_span);
  pass->layer["compiler.optimizer_regret"] = Ratio(optimized_sum, best_sum);
}

// ---------------------------------------------------------------------------
// Workload: batch_overlap — a closed batch of 48 queries (paper Sec. 7).

constexpr double kBatchScale = 0.25;
constexpr std::size_t kBatchCopies = 4;
constexpr const char* kBatchMix[] = {
    // Four queries under the shared prefix /site/regions//item ...
    "/site/regions//item/name",
    "/site/regions//item/description",
    "/site/regions//item/mailbox",
    "/site/regions//item/incategory",
    // ... and eight that share nothing with it or with each other.
    "/site/people/person/email",
    "/site/open_auctions//bidder",
    "/site/closed_auctions//price",
    "/site//keyword",
    "/site//description",
    "/site/people/person/address/city",
    "/site/categories//description",
    "/site//mail",
};

/// The 48 queries of the batch, parsed against the fixture's tags.
std::vector<PathQuery> ParseBatch(Fixture* fx) {
  std::vector<PathQuery> parsed;
  for (std::size_t c = 0; c < kBatchCopies; ++c) {
    for (const char* text : kBatchMix) {
      parsed.push_back(Must(ParseQuery(text, fx->db->tags()), text));
    }
  }
  return parsed;
}

WorkloadResult RunBatch(Fixture* fx, const std::vector<PathQuery>& parsed,
                        bool sharing, HostTrace* trace) {
  WorkloadOptions options;
  options.stats = &fx->stats;
  options.enable_sharing = sharing;
  WorkloadExecutor executor(fx->db.get(), fx->doc, options);
  for (const PathQuery& q : parsed) {
    Must(executor.Add(q, PaperPlan(PlanKind::kXSchedule)), "batch add");
  }
  WorkloadResult result;
  trace->Time("WorkloadExecutor::Run", 0, [&] {
    result = Must(executor.Run(), "batch run");
  });
  return result;
}

void RunBatchOverlap(std::uint64_t seed, Pass* pass, HostTrace* trace,
                     bool verbose) {
  Fixture fx = BuildFixture(kBatchScale, seed, pass, trace, trace->active());
  const std::vector<PathQuery> parsed = ParseBatch(&fx);
  std::vector<std::uint64_t> expected;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    expected.push_back(i < std::size(kBatchMix)
                           ? OracleCount(fx.tree, parsed[i], fx.tree.root())
                           : expected[i % std::size(kBatchMix)]);
  }
  if (trace->active()) {
    TimeSummaryBuild(&fx, pass, trace);
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      TimeFrontEnd(&fx, kBatchMix[i % std::size(kBatchMix)],
                   PaperPlan(PlanKind::kXSchedule), i + 1, pass, trace);
    }
  }

  const double begin = CpuSeconds();
  const WorkloadResult run = RunBatch(&fx, parsed, /*sharing=*/true, trace);
  pass->host_s = CpuSeconds() - begin;
  trace->AddEngineTrace(fx.db.get(), "batch");

  CheckConservation("batch", run.total_time, run.cpu_time, *fx.db->clock(), pass);
  AddMetrics(run.metrics, pass);
  AddScheduler(run.scheduler, pass);
  std::vector<double> turnaround;
  std::vector<double> admission_wait;
  for (std::size_t i = 0; i < run.queries.size(); ++i) {
    const WorkloadQueryResult& q = run.queries[i];
    ++pass->attempted;
    if (!q.status.ok()) {
      ++pass->failed;
      pass->Error("batch query " + std::to_string(i) + ": " +
                  q.status.ToString());
      continue;
    }
    if (q.count != expected[i]) {
      ++pass->failed;
      pass->Error(std::string("batch ") + kBatchMix[i % std::size(kBatchMix)] +
                  ": count " + std::to_string(q.count) + ", oracle " +
                  std::to_string(expected[i]));
    }
    turnaround.push_back(q.turnaround_seconds());
    admission_wait.push_back(Seconds(q.admitted_at - q.arrival));
    pass->layer["compiler.pulls"] += static_cast<double>(q.pulls);
  }
  pass->layer["compiler.admission_wait_p50_s"] = Median(admission_wait);

  if (trace->active()) {
    // The same batch with sharing off, on a fresh database, so the cost or
    // gain of prefix sharing is visible next to its counters.
    Pass scratch;
    HostTrace untimed(false);
    Fixture off = BuildFixture(kBatchScale, seed, &scratch, &untimed, false);
    const WorkloadResult unshared =
        RunBatch(&off, ParseBatch(&off), /*sharing=*/false, &untimed);
    pass->traced_only["share.makespan_vs_off"] =
        Ratio(run.total_seconds(), unshared.total_seconds());
  }
  if (verbose) {
    std::fprintf(stderr,
                 "batch: 48 queries, makespan %.4f s (cpu %.4f s), %" PRIu64
                 " disk reads, %" PRIu64 " merged\n",
                 run.total_seconds(), Seconds(run.cpu_time),
                 run.metrics.disk_reads, run.metrics.requests_merged);
  }

  pass->sim["sim_s"] = run.total_seconds();
  pass->sim["sim_gmean_s"] = GeoMean(turnaround);
  pass->sim["sim_p50_s"] = Median(turnaround);
  pass->sim["sim_p95_s"] = Percentile(turnaround, 0.95);
  pass->sim["capacity_per_sim_s"] =
      static_cast<double>(run.queries.size()) / run.total_seconds();
}

// ---------------------------------------------------------------------------
// Workload: serve_rw — open-loop reads and writes through the Server.

constexpr double kServeScale = 0.05;
constexpr double kServeRates[] = {5.0, 10.0, 20.0, 30.0};
constexpr std::size_t kNominalRung = 1;  // 10/s
// serve_rw runs in segments of kSegmentArrivals arrivals, each on a fresh
// database. Writes all insert under the document root, and the engine's
// gapped order keys run out after a few hundred inserts at one position
// (ResourceExhausted, "re-import to renumber"), which bounds a segment.
// The nominal rung gives the end-to-end latency figures, so it runs eight
// independent segments: its read p95 then has over 140 samples beyond it
// and varies across seeds by a few percent. The top rung gives the goodput
// figure and runs three.
constexpr std::size_t kSegmentArrivals = 500;
// Each segment starts on a cold buffer pool and an idle server; latencies
// of its first arrivals measure that warm-up, not the steady state, and
// are left out of the latency figures (their answers are still checked).
constexpr std::size_t kWarmupArrivals = 50;
constexpr std::size_t kRungSegments[] = {1, 8, 1, 3};
constexpr double kWriteShare = 0.2;
constexpr std::size_t kInsertsPerWrite = 2;
constexpr double kSloP95 = 0.5;         // read p95 turnaround, sim seconds
constexpr double kSloFailRatio = 0.01;  // failed or shed share of arrivals
constexpr const char* kServeMix[] = {
    "/site/regions//item",
    "/site/regions//name",
    "/site/people/person/email",
    "/site//description",
    "/site/open_auctions/open_auction/bidder",
    "/site/closed_auctions/closed_auction/annotation/description",
    "/site//keyword",
    "//xbid",
};
constexpr std::size_t kProbe = 7;  // index of //xbid in kServeMix

/// One arrival of the open-loop stream.
struct Arrival {
  SimTime due = 0;
  bool write = false;
  std::size_t query = 0;  // kServeMix index (reads)
};

/// The arrivals of one segment of rung `rung`: Poisson at the rung's
/// rate, seeded. Conditioned on their count, Poisson arrival times are
/// uniform order statistics over the span count / rate; drawing them so
/// keeps every segment's offered load at exactly its nominal rate. The mix
/// is stratified the same way: exactly kWriteShare of the arrivals are
/// writes, at random positions, and the reads cycle through random
/// permutations of kServeMix, so seeds differ in order and timing, not in
/// content.
std::vector<Arrival> MakeArrivals(std::uint64_t seed, std::size_t rung,
                                  std::size_t segment) {
  Random rng((seed * 1000003ull + rung) * 1000003ull + segment);
  const std::size_t n = kSegmentArrivals;
  const double span = static_cast<double>(n) / kServeRates[rung];
  std::vector<double> times(n);
  for (double& t : times) t = rng.NextDouble() * span;
  std::sort(times.begin(), times.end());
  const auto shuffle = [&rng](auto first, auto last) {
    for (auto i = last - first; i > 1; --i) {
      std::swap(first[i - 1], first[rng.NextBounded(static_cast<std::uint64_t>(i))]);
    }
  };
  std::vector<char> kinds(n, 0);
  std::fill_n(kinds.begin(),
              static_cast<std::size_t>(kWriteShare * static_cast<double>(n)), 1);
  shuffle(kinds.begin(), kinds.end());
  std::vector<Arrival> out(n);
  std::vector<std::size_t> block(std::size(kServeMix));
  std::size_t next = block.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i].due = static_cast<SimTime>(times[i] * static_cast<double>(kSimSecond));
    out[i].write = kinds[i] != 0;
    if (out[i].write) continue;
    if (next == block.size()) {
      for (std::size_t q = 0; q < block.size(); ++q) block[q] = q;
      shuffle(block.begin(), block.end());
      next = 0;
    }
    out[i].query = block[next++];
  }
  return out;
}

std::uint64_t ArrivalDigest(const std::vector<Arrival>& arrivals) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the stream
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const Arrival& a : arrivals) {
    mix(a.due);
    mix(a.write ? 1 : 0);
    mix(a.query);
  }
  return h;
}

/// Outcomes of one rung, pooled over its segments.
struct Rung {
  std::vector<double> reads;           // read turnaround after warm-up
  std::vector<double> admission_wait;  // completed requests after warm-up
  std::size_t arrivals = 0;
  std::size_t not_ok = 0;              // shed or failed
  SimTime span = 0;                    // summed segment makespans
  std::uint64_t commits = 0;
  std::vector<double> queue_wait_p95;  // per segment, sim seconds
  std::vector<double> host_s;          // per segment, host CPU seconds

  double read_p95() const { return Percentile(reads, 0.95); }
  double fail_ratio() const {
    return static_cast<double>(not_ok) / static_cast<double>(arrivals);
  }
  bool meets_slo() const {
    return read_p95() <= kSloP95 && fail_ratio() <= kSloFailRatio;
  }
};

/// Serves one segment on a fresh database and checks every answer.
void ServeSegment(std::uint64_t seed, std::size_t ri, std::size_t segment,
                  Pass* pass, HostTrace* trace, Rung* rung,
                  std::vector<std::uint64_t>* digests) {
  const std::string run = "serve r" + std::to_string(int(kServeRates[ri])) +
                          "." + std::to_string(segment);
  // The engine trace covers one representative segment, which keeps the
  // trace file to tens of megabytes.
  const bool representative = ri == kNominalRung && segment == 0;
  Fixture fx = BuildFixture(kServeScale, seed, pass, trace,
                            trace->active() && representative);
  const TagId xbid = fx.db->tags()->Intern("xbid");
  std::vector<std::uint64_t> expected;  // //xbid is checked per snapshot
  for (const char* text : kServeMix) {
    const PathQuery q = Must(ParseQuery(text, fx.db->tags()), text);
    expected.push_back(OracleCount(fx.tree, q, fx.tree.root()));
  }
  const std::vector<Arrival> arrivals = MakeArrivals(seed, ri, segment);
  digests->push_back(ArrivalDigest(arrivals));
  if (trace->active() && representative) {
    TimeSummaryBuild(&fx, pass, trace);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (arrivals[i].write) continue;
      TimeFrontEnd(&fx, kServeMix[arrivals[i].query],
                   PaperPlan(PlanKind::kXSchedule), i + 1, pass, trace);
    }
  }

  TxnManager txn(fx.db.get(), &fx.doc);
  ServeOptions options;
  options.tenants.resize(2);
  options.tenants[0].name = "reader";
  options.tenants[1].name = "writer";
  options.workload.txn = &txn;
  options.workload.max_writers = 4;
  options.workload.max_concurrent = 4;

  const double begin = CpuSeconds();
  ServeResult served;
  {
    Server server(fx.db.get(), fx.doc, options);
    for (const Arrival& a : arrivals) {
      if (a.write) {
        // Under the document root: NodeIDs are physical and a commit's page
        // split may relocate any other record, so a parent resolved before
        // the run can go stale; the root is never relocated.
        std::vector<WriteOp> ops(kInsertsPerWrite);
        for (WriteOp& op : ops) {
          op.parent = fx.doc.root;
          op.tag = xbid;
          op.text = "bid";
        }
        Must(server.SubmitWrite(1, std::move(ops), a.due), "submit write");
      } else {
        Must(server.Submit(0, kServeMix[a.query],
                           PaperPlan(PlanKind::kXSchedule), a.due),
             "submit read");
      }
    }
    trace->Time("Server::Run", 0, [&] { served = Must(server.Run(), "serve"); });
  }
  rung->host_s.push_back(CpuSeconds() - begin);
  trace->AddEngineTrace(fx.db.get(), run);

  const WorkloadResult& w = served.workload;
  CheckConservation(run, w.total_time, w.cpu_time, *fx.db->clock(), pass);
  AddMetrics(w.metrics, pass);
  AddScheduler(w.scheduler, pass);

  // Executor results cover the non-shed submissions in arrival order.
  std::vector<std::uint64_t> commits;
  for (const ServeOutcome& o : served.outcomes) {
    if (o.is_write && o.commit_seq != 0) commits.push_back(o.commit_seq);
  }
  std::sort(commits.begin(), commits.end());
  std::size_t job = 0;
  for (std::size_t i = 0; i < served.outcomes.size(); ++i) {
    const ServeOutcome& o = served.outcomes[i];
    const Arrival& a = arrivals[i];
    ++pass->attempted;
    if (o.shed) {
      ++rung->not_ok;
      ++pass->shed;
      continue;
    }
    const WorkloadQueryResult& q = w.queries.at(job++);
    if (!o.status.ok()) {
      ++rung->not_ok;
      ++pass->failed;
      pass->Error(run + " submission " + std::to_string(i) + ": " +
                  o.status.ToString());
      continue;
    }
    const bool measured = i >= kWarmupArrivals;
    if (measured) rung->admission_wait.push_back(Seconds(o.admitted_at - o.arrival));
    pass->layer["compiler.pulls"] += static_cast<double>(q.pulls);
    if (o.is_write) continue;
    if (measured) rung->reads.push_back(Seconds(o.turnaround()));
    std::uint64_t want = expected[a.query];
    if (a.query == kProbe) {
      // Exactly the inserts of the commits at or below the snapshot.
      const auto visible = static_cast<std::uint64_t>(
          std::upper_bound(commits.begin(), commits.end(), q.snapshot_seq) -
          commits.begin());
      want += kInsertsPerWrite * visible;
    }
    if (o.count != want) {
      ++pass->failed;
      pass->Error(run + " " + kServeMix[a.query] + " at snapshot " +
                  std::to_string(q.snapshot_seq) + ": count " +
                  std::to_string(o.count) + ", expected " +
                  std::to_string(want));
    }
  }
  if (job != w.queries.size()) {
    pass->Error(run + ": outcome/executor result count mismatch");
  }
  if (txn.retired_pending() != 0 ||
      txn.versions_reclaimed() != txn.versions_retired()) {
    pass->Error(run + ": " + std::to_string(txn.retired_pending()) +
                " retired versions left unreclaimed");
  }
  rung->arrivals += served.outcomes.size();
  rung->span += w.total_time;
  rung->commits += txn.commits();

  auto& L = pass->layer;
  L["txn.commits"] += static_cast<double>(txn.commits());
  L["txn.aborts"] += static_cast<double>(txn.aborts());
  L["txn.versions_reclaimed"] += static_cast<double>(txn.versions_reclaimed());
  L["txn.retired_pending"] += static_cast<double>(txn.retired_pending());
  const RegistrySnapshot& m = served.metrics;
  L["serve.shed"] += static_cast<double>(m.CounterOr("serve.shed"));
  L["serve.degraded"] += static_cast<double>(m.CounterOr("serve.degraded"));
  L["serve.state_changes"] +=
      static_cast<double>(m.CounterOr("serve.state.degrade_entered") +
                          m.CounterOr("serve.state.shed_entered") +
                          m.CounterOr("serve.state.recovered"));
  if (const HistogramSummary* h = m.FindHistogram("serve.queue_wait")) {
    rung->queue_wait_p95.push_back(Seconds(h->p95));
  }
}

void RunServeRw(std::uint64_t seed, Pass* pass, HostTrace* trace, bool verbose,
                std::vector<std::uint64_t>* digests) {
  std::vector<Rung> rungs(std::size(kServeRates));
  std::vector<double> setups;
  for (std::size_t ri = 0; ri < rungs.size(); ++ri) {
    for (std::size_t segment = 0; segment < kRungSegments[ri]; ++segment) {
      ServeSegment(seed, ri, segment, pass, trace, &rungs[ri], digests);
      setups.push_back(pass->setup_s);
    }
    const Rung& rung = rungs[ri];
    pass->layer["serve.read_p95_s.r" + std::to_string(int(kServeRates[ri]))] =
        rung.read_p95();
    if (verbose) {
      std::fprintf(stderr,
                   "serve r%d: %zu arrivals, read p95 %.4f s, p50 %.4f s, "
                   "shed or failed %zu, commits %" PRIu64 ", span %.3f s\n",
                   int(kServeRates[ri]), rung.arrivals, rung.read_p95(),
                   Median(rung.reads), rung.not_ok, rung.commits,
                   Seconds(rung.span));
    }
  }
  pass->setup_s = Median(setups);
  // The segments of a rung do the same work, so the median segment stands
  // for each of them: a burst of host contention during one segment then
  // does not move host_s.
  for (const Rung& rung : rungs) {
    pass->host_s += Median(rung.host_s) * static_cast<double>(rung.host_s.size());
  }
  if (verbose) {
    for (std::size_t ri = 0; ri < rungs.size(); ++ri) {
      const auto [lo, hi] =
          std::minmax_element(rungs[ri].host_s.begin(), rungs[ri].host_s.end());
      std::fprintf(stderr, "serve r%d: segment host %.3f .. %.3f s, median %.3f s\n",
                   int(kServeRates[ri]), *lo, *hi, Median(rungs[ri].host_s));
    }
  }

  const Rung& nominal = rungs[kNominalRung];
  pass->sim["sim_s"] = Seconds(nominal.span);
  pass->sim["sim_gmean_s"] = GeoMean(nominal.reads);
  pass->sim["sim_p50_s"] = Median(nominal.reads);
  pass->sim["sim_p95_s"] = nominal.read_p95();
  // Goodput under the heaviest offered load: what the server sustains once
  // it sheds the excess.
  const Rung& top = rungs.back();
  pass->sim["capacity_per_sim_s"] =
      static_cast<double>(top.arrivals - top.not_ok) / Seconds(top.span);

  auto& L = pass->layer;
  L["txn.abort_ratio"] = Ratio(L["txn.aborts"], L["txn.commits"] + L["txn.aborts"]);
  L["txn.commits_per_sim_s"] =
      static_cast<double>(nominal.commits) / Seconds(nominal.span);
  L["compiler.admission_wait_p50_s"] = Median(nominal.admission_wait);
  L["serve.queue_wait_p95_s"] = Median(nominal.queue_wait_p95);

  // Highest rate meeting the SLO. Each rung's SLO margin is
  // max(p95 / limit, fail ratio / limit), <= 1 when it meets the SLO; the
  // rate is interpolated linearly where the margin crosses 1 between the
  // highest meeting rung and the next one.
  const auto margin = [](const Rung& r) {
    return std::max(r.read_p95() / kSloP95, r.fail_ratio() / kSloFailRatio);
  };
  double max_rung = 0.0;
  double max_rate = 0.0;
  for (std::size_t ri = rungs.size(); ri-- > 0;) {
    if (!rungs[ri].meets_slo()) continue;
    max_rung = kServeRates[ri];
    max_rate = max_rung;
    if (ri + 1 < rungs.size()) {
      const double lo = margin(rungs[ri]);
      const double hi = margin(rungs[ri + 1]);
      max_rate += (kServeRates[ri + 1] - kServeRates[ri]) *
                  Ratio(1.0 - lo, hi - lo);
    }
    break;
  }
  L["serve.max_rung_under_slo"] = max_rung;
  L["serve.max_rate_under_slo"] = max_rate;
}

// ---------------------------------------------------------------------------
// Command line and pass loop.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_build/out";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out = value;
    } else {
      std::fprintf(stderr, "navbench: unknown argument %s\n", key.c_str());
      std::exit(2);
    }
  }
  return args;
}

/// One pass of the selected workload; `digests` receives the serve_rw
/// arrival-stream fingerprints.
Pass RunPass(const Args& args, bool traced, bool verbose,
             std::vector<std::uint64_t>* digests, const std::string& trace_path) {
  Pass pass;
  HostTrace trace(traced);
  if (args.workload == "paper_plans") {
    RunPaperPlans(args.seed, &pass, &trace, verbose);
  } else if (args.workload == "batch_overlap") {
    RunBatchOverlap(args.seed, &pass, &trace, verbose);
  } else {
    RunServeRw(args.seed, &pass, &trace, verbose, digests);
  }
  FinishLayers(&pass);
  pass.sim["ok_ratio"] =
      1.0 - static_cast<double>(pass.shed + pass.failed) /
                static_cast<double>(std::max<std::uint64_t>(pass.attempted, 1));
  if (traced && !trace_path.empty()) {
    Must(trace.Write(trace_path), "write trace " + trace_path);
  }
  return pass;
}

/// The deterministic part of a pass: every simulated metric and counter.
std::map<std::string, double> Fingerprint(const Pass& pass) {
  std::map<std::string, double> out;
  for (const auto& [k, v] : pass.sim) out["e2e." + k] = v;
  for (const auto& [k, v] : pass.layer) out[k] = v;
  out["#attempted"] = static_cast<double>(pass.attempted);
  out["#failed"] = static_cast<double>(pass.failed);
  return out;
}

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.workload != "paper_plans" && args.workload != "batch_overlap" &&
      args.workload != "serve_rw") {
    std::fprintf(stderr, "navbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // Passes repeat while another one fits in --seconds of wall time (at
  // least one); host figures are medians over them. --trace 1 follows each
  // untraced pass with a traced one and reports per-layer values from the
  // traced passes.
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  std::vector<std::uint64_t> digests;
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  if (ec) {
    std::fprintf(stderr, "navbench: cannot create %s\n", args.out.c_str());
    return 2;
  }
  const std::string trace_path = args.out + "/" + args.workload + ".trace.json";
  const double start = WallSeconds();
  double longest = 0.0;
  double peak_rss_mb = 0.0;
  while (untraced.empty() || WallSeconds() - start + longest <= args.seconds) {
    const double pass_start = WallSeconds();
    std::vector<std::uint64_t> pass_digests;
    untraced.push_back(RunPass(args, false, untraced.empty(), &pass_digests, ""));
    // The peak of one pass; later passes would add allocator slack, and
    // how many run depends on the host's speed.
    if (untraced.size() == 1) peak_rss_mb = PeakRssMb();
    if (digests.empty()) digests = pass_digests;
    if (args.trace) {
      std::vector<std::uint64_t> ignored;
      traced.push_back(RunPass(args, true, false, &ignored,
                               traced.empty() ? trace_path : ""));
    }
    longest = std::max(longest, WallSeconds() - pass_start);
  }

  // Correctness: every pass's answers, and every pass (traced or not)
  // reproducing the first one's simulated results exactly.
  std::vector<std::string> errors;
  const auto reference = Fingerprint(untraced.front());
  const auto compare = [&](const Pass& p, const char* kind, std::size_t i) {
    for (const std::string& e : p.errors) errors.push_back(e);
    for (const auto& [key, value] : Fingerprint(p)) {
      const auto it = reference.find(key);
      if (it == reference.end() || it->second != value) {
        errors.push_back(std::string(kind) + " pass " + std::to_string(i) +
                         " did not reproduce the first pass's " + key);
      }
    }
  };
  for (std::size_t i = 0; i < untraced.size(); ++i) compare(untraced[i], "untraced", i);
  for (std::size_t i = 0; i < traced.size(); ++i) compare(traced[i], "traced", i);
  for (const std::string& e : errors) std::fprintf(stderr, "MISMATCH: %s\n", e.c_str());

  const auto median_of = [](const std::vector<Pass>& passes, auto get) {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(get(p));
    return Median(v);
  };
  const double host_s = median_of(untraced, [](const Pass& p) { return p.host_s; });
  std::map<std::string, double> values;
  if (!args.trace) {
    values = untraced.front().sim;
    values["setup_s"] = median_of(untraced, [](const Pass& p) { return p.setup_s; });
    values["host_s"] = host_s;
    values["peak_rss_mb"] = peak_rss_mb;
  } else {
    values = traced.front().layer;
    values.insert(traced.front().traced_only.begin(),
                  traced.front().traced_only.end());
    // Host timings of single calls: median over every call in the run.
    const auto pooled_median = [&](std::vector<double> Pass::*samples) {
      std::vector<double> all;
      for (const Pass& p : traced) {
        all.insert(all.end(), (p.*samples).begin(), (p.*samples).end());
      }
      return Median(all);
    };
    values["xmark.generate_s"] = pooled_median(&Pass::generate_s);
    values["store.import_s"] = pooled_median(&Pass::import_s);
    values["compiler.stats_s"] = pooled_median(&Pass::stats_s);
    values["store.summary_s"] = pooled_median(&Pass::summary_s);
    values["xpath.parse_us"] = pooled_median(&Pass::parse_us);
    values["compiler.plan_us"] = pooled_median(&Pass::plan_us);
    const double traced_host = median_of(traced, [](const Pass& p) { return p.host_s; });
    values["trace.host_s"] = traced_host;
    values["trace.overhead_frac"] = Ratio(traced_host - host_s, host_s);
  }

  // Run report: the deterministic fingerprint of the first pass and the
  // serve_rw arrival-stream digests (test_determinism.py compares these
  // across runs and seeds).
  {
    std::string report = "{\"workload\": \"" + args.workload +
                         "\", \"seed\": " + std::to_string(args.seed) +
                         ", \"passes\": " + std::to_string(untraced.size()) +
                         ", \"traced_passes\": " + std::to_string(traced.size()) +
                         ", \"arrival_digests\": [";
    for (std::size_t i = 0; i < digests.size(); ++i) {
      report += (i == 0 ? "\"" : ", \"") + std::to_string(digests[i]) + "\"";
    }
    report += "], \"fingerprint\": {";
    bool first_key = true;
    for (const auto& [k, v] : reference) {
      report += (first_key ? "\"" : ", \"") + k + "\": " + FormatValue(v);
      first_key = false;
    }
    report += "}}\n";
    Must(WriteTextFile(args.out + "/" + args.workload + ".report.json", report),
         "write report");
  }
  std::fprintf(stderr,
               "passes: %zu untraced, %zu traced; document %.0f pages, buffer "
               "pool %zu pages\n",
               untraced.size(), traced.size(), reference.at("#doc_pages"),
               DatabaseOptions().buffer_pages);

  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(untraced.front().attempted);
  json += ", \"failed\": " + std::to_string(untraced.front().failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& def) {
    const auto it = values.find(def.name);
    json += first ? "" : ", ";
    first = false;
    json += std::string("\"") + def.name + "\": {\"value\": " +
            FormatValue(it == values.end() ? 0.0 : it->second) +
            ", \"unit\": \"" + def.unit + "\"}";
  };
  if (args.trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return errors.empty() ? 0 : 1;
}
