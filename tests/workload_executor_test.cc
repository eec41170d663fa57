// Tests for the multi-query workload executor: interleaved execution must
// be invisible in the results (byte-identical to back-to-back runs for
// every plan kind and policy), cross-query request merging must never
// serve stale data, admission control must respect the buffer budget, and
// the whole machinery must survive injected transient faults.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "benchlib/harness.h"
#include "compiler/workload_executor.h"
#include "storage/disk.h"
#include "storage/fault_injector.h"
#include "storage/page.h"
#include "txn/txn.h"
#include "xmark/generator.h"
#include "xpath/parser.h"

namespace navpath {
namespace {

const char* const kQueries[] = {
    "/site/regions//item",
    "/site/people/person/email",
    "/site//keyword",
};

std::vector<std::uint64_t> OrdersOf(const std::vector<LogicalNode>& nodes) {
  std::vector<std::uint64_t> orders;
  orders.reserve(nodes.size());
  for (const LogicalNode& node : nodes) orders.push_back(node.order);
  return orders;
}

/// Runs `queries` through a WorkloadExecutor and returns the result.
Result<WorkloadResult> RunWorkload(XMarkFixture* fixture,
                                   const std::vector<std::string>& queries,
                                   PlanKind kind, WorkloadPolicy policy,
                                   std::size_t max_concurrent) {
  WorkloadOptions options;
  options.policy = policy;
  options.max_concurrent = max_concurrent;
  options.collect_nodes = true;
  options.stats = &fixture->stats();
  WorkloadExecutor executor(fixture->db(), fixture->doc(), options);
  for (const std::string& q : queries) {
    NAVPATH_RETURN_NOT_OK(executor.Add(q, PaperPlan(kind)));
  }
  return executor.Run();
}

TEST(WorkloadExecutorTest, InterleavedMatchesSequentialForAllPlanKinds) {
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  const std::vector<std::string> queries(std::begin(kQueries),
                                         std::end(kQueries));
  for (const PlanKind kind :
       {PlanKind::kSimple, PlanKind::kXScan, PlanKind::kXSchedule}) {
    // Ground truth: each query standalone through the ordinary executor.
    std::vector<QueryRunResult> solo;
    for (const std::string& q : queries) {
      auto result = (*fixture)->Run(q, PaperPlan(kind));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_GT(result->count, 0u);
      solo.push_back(*std::move(result));
    }

    auto interleaved = RunWorkload(fixture->get(), queries, kind,
                                   WorkloadPolicy::kRoundRobin, 0);
    ASSERT_TRUE(interleaved.ok())
        << PlanKindName(kind) << ": " << interleaved.status().ToString();
    ASSERT_EQ(interleaved->queries.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(interleaved->queries[i].count, solo[i].count)
          << PlanKindName(kind) << " " << queries[i];
      EXPECT_EQ(OrdersOf(interleaved->queries[i].nodes),
                OrdersOf(solo[i].nodes))
          << PlanKindName(kind) << " " << queries[i];
    }
  }
}

TEST(WorkloadExecutorTest, AllPoliciesProduceIdenticalResults) {
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  const std::vector<std::string> queries(std::begin(kQueries),
                                         std::end(kQueries));

  auto baseline = RunWorkload(fixture->get(), queries, PlanKind::kXSchedule,
                              WorkloadPolicy::kRoundRobin, 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (const WorkloadPolicy policy :
       {WorkloadPolicy::kRoundRobin, WorkloadPolicy::kShortestRemainingCost,
        WorkloadPolicy::kHybrid}) {
    auto run = RunWorkload(fixture->get(), queries, PlanKind::kXSchedule,
                           policy, 0);
    ASSERT_TRUE(run.ok())
        << WorkloadPolicyName(policy) << ": " << run.status().ToString();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(run->queries[i].count, baseline->queries[i].count)
          << WorkloadPolicyName(policy) << " " << queries[i];
      EXPECT_EQ(OrdersOf(run->queries[i].nodes),
                OrdersOf(baseline->queries[i].nodes))
          << WorkloadPolicyName(policy) << " " << queries[i];
    }
  }
}

/// Runs `queries` under `policy` and records the pull schedule (job index
/// per scheduling decision) via the on_pull hook.
Result<std::vector<std::size_t>> PullScheduleOf(
    XMarkFixture* fixture, const std::vector<std::string>& queries,
    WorkloadPolicy policy,
    std::vector<std::size_t>* active_sizes = nullptr) {
  std::vector<std::size_t> schedule;
  WorkloadOptions options;
  options.policy = policy;
  options.collect_nodes = false;
  options.stats = &fixture->stats();
  options.on_pull = [&](std::size_t job_index, std::size_t active_size) {
    schedule.push_back(job_index);
    if (active_sizes != nullptr) active_sizes->push_back(active_size);
  };
  WorkloadExecutor executor(fixture->db(), fixture->doc(), options);
  for (const std::string& q : queries) {
    NAVPATH_RETURN_NOT_OK(executor.Add(q, PaperPlan(PlanKind::kXSchedule)));
  }
  NAVPATH_RETURN_NOT_OK(executor.Run().status());
  return schedule;
}

TEST(WorkloadExecutorTest, PullScheduleIsDeterministicForEveryPolicy) {
  // Scheduling must depend only on the workload, never on host state:
  // two identically-seeded fixtures have to produce pull-for-pull
  // identical schedules under every policy, hybrid's live classification
  // signals included.
  const std::vector<std::string> queries(std::begin(kQueries),
                                         std::end(kQueries));
  for (const WorkloadPolicy policy :
       {WorkloadPolicy::kRoundRobin, WorkloadPolicy::kShortestRemainingCost,
        WorkloadPolicy::kHybrid}) {
    auto first_fixture = XMarkFixture::Create(0.02);
    ASSERT_TRUE(first_fixture.ok()) << first_fixture.status().ToString();
    auto second_fixture = XMarkFixture::Create(0.02);
    ASSERT_TRUE(second_fixture.ok()) << second_fixture.status().ToString();

    auto first = PullScheduleOf(first_fixture->get(), queries, policy);
    ASSERT_TRUE(first.ok())
        << WorkloadPolicyName(policy) << ": " << first.status().ToString();
    auto second = PullScheduleOf(second_fixture->get(), queries, policy);
    ASSERT_TRUE(second.ok())
        << WorkloadPolicyName(policy) << ": " << second.status().ToString();

    ASSERT_FALSE(first->empty()) << WorkloadPolicyName(policy);
    EXPECT_EQ(*first, *second) << WorkloadPolicyName(policy);
  }
}

TEST(WorkloadExecutorTest, RoundRobinNeverStarvesAJob) {
  // Regression for the `decisions % active.size()` cursor: when a job
  // completed, the modulus re-aligned and could pull some survivor twice
  // while another waited. Rotation over stable job ids guarantees that
  // between two pulls of any job, no other job is pulled twice, and the
  // gap never exceeds one full rotation of the admitted set.
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  const std::vector<std::string> queries = {
      "/site/regions//item",        "/site/people/person/email",
      "/site//keyword",             "/site/regions//name",
      "/site/people/person/name"};

  std::vector<std::size_t> active_sizes;
  auto schedule = PullScheduleOf(fixture->get(), queries,
                                 WorkloadPolicy::kRoundRobin, &active_sizes);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  ASSERT_FALSE(schedule->empty());

  std::vector<std::size_t> last_pull(queries.size(), 0);
  std::vector<bool> pulled(queries.size(), false);
  for (std::size_t t = 0; t < schedule->size(); ++t) {
    const std::size_t job = (*schedule)[t];
    ASSERT_LT(job, queries.size());
    if (pulled[job]) {
      // Every pull in between must belong to a distinct other job.
      std::vector<int> seen(queries.size(), 0);
      for (std::size_t u = last_pull[job] + 1; u < t; ++u) {
        ++seen[(*schedule)[u]];
        EXPECT_LE(seen[(*schedule)[u]], 1)
            << "job " << (*schedule)[u] << " pulled twice while job " << job
            << " waited (decisions " << last_pull[job] << ".." << t << ")";
      }
      EXPECT_LE(t - last_pull[job], queries.size())
          << "job " << job << " waited longer than one full rotation";
    }
    pulled[job] = true;
    last_pull[job] = t;
  }
}

TEST(WorkloadExecutorTest, CrossQueryMergingIsCountedAndNeverStale) {
  auto fixture = XMarkFixture::Create(0.02);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  // Two queries over the same document region: their XSchedule prefetch
  // sets overlap heavily, so duplicate reads must be merged at the disk.
  const std::vector<std::string> overlapping = {"/site/regions//item",
                                                "/site/regions//name"};

  auto sequential = RunWorkload(fixture->get(), overlapping,
                                PlanKind::kXSchedule,
                                WorkloadPolicy::kRoundRobin, 1);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  EXPECT_EQ(sequential->metrics.requests_merged, 0u)
      << "back-to-back queries never overlap in flight";

  auto interleaved = RunWorkload(fixture->get(), overlapping,
                                 PlanKind::kXSchedule,
                                 WorkloadPolicy::kRoundRobin, 0);
  ASSERT_TRUE(interleaved.ok()) << interleaved.status().ToString();
  EXPECT_GT(interleaved->metrics.requests_merged, 0u);
  // A merged completion serves every interested query with the same
  // installed page; results must stay exact.
  for (std::size_t i = 0; i < overlapping.size(); ++i) {
    EXPECT_EQ(interleaved->queries[i].count, sequential->queries[i].count);
    EXPECT_EQ(OrdersOf(interleaved->queries[i].nodes),
              OrdersOf(sequential->queries[i].nodes));
  }
}

TEST(WorkloadExecutorTest, AdmissionControlRespectsBufferBudget) {
  const std::vector<std::string> queries = {"/site/regions//item",
                                            "/site/regions//name"};
  // XSchedule's admission footprint is queue_k + 2 = 102 pages. A 64-page
  // buffer cannot hold two such queries, so the second is admitted only
  // after the first finishes.
  FixtureOptions tight;
  tight.db.buffer_pages = 64;
  auto small = XMarkFixture::Create(0.005, tight);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  auto serialized = RunWorkload(small->get(), queries, PlanKind::kXSchedule,
                                WorkloadPolicy::kRoundRobin, 0);
  ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
  EXPECT_EQ(serialized->queries[0].admitted_at, 0u);
  EXPECT_GE(serialized->queries[1].admitted_at,
            serialized->queries[0].finished_at);

  // With the default 1000-page buffer both fit the budget immediately.
  auto roomy = XMarkFixture::Create(0.005);
  ASSERT_TRUE(roomy.ok()) << roomy.status().ToString();
  auto concurrent = RunWorkload(roomy->get(), queries, PlanKind::kXSchedule,
                                WorkloadPolicy::kRoundRobin, 0);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  EXPECT_EQ(concurrent->queries[0].admitted_at, 0u);
  EXPECT_EQ(concurrent->queries[1].admitted_at, 0u);

  // Admission changes scheduling, never answers.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(serialized->queries[i].count, concurrent->queries[i].count);
  }
}

TEST(WorkloadExecutorTest, SurvivesTransientFaults) {
  FaultInjectorOptions faults;
  faults.seed = 1234;
  faults.transient_read_error_rate = 0.10;
  faults.corruption_rate = 0.02;
  faults.latency_spike_rate = 0.02;

  FixtureOptions clean_options;
  clean_options.db.page_size = 1024;
  clean_options.db.buffer_pages = 256;
  auto clean = XMarkFixture::Create(0.005, clean_options);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  FixtureOptions faulty_options = clean_options;
  faulty_options.db.faults = faults;
  // Injection rates far above any real device; give the retry loop room.
  faulty_options.db.retry.max_attempts = 8;
  auto faulty = XMarkFixture::Create(0.005, faulty_options);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();

  const std::vector<std::string> queries(std::begin(kQueries),
                                         std::end(kQueries));
  auto expected = RunWorkload(clean->get(), queries, PlanKind::kXSchedule,
                              WorkloadPolicy::kRoundRobin, 0);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(expected->metrics.faults_injected, 0u);

  auto survived = RunWorkload(faulty->get(), queries, PlanKind::kXSchedule,
                              WorkloadPolicy::kRoundRobin, 0);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_GT(survived->metrics.faults_injected, 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(survived->queries[i].count, expected->queries[i].count)
        << queries[i];
    EXPECT_EQ(OrdersOf(survived->queries[i].nodes),
              OrdersOf(expected->queries[i].nodes))
        << queries[i];
  }
  // Recovery costs simulated time; the faulty run cannot be faster.
  EXPECT_GE(survived->total_time, expected->total_time);
}

/// Everything one run records: the on_pull schedule (job index, active
/// set size) and per-query outcomes.
struct RecordedRun {
  std::vector<std::pair<std::size_t, std::size_t>> schedule;
  WorkloadResult result;
};

/// A test-side FIFO over the public admission primitives: activates jobs
/// in Add() order through CanAdmit and ActivateJob while the head has
/// arrived, at every hook the pull loop calls.
class FifoOverPrimitives : public Admission {
 public:
  FifoOverPrimitives(WorkloadExecutor* executor, SimClock* clock)
      : executor_(executor), clock_(clock) {}

  SimTime NextArrival() const override {
    return next_ < executor_->size() ? executor_->JobArrival(next_) : kNone;
  }
  Status Arrive() override { return Admit(); }
  Status Finished(std::size_t /*job*/) override { return Admit(); }

 private:
  Status Admit() {
    while (next_ < executor_->size() &&
           executor_->JobArrival(next_) <= clock_->now() &&
           executor_->CanAdmit(next_)) {
      NAVPATH_RETURN_NOT_OK(executor_->ActivateJob(next_++));
    }
    return Status::OK();
  }

  WorkloadExecutor* executor_;
  SimClock* clock_;
  std::size_t next_ = 0;
};

/// An open mixed workload on a fresh fixture: reads and two writers
/// (both inserting under the document root, so they conflict) arrive
/// over time, at most four jobs and two writers active at once.
/// `external` drives it through Run(Admission*, ...) with a test-side
/// FIFO over CanAdmit/ActivateJob instead of Run()'s own admission.
Result<RecordedRun> RunOpenMixed(WorkloadPolicy policy, bool external) {
  NAVPATH_ASSIGN_OR_RETURN(std::unique_ptr<XMarkFixture> fixture,
                           XMarkFixture::Create(0.005));
  TxnManager txn(fixture->db(), fixture->mutable_doc());
  const TagId bid = fixture->db()->tags()->Intern("bid");
  auto bid_op = [&](const char* text) {
    WriteOp op;
    op.parent = fixture->doc().root;
    op.tag = bid;
    op.text = text;
    return op;
  };
  RecordedRun run;
  WorkloadOptions options;
  options.policy = policy;
  options.stats = &fixture->stats();
  options.collect_nodes = true;
  options.max_concurrent = 4;
  options.txn = &txn;
  options.max_writers = 2;
  options.on_pull = [&](std::size_t job, std::size_t active) {
    run.schedule.emplace_back(job, active);
  };
  WorkloadExecutor executor(fixture->db(), fixture->doc(), options);
  SimTime arrival = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    // The two writers (jobs 2 and 3) arrive together.
    if (i != 3) arrival += 2 * kSimMillisecond;
    if (i == 2 || i == 3) {
      NAVPATH_RETURN_NOT_OK(
          executor.AddWrite({bid_op("b"), bid_op("c")}, arrival));
    } else {
      NAVPATH_RETURN_NOT_OK(executor.Add(kQueries[i % std::size(kQueries)],
                                         PaperPlan(PlanKind::kXSchedule),
                                         arrival));
    }
  }
  if (!external) {
    NAVPATH_ASSIGN_OR_RETURN(run.result, executor.Run());
    return run;
  }
  FifoOverPrimitives fifo(&executor, fixture->db()->clock());
  NAVPATH_ASSIGN_OR_RETURN(run.result, executor.Run(&fifo, executor.size()));
  return run;
}

TEST(WorkloadExecutorTest, RunIsAFifoDriverOverTheSteppingPrimitives) {
  for (const WorkloadPolicy policy :
       {WorkloadPolicy::kRoundRobin, WorkloadPolicy::kHybrid}) {
    auto ran = RunOpenMixed(policy, /*external=*/false);
    ASSERT_TRUE(ran.ok()) << ran.status().ToString();
    auto driven = RunOpenMixed(policy, /*external=*/true);
    ASSERT_TRUE(driven.ok()) << driven.status().ToString();
    const char* name = WorkloadPolicyName(policy);

    EXPECT_EQ(ran->schedule, driven->schedule) << name;
    EXPECT_EQ(ran->result.total_time, driven->result.total_time) << name;
    const auto& a = ran->result.queries;
    const auto& b = driven->result.queries;
    ASSERT_EQ(a.size(), b.size()) << name;
    bool queued = false;
    std::uint64_t aborts = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a[i].status.ok()) << name << " job " << i << ": "
                                    << a[i].status.ToString();
      EXPECT_EQ(a[i].status.ToString(), b[i].status.ToString()) << name;
      EXPECT_EQ(a[i].count, b[i].count) << name << " job " << i;
      EXPECT_EQ(OrdersOf(a[i].nodes), OrdersOf(b[i].nodes)) << name;
      EXPECT_EQ(a[i].admitted_at, b[i].admitted_at) << name << " job " << i;
      EXPECT_EQ(a[i].finished_at, b[i].finished_at) << name << " job " << i;
      EXPECT_EQ(a[i].pulls, b[i].pulls) << name << " job " << i;
      EXPECT_EQ(a[i].snapshot_seq, b[i].snapshot_seq) << name;
      EXPECT_EQ(a[i].commit_seq, b[i].commit_seq) << name;
      EXPECT_EQ(a[i].aborts, b[i].aborts) << name;
      queued |= a[i].admitted_at > a[i].arrival;
      aborts += a[i].aborts;
    }
    // The workload exercises what the two admissions must agree on: jobs
    // waited at the gate, and the writers raced.
    EXPECT_TRUE(queued) << name;
    EXPECT_GT(aborts, 0u) << name;
  }
}

TEST(WorkloadExecutorTest, AdmissionPrimitivesOutsideRunAreRejected) {
  auto fixture = XMarkFixture::Create(0.002);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  WorkloadExecutor executor((*fixture)->db(), (*fixture)->doc());
  ASSERT_TRUE(
      executor.Add(kQueries[0], PaperPlan(PlanKind::kXSchedule)).ok());

  // Job 0 exists and has arrived, but no Run drives the pull loop.
  EXPECT_TRUE(executor.ActivateJob(0).IsInvalidArgument());
  EXPECT_TRUE(executor.RetierJob(0, PaperPlan(PlanKind::kSimple))
                  .IsInvalidArgument());
  EXPECT_EQ(executor.active_count(), 0u);
  EXPECT_FALSE(executor.JobResult(0).degraded);

  // The job is untouched and still runs normally.
  auto result = executor.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->queries[0].status.ok());
  EXPECT_GT(result->queries[0].count, 0u);
}

TEST(WorkloadExecutorTest, ExternalAdmissionRejectsSharing) {
  auto fixture = XMarkFixture::Create(0.002);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  WorkloadOptions options;
  options.stats = &(*fixture)->stats();
  options.enable_sharing = true;
  WorkloadExecutor executor((*fixture)->db(), (*fixture)->doc(), options);
  ASSERT_TRUE(
      executor.Add(kQueries[0], PaperPlan(PlanKind::kXSchedule)).ok());
  FifoOverPrimitives fifo(&executor, (*fixture)->db()->clock());
  auto result = executor.Run(&fifo, executor.size());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

/// The per-query fault-isolation workload: a victim query and two
/// neighbors that never read the first page the victim reads alone.
const std::string kVictim = "/site/people/person/email";
const std::vector<std::string> kNeighbors = {"/site/regions//item",
                                             "/site/regions//name"};

/// The first page kVictim reads (XSchedule) that no kNeighbors query
/// reads, on `clean`; kInvalidPageId if there is none.
PageId VictimOnlyPage(XMarkFixture* clean) {
  auto trace_of = [&](const std::string& query) {
    std::vector<PageId> trace;
    clean->db()->disk()->SetTrace(&trace);
    auto run = clean->Run(query, PaperPlan(PlanKind::kXSchedule));
    clean->db()->disk()->SetTrace(nullptr);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return trace;
  };
  std::unordered_set<PageId> neighbor_pages;
  for (const std::string& q : kNeighbors) {
    for (const PageId page : trace_of(q)) neighbor_pages.insert(page);
  }
  for (const PageId page : trace_of(kVictim)) {
    if (neighbor_pages.count(page) == 0) return page;
  }
  return kInvalidPageId;
}

/// A fixture whose one permanently bad page is VictimOnlyPage.
Result<std::unique_ptr<XMarkFixture>> VictimFaultyFixture(PageId bad_page) {
  FixtureOptions faulty_options;
  faulty_options.db.faults.seed = 7;
  faulty_options.db.faults.permanent_bad_pages = {bad_page};
  return XMarkFixture::Create(0.005, faulty_options);
}

TEST(WorkloadExecutorTest, OneQuerysCorruptionDoesNotFailItsNeighbors) {
  // Per-query fault isolation: poison a page only one query reads and run
  // the three-query workload. The victim's own result carries the
  // Corruption status; its neighbors finish with exact answers and Run()
  // itself succeeds.
  auto clean = XMarkFixture::Create(0.005);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  const PageId bad_page = VictimOnlyPage(clean->get());
  ASSERT_NE(bad_page, kInvalidPageId);

  std::vector<std::string> queries = {kVictim};
  queries.insert(queries.end(), kNeighbors.begin(), kNeighbors.end());
  auto expected = RunWorkload(clean->get(), queries, PlanKind::kXSchedule,
                              WorkloadPolicy::kHybrid, 0);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  auto faulty = VictimFaultyFixture(bad_page);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();

  auto survived = RunWorkload(faulty->get(), queries, PlanKind::kXSchedule,
                              WorkloadPolicy::kHybrid, 0);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_TRUE(survived->queries[0].status.IsCorruption())
      << survived->queries[0].status.ToString();
  for (std::size_t i = 1; i < queries.size(); ++i) {
    EXPECT_TRUE(survived->queries[i].status.ok())
        << survived->queries[i].status.ToString();
    EXPECT_EQ(survived->queries[i].count, expected->queries[i].count)
        << queries[i];
    EXPECT_EQ(OrdersOf(survived->queries[i].nodes),
              OrdersOf(expected->queries[i].nodes))
        << queries[i];
  }
}

/// A workload built around one failure exit, on its own fixture.
struct ExitWorkload {
  std::unique_ptr<XMarkFixture> fixture;
  std::unique_ptr<TxnManager> txn;  // null for read-only workloads
  WorkloadOptions options;
  /// Adds the jobs; job `failing` must fail with `fails_with`, the rest
  /// must succeed.
  std::function<Status(WorkloadExecutor*)> add;
  std::size_t failing = 0;
  bool (Status::*fails_with)() const = nullptr;
};

/// A mixed workload on a fresh sf-0.002 fixture: a reader, the writers
/// `writes` makes, and a second reader.
Result<ExitWorkload> MixedExitWorkload(
    std::function<std::vector<std::vector<WriteOp>>(NodeID root,
                                                    TagRegistry* tags)>
        writes) {
  ExitWorkload w;
  NAVPATH_ASSIGN_OR_RETURN(w.fixture, XMarkFixture::Create(0.002));
  w.txn = std::make_unique<TxnManager>(w.fixture->db(),
                                       w.fixture->mutable_doc());
  w.options.stats = &w.fixture->stats();
  w.options.collect_nodes = true;
  w.options.txn = w.txn.get();
  std::vector<std::vector<WriteOp>> ops =
      writes(w.fixture->doc().root, w.fixture->db()->tags());
  w.add = [ops](WorkloadExecutor* executor) -> Status {
    NAVPATH_RETURN_NOT_OK(
        executor->Add(kQueries[0], PaperPlan(PlanKind::kXSchedule)));
    for (const std::vector<WriteOp>& writer : ops) {
      NAVPATH_RETURN_NOT_OK(executor->AddWrite(writer));
    }
    return executor->Add(kQueries[1], PaperPlan(PlanKind::kXSchedule));
  };
  return w;
}

/// Runs `make`'s workload twice on one executor, checking that the
/// failing job fails alone and that every charge is released at the end
/// of each run; then checks that the reused executor's second run equals
/// a fresh executor's run on a database with the same history (one
/// identical run before it).
void ExpectFailureExitReleasesCharges(
    const std::function<Result<ExitWorkload>()>& make, const char* name) {
  auto reused = make();
  ASSERT_TRUE(reused.ok()) << name << ": " << reused.status().ToString();
  WorkloadExecutor executor(reused->fixture->db(), reused->fixture->doc(),
                            reused->options);
  WorkloadResult second;
  for (int run = 0; run < 2; ++run) {
    ASSERT_TRUE(reused->add(&executor).ok()) << name;
    auto result = executor.Run();
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_EQ(executor.footprint_used(), 0u) << name << " run " << run;
    EXPECT_EQ(executor.active_count(), 0u) << name << " run " << run;
    for (std::size_t i = 0; i < result->queries.size(); ++i) {
      const Status& status = result->queries[i].status;
      if (i == reused->failing) {
        EXPECT_TRUE((status.*reused->fails_with)())
            << name << " job " << i << ": " << status.ToString();
      } else {
        EXPECT_TRUE(status.ok())
            << name << " job " << i << ": " << status.ToString();
      }
    }
    second = std::move(*result);
  }

  auto fresh = make();
  ASSERT_TRUE(fresh.ok()) << name << ": " << fresh.status().ToString();
  WorkloadResult again;
  for (int run = 0; run < 2; ++run) {
    WorkloadExecutor executor(fresh->fixture->db(), fresh->fixture->doc(),
                              fresh->options);
    ASSERT_TRUE(fresh->add(&executor).ok()) << name;
    auto result = executor.Run();
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    again = std::move(*result);
  }
  EXPECT_EQ(second.total_time, again.total_time) << name;
  ASSERT_EQ(second.queries.size(), again.queries.size()) << name;
  for (std::size_t i = 0; i < second.queries.size(); ++i) {
    const WorkloadQueryResult& a = second.queries[i];
    const WorkloadQueryResult& b = again.queries[i];
    EXPECT_EQ(a.status.ToString(), b.status.ToString()) << name << " " << i;
    EXPECT_EQ(a.count, b.count) << name << " job " << i;
    EXPECT_EQ(OrdersOf(a.nodes), OrdersOf(b.nodes)) << name << " job " << i;
    EXPECT_EQ(a.admitted_at, b.admitted_at) << name << " job " << i;
    EXPECT_EQ(a.finished_at, b.finished_at) << name << " job " << i;
    EXPECT_EQ(a.pulls, b.pulls) << name << " job " << i;
    EXPECT_EQ(a.commit_seq, b.commit_seq) << name << " job " << i;
    EXPECT_EQ(a.aborts, b.aborts) << name << " job " << i;
  }
}

TEST(WorkloadExecutorTest, EveryFailureExitReleasesItsCharges) {
  // A reader on a permanently bad page: its pull fails.
  auto clean = XMarkFixture::Create(0.005);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  const PageId bad_page = VictimOnlyPage(clean->get());
  ASSERT_NE(bad_page, kInvalidPageId);
  ExpectFailureExitReleasesCharges(
      [&]() -> Result<ExitWorkload> {
        ExitWorkload w;
        NAVPATH_ASSIGN_OR_RETURN(w.fixture, VictimFaultyFixture(bad_page));
        w.options.stats = &w.fixture->stats();
        w.options.collect_nodes = true;
        w.add = [](WorkloadExecutor* executor) -> Status {
          NAVPATH_RETURN_NOT_OK(
              executor->Add(kVictim, PaperPlan(PlanKind::kXSchedule)));
          for (const std::string& q : kNeighbors) {
            NAVPATH_RETURN_NOT_OK(
                executor->Add(q, PaperPlan(PlanKind::kXSchedule)));
          }
          return Status::OK();
        };
        w.failing = 0;
        w.fails_with = &Status::IsCorruption;
        return w;
      },
      "pull error");

  // A writer whose delete matches no child: its op fails.
  ExpectFailureExitReleasesCharges(
      [] {
        auto w = MixedExitWorkload([](NodeID root, TagRegistry* tags) {
          WriteOp op;
          op.parent = root;
          op.tag = tags->Intern("no_such_child");
          op.kind = WriteOp::Kind::kDelete;
          return std::vector<std::vector<WriteOp>>{{op}};
        });
        if (w.ok()) {
          w->failing = 1;
          w->fails_with = &Status::IsInvalidArgument;
        }
        return w;
      },
      "op error");

  // Two writers racing on the root with no retry budget: the second
  // committer runs out of retries.
  ExpectFailureExitReleasesCharges(
      [] {
        auto w = MixedExitWorkload([](NodeID root, TagRegistry* tags) {
          WriteOp op;
          op.parent = root;
          op.tag = tags->Intern("bid");
          return std::vector<std::vector<WriteOp>>{{op}, {op}};
        });
        if (w.ok()) {
          w->options.max_writers = 2;
          w->options.writer_max_retries = 0;
          w->failing = 2;
          w->fails_with = &Status::IsAborted;
        }
        return w;
      },
      "retries exhausted");
}

TEST(WorkloadExecutorTest, RejectsMalformedOptionsAndDeadlines) {
  auto fixture = XMarkFixture::Create(0.005);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();

  // Options are validated at the top of Run(), not asserted mid-flight.
  WorkloadOptions bad_budget;
  bad_budget.buffer_budget_fraction = 1.5;
  WorkloadExecutor over((*fixture)->db(), (*fixture)->doc(), bad_budget);
  ASSERT_TRUE(over.Add(kQueries[0], PaperPlan(PlanKind::kSimple)).ok());
  EXPECT_TRUE(over.Run().status().IsInvalidArgument());

  WorkloadOptions negative;
  negative.buffer_budget_fraction = -0.25;
  WorkloadExecutor under((*fixture)->db(), (*fixture)->doc(), negative);
  ASSERT_TRUE(under.Add(kQueries[0], PaperPlan(PlanKind::kSimple)).ok());
  EXPECT_TRUE(under.Run().status().IsInvalidArgument());

  // A deadline at or before the arrival can never be met and is rejected
  // at Add() time.
  WorkloadExecutor executor((*fixture)->db(), (*fixture)->doc());
  EXPECT_TRUE(executor
                  .Add(kQueries[0], PaperPlan(PlanKind::kSimple),
                       /*arrival=*/kSimSecond, /*deadline=*/kSimSecond)
                  .IsInvalidArgument());
  EXPECT_TRUE(executor
                  .Add(kQueries[0], PaperPlan(PlanKind::kSimple),
                       /*arrival=*/2 * kSimSecond,
                       /*deadline=*/kSimSecond)
                  .IsInvalidArgument());
  ASSERT_TRUE(executor
                  .Add(kQueries[0], PaperPlan(PlanKind::kSimple),
                       /*arrival=*/kSimSecond,
                       /*deadline=*/2 * kSimSecond)
                  .ok());
  auto run = executor.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->queries[0].status.ok());
}

TEST(WorkloadExecutorTest, RejectsInvalidWorkloads) {
  auto fixture = XMarkFixture::Create(0.005);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  WorkloadExecutor executor((*fixture)->db(), (*fixture)->doc());
  EXPECT_TRUE(executor.Run().status().IsInvalidArgument());  // empty
  EXPECT_TRUE(executor
                  .Add("/site/regions/europe/item[quantity]",
                       PaperPlan(PlanKind::kXSchedule))
                  .IsInvalidArgument());  // predicates unsupported
}

}  // namespace
}  // namespace navpath
