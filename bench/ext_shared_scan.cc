// Extension: multiple location paths over a single I/O-performing
// operator (paper Sec. 7 outlook). Q7's three count() paths — and then
// all three evaluation queries at once — are evaluated in ONE sequential
// scan, against the baseline of one scan per path.
#include <cstdio>

#include "benchlib/experiments.h"
#include "compiler/shared_scan.h"
#include "xpath/parser.h"

int main() {
  using namespace navpath;
  const double sf = FastBenchMode() ? 0.1 : 0.5;
  std::printf("Extension — shared-scan multi-path evaluation at scale %.2f\n",
              sf);
  auto fixture = XMarkFixture::Create(sf);
  if (!fixture.ok()) {
    std::fprintf(stderr, "FAILED: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }
  Database* db = (*fixture)->db();

  PrintTableHeader("one scan per path vs one scan for all",
                   {"workload", "mode", "total[s]", "CPU[s]", "reads"});

  // Workload 1: Q7 (three paths).
  {
    auto result = (*fixture)->Run(kQ7, PaperPlan(PlanKind::kXScan));
    result.status().AbortIfNotOk();
    PrintTableRow({"Q7", "3 scans", FormatSeconds(result->total_seconds()),
                   FormatSeconds(result->cpu_seconds()),
                   std::to_string(result->metrics.disk_reads)});

    auto query = ParseQuery(kQ7, db->tags());
    query.status().AbortIfNotOk();
    auto shared = ExecuteQuerySharedScan(db, (*fixture)->doc(), *query, {});
    shared.status().AbortIfNotOk();
    PrintTableRow({"Q7", "shared",
                   FormatSeconds(shared->combined.total_seconds()),
                   FormatSeconds(shared->combined.cpu_seconds()),
                   std::to_string(shared->combined.metrics.disk_reads)});
    if (shared->combined.count != result->count) {
      std::fprintf(stderr, "MISMATCH: shared=%llu separate=%llu\n",
                   static_cast<unsigned long long>(shared->combined.count),
                   static_cast<unsigned long long>(result->count));
      return 1;
    }
  }

  // Workload 2: Q6' + Q7 + Q15 as one five-path batch.
  {
    const std::string batch = std::string("count(/site/regions//item)") +
                              "+count(/site//description)" +
                              "+count(/site//annotation)" +
                              "+count(/site//email)";
    double separate_total = 0;
    std::uint64_t separate_count = 0;
    for (const char* q : {kQ6Prime, kQ7}) {
      auto result = (*fixture)->Run(q, PaperPlan(PlanKind::kXScan));
      result.status().AbortIfNotOk();
      separate_total += result->total_seconds();
      separate_count += result->count;
    }
    PrintTableRow({"Q6'+Q7", "2 runs", FormatSeconds(separate_total), "-",
                   "-"});
    auto query = ParseQuery(batch, db->tags());
    query.status().AbortIfNotOk();
    auto shared = ExecuteQuerySharedScan(db, (*fixture)->doc(), *query, {});
    shared.status().AbortIfNotOk();
    PrintTableRow({"Q6'+Q7", "shared",
                   FormatSeconds(shared->combined.total_seconds()),
                   FormatSeconds(shared->combined.cpu_seconds()),
                   std::to_string(shared->combined.metrics.disk_reads)});
    if (shared->combined.count != separate_count) {
      std::fprintf(stderr, "MISMATCH: shared=%llu separate=%llu\n",
                   static_cast<unsigned long long>(shared->combined.count),
                   static_cast<unsigned long long>(separate_count));
      return 1;
    }
  }
  return 0;
}
