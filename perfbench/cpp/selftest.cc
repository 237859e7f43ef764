// Self-tests of the benchmark's own arithmetic: the tail-percentile sample
// rule, the geomean of per-template medians, span self time, and the
// planted-wrong-answer check. Exits 1 on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "report.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  failures += ok ? 0 : 1;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestTailPercentile() {
  Expect(MinSamplesFor(0.95, 10) == 200, "p95 with 10 beyond needs 200");
  Expect(MinSamplesFor(0.99, 10) == 1000, "p99 with 10 beyond needs 1000");
  std::vector<double> values;
  for (int i = 1; i <= 199; ++i) {
    values.push_back(i);
  }
  Expect(!TailPercentile(values, 0.95).ok(), "p95 of 199 samples is refused");
  values.push_back(200);
  perfeval::Result<double> p95 = TailPercentile(values, 0.95);
  Expect(p95.ok() && Near(p95.value(), 190.0), "p95 of 1..200 is 190");
  Expect(SamplesBeyond(200, 0.95) == 10, "10 of 200 samples lie beyond p95");
}

void TestGeomeanOfMedians() {
  // Medians 2 and 8: every template counts once, however often it ran.
  std::map<std::string, std::vector<double>> per_template = {
      {"a", {1, 2, 3, 100, 2}}, {"b", {8}}};
  Expect(Near(GeomeanOfMedians(per_template), 4.0),
         "geomean of medians 2 and 8 is 4");
}

Span MakeSpan(uint64_t id, uint64_t parent, const char* name, int64_t start,
              int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.request = 1;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  // request [0,100] with children [10,40] and [30,60] (overlapping) and
  // [90,120] (clipped at 100); the first child has a child [15,20].
  std::vector<Span> spans = {
      MakeSpan(1, 0, "request", 0, 100), MakeSpan(2, 1, "sql.parse", 10, 40),
      MakeSpan(3, 1, "db.run", 30, 60), MakeSpan(4, 2, "sql.bind", 15, 20),
      MakeSpan(5, 1, "serve.call", 90, 120)};
  std::unordered_map<uint64_t, int64_t> self = SelfTimes(spans);
  Expect(self[1] == 40, "root self time excludes the union of children");
  Expect(self[2] == 25, "child self time excludes its own child");
  Expect(self[3] == 30 && self[4] == 5 && self[5] == 30,
         "leaf self time is its duration");

  // Three set-up repetitions; the second has no generate span.
  std::vector<Span> setup = {MakeSpan(10, 0, "setup", 0, 10),
                             MakeSpan(11, 10, "workload.generate", 0, 2),
                             MakeSpan(20, 0, "setup", 0, 10),
                             MakeSpan(30, 0, "setup", 0, 10),
                             MakeSpan(31, 30, "workload.generate", 0, 4)};
  setup[0].request = setup[1].request = 10;
  setup[2].request = 20;
  setup[3].request = setup[4].request = 30;
  Expect(Near(SetupSpanSeconds(setup, "workload.generate"), 2e-9),
         "set-up layer time is the median over repetitions");

  LayerSamples samples;
  TracedPhase phase{{}, spans, &samples, 100.0, 90.0};
  RunResult result;
  ReportPerLayer(phase, &result);
  Expect(Near(result.metrics.at("trace.unattributed_frac").value, 0.4),
         "unattributed fraction is root self time over root time");
  Expect(Near(result.metrics.at("trace.overhead_frac").value, 0.1),
         "tracing overhead is the traced throughput loss");
  Expect(result.metrics.size() == PerLayerMetrics().size(),
         "every per-layer metric is reported");
}

void TestPlantedWrongAnswer() {
  auto table = std::make_shared<db::Table>(
      db::Schema({{"k", db::DataType::kInt64}}));
  table->AppendRow({db::Value::Int64(7)});
  Expect(!CheckResult(*PlantWrongAnswer(*table), *table, true).empty(),
         "a planted wrong answer fails the check");
  auto empty = std::make_shared<db::Table>(table->schema());
  Expect(!CheckResult(*PlantWrongAnswer(*empty), *empty, true).empty(),
         "a planted wrong answer to an empty result fails the check");
  Expect(CheckResult(*table, *table, true).empty(), "a right answer passes");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestTailPercentile();
  perfbench::TestGeomeanOfMedians();
  perfbench::TestSelfTime();
  perfbench::TestPlantedWrongAnswer();
  std::printf("%d failed\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
