// olap_join: the direct engine path. One closed-loop client sends a seeded
// sequence of seven join-heavy TPC-H templates through sql::Parse ->
// sql::PlanStatement -> opt::Optimize -> db::Database::Run, against a
// buffer pool that holds the whole database (hot).
#include <memory>

#include "common/random.h"
#include "db/error.h"
#include "engine.h"
#include "templates.h"
#include "workload/tpch_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScaleFactor = 0.02;
constexpr size_t kPoolPages = 1 << 16;  // holds every page at this scale.
constexpr int kInstances = 4;           // parameter sets per template.

}  // namespace

RunResult RunOlapJoin(const RunConfig& config) {
  RunResult result;
  Tracer setup_tracer;
  Tracer* setup_trace = config.trace ? &setup_tracer : nullptr;
  std::unique_ptr<db::Database> database;
  std::vector<double> setup_s = TimeSetups(
      setup_trace, [&] { database.reset(); },
      [&](uint64_t setup) {
        database = std::make_unique<db::Database>(
            MakeDatabaseOptions(kPoolPages));
        perfeval::workload::TpchGenerator generator(kScaleFactor);
        for (const std::string& name : TpchTables()) {
          std::shared_ptr<db::Table> table;
          {
            ScopedSpan span(setup_trace, "workload.generate", setup, setup);
            table = generator.Generate(name);
          }
          ScopedSpan span(setup_trace, "db.register", setup, setup);
          database->RegisterTable(name, std::move(table));
        }
      });
  result.sizes_json =
      "{\"scale_factor\": " + std::to_string(kScaleFactor) +
      ", \"lineitem_rows\": " +
      std::to_string(database->GetTable("lineitem").num_rows()) +
      ", \"buffer_pool_pages\": " + std::to_string(kPoolPages) +
      ", \"templates\": 7, \"instances_per_template\": " +
      std::to_string(kInstances) + ", \"clients\": 1}";

  // Reference answers, outside every timed span; the direct run of each
  // statement there also warms the buffer pool.
  std::vector<std::vector<Statement>> templates;
  if (!PrepareStatements(OlapJoinTemplates(config.seed, kInstances), *database,
                         &templates, &result)) {
    return result;
  }
  if (config.plant_wrong_answer) {
    templates[0][0].expected = PlantWrongAnswer(*templates[0][0].expected);
  }

  // The seeded stream: rounds of a shuffled template order, each slot
  // drawing one of the template's parameter sets.
  perfeval::Pcg32 rng(config.seed, 1000);
  std::vector<size_t> round;
  auto next = [&]() -> const Statement& {
    if (round.empty()) {
      for (size_t i = 0; i < templates.size(); ++i) {
        round.push_back(i);
      }
      for (size_t i = round.size() - 1; i > 0; --i) {
        std::swap(round[i], round[rng.NextBounded(static_cast<uint32_t>(i + 1))]);
      }
    }
    const std::vector<Statement>& pool = templates[round.back()];
    round.pop_back();
    return pool[rng.NextBounded(static_cast<uint32_t>(pool.size()))];
  };

  int64_t missed = 0;
  auto run_phase = [&](double seconds, size_t min_selects, Tracer* tracer,
                       LayerSamples* samples, PhaseLog* log) {
    return RunClosedLoop(
        1, seconds, min_selects,
        [&](int, PhaseLog* l) -> size_t {
          const Statement& s = next();
          ++l->attempted;
          int64_t start = NowNs();
          int64_t run_ns = 0;
          db::QueryResult r;
          std::string error;
          {
            ScopedSpan root(tracer, "request");
            perfeval::Result<db::PlanPtr> plan =
                PlanSql(s.sql, *database, tracer, root.request(), root.id());
            if (!plan.ok()) {
              error = plan.status().ToString();
            } else {
              ScopedSpan run(tracer, "db.run", root.request(), root.id());
              int64_t run_start = NowNs();
              try {
                r = Execute(*database, plan.value());
              } catch (const db::QueryError& e) {
                error = e.what();
              }
              run_ns = NowNs() - run_start;
            }
          }
          double ms = static_cast<double>(NowNs() - start) / 1e6;
          if (!error.empty()) {
            l->Fail(s.tmpl + ": " + error);
            return 0;
          }
          ++l->completed;
          l->select_ms[s.tmpl].push_back(ms);
          std::string diff = CheckResult(*r.table, *s.expected, s.ordered);
          if (!diff.empty()) {
            l->Fail(s.tmpl + ": " + diff);
          }
          missed += r.storage.page_misses > 0 ? 1 : 0;
          if (samples != nullptr) {
            RecordQueryResult(r, run_ns, samples);
          }
          return 1;
        },
        log);
  };

  PhaseLog untraced;
  double wall = run_phase(UntracedSeconds(config), MinSelects(config),
                          nullptr, nullptr, &untraced);
  PhaseLog all = untraced;
  if (!config.trace) {
    ReportEndToEnd(untraced, wall, setup_s, &result);
  } else {
    Tracer tracer;
    LayerSamples samples;
    PhaseLog traced;
    double traced_wall =
        run_phase(config.seconds / 2.0, 0, &tracer, &samples, &traced);
    all.Merge(traced);
    ReportPerLayer({setup_tracer.Snapshot(), tracer.Snapshot(), &samples,
                    static_cast<double>(untraced.completed) / wall,
                    static_cast<double>(traced.completed) / traced_wall},
                   &result);
    WriteSpans(config, setup_tracer, tracer, &result);
  }
  if (missed > 0) {
    result.Violate("hot regime: " + std::to_string(missed) +
                   " queries missed the buffer pool after warm-up");
  }
  result.attempted = all.attempted;
  result.failed = all.failed;
  for (const std::string& why : all.failures) {
    result.notes.push_back("failed: " + why);
  }
  return result;
}

}  // namespace perfbench
