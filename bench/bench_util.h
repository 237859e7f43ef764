#ifndef PERFEVAL_BENCH_BENCH_UTIL_H_
#define PERFEVAL_BENCH_BENCH_UTIL_H_

#include <string>

#include "common/result.h"
#include "core/environment.h"
#include "db/backend_kind.h"
#include "db/join.h"
#include "repro/manifest.h"
#include "repro/properties.h"
#include "sched/options.h"

namespace perfeval {
namespace db {
class Database;
}  // namespace db
}  // namespace perfeval

namespace perfeval {
namespace bench {

/// The database treatment knobs a bench applies, as a bitmask. A bench
/// declares them at construction: ApplyDbKnobs() sets exactly these, the
/// header echoes exactly these, and passing any other is a usage error —
/// a knob the bench never reads must not appear to have been measured.
enum DbKnobs : unsigned {
  kNoDbKnobs = 0,
  kDbThreadsKnob = 1u << 0,  ///< --dbThreads
  kDbJoinKnob = 1u << 1,     ///< --dbJoin and --radixBits
  kDbOptKnob = 1u << 2,      ///< --dbOpt
  kDbBackendKnob = 1u << 3,  ///< --dbBackend
  kAllDbKnobs = (1u << 4) - 1,
};

/// Shared scaffolding for the experiment binaries: every bench
///  1. parses -Dkey=value overrides into Properties (paper, slides
///     183–195) plus the uniform scheduler flags
///     `--jobs=N --order=design|randomized|interleaved
///      --isolation=concurrent|exclusive --progress` and the database
///     knob flags it declared,
///  2. prints the environment spec at the paper's recommended granularity
///     (slides 149–156),
///  3. writes results + a provenance manifest under `results_dir`.
class BenchContext {
 public:
  /// `experiment_id` is the DESIGN.md id ("T2", "F1", ...); `db_knobs`
  /// the DbKnobs the bench applies. An unknown argument, an unparsable
  /// --order/--isolation, or an undeclared database knob is a usage
  /// error: the message goes to stderr and the process exits with
  /// status 2 before any measurement runs.
  BenchContext(const std::string& experiment_id,
               const std::string& protocol_description, int argc,
               char** argv, unsigned db_knobs = kNoDbKnobs);

  repro::Properties& properties() { return properties_; }
  const core::EnvironmentSpec& environment() const { return environment_; }

  /// Scheduler options assembled from the uniform flags (equivalently the
  /// `jobs` / `order` / `isolation` / `schedSeed` / `progress` properties,
  /// so PERFEVAL_jobs=4 and -Djobs=4 work too), validated at
  /// construction. The options land in the manifest via the properties,
  /// so the documented protocol covers the schedule.
  sched::Options ScheduleOptions() const;

  /// Worker threads for morsel-driven intra-query parallelism
  /// (`--dbThreads=N`, equivalently the `dbThreads` property). A pure
  /// concurrency knob: query results and storage stats are identical at
  /// any setting, only wall-clock time changes. Clamped to >= 1.
  int DbThreads() const;

  /// Join algorithm knob (`--dbJoin=<legacy|hash|radix|merge>`,
  /// equivalently the `dbJoin` property; default radix). Unlike the
  /// scheduler flags this is a *treatment* knob — a typo would silently
  /// measure the wrong engine — so an unrecognized value is a hard usage
  /// error, never a fallback.
  Result<db::JoinAlgo> DbJoin() const;

  /// Cost-based-optimizer knob (`--dbOpt=<on|off>`, equivalently the
  /// `dbOpt` property; default off). Same strictness as DbJoin(): any
  /// value other than on/off/true/false is a usage error.
  Result<bool> DbOpt() const;

  /// Execution-backend knob (`--dbBackend=<col|row>`, equivalently the
  /// `dbBackend` property; default col). A treatment knob with DbJoin()'s
  /// strictness — an unrecognized backend name is a hard usage error,
  /// never a silent fallback to the columnar engine.
  Result<db::BackendKind> DbBackend() const;

  /// Applies the declared database knobs (of `--dbThreads`, `--dbJoin`,
  /// `--radixBits`, `--dbOpt`, `--dbBackend`) to `database`, returning the
  /// first usage error. Benches call this once after constructing their
  /// Database so every binary honours the uniform flags identically.
  Status ApplyDbKnobs(db::Database* database) const;

  /// `--smoke` (equivalently `-Dsmoke=true`): ask the bench for its
  /// seconds-scale fast path — tiny configs, few repetitions — so ctest
  /// can exercise the full measurement/report pipeline on every run. The
  /// emitted numbers are pipeline checks, not publishable measurements.
  bool Smoke() const;

  /// bench_results/<stem> — all artifacts of this experiment go there.
  std::string ResultPath(const std::string& file_name) const;

  /// Prints the standard header: experiment id/title, environment, and
  /// the database knobs the bench applies (none are echoed when it
  /// applies none).
  void PrintHeader(const std::string& title) const;

  /// Registers an output for the manifest.
  void AddOutput(const std::string& path) { manifest_.AddOutput(path); }
  void AddNote(const std::string& note) { manifest_.AddNote(note); }

  /// Writes the manifest; call last. Returns the manifest path.
  std::string Finish();

 private:
  std::string experiment_id_;
  unsigned db_knobs_;
  std::string results_dir_;
  repro::Properties properties_;
  core::EnvironmentSpec environment_;
  repro::RunManifest manifest_;
};

}  // namespace bench
}  // namespace perfeval

#endif  // PERFEVAL_BENCH_BENCH_UTIL_H_
