#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/string_util.h"
#include "db/database.h"

namespace perfeval {
namespace bench {
namespace {

/// The uniform flags, mapped onto properties so they flow into the
/// manifest like every other parameter. `knob` is the DbKnobs bit a
/// bench must declare to accept the flag (0: every bench accepts it).
struct Flag {
  const char* prefix;
  const char* key;
  unsigned knob;
};
constexpr Flag kFlags[] = {
    {"--jobs=", "jobs", 0},
    {"--order=", "order", 0},
    {"--isolation=", "isolation", 0},
    {"--schedSeed=", "schedSeed", 0},
    {"--dbThreads=", "dbThreads", kDbThreadsKnob},
    {"--dbJoin=", "dbJoin", kDbJoinKnob},
    {"--radixBits=", "radixBits", kDbJoinKnob},
    {"--dbOpt=", "dbOpt", kDbOptKnob},
    {"--dbBackend=", "dbBackend", kDbBackendKnob},
};

/// Returns true when `arg` is one of the uniform flags.
bool ConsumeFlag(const std::string& arg, repro::Properties* properties) {
  for (const Flag& flag : kFlags) {
    std::string prefix = flag.prefix;
    if (arg.rfind(prefix, 0) == 0) {
      properties->Set(flag.key, arg.substr(prefix.size()));
      return true;
    }
  }
  if (arg == "--progress") {
    properties->Set("progress", "true");
    return true;
  }
  if (arg == "--smoke") {
    properties->Set("smoke", "true");
    return true;
  }
  return false;
}

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "usage error: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace

BenchContext::BenchContext(const std::string& experiment_id,
                           const std::string& protocol_description,
                           int argc, char** argv, unsigned db_knobs)
    : experiment_id_(experiment_id),
      db_knobs_(db_knobs),
      environment_(core::CaptureEnvironment()),
      manifest_(experiment_id, protocol_description) {
  properties_.SetDefault("resultsDir", "bench_results");
  properties_.SetDefault("jobs", "1");
  properties_.SetDefault("order", "design");
  properties_.SetDefault("isolation", "exclusive");
  properties_.SetDefault("schedSeed", "0");
  properties_.SetDefault("progress", "false");
  if (db_knobs_ & kDbThreadsKnob) {
    properties_.SetDefault("dbThreads", "1");
  }
  if (db_knobs_ & kDbJoinKnob) {
    properties_.SetDefault("dbJoin", "radix");
  }
  if (db_knobs_ & kDbOptKnob) {
    properties_.SetDefault("dbOpt", "off");
  }
  if (db_knobs_ & kDbBackendKnob) {
    properties_.SetDefault("dbBackend", "col");
  }
  properties_.SetDefault("smoke", "false");
  for (const std::string& arg : properties_.OverrideFromArgs(argc, argv)) {
    if (!ConsumeFlag(arg, &properties_)) {
      UsageError(StrFormat("unknown argument '%s'", arg.c_str()));
    }
  }
  properties_.OverrideFromEnv("PERFEVAL_");
  for (const Flag& flag : kFlags) {
    if (flag.knob != 0 && (db_knobs_ & flag.knob) == 0 &&
        properties_.Has(flag.key)) {
      UsageError(StrFormat("%s does not apply --%s; it would not change "
                           "what is measured",
                           experiment_id_.c_str(), flag.key));
    }
  }
  Result<core::RunOrder> order =
      sched::ParseRunOrder(properties_.GetOr("order", "design"));
  if (!order.ok()) {
    UsageError(order.status().message());
  }
  Result<core::IsolationPolicy> isolation =
      sched::ParseIsolationPolicy(properties_.GetOr("isolation", "exclusive"));
  if (!isolation.ok()) {
    UsageError(isolation.status().message());
  }
  results_dir_ = properties_.GetOr("resultsDir", "bench_results");
  manifest_.set_environment(environment_);
}

sched::Options BenchContext::ScheduleOptions() const {
  sched::Options options;
  options.experiment_id = experiment_id_;
  options.jobs = static_cast<int>(properties_.GetInt("jobs", 1));
  options.seed =
      static_cast<uint64_t>(properties_.GetInt("schedSeed", 0));
  options.progress = properties_.GetBool("progress", false);
  // Both parse: the constructor rejected anything else.
  options.order =
      sched::ParseRunOrder(properties_.GetOr("order", "design")).value();
  options.isolation =
      sched::ParseIsolationPolicy(properties_.GetOr("isolation", "exclusive"))
          .value();
  return options;
}

int BenchContext::DbThreads() const {
  int threads = static_cast<int>(properties_.GetInt("dbThreads", 1));
  return threads < 1 ? 1 : threads;
}

Result<db::JoinAlgo> BenchContext::DbJoin() const {
  const std::string text = properties_.GetOr("dbJoin", "radix");
  Result<db::JoinAlgo> algo = db::ParseJoinAlgo(text);
  if (!algo.ok()) {
    return Status::InvalidArgument(StrFormat(
        "usage: --dbJoin=<legacy|hash|radix|merge> (got \"%s\")",
        text.c_str()));
  }
  return algo;
}

Result<bool> BenchContext::DbOpt() const {
  const std::string text = properties_.GetOr("dbOpt", "off");
  if (text == "on" || text == "true") {
    return true;
  }
  if (text == "off" || text == "false") {
    return false;
  }
  return Status::InvalidArgument(
      StrFormat("usage: --dbOpt=on|off (got \"%s\")", text.c_str()));
}

Result<db::BackendKind> BenchContext::DbBackend() const {
  const std::string text = properties_.GetOr("dbBackend", "col");
  Result<db::BackendKind> kind = db::ParseBackendKind(text);
  if (!kind.ok()) {
    return Status::InvalidArgument(StrFormat(
        "usage: --dbBackend=<col|row> (got \"%s\")", text.c_str()));
  }
  return kind;
}

Status BenchContext::ApplyDbKnobs(db::Database* database) const {
  if (db_knobs_ & kDbThreadsKnob) {
    database->set_threads(DbThreads());
  }
  if (db_knobs_ & kDbJoinKnob) {
    Result<db::JoinAlgo> join = DbJoin();
    if (!join.ok()) {
      return join.status();
    }
    database->set_join_algo(join.value());
    database->set_radix_bits(
        static_cast<int>(properties_.GetInt("radixBits", 0)));
  }
  if (db_knobs_ & kDbOptKnob) {
    Result<bool> optimize = DbOpt();
    if (!optimize.ok()) {
      return optimize.status();
    }
    database->set_optimize(optimize.value());
  }
  if (db_knobs_ & kDbBackendKnob) {
    Result<db::BackendKind> backend = DbBackend();
    if (!backend.ok()) {
      return backend.status();
    }
    database->set_backend(backend.value());
  }
  return Status::OK();
}

bool BenchContext::Smoke() const {
  return properties_.GetBool("smoke", false);
}

std::string BenchContext::ResultPath(const std::string& file_name) const {
  return results_dir_ + "/" + file_name;
}

void BenchContext::PrintHeader(const std::string& title) const {
  std::printf("== %s: %s ==\n", experiment_id_.c_str(), title.c_str());
  std::printf("%s", environment_.ToReportString().c_str());
  // Treatment knobs are part of the experimental setup (paper, slides
  // 149–156): echo every knob the bench applies, and only those, so a
  // report can never be read without knowing which engine configuration
  // produced it.
  std::string knobs;
  if (db_knobs_ & kDbBackendKnob) {
    knobs += " backend=" + properties_.GetOr("dbBackend", "col");
  }
  if (db_knobs_ & kDbThreadsKnob) {
    knobs += " threads=" + properties_.GetOr("dbThreads", "1");
  }
  if (db_knobs_ & kDbJoinKnob) {
    knobs += " join=" + properties_.GetOr("dbJoin", "radix") +
             " radixBits=" + properties_.GetOr("radixBits", "auto");
  }
  if (db_knobs_ & kDbOptKnob) {
    knobs += " opt=" + properties_.GetOr("dbOpt", "off");
  }
  if (!knobs.empty()) {
    std::printf("db knobs:%s\n", knobs.c_str());
  }
  std::printf("\n");
}

std::string BenchContext::Finish() {
  manifest_.set_properties(properties_);
  std::string path =
      ResultPath(StrFormat("%s_manifest.txt", experiment_id_.c_str()));
  Status status = manifest_.WriteToFile(path);
  if (!status.ok()) {
    std::fprintf(stderr, "manifest write failed: %s\n",
                 status.ToString().c_str());
  }
  return path;
}

}  // namespace bench
}  // namespace perfeval
