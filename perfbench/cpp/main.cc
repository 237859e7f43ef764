// perfbench: runs one workload of the repository benchmark and prints its
// metrics. Usage:
//
//   perfbench --workload olap_join|scan_shard|htap_write --seed N
//             --seconds N --trace 0|1 [--out-dir DIR] [--plant-wrong-answer]
//
// Untraced runs (--trace 0) report the end-to-end metrics, traced runs the
// per-layer ones. Lines starting with '#' carry provenance and notes; the
// last stdout line is one JSON object with "correct", "attempted",
// "failed" and "metrics". Exit status: 0 when every check passed, 1 when a
// check failed (the result is still printed), 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "core/environment.h"
#include "engine.h"
#include "repro/fingerprint.h"
#include "repro/properties.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload olap_join|scan_shard|htap_write --seed N "
    "--seconds N --trace 0|1 [--out-dir DIR] [--plant-wrong-answer]";

[[noreturn]] void UsageError(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n" << kUsage << "\n";
  std::exit(2);
}

uint64_t ParseUnsigned(const std::string& flag, const std::string& text,
                       uint64_t max) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 19) {
    UsageError(flag + " wants a whole number, got '" + text + "'");
  }
  uint64_t value = std::stoull(text);
  if (value > max) {
    UsageError(flag + " must be at most " + std::to_string(max));
  }
  return value;
}

RunConfig ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> values;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--plant-wrong-answer") {
      config.plant_wrong_answer = true;
      continue;
    }
    std::string flag = arg, value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flag = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      UsageError("missing value for " + arg);
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--out-dir") {
      UsageError("unknown argument '" + arg + "'");
    }
    if (!values.emplace(flag, value).second) {
      UsageError(flag + " given twice");
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (values.count(required) == 0) {
      UsageError(std::string("missing ") + required);
    }
  }
  config.workload = values["--workload"];
  if (config.workload != "olap_join" && config.workload != "scan_shard" &&
      config.workload != "htap_write") {
    UsageError("unknown workload '" + config.workload + "'");
  }
  config.seed = ParseUnsigned("--seed", values["--seed"], UINT64_MAX / 2);
  config.seconds = static_cast<int>(
      ParseUnsigned("--seconds", values["--seconds"], kMaxSeconds));
  if (config.seconds < 1) {
    UsageError("--seconds must be at least 1");
  }
  const std::string& trace = values["--trace"];
  if (trace != "0" && trace != "1") {
    UsageError("--trace must be 0 or 1, got '" + trace + "'");
  }
  config.trace = trace == "1";
  if (values.count("--out-dir") != 0) {
    config.out_dir = values["--out-dir"];
  }
  return config;
}

std::string ProvenanceJson(const RunConfig& config, const RunResult& result) {
  perfeval::repro::Properties properties;
  properties.Set("workload", config.workload);
  properties.Set("seed", std::to_string(config.seed));
  properties.Set("seconds", std::to_string(config.seconds));
  properties.Set("trace", config.trace ? "1" : "0");
  properties.Set("engine", EngineConfigJson());
  properties.Set("sizes", result.sizes_json);
  perfeval::repro::SetupFingerprint fingerprint = perfeval::repro::FingerprintSetup(
      perfeval::core::CaptureEnvironment(), properties);
  return "{\"fingerprint\": " + JsonString(fingerprint.ShortId()) +
         ", \"host\": " + JsonString(fingerprint.environment_summary) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"engine\": " + EngineConfigJson() +
         ", \"sizes\": " + result.sizes_json +
         ", \"workload\": " + JsonString(config.workload) +
         ", \"seed\": " + std::to_string(config.seed) +
         ", \"seconds\": " + std::to_string(config.seconds) +
         ", \"trace\": " + (config.trace ? "1" : "0") + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config = ParseArgs(argc, argv);
  RunResult result = config.workload == "olap_join"    ? RunOlapJoin(config)
                     : config.workload == "scan_shard" ? RunScanShard(config)
                                                       : RunHtapWrite(config);
  std::cout << "# provenance " << ProvenanceJson(config, result) << "\n";
  for (const std::string& note : result.notes) {
    std::cout << "# " << note << "\n";
  }
  for (const std::string& why : result.violations) {
    std::cout << "# VIOLATION: " << why << "\n";
  }
  if (result.failed > 0) {
    std::cout << "# PROGRAM DEFECT: " << result.failed << " of "
              << result.attempted << " operations failed\n";
  }
  for (const auto& [name, metric] : result.metrics) {
    std::printf("# %-28s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::cout << ResultJson(result) << std::endl;
  return result.correct() ? 0 : 1;
}
