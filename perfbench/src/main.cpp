// perfbench: the engine's benchmark binary (paper §2.10: one binary that
// generates its data, runs the workload, checks the outputs and reports what
// it measured).
//
//   perfbench --workload tpch|oltp|dashboard --seed N --seconds S --trace 0|1
//             [--out DIR] [--perturb CHECK]
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// metrics. --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a run with the statement log and per-operator
// accounting on. The metric tables below match BENCHMARK.json.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using MetricSpec = std::pair<std::string, std::string>;  // name, unit

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const auto specs = std::vector<MetricSpec>{
      {"setup_s", "s"},        {"throughput_ops", "ops/s"}, {"query_geomean_ms", "ms"}, {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"}, {"data_bytes", "bytes"},    {"peak_rss_mb", "MB"},
  };
  return specs;
}

std::vector<MetricSpec> PerLayerMetrics() {
  auto specs = std::vector<MetricSpec>{
      {"setup.generate_s", "s"},
      {"setup.warmup_s", "s"},
      {"jit.compile_ms", "ms"},
      {"sql.parse_ms", "ms"},
      {"sql.translate_ms", "ms"},
      {"optimizer.optimize_ms", "ms"},
      {"lqp.translate_ms", "ms"},
      {"cache.plan_hit_ratio", "ratio"},
      {"cache.result_hit_ratio", "ratio"},
      {"cache.result_saved_ms", "ms"},
      {"cache.result_bytes", "bytes"},
      {"jit.hit_ratio", "ratio"},
      {"scheduler.cpu_per_wall", "s/s"},
      {"concurrency.commit_ms", "ms"},
      {"concurrency.conflict_retries", "count"},
      {"persistence.wal_wait_ms", "ms"},
      {"persistence.wal_bytes_per_txn", "bytes"},
      {"persistence.recovery_s", "s"},
      {"storage.dead_rows", "count"},
      {"server.overhead_ms", "ms"},
      {"server.bytes_sent_per_stmt", "bytes"},
      {"trace.throughput_ops", "ops/s"},
  };
  for (auto query = 1; query <= 22; ++query) {
    specs.push_back({std::string{query < 10 ? "query.q0" : "query.q"} + std::to_string(query) + "_ms", "ms"});
  }
  for (const auto& type : ReportedOperatorTypes()) {
    specs.push_back({"operators." + type + ".self_ms", "ms"});
    specs.push_back({"operators." + type + ".rows_out", "count"});
  }
  return specs;
}

int Usage(const char* message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload tpch|oltp|dashboard --seed N --seconds S --trace 0|1 "
               "[--out DIR] [--perturb CHECK]\n";
  return 2;
}

std::string JsonString(const std::string& text) {
  auto quoted = std::string{"\""};
  for (const auto character : text) {
    if (character == '"' || character == '\\') {
      quoted += '\\';
    }
    quoted += (static_cast<unsigned char>(character) < 0x20) ? ' ' : character;
  }
  return quoted + "\"";
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

}  // namespace

int Main(int argc, char** argv) {
  auto options = Options{};
  options.out_directory = ".bench_out";
  for (auto index = 1; index < argc; ++index) {
    const auto flag = std::string{argv[index]};
    if (index + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const auto value = std::string{argv[++index]};
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<uint32_t>(std::strtoul(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--out") {
      options.out_directory = value;
    } else if (flag == "--perturb") {
      options.perturb = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end && *end != '\0') {
      return Usage(("not a number: " + value).c_str());
    }
  }
  if (options.seconds == 0 || options.seconds > 600) {
    return Usage("--seconds must be in [1, 600]");
  }

  options.run_directory = options.out_directory + "/" + options.workload + "-" + std::to_string(getpid());
  auto error = std::error_code{};
  std::filesystem::create_directories(options.run_directory, error);
  if (error) {
    std::cerr << "perfbench: cannot create " << options.run_directory << ": " << error.message() << "\n";
    return 1;
  }

  auto result = RunResult{};
  if (options.workload == "tpch") {
    result = RunTpch(options);
  } else if (options.workload == "oltp") {
    result = RunOltp(options);
  } else if (options.workload == "dashboard") {
    result = RunDashboard(options);
  } else {
    std::filesystem::remove_all(options.run_directory, error);
    return Usage("unknown workload");
  }
  std::filesystem::remove_all(options.run_directory, error);
  if (result.attempted == 0) {
    Fatal("no operation was attempted");
  }

  for (const auto& failure : result.check_failures) {
    std::cerr << "perfbench: CHECK FAILED: " << failure << "\n";
  }
  auto json = std::string{"{\"correct\": "} + (result.check_failures.empty() ? "true" : "false") +
              ", \"attempted\": " + std::to_string(result.attempted) + ", \"failed\": " +
              std::to_string(result.failed) + ", \"metrics\": {";
  auto first = true;
  for (const auto& [name, unit] : options.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto iter = result.metrics.find(name);
    json += std::string{first ? "" : ", "} + JsonString(name) + ": {\"value\": " +
            JsonNumber(iter == result.metrics.end() ? 0.0 : iter->second) + ", \"unit\": " + JsonString(unit) + "}";
    first = false;
  }
  std::cout << json << "}}" << std::endl;
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::g_process_start = perfbench::Clock::now();
  return perfbench::Main(argc, argv);
}
