#ifndef PERFBENCH_SRC_COMMON_HPP_
#define PERFBENCH_SRC_COMMON_HPP_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "types/all_type_variant.hpp"

namespace hyrise {
class AbstractOperator;
class Server;
class Table;
struct SqlPipelineMetrics;
}  // namespace hyrise

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed{1};
  uint32_t seconds{10};
  bool trace{false};
  /// Name of one correctness check whose expected value is perturbed; the run
  /// must then report correct=false (the benchmark's own check tests).
  std::string perturb;
  /// Directory private to this run (WAL, snapshots, JIT scratch), removed at
  /// exit; the statement log of a traced run is kept beside it.
  std::string run_directory;
  std::string out_directory;
};

/// What one run reports: the last line of stdout is built from it.
struct RunResult {
  uint64_t attempted{0};
  uint64_t failed{0};
  /// Every failed correctness check, with what was expected and seen.
  std::vector<std::string> check_failures;
  /// name -> value; units come from the metric tables in main.cpp.
  std::map<std::string, double> metrics;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
    }
  }
};

/// Set once at the top of main(); setup_s is measured from here.
extern Clock::time_point g_process_start;

double SecondsSince(Clock::time_point start);
double MillisSince(Clock::time_point start);

/// Workers for schedulers and executor pools: one per hardware thread.
uint32_t WorkerCount();

/// Ends the process with exit code 1 and no result line: the set-up failed.
[[noreturn]] void Fatal(const std::string& message);

// --- Statistics ---------------------------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank percentile, `fraction` in (0, 1].
double Percentile(std::vector<double> values, double fraction);
double GeometricMean(const std::vector<double>& values);
/// throughput_ops: the run's completions (seconds since the timed phase
/// began) cut into `slices` runs of equally many consecutive completions; the
/// median over the slices of completions per second. A median, like every
/// other timing, so that a burst of load from outside the process in one part
/// of the run does not move it.
double SlicedRate(std::vector<double> completions_s, size_t slices);

// --- Process and storage ------------------------------------------------------------

double ProcessCpuSeconds();
double PeakRssMb();
/// Sum of Chunk::MemoryUsage() over every chunk of every registered table.
double DataBytes();
/// Physical rows minus rows visible to a fresh snapshot, over `tables`.
double DeadRows(const std::vector<std::string>& tables);

/// Deterministic 64-bit generator (SplitMix64): the same seed gives the same
/// inputs on every machine and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [low, high].
  int64_t Uniform(int64_t low, int64_t high);

  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (auto index = values.size(); index > 1; --index) {
      std::swap(values[index - 1], values[static_cast<size_t>(Next() % index)]);
    }
  }

 private:
  uint64_t state_;
};

// --- Results ------------------------------------------------------------------------

using Row = std::vector<hyrise::AllTypeVariant>;

/// Rows of a result table (empty for a null table).
std::vector<Row> TableRows(const std::shared_ptr<const hyrise::Table>& table);

/// Multiset equality with a relative float tolerance; on mismatch `why`
/// names the first difference.
bool SameMultiset(std::vector<Row> left, std::vector<Row> right, std::string& why);

bool NearlyEqual(double left, double right);
double AsDouble(const hyrise::AllTypeVariant& value);
/// A float as the wire sends it (fixed four decimals) against its expected value.
bool WireEqual(double expected, double seen);

// --- Per-operator accounting (traced runs) ------------------------------------------

/// Self time and output rows per operator type, summed over executed plans.
/// An operator's walltime is already its self time: its inputs finish before
/// its own timer starts.
struct OperatorProfile {
  struct Entry {
    double self_ns{0};
    double rows_out{0};
  };
  std::map<std::string, Entry> by_type;

  /// Adds every executed operator of the plan rooted at `root` (each shared
  /// subplan once), scaled by `weight`.
  void Add(const std::shared_ptr<hyrise::AbstractOperator>& root, double weight = 1.0);
  /// operators.<Type>.self_ms / .rows_out per operation.
  void Report(RunResult& result, double operations) const;
};

/// Per-statement medians of the SqlPipeline stages: sql.parse_ms,
/// sql.translate_ms, optimizer.optimize_ms and lqp.translate_ms.
class StageTimes {
 public:
  void Add(const hyrise::SqlPipelineMetrics& metrics);
  void Report(RunResult& result) const;

 private:
  std::map<std::string, std::vector<double>> milliseconds_;
};

/// The operator types reported as per-layer metrics.
const std::vector<std::string>& ReportedOperatorTypes();

// --- Wire client --------------------------------------------------------------------

/// A minimal PostgreSQL v3 simple-query client over loopback TCP: the
/// benchmark's terminals talk to the Server exactly as psql would.
class PgClient {
 public:
  struct Response {
    bool ok{false};     // Reached ReadyForQuery.
    bool error{false};  // Carried an ErrorResponse.
    std::string error_message;
    std::vector<std::vector<std::string>> rows;
  };

  explicit PgClient(uint16_t port);
  ~PgClient();
  PgClient(const PgClient&) = delete;
  PgClient& operator=(const PgClient&) = delete;

  bool connected() const {
    return fd_ >= 0;
  }

  Response Query(const std::string& sql);

 private:
  bool Send(const std::string& bytes);
  bool ReadExactly(char* buffer, size_t size);
  Response ReadUntilReady();

  int fd_{-1};
};

/// One row of a `SHOW SERVER STATS` result, by counter name.
std::map<std::string, double> ServerStatsOverWire(PgClient& client);

/// recovery_s: drops every in-memory table (Hyrise::Reset), then times a
/// fresh Server::Start that restores `restore_directory` and replays
/// `wal_directory` (empty: no WAL); the median of several such restarts. The
/// last restarted server is left running in `server` for the caller's
/// checks; returns -1 if a restart failed.
double RestartFromDisk(const std::string& restore_directory, const std::string& wal_directory,
                       std::unique_ptr<hyrise::Server>& server);

// --- Statement log ------------------------------------------------------------------

/// Routes this process's stderr into a file while alive, so the server's
/// `log_statements` lines can be read back after a traced phase.
class StderrCapture {
 public:
  explicit StderrCapture(const std::string& path);
  ~StderrCapture();
  StderrCapture(const StderrCapture&) = delete;
  StderrCapture& operator=(const StderrCapture&) = delete;

 private:
  int saved_fd_{-1};
};

/// One `[statement]` line of the server's statement log.
struct LoggedStatement {
  uint64_t connection{0};
  double execute_ms{0};
  bool pqp_cache_hit{false};
  bool jit_hit{false};
  double jit_compile_ms{0};
  double wal_wait_ms{0};
};

/// Statement-log entries per connection, in execution order; connections in
/// ascending id, which is the order in which they were accepted.
std::vector<std::vector<LoggedStatement>> ReadStatementLog(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_HPP_
