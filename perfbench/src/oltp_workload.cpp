// oltp: TPC-C-style Payment and NewOrder transactions over the epoll server
// on loopback, the only workload that exercises server, concurrency and
// persistence. Each terminal owns one warehouse (no write-write conflicts)
// and sends literal-SQL BEGIN ... COMMIT through the simple query protocol,
// so most statement texts are new and parsing and planning run on every
// statement. The WAL runs in sync durability with group commit; JIT is off.

#include <algorithm>
#include <array>
#include <thread>

#include "hyrise.hpp"
#include "persistence/wal.hpp"
#include "server/server.hpp"
#include "sql/sql_pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace std::string_literals;

constexpr auto kMaxTerminals = uint32_t{4};
constexpr auto kDistricts = int32_t{10};
constexpr auto kCustomersPerDistrict = int32_t{30};
/// Initial d_ytd per district, as in benchmarklib/tpcc.
constexpr auto kInitialDistrictYtd = int64_t{3000};
/// Transactions per terminal per second of --seconds: a fixed amount of work
/// per run, so every run leaves the same number of dead versions behind.
constexpr auto kTransactionsPerTerminalPerSecond = uint64_t{400};
constexpr auto kWarmupTransactions = uint64_t{25};
/// throughput_ops is the median rate over this many slices of the run.
constexpr auto kThroughputSlices = size_t{20};
/// In-process samples per transaction type for the traced per-layer split.
constexpr auto kProfileSamples = 10;

const std::vector<std::string> kTables = {"tpcc_warehouse", "tpcc_district", "tpcc_customer", "tpcc_orders"};

struct Transaction {
  bool payment{false};
  int64_t amount{0};
  std::vector<std::string> statements;
};

/// The statement texts of one terminal, owner of warehouse `warehouse`.
class TerminalGenerator {
 public:
  TerminalGenerator(uint64_t seed, int32_t warehouse) : rng_(seed), warehouse_(warehouse) {}

  Transaction Next() {
    auto transaction = Transaction{};
    const auto w = std::to_string(warehouse_);
    const auto d = std::to_string(rng_.Uniform(1, kDistricts));
    const auto c = std::to_string(rng_.Uniform(1, kCustomersPerDistrict));
    transaction.payment = rng_.Next() % 2 == 0;
    if (transaction.payment) {
      transaction.amount = rng_.Uniform(1, 50);
      const auto a = std::to_string(transaction.amount);
      transaction.statements = {
          "BEGIN",
          "UPDATE tpcc_warehouse SET w_ytd = w_ytd + " + a + " WHERE w_id = " + w,
          "UPDATE tpcc_district SET d_ytd = d_ytd + " + a + " WHERE d_w_id = " + w + " AND d_id = " + d,
          "UPDATE tpcc_customer SET c_balance = c_balance - " + a + ", c_payment_cnt = c_payment_cnt + 1 WHERE " +
              "c_w_id = " + w + " AND c_d_id = " + d + " AND c_id = " + c,
          "COMMIT"};
    } else {
      const auto order = std::to_string(warehouse_ * 1'000'000 + next_order_++);
      transaction.statements = {
          "BEGIN",
          "UPDATE tpcc_district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = " + w + " AND d_id = " + d,
          "INSERT INTO tpcc_orders VALUES (" + order + ", " + w + ", " + d + ", " + c + ")", "COMMIT"};
    }
    return transaction;
  }

 private:
  Rng rng_;
  int32_t warehouse_;
  int64_t next_order_{1};
};

/// What one terminal saw. Statement latencies are kept in send order so they
/// line up with the server's statement log of the same connection.
struct Terminal {
  std::unique_ptr<PgClient> client;
  std::unique_ptr<TerminalGenerator> generator;
  uint64_t acknowledged_payments{0};
  uint64_t acknowledged_orders{0};
  int64_t acknowledged_amount{0};
  uint64_t failed{0};
  std::vector<double> payment_ms;
  std::vector<double> new_order_ms;
  std::vector<double> commit_ms;
  std::vector<double> statement_ms;
  /// When each timed transaction's COMMIT was acknowledged.
  std::vector<Clock::time_point> completions;
  size_t warmup_statements{0};
  std::string first_error;
};

/// Runs `count` transactions closed loop: each statement waits for its reply.
void RunTerminal(Terminal& terminal, uint64_t count, bool timed) {
  for (auto index = uint64_t{0}; index < count; ++index) {
    const auto transaction = terminal.generator->Next();
    const auto start = Clock::now();
    auto ok = true;
    for (const auto& sql : transaction.statements) {
      const auto statement_start = Clock::now();
      const auto response = terminal.client->Query(sql);
      const auto statement_ms = MillisSince(statement_start);
      terminal.statement_ms.push_back(statement_ms);
      if (!response.ok || response.error) {
        if (terminal.first_error.empty()) {
          terminal.first_error = sql + ": " + (response.ok ? response.error_message : "connection lost");
        }
        ok = false;
        break;
      }
      if (timed && sql == "COMMIT") {
        terminal.commit_ms.push_back(statement_ms);
      }
    }
    const auto latency_ms = MillisSince(start);
    if (!ok) {
      terminal.client->Query("ROLLBACK");
      terminal.statement_ms.push_back(0);
      ++terminal.failed;
      continue;
    }
    if (transaction.payment) {
      ++terminal.acknowledged_payments;
      terminal.acknowledged_amount += transaction.amount;
    } else {
      ++terminal.acknowledged_orders;
    }
    if (timed) {
      (transaction.payment ? terminal.payment_ms : terminal.new_order_ms).push_back(latency_ms);
      terminal.completions.push_back(Clock::now());
    }
  }
}

/// CREATE TABLE and INSERT ... VALUES for the four tables, one warehouse per
/// terminal. Initial year-to-date balances make SUM(w_ytd) = SUM(d_ytd).
bool LoadTables(PgClient& client, int32_t warehouses) {
  auto statements = std::vector<std::string>{
      "CREATE TABLE tpcc_warehouse (w_id INT NOT NULL, w_ytd BIGINT NOT NULL)",
      "CREATE TABLE tpcc_district (d_w_id INT NOT NULL, d_id INT NOT NULL, d_ytd BIGINT NOT NULL, "
      "d_next_o_id INT NOT NULL)",
      "CREATE TABLE tpcc_customer (c_w_id INT NOT NULL, c_d_id INT NOT NULL, c_id INT NOT NULL, "
      "c_balance BIGINT NOT NULL, c_payment_cnt INT NOT NULL)",
      "CREATE TABLE tpcc_orders (o_id INT NOT NULL, o_w_id INT NOT NULL, o_d_id INT NOT NULL, o_c_id INT NOT NULL)"};
  for (auto w = 1; w <= warehouses; ++w) {
    const auto ws = std::to_string(w);
    statements.push_back("INSERT INTO tpcc_warehouse VALUES (" + ws + ", " +
                         std::to_string(kInitialDistrictYtd * kDistricts) + ")");
    for (auto d = 1; d <= kDistricts; ++d) {
      const auto ds = std::to_string(d);
      statements.push_back("INSERT INTO tpcc_district VALUES (" + ws + ", " + ds + ", " +
                           std::to_string(kInitialDistrictYtd) + ", 1)");
      auto customers = "INSERT INTO tpcc_customer VALUES "s;
      for (auto c = 1; c <= kCustomersPerDistrict; ++c) {
        customers += (c > 1 ? ", (" : "(") + ws + ", " + ds + ", " + std::to_string(c) + ", 0, 0)";
      }
      statements.push_back(customers);
    }
  }
  for (const auto& sql : statements) {
    const auto response = client.Query(sql);
    if (!response.ok || response.error) {
      std::fprintf(stderr, "perfbench: %s: %s\n", sql.c_str(), response.error_message.c_str());
      return false;
    }
  }
  return true;
}

/// The audit: both year-to-date totals moved by exactly the acknowledged
/// payment amounts, one order row per acknowledged NewOrder, one payment
/// count per acknowledged Payment.
void CheckInvariants(PgClient& client, const std::string& when, int64_t expected_ytd, uint64_t orders,
                     uint64_t payments, RunResult& result) {
  const auto scalar = [&](const std::string& sql) {
    const auto response = client.Query(sql);
    return response.rows.empty() || response.error ? -1.0 : std::strtod(response.rows[0][0].c_str(), nullptr);
  };
  const auto warehouse_ytd = scalar("SELECT SUM(w_ytd) FROM tpcc_warehouse");
  const auto district_ytd = scalar("SELECT SUM(d_ytd) FROM tpcc_district");
  const auto order_count = scalar("SELECT COUNT(*) FROM tpcc_orders");
  const auto payment_count = scalar("SELECT SUM(c_payment_cnt) FROM tpcc_customer");
  result.Check(warehouse_ytd == static_cast<double>(expected_ytd),
               when + ": SUM(w_ytd) = " + std::to_string(warehouse_ytd) + ", expected " +
                   std::to_string(expected_ytd));
  result.Check(district_ytd == static_cast<double>(expected_ytd),
               when + ": SUM(d_ytd) = " + std::to_string(district_ytd) + ", expected " +
                   std::to_string(expected_ytd));
  result.Check(order_count == static_cast<double>(orders),
               when + ": COUNT(*) tpcc_orders = " + std::to_string(order_count) + ", expected " +
                   std::to_string(orders));
  result.Check(payment_count == static_cast<double>(payments),
               when + ": SUM(c_payment_cnt) = " + std::to_string(payment_count) + ", expected " +
                   std::to_string(payments));
}

/// Parse/plan stage medians and the per-operator split of both transaction
/// types, from in-process executions of freshly generated texts inside
/// transactions that are rolled back (they change nothing).
void ProfileInProcess(uint64_t seed, RunResult& result) {
  auto generator = TerminalGenerator{seed, 1};
  auto stages = StageTimes{};
  auto profile = OperatorProfile{};
  auto samples = std::array<int, 2>{0, 0};
  while (samples[0] < kProfileSamples || samples[1] < kProfileSamples) {
    const auto transaction = generator.Next();
    if (samples[transaction.payment ? 1 : 0]++ >= kProfileSamples) {
      continue;
    }
    auto context = std::shared_ptr<hyrise::TransactionContext>{};
    for (const auto& sql : transaction.statements) {
      auto pipeline = hyrise::SqlPipeline::Builder{sql == "COMMIT" ? "ROLLBACK" : sql}
                          .WithTransactionContext(context)
                          .Build();
      pipeline.Execute();
      context = pipeline.transaction_context();
      if (sql == "BEGIN" || sql == "COMMIT") {
        continue;
      }
      stages.Add(pipeline.metrics());
      profile.Add(pipeline.pqp());
    }
  }
  stages.Report(result);
  // Payment and NewOrder are equally likely: the sampled pairs stand for
  // 2 * kProfileSamples transactions.
  profile.Report(result, 2.0 * kProfileSamples);
}

}  // namespace

RunResult RunOltp(const Options& options) {
  auto result = RunResult{};
  auto& metrics = result.metrics;
  const auto terminals_count = std::min(kMaxTerminals, WorkerCount());
  const auto wal_directory = options.run_directory + "/wal";
  const auto log_path = options.out_directory + "/trace_oltp.log";
  auto capture = options.trace ? std::make_unique<StderrCapture>(log_path) : nullptr;

  // --- Set-up: server, tables created and loaded over the wire, warm-up. ------------
  // The tables are created through SQL after the WAL is enabled, so the
  // run's WAL directory alone rebuilds the database. The Server's own
  // defaults apply: no plan cache, no result cache.
  auto config = hyrise::ServerConfig{};
  config.wal_directory = wal_directory;
  config.durability = hyrise::persistence::DurabilityMode::kSync;
  config.jit = false;
  config.executor_workers = WorkerCount();
  config.log_statements = options.trace;
  auto server = std::make_unique<hyrise::Server>(config);
  if (!server->Start().ok()) {
    Fatal("server failed to start");
  }

  // Terminals connect one after another, so connection ids follow terminal order.
  auto terminals = std::vector<Terminal>(terminals_count);
  for (auto index = size_t{0}; index < terminals.size(); ++index) {
    terminals[index].client = std::make_unique<PgClient>(server->port());
    terminals[index].generator =
        std::make_unique<TerminalGenerator>(options.seed * 1000 + index, static_cast<int32_t>(index + 1));
    if (!terminals[index].client->connected()) {
      Fatal("terminal failed to connect");
    }
  }
  auto monitor = PgClient{server->port()};
  const auto generate_start = Clock::now();
  if (!monitor.connected() || !LoadTables(monitor, static_cast<int32_t>(terminals_count))) {
    Fatal("creating the TPC-C tables failed");
  }
  metrics["setup.generate_s"] = SecondsSince(generate_start);

  const auto run_all = [&](uint64_t count, bool timed) {
    auto threads = std::vector<std::thread>{};
    for (auto& terminal : terminals) {
      threads.emplace_back([&terminal, count, timed] { RunTerminal(terminal, count, timed); });
    }
    for (auto& thread : threads) {
      thread.join();
    }
  };
  const auto warmup_start = Clock::now();
  run_all(kWarmupTransactions, false);
  metrics["setup.warmup_s"] = SecondsSince(warmup_start);
  auto warmup_failed = uint64_t{0};
  for (auto& terminal : terminals) {
    terminal.warmup_statements = terminal.statement_ms.size();
    warmup_failed += terminal.failed;
  }
  if (warmup_failed != 0) {
    Fatal("warm-up transactions failed");
  }
  const auto stats_before = ServerStatsOverWire(monitor);
  const auto wal_before = hyrise::Hyrise::Get().wal_manager->metrics();
  metrics["setup_s"] = SecondsSince(g_process_start);

  // --- Timed phase: a fixed number of transactions per terminal. ---------------------
  const auto per_terminal = kTransactionsPerTerminalPerSecond * options.seconds;
  const auto cpu_start = ProcessCpuSeconds();
  const auto phase_start = Clock::now();
  run_all(per_terminal, true);
  const auto phase_s = SecondsSince(phase_start);
  const auto cpu_s = ProcessCpuSeconds() - cpu_start;
  const auto stats_after = ServerStatsOverWire(monitor);
  const auto wal_after = hyrise::Hyrise::Get().wal_manager->metrics();

  auto payments = uint64_t{0}, orders = uint64_t{0};
  auto amount = int64_t{0};
  auto payment_ms = std::vector<double>{}, new_order_ms = std::vector<double>{}, commit_ms = std::vector<double>{};
  auto completions_s = std::vector<double>{};
  for (const auto& terminal : terminals) {
    payments += terminal.acknowledged_payments;
    orders += terminal.acknowledged_orders;
    amount += terminal.acknowledged_amount;
    result.failed += terminal.failed;
    payment_ms.insert(payment_ms.end(), terminal.payment_ms.begin(), terminal.payment_ms.end());
    new_order_ms.insert(new_order_ms.end(), terminal.new_order_ms.begin(), terminal.new_order_ms.end());
    commit_ms.insert(commit_ms.end(), terminal.commit_ms.begin(), terminal.commit_ms.end());
    for (const auto completion : terminal.completions) {
      completions_s.push_back(std::chrono::duration<double>(completion - phase_start).count());
    }
    if (!terminal.first_error.empty()) {
      std::fprintf(stderr, "perfbench: transaction failed: %s\n", terminal.first_error.c_str());
    }
  }
  result.attempted = per_terminal * terminals.size();
  auto all_ms = payment_ms;
  all_ms.insert(all_ms.end(), new_order_ms.begin(), new_order_ms.end());
  const auto timed_commits = static_cast<double>(all_ms.size());
  const auto delta = [&](const std::string& name) { return stats_after.at(name) - stats_before.at(name); };

  metrics["throughput_ops"] = SlicedRate(completions_s, kThroughputSlices);
  metrics["trace.throughput_ops"] = metrics["throughput_ops"];
  metrics["latency_p50_ms"] = Median(all_ms);
  metrics["latency_p90_ms"] = Percentile(all_ms, 0.90);
  metrics["query_geomean_ms"] = GeometricMean({Median(payment_ms), Median(new_order_ms)});
  metrics["data_bytes"] = DataBytes();
  metrics["peak_rss_mb"] = PeakRssMb();
  metrics["scheduler.cpu_per_wall"] = cpu_s / phase_s;
  metrics["concurrency.commit_ms"] = Median(commit_ms);
  metrics["concurrency.conflict_retries"] = delta("conflict_retries");
  metrics["persistence.wal_wait_ms"] = delta("wal_wait_ns") / 1e6 / std::max(1.0, timed_commits);
  metrics["persistence.wal_bytes_per_txn"] =
      static_cast<double>(wal_after.bytes_appended - wal_before.bytes_appended) / std::max(1.0, timed_commits);
  metrics["server.bytes_sent_per_stmt"] = delta("bytes_sent") / std::max(1.0, delta("statements_completed"));
  metrics["storage.dead_rows"] = DeadRows(kTables);

  const auto expected_ytd =
      static_cast<int64_t>(terminals_count) * kDistricts * kInitialDistrictYtd + amount +
      (options.perturb == "oltp.ytd" ? 1 : 0);
  const auto expected_orders = orders + (options.perturb == "oltp.orders" ? 1 : 0);
  const auto expected_payments = payments + (options.perturb == "oltp.payments" ? 1 : 0);
  CheckInvariants(monitor, "end of run", expected_ytd, expected_orders, expected_payments, result);
  if (options.trace) {
    ProfileInProcess(options.seed, result);
  }

  server->Stop();
  server.reset();
  capture.reset();

  if (options.trace) {
    // Statement log: connection k is terminal k; skip each one's warm-up.
    const auto log = ReadStatementLog(log_path);
    auto overhead_ms = std::vector<double>{};
    auto lookups = 0.0, hits = 0.0;
    for (auto index = size_t{0}; index < std::min(log.size(), terminals.size()); ++index) {
      const auto& terminal = terminals[index];
      const auto& entries = log[index];
      for (auto statement = terminal.warmup_statements;
           statement < std::min(entries.size(), terminal.statement_ms.size()); ++statement) {
        const auto& entry = entries[statement];
        overhead_ms.push_back(terminal.statement_ms[statement] - entry.execute_ms - entry.wal_wait_ms);
        lookups += 1;
        hits += entry.pqp_cache_hit ? 1 : 0;
      }
    }
    metrics["cache.plan_hit_ratio"] = lookups > 0 ? hits / lookups : 0;
    metrics["server.overhead_ms"] = Median(overhead_ms);
  }
  terminals.clear();

  // --- recovery_s: rebuild the database from the run's WAL alone. -------------------
  auto recovered = std::unique_ptr<hyrise::Server>{};
  const auto recovery_s = RestartFromDisk("", wal_directory, recovered);
  result.Check(recovery_s > 0, "restart with WAL replay failed");
  metrics["persistence.recovery_s"] = recovery_s;
  if (recovered) {
    auto client = PgClient{recovered->port()};
    CheckInvariants(client, "after recovery", expected_ytd + (options.perturb == "oltp.recovery" ? 1 : 0),
                    expected_orders, expected_payments, result);
    recovered->Stop();
  }
  return result;
}

}  // namespace perfbench
