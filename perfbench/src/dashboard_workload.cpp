// dashboard: a repetitive analytic dashboard over TPC-H lineitem/orders,
// sent over the wire by one terminal, with single-row INSERTs into lineitem
// interleaved at a fixed ratio. The result cache, plan cache and JIT are on,
// the WAL is off: the one workload where reuse and compiled kernels carry the
// load. Every read is checked against a value the terminal keeps itself (a
// base computed once on the uncached, JIT-off path plus the rows it
// inserted), so a stale cache entry or a wrong compiled kernel shows.

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>

#include "benchmarklib/tpch/tpch_queries.hpp"
#include "benchmarklib/tpch/tpch_table_generator.hpp"
#include "cache/result_cache.hpp"
#include "hyrise.hpp"
#include "jit/jit_engine.hpp"
#include "server/server.hpp"
#include "sql/sql_pipeline.hpp"
#include "storage/table.hpp"
#include "utils/gdfs_cache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr auto kScaleFactor = 0.05;
/// Rounds per second of --seconds; a round is one INSERT, then every read
/// text twice in a seeded order.
constexpr auto kRoundsPerSecond = 10.0;
constexpr auto kReadsPerTextPerRound = size_t{2};
constexpr auto kResultCacheBudget = size_t{64} << 20;
constexpr auto kJitHeatThreshold = uint32_t{3};
constexpr auto kProfileRepetitions = 5;

/// One lineitem row the terminal inserts.
struct LineItem {
  int32_t orderkey{0};
  int32_t linenumber{0};
  double quantity{0};
  double extendedprice{0};
  double discount{0};
  double tax{0};
  std::string returnflag;
  std::string linestatus;
  std::string shipdate;
  /// o_orderpriority of the order it belongs to.
  std::string orderpriority;
};

/// Expected answer of a read: aggregate values per group key (the group
/// columns joined by '|'; "" for an ungrouped aggregate).
using Answer = std::map<std::string, std::vector<double>>;

struct ReadText {
  std::string name;
  std::string sql;
  size_t group_columns{0};
  /// Whether the JIT can compile it (numeric-only scan -> filter -> aggregate).
  bool jit_eligible{false};
  /// The group and aggregate deltas an inserted row adds, if it qualifies.
  std::function<std::optional<std::pair<std::string, std::vector<double>>>(const LineItem&)> contribution;
};

const std::vector<ReadText>& ReadTexts() {
  using Delta = std::optional<std::pair<std::string, std::vector<double>>>;
  static const auto texts = std::vector<ReadText>{
      {"q6_numeric",
       "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
       "WHERE l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
       0, true,
       [](const LineItem& row) -> Delta {
         if (row.discount >= 0.05 && row.discount <= 0.07 && row.quantity < 24) {
           return std::pair{std::string{}, std::vector<double>{row.extendedprice * row.discount}};
         }
         return std::nullopt;
       }},
      {"charge_numeric",
       "SELECT COUNT(*) AS n, SUM(l_quantity) AS qty, SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS charge "
       "FROM lineitem WHERE l_quantity >= 10 AND l_tax <= 0.04",
       0, true,
       [](const LineItem& row) -> Delta {
         if (row.quantity >= 10 && row.tax <= 0.04) {
           return std::pair{std::string{}, std::vector<double>{1, row.quantity, row.extendedprice *
                                                                                    (1 - row.discount) *
                                                                                    (1 + row.tax)}};
         }
         return std::nullopt;
       }},
      {"q6", hyrise::TpchQuery(6), 0, false,
       [](const LineItem& row) -> Delta {
         if (row.shipdate >= "1994-01-01" && row.shipdate < "1995-01-01" && row.discount >= 0.05 &&
             row.discount <= 0.07 && row.quantity < 24) {
           return std::pair{std::string{}, std::vector<double>{row.extendedprice * row.discount}};
         }
         return std::nullopt;
       }},
      {"flags_group_by",
       "SELECT l_returnflag, l_linestatus, COUNT(*) AS n, SUM(l_quantity) AS qty, SUM(l_extendedprice) AS price "
       "FROM lineitem GROUP BY l_returnflag, l_linestatus",
       2, false,
       [](const LineItem& row) -> Delta {
         return std::pair{row.returnflag + "|" + row.linestatus,
                          std::vector<double>{1, row.quantity, row.extendedprice}};
       }},
      {"priority_join",
       "SELECT o_orderpriority, COUNT(*) AS n, SUM(l_extendedprice) AS price FROM lineitem, orders "
       "WHERE l_orderkey = o_orderkey AND l_quantity > 30 GROUP BY o_orderpriority",
       1, false,
       [](const LineItem& row) -> Delta {
         if (row.quantity > 30) {
           return std::pair{row.orderpriority, std::vector<double>{1, row.extendedprice}};
         }
         return std::nullopt;
       }},
      {"orders_group_by",
       "SELECT o_orderstatus, COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders GROUP BY o_orderstatus", 1,
       false, [](const LineItem&) -> Delta { return std::nullopt; }},
  };
  return texts;
}

/// Converts result rows (group columns first) into an Answer.
template <typename RowType, typename Text, typename Number>
Answer ToAnswer(const std::vector<RowType>& rows, size_t group_columns, Text&& text, Number&& number) {
  auto answer = Answer{};
  for (const auto& row : rows) {
    auto key = std::string{};
    for (auto column = size_t{0}; column < group_columns; ++column) {
      key += (column > 0 ? "|" : "") + text(row[column]);
    }
    auto& values = answer[key];
    for (auto column = group_columns; column < row.size(); ++column) {
      values.push_back(number(row[column]));
    }
  }
  return answer;
}

bool SameAnswer(const Answer& expected, const Answer& seen) {
  if (expected.size() != seen.size()) {
    return false;
  }
  for (const auto& [key, values] : expected) {
    const auto iter = seen.find(key);
    if (iter == seen.end() || iter->second.size() != values.size()) {
      return false;
    }
    for (auto index = size_t{0}; index < values.size(); ++index) {
      if (!WireEqual(values[index], iter->second[index])) {
        return false;
      }
    }
  }
  return true;
}

std::string AnswerToString(const Answer& answer) {
  auto text = std::string{};
  for (const auto& [key, values] : answer) {
    text += "[" + key;
    for (const auto value : values) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), " %.4f", value);
      text += buffer;
    }
    text += "]";
  }
  return text;
}

/// The INSERT statement for `row`, with every literal printed so that the
/// engine parses back exactly the double the terminal holds.
std::string InsertSql(const LineItem& row) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "INSERT INTO lineitem VALUES (%d, 1, 1, %d, %.2f, %.2f, %.2f, %.2f, '%s', '%s', '%s', '%s', '%s', "
                "'NONE', 'AIR', 'dashboard')",
                row.orderkey, row.linenumber, row.quantity, row.extendedprice, row.discount, row.tax,
                row.returnflag.c_str(), row.linestatus.c_str(), row.shipdate.c_str(), row.shipdate.c_str(),
                row.shipdate.c_str());
  return buffer;
}

/// Per-statement record of the terminal, in send order.
struct Sent {
  int text{-1};  // Index into ReadTexts(); -1 for an INSERT.
  double latency_ms{0};
  bool warmup{false};
};

}  // namespace

RunResult RunDashboard(const Options& options) {
  auto result = RunResult{};
  auto& metrics = result.metrics;
  const auto& texts = ReadTexts();
  const auto log_path = options.out_directory + "/trace_dashboard.log";
  auto capture = options.trace ? std::make_unique<StderrCapture>(log_path) : nullptr;

  // --- Set-up: data, base answers on the uncached JIT-off path, server, warm-up. -----
  const auto generate_start = Clock::now();
  auto data_config = hyrise::TpchConfig{};
  data_config.scale_factor = kScaleFactor;
  data_config.encoding = hyrise::SegmentEncodingSpec{hyrise::EncodingType::kDictionary};
  data_config.use_mvcc = hyrise::UseMvcc::kYes;
  hyrise::GenerateTpchTables(data_config);
  metrics["setup.generate_s"] = SecondsSince(generate_start);

  const auto in_process = [](const std::string& sql) {
    auto pipeline = hyrise::SqlPipeline::Builder{sql}.WithPqpCache(nullptr).WithResultCache(nullptr).Build();
    const auto status = pipeline.Execute();
    return status == hyrise::SqlPipelineStatus::kSuccess ? TableRows(pipeline.result_table()) : std::vector<Row>{};
  };
  auto expected = std::vector<Answer>{};
  for (const auto& text : texts) {
    expected.push_back(ToAnswer(
        in_process(text.sql), text.group_columns, [](const auto& value) { return hyrise::VariantToString(value); },
        [](const auto& value) { return AsDouble(value); }));
  }
  auto priorities = std::vector<std::pair<int32_t, std::string>>{};
  for (const auto& row : in_process("SELECT o_orderkey, o_orderpriority FROM orders WHERE o_orderkey <= 400")) {
    priorities.emplace_back(static_cast<int32_t>(AsDouble(row[0])), std::get<std::string>(row[1]));
  }

  hyrise::Hyrise::Get().default_pqp_cache = std::make_shared<hyrise::PqpCache>(1024);
  auto cache_config = hyrise::ResultCacheConfig{};
  cache_config.byte_budget = kResultCacheBudget;
  hyrise::Hyrise::Get().default_result_cache = std::make_shared<hyrise::ResultCache>(cache_config);
  auto config = hyrise::ServerConfig{};
  config.jit = true;
  config.jit_heat_threshold = kJitHeatThreshold;
  config.jit_scratch_directory = options.run_directory + "/jit";
  config.executor_workers = WorkerCount();
  config.log_statements = options.trace;
  auto server = std::make_unique<hyrise::Server>(config);
  if (!server->Start().ok()) {
    Fatal("server failed to start");
  }
  auto terminal = PgClient{server->port()};
  auto monitor = PgClient{server->port()};
  if (!terminal.connected() || !monitor.connected()) {
    Fatal("terminal failed to connect");
  }

  auto sent = std::vector<Sent>{};
  auto inserted = uint64_t{0};
  const auto perturbed = options.perturb == "dashboard.reads";
  const auto read = [&](int index, bool warmup) {
    const auto& text = texts[static_cast<size_t>(index)];
    const auto start = Clock::now();
    const auto response = terminal.Query(text.sql);
    sent.push_back({index, MillisSince(start), warmup});
    if (!response.ok || response.error) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", text.name.c_str(), response.error_message.c_str());
      if (warmup) {
        Fatal("warm-up failed");
      }
      return false;
    }
    const auto seen = ToAnswer(
        response.rows, text.group_columns, [](const std::string& value) { return value; },
        [](const std::string& value) { return std::strtod(value.c_str(), nullptr); });
    auto want = expected[static_cast<size_t>(index)];
    if (perturbed && !want.empty()) {
      want.begin()->second.back() += 1;
    }
    result.Check(SameAnswer(want, seen), text.name + " after " + std::to_string(inserted) + " inserts: expected " +
                                             AnswerToString(want) + ", got " + AnswerToString(seen));
    return true;
  };
  auto rng = Rng{options.seed};
  auto next_linenumber = int32_t{100};
  const auto insert = [&](bool warmup) {
    auto row = LineItem{};
    const auto& [orderkey, priority] = priorities[static_cast<size_t>(rng.Uniform(0, priorities.size() - 1))];
    row.orderkey = orderkey;
    row.orderpriority = priority;
    row.linenumber = next_linenumber++;
    row.quantity = static_cast<double>(rng.Uniform(1, 50));
    row.extendedprice = static_cast<double>(rng.Uniform(90'000, 10'000'000)) / 100.0;
    row.discount = static_cast<double>(rng.Uniform(0, 10)) / 100.0;
    row.tax = static_cast<double>(rng.Uniform(0, 8)) / 100.0;
    row.returnflag = std::string(1, "ANR"[rng.Uniform(0, 2)]);
    row.linestatus = std::string(1, "FO"[rng.Uniform(0, 1)]);
    static const auto dates = std::array<const char*, 3>{"1993-07-01", "1994-06-15", "1996-02-01"};
    row.shipdate = dates[static_cast<size_t>(rng.Uniform(0, 2))];
    const auto start = Clock::now();
    const auto response = terminal.Query(InsertSql(row));
    sent.push_back({-1, MillisSince(start), warmup});
    if (!response.ok || response.error) {
      std::fprintf(stderr, "perfbench: INSERT failed: %s\n", response.error_message.c_str());
      if (warmup) {
        Fatal("warm-up failed");
      }
      return false;
    }
    ++inserted;
    for (auto index = size_t{0}; index < texts.size(); ++index) {
      if (const auto delta = texts[index].contribution(row)) {
        auto& values = expected[index][delta->first];
        values.resize(delta->second.size(), 0.0);
        for (auto column = size_t{0}; column < values.size(); ++column) {
          values[column] += delta->second[column];
        }
      }
    }
    return true;
  };

  // Warm-up: heat every plan past the JIT threshold, wait for every compile,
  // then run each text once more so kernels are swapped in and caches filled.
  const auto warmup_start = Clock::now();
  for (auto repetition = uint32_t{0}; repetition < kJitHeatThreshold + 2; ++repetition) {
    for (auto index = 0; index < static_cast<int>(texts.size()); ++index) {
      read(index, true);
    }
  }
  hyrise::jit::JitEngine::Get().WaitForCompiles();
  insert(true);
  for (auto index = 0; index < static_cast<int>(texts.size()); ++index) {
    read(index, true);
  }
  metrics["setup.warmup_s"] = SecondsSince(warmup_start);
  const auto stats_before = ServerStatsOverWire(monitor);
  const auto cache_before = hyrise::Hyrise::Get().default_result_cache->stats();
  const auto jit_before = hyrise::jit::JitEngine::Get().stats();
  metrics["setup_s"] = SecondsSince(g_process_start);

  // --- Timed phase: a fixed number of rounds. ------------------------------------------
  const auto rounds = std::max<size_t>(1, static_cast<size_t>(kRoundsPerSecond * options.seconds));
  // A round opens with its INSERT, so every round has the same mix of
  // recomputed and cached reads whatever the seed: each lineitem text's
  // first read recomputes and its second is served from the result cache.
  auto reads = std::vector<int>{};
  for (auto index = 0; index < static_cast<int>(texts.size()); ++index) {
    reads.insert(reads.end(), kReadsPerTextPerRound, index);
  }
  auto round = std::vector<int>{};
  const auto first_timed = sent.size();
  auto completions_s = std::vector<double>{};
  const auto cpu_start = ProcessCpuSeconds();
  const auto phase_start = Clock::now();
  for (auto count = size_t{0}; count < rounds; ++count) {
    rng.Shuffle(reads);
    round = {-1};
    round.insert(round.end(), reads.begin(), reads.end());
    for (const auto index : round) {
      ++result.attempted;
      if (!(index < 0 ? insert(false) : read(index, false))) {
        ++result.failed;
        continue;
      }
      completions_s.push_back(SecondsSince(phase_start));
    }
  }
  const auto phase_s = SecondsSince(phase_start);
  const auto cpu_s = ProcessCpuSeconds() - cpu_start;
  const auto stats_after = ServerStatsOverWire(monitor);
  const auto cache_after = hyrise::Hyrise::Get().default_result_cache->stats();
  const auto jit_after = hyrise::jit::JitEngine::Get().stats();

  // Operation kinds for query_geomean_ms: the INSERT, and each text's first
  // and second read of a round apart. The first recomputes and the second is
  // served from the result cache; one median over both would fall between.
  auto per_kind = std::vector<std::vector<double>>(texts.size() * kReadsPerTextPerRound + 1);
  auto occurrence = std::vector<size_t>(texts.size(), 0);
  auto all_ms = std::vector<double>{};
  for (auto index = first_timed; index < sent.size(); ++index) {
    const auto text = sent[index].text;
    if (text < 0) {
      std::fill(occurrence.begin(), occurrence.end(), 0);
      per_kind.back().push_back(sent[index].latency_ms);
    } else {
      const auto read_in_round = std::min(occurrence[static_cast<size_t>(text)]++, kReadsPerTextPerRound - 1);
      per_kind[static_cast<size_t>(text) * kReadsPerTextPerRound + read_in_round].push_back(sent[index].latency_ms);
    }
    all_ms.push_back(sent[index].latency_ms);
  }
  auto medians = std::vector<double>{};
  for (const auto& latencies : per_kind) {
    medians.push_back(Median(latencies));
  }
  const auto statements = static_cast<double>(all_ms.size());
  const auto delta = [&](const std::string& name) { return stats_after.at(name) - stats_before.at(name); };
  // One slice per round: a round is the same 13 statements in some order.
  metrics["throughput_ops"] = SlicedRate(completions_s, rounds);
  metrics["trace.throughput_ops"] = metrics["throughput_ops"];
  metrics["latency_p50_ms"] = Median(all_ms);
  metrics["latency_p90_ms"] = Percentile(all_ms, 0.90);
  metrics["query_geomean_ms"] = GeometricMean(medians);
  metrics["data_bytes"] = DataBytes();
  metrics["peak_rss_mb"] = PeakRssMb();
  metrics["scheduler.cpu_per_wall"] = cpu_s / phase_s;
  metrics["server.bytes_sent_per_stmt"] = delta("bytes_sent") / std::max(1.0, delta("statements_completed"));
  const auto probes = static_cast<double>(cache_after.probes - cache_before.probes);
  metrics["cache.result_hit_ratio"] =
      probes > 0 ? static_cast<double>(cache_after.hits - cache_before.hits) / probes : 0;
  metrics["cache.result_saved_ms"] =
      static_cast<double>(cache_after.saved_ns - cache_before.saved_ns) / 1e6 / std::max(1.0, statements);
  metrics["cache.result_bytes"] = static_cast<double>(cache_after.current_bytes);
  metrics["storage.dead_rows"] = DeadRows({"lineitem", "orders"});
  result.Check(jit_after.compiles_started == jit_before.compiles_started,
               "a JIT compile started during the timed phase");

  if (options.trace) {
    // Parse/plan stages and the per-operator split from in-process runs of
    // the same texts through the same plan cache and JIT. Of a text's two
    // reads per round, the first after the round's INSERT recomputes and the
    // second is served from the result cache, so each text runs once without
    // and once with it. The INSERT runs in a transaction that is rolled back.
    auto stages = StageTimes{};
    auto profile = OperatorProfile{};
    const auto result_cache = hyrise::Hyrise::Get().default_result_cache;
    const auto sample = [&](const std::string& sql, const std::shared_ptr<hyrise::TransactionContext>& context,
                            const std::shared_ptr<hyrise::ResultCache>& cache) {
      auto pipeline =
          hyrise::SqlPipeline::Builder{sql}.WithTransactionContext(context).WithResultCache(cache).Build();
      pipeline.Execute();
      stages.Add(pipeline.metrics());
      profile.Add(pipeline.pqp());
      return pipeline.transaction_context();
    };
    for (auto repetition = 0; repetition < kProfileRepetitions; ++repetition) {
      for (const auto& text : texts) {
        sample(text.sql, nullptr, nullptr);
        sample(text.sql, nullptr, result_cache);
      }
      auto begin = hyrise::SqlPipeline::Builder{"BEGIN"}.Build();
      begin.Execute();
      auto row = LineItem{1, 999, 1, 1000, 0.05, 0.01, "N", "O", "1995-01-01", ""};
      const auto context = sample(InsertSql(row), begin.transaction_context(), result_cache);
      auto rollback = hyrise::SqlPipeline::Builder{"ROLLBACK"}.WithTransactionContext(context).Build();
      rollback.Execute();
    }
    stages.Report(result);
    profile.Report(result, kProfileRepetitions * static_cast<double>(round.size()));
  }

  server->Stop();
  server.reset();
  capture.reset();

  if (options.trace) {
    // Connection 0 is the terminal; its log lines follow `sent` one to one.
    const auto log = ReadStatementLog(log_path);
    auto overhead_ms = std::vector<double>{};
    auto lookups = 0.0, plan_hits = 0.0, eligible = 0.0, jit_hits = 0.0;
    auto compile_ms = std::map<int, double>{};
    if (!log.empty()) {
      const auto& entries = log[0];
      for (auto index = size_t{0}; index < std::min(entries.size(), sent.size()); ++index) {
        const auto& entry = entries[index];
        const auto text = sent[index].text;
        if (text >= 0 && texts[static_cast<size_t>(text)].jit_eligible) {
          compile_ms[text] = std::max(compile_ms[text], entry.jit_compile_ms);
        }
        if (sent[index].warmup) {
          continue;
        }
        overhead_ms.push_back(sent[index].latency_ms - entry.execute_ms);
        lookups += 1;
        plan_hits += entry.pqp_cache_hit ? 1 : 0;
        if (text >= 0 && texts[static_cast<size_t>(text)].jit_eligible) {
          eligible += 1;
          jit_hits += entry.jit_hit ? 1 : 0;
        }
      }
    }
    auto total_compile_ms = 0.0;
    for (const auto& [text, milliseconds] : compile_ms) {
      total_compile_ms += milliseconds;
    }
    metrics["jit.compile_ms"] = total_compile_ms;
    metrics["jit.hit_ratio"] = eligible > 0 ? jit_hits / eligible : 0;
    metrics["cache.plan_hit_ratio"] = lookups > 0 ? plan_hits / lookups : 0;
    metrics["server.overhead_ms"] = Median(overhead_ms);
  }

  // --- recovery_s: snapshot the final state, restart from it, re-check every read. ---
  const auto snapshot_directory = options.run_directory + "/snapshot";
  result.Check(hyrise::Hyrise::Get().storage_manager.Snapshot(snapshot_directory).ok(), "snapshot failed");
  auto restarted = std::unique_ptr<hyrise::Server>{};
  const auto recovery_s = RestartFromDisk(snapshot_directory, "", restarted);
  result.Check(recovery_s > 0, "restart from the snapshot failed");
  metrics["persistence.recovery_s"] = recovery_s;
  if (restarted) {
    auto client = PgClient{restarted->port()};
    for (auto index = size_t{0}; index < texts.size(); ++index) {
      const auto response = client.Query(texts[index].sql);
      const auto seen = ToAnswer(
          response.rows, texts[index].group_columns, [](const std::string& value) { return value; },
          [](const std::string& value) { return std::strtod(value.c_str(), nullptr); });
      auto want = expected[index];
      if (options.perturb == "dashboard.recovery" && !want.empty()) {
        want.begin()->second.back() += 1;
      }
      result.Check(SameAnswer(want, seen), texts[index].name + " after restart: expected " + AnswerToString(want) +
                                               ", got " + AnswerToString(seen));
    }
    restarted->Stop();
  }
  return result;
}

}  // namespace perfbench
