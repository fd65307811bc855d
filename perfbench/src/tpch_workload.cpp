// tpch: the paper's own end-to-end evaluation (Fig. 6). All 22 TPC-H queries
// run in-process through SqlPipeline as repeated streams, each stream a
// seeded permutation of Q1-Q22. Operators, storage, expressions and the
// scheduler do the work; parsing and planning do little; the server, WAL and
// caches do none (plan cache, result cache and JIT are off).

#include <cstdio>
#include <map>
#include <numeric>

#include "benchmarklib/tpch/tpch_queries.hpp"
#include "benchmarklib/tpch/tpch_table_generator.hpp"
#include "hyrise.hpp"
#include "optimizer/optimizer.hpp"
#include "optimizer/rules/expression_reduction_rule.hpp"
#include "optimizer/rules/predicate_pushdown_rule.hpp"
#include "optimizer/rules/predicate_split_up_rule.hpp"
#include "optimizer/rules/subquery_to_join_rule.hpp"
#include "scheduler/node_queue_scheduler.hpp"
#include "server/server.hpp"
#include "sql/sql_pipeline.hpp"
#include "storage/chunk.hpp"
#include "storage/table.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr auto kScaleFactor = 0.05;
/// Streams per second of --seconds: a run does a fixed amount of work, sized
/// so that it takes about --seconds on a 4-core machine.
constexpr auto kStreamsPerSecond = 2.0;
constexpr auto kQueryCount = size_t{22};

const std::vector<std::string> kTables = {"region", "nation", "supplier", "part",
                                          "partsupp", "customer", "orders", "lineitem"};

/// Reads one column of a table through the storage layer's segment interface.
template <typename Visit>
void ForEachRow(const hyrise::Table& table, const std::vector<std::string>& columns, Visit&& visit) {
  auto column_ids = std::vector<hyrise::ColumnID>{};
  for (const auto& name : columns) {
    column_ids.push_back(table.ColumnIdByName(name));
  }
  auto values = std::vector<hyrise::AllTypeVariant>(columns.size());
  for (auto chunk_id = hyrise::ChunkID{0}; chunk_id < table.chunk_count(); ++chunk_id) {
    const auto chunk = table.GetChunk(chunk_id);
    auto segments = std::vector<std::shared_ptr<hyrise::AbstractSegment>>{};
    for (const auto column_id : column_ids) {
      segments.push_back(chunk->GetSegment(column_id));
    }
    for (auto offset = hyrise::ChunkOffset{0}; offset < chunk->size(); ++offset) {
      for (auto column = size_t{0}; column < segments.size(); ++column) {
        values[column] = (*segments[column])[offset];
      }
      visit(values);
    }
  }
}

/// Q1 computed by a plain loop over lineitem's base columns, in Q1's output
/// layout (flag, status, 4 sums, 3 averages, count).
std::vector<Row> OwnQ1(const hyrise::Table& lineitem) {
  struct Group {
    double quantity{0}, price{0}, discounted{0}, charge{0}, discount{0};
    int64_t count{0};
  };
  auto groups = std::map<std::pair<std::string, std::string>, Group>{};
  ForEachRow(lineitem,
             {"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"},
             [&](const std::vector<hyrise::AllTypeVariant>& row) {
               if (std::get<std::string>(row[6]) > "1998-09-02") {
                 return;
               }
               auto& group = groups[{std::get<std::string>(row[0]), std::get<std::string>(row[1])}];
               const auto quantity = AsDouble(row[2]);
               const auto price = AsDouble(row[3]);
               const auto discount = AsDouble(row[4]);
               const auto tax = AsDouble(row[5]);
               group.quantity += quantity;
               group.price += price;
               group.discounted += price * (1 - discount);
               group.charge += price * (1 - discount) * (1 + tax);
               group.discount += discount;
               ++group.count;
             });
  auto rows = std::vector<Row>{};
  for (const auto& [key, group] : groups) {
    const auto count = static_cast<double>(group.count);
    rows.push_back({key.first, key.second, group.quantity, group.price, group.discounted, group.charge,
                    group.quantity / count, group.price / count, group.discount / count, group.count});
  }
  return rows;
}

/// Q6 computed by a plain loop over lineitem's base columns.
double OwnQ6(const hyrise::Table& lineitem) {
  auto revenue = 0.0;
  ForEachRow(lineitem, {"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"},
             [&](const std::vector<hyrise::AllTypeVariant>& row) {
               const auto& date = std::get<std::string>(row[0]);
               const auto discount = AsDouble(row[1]);
               if (date >= "1994-01-01" && date < "1995-01-01" && discount >= 0.05 && discount <= 0.07 &&
                   AsDouble(row[2]) < 24) {
                 revenue += AsDouble(row[3]) * discount;
               }
             });
  return revenue;
}

/// The reference engine configuration: predicates pushed down and subqueries
/// decorrelated, nothing else (no join ordering, no chunk pruning, no index
/// or predicate-order choices), on unencoded tables without statistics,
/// executed inline. With no rules at all the comma joins of Q2-Q21 stay
/// cross products of up to six tables, which no machine can execute.
std::shared_ptr<hyrise::Optimizer> ReferenceOptimizer() {
  auto optimizer = std::make_shared<hyrise::Optimizer>();
  optimizer->AddRule(std::make_shared<hyrise::ExpressionReductionRule>());
  optimizer->AddRule(std::make_shared<hyrise::PredicateSplitUpRule>());
  optimizer->AddRule(std::make_shared<hyrise::SubqueryToJoinRule>());
  optimizer->AddRule(std::make_shared<hyrise::PredicatePushdownRule>());
  return optimizer;
}

/// The result rows of a pipeline: those of its last statement that returned
/// a table (Q15 ends with DROP VIEW).
std::vector<Row> PipelineRows(const hyrise::SqlPipeline& pipeline) {
  for (auto iter = pipeline.result_tables().rbegin(); iter != pipeline.result_tables().rend(); ++iter) {
    if (*iter) {
      return TableRows(*iter);
    }
  }
  return {};
}

std::string QueryName(size_t query) {
  return (query < 10 ? "q0" : "q") + std::to_string(query);
}

}  // namespace

RunResult RunTpch(const Options& options) {
  auto result = RunResult{};
  auto& metrics = result.metrics;

  // --- Set-up: data, statistics, one untimed warm-up stream. ------------------------
  hyrise::Hyrise::Get().SetScheduler(std::make_shared<hyrise::NodeQueueScheduler>(1, WorkerCount()));
  const auto generate_start = Clock::now();
  auto data_config = hyrise::TpchConfig{};
  data_config.scale_factor = kScaleFactor;
  data_config.encoding = hyrise::SegmentEncodingSpec{hyrise::EncodingType::kDictionary};
  data_config.use_mvcc = hyrise::UseMvcc::kYes;
  data_config.generate_statistics = true;
  hyrise::GenerateTpchTables(data_config);
  metrics["setup.generate_s"] = SecondsSince(generate_start);

  // Plans execute inline on this thread; their operators fan out per-chunk
  // jobs to the NodeQueueScheduler. Running whole plans as task DAGs
  // (UseScheduler(true)) is left out: it hangs now and then (CHANGES.md).
  const auto run_query = [&](size_t query) {
    return hyrise::SqlPipeline::Builder{hyrise::TpchQuery(query)}
        .WithMvcc(hyrise::UseMvcc::kYes)
        .WithPqpCache(nullptr)
        .WithResultCache(nullptr)
        .Build();
  };
  const auto warmup_start = Clock::now();
  for (auto query = size_t{1}; query <= kQueryCount; ++query) {
    auto pipeline = run_query(query);
    pipeline.Execute();
  }
  metrics["setup.warmup_s"] = SecondsSince(warmup_start);
  metrics["setup_s"] = SecondsSince(g_process_start);

  // --- Timed phase: a fixed number of streams. ---------------------------------------
  const auto streams = std::max<size_t>(1, static_cast<size_t>(kStreamsPerSecond * options.seconds));
  auto latencies = std::vector<std::vector<double>>(kQueryCount + 1);
  auto all_latencies = std::vector<double>{};
  auto completions_s = std::vector<double>{};
  auto last_rows = std::vector<std::vector<Row>>(kQueryCount + 1);
  auto stages = StageTimes{};
  auto profile = OperatorProfile{};
  auto rng = Rng{options.seed};
  auto order = std::vector<size_t>(kQueryCount);
  std::iota(order.begin(), order.end(), size_t{1});

  const auto cpu_start = ProcessCpuSeconds();
  const auto phase_start = Clock::now();
  for (auto stream = size_t{0}; stream < streams; ++stream) {
    rng.Shuffle(order);
    for (const auto query : order) {
      ++result.attempted;
      auto pipeline = run_query(query);
      const auto start = Clock::now();
      const auto status = pipeline.Execute();
      const auto latency_ms = MillisSince(start);
      if (status != hyrise::SqlPipelineStatus::kSuccess) {
        ++result.failed;
        std::fprintf(stderr, "perfbench: Q%zu failed: %s\n", query, pipeline.error_message().c_str());
        continue;
      }
      latencies[query].push_back(latency_ms);
      all_latencies.push_back(latency_ms);
      completions_s.push_back(SecondsSince(phase_start));
      if (stream + 1 == streams) {
        last_rows[query] = PipelineRows(pipeline);
      }
      if (options.trace) {
        stages.Add(pipeline.metrics());
        profile.Add(pipeline.pqp());
      }
    }
  }
  const auto phase_s = SecondsSince(phase_start);
  const auto cpu_s = ProcessCpuSeconds() - cpu_start;

  auto medians = std::vector<double>{};
  for (auto query = size_t{1}; query <= kQueryCount; ++query) {
    const auto median = Median(latencies[query]);
    metrics["query." + QueryName(query) + "_ms"] = median;
    if (median > 0) {
      medians.push_back(median);
    }
  }
  const auto completed = static_cast<double>(result.attempted - result.failed);
  // One slice per stream: a stream is the 22 queries in some order.
  metrics["throughput_ops"] = SlicedRate(completions_s, streams);
  metrics["query_geomean_ms"] = GeometricMean(medians);
  metrics["latency_p50_ms"] = Median(all_latencies);
  metrics["latency_p90_ms"] = Percentile(all_latencies, 0.90);
  metrics["data_bytes"] = DataBytes();
  metrics["peak_rss_mb"] = PeakRssMb();
  metrics["scheduler.cpu_per_wall"] = cpu_s / phase_s;
  metrics["trace.throughput_ops"] = metrics["throughput_ops"];
  stages.Report(result);
  profile.Report(result, completed);
  metrics["storage.dead_rows"] = DeadRows(kTables);

  // --- Checks against computations made apart from the engine. -----------------------
  auto& storage_manager = hyrise::Hyrise::Get().storage_manager;
  const auto lineitem = storage_manager.GetTable("lineitem");
  {
    auto expected = OwnQ1(*lineitem);
    if (options.perturb == "tpch.q1") {
      expected.at(0).at(9) = std::get<int64_t>(expected.at(0).at(9)) + 1;
    }
    auto why = std::string{};
    result.Check(SameMultiset(expected, last_rows[1], why), "Q1 differs from the loop over lineitem: " + why);
  }
  auto own_q6 = OwnQ6(*lineitem);
  if (options.perturb == "tpch.q6") {
    own_q6 += 1.0;
  }
  result.Check(last_rows[6].size() == 1 && NearlyEqual(AsDouble(last_rows[6][0][0]), own_q6),
               "Q6 differs from the loop over lineitem: expected " + std::to_string(own_q6));
  auto row_counts = std::map<std::string, uint64_t>{};
  for (const auto& name : kTables) {
    row_counts[name] = storage_manager.GetTable(name)->row_count();
  }

  // --- recovery_s: snapshot, drop everything, restart the server from disk. ----------
  const auto snapshot_directory = options.run_directory + "/snapshot";
  result.Check(storage_manager.Snapshot(snapshot_directory).ok(), "snapshot failed");
  {
    auto server = std::unique_ptr<hyrise::Server>{};
    const auto recovery_s = RestartFromDisk(snapshot_directory, "", server);
    result.Check(recovery_s > 0, "restart from the snapshot failed");
    metrics["persistence.recovery_s"] = recovery_s;
    if (server) {
      auto client = PgClient{server->port()};
      for (const auto& [name, expected] : row_counts) {
        const auto response = client.Query("SELECT COUNT(*) FROM " + name);
        const auto seen = response.rows.empty() ? -1.0 : std::strtod(response.rows[0][0].c_str(), nullptr);
        auto want = static_cast<double>(expected);
        if (options.perturb == "tpch.recovery" && name == "lineitem") {
          want += 1;
        }
        result.Check(seen == want, "after restart " + name + " has " + std::to_string(seen) + " rows");
      }
      const auto q6 = client.Query(hyrise::TpchQuery(6));
      result.Check(q6.rows.size() == 1 && WireEqual(own_q6, std::strtod(q6.rows[0][0].c_str(), nullptr)), "Q6 after restart differs");
      server->Stop();
    }
  }

  // --- Every query against the reference configuration, untimed. ---------------------
  hyrise::Hyrise::Reset();
  auto reference_data = data_config;
  reference_data.encoding = hyrise::SegmentEncodingSpec{hyrise::EncodingType::kUnencoded};
  reference_data.generate_statistics = false;
  hyrise::GenerateTpchTables(reference_data);
  for (auto query = size_t{1}; query <= kQueryCount; ++query) {
    auto pipeline = hyrise::SqlPipeline::Builder{hyrise::TpchQuery(query)}
                        .WithOptimizer(ReferenceOptimizer())
                        .WithPqpCache(nullptr)
                        .WithResultCache(nullptr)
                        .Build();
    if (pipeline.Execute() != hyrise::SqlPipelineStatus::kSuccess) {
      result.Check(false, "reference Q" + std::to_string(query) + " failed: " + pipeline.error_message());
      continue;
    }
    auto reference = PipelineRows(pipeline);
    if (options.perturb == "tpch.reference" && query == 3 && !reference.empty()) {
      reference.pop_back();
    }
    auto why = std::string{};
    result.Check(SameMultiset(reference, last_rows[query], why),
                 "Q" + std::to_string(query) + " differs from the reference configuration: " + why);
  }
  return result;
}

}  // namespace perfbench
