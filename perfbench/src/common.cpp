#include "common.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <thread>
#include <unordered_set>

#include "hyrise.hpp"
#include "operators/abstract_operator.hpp"
#include "server/server.hpp"
#include "sql/sql_pipeline.hpp"
#include "storage/chunk.hpp"
#include "storage/table.hpp"

namespace perfbench {

namespace {

/// recovery_s is the median of kMinRestarts restarts, or of more, up to
/// kMaxRestarts, while they took less than kRestartBudgetSeconds: a restart
/// from a snapshot takes well under a second, too short to time a few times,
/// while replaying a long WAL takes seconds.
constexpr auto kMinRestarts = 3;
constexpr auto kMaxRestarts = 100;
constexpr auto kRestartBudgetSeconds = 4.0;

}  // namespace

Clock::time_point g_process_start = Clock::now();

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint32_t WorkerCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void Fatal(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(nullptr);
  std::_Exit(1);  // Server and scheduler threads may still run: skip destructors.
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const auto middle = values.size() / 2;
  return values.size() % 2 == 1 ? values[middle] : (values[middle - 1] + values[middle]) / 2;
}

double Percentile(std::vector<double> values, double fraction) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(std::ceil(fraction * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  auto log_sum = 0.0;
  for (const auto value : values) {
    log_sum += std::log(value);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double SlicedRate(std::vector<double> completions_s, size_t slices) {
  std::sort(completions_s.begin(), completions_s.end());
  const auto per_slice = completions_s.size() / std::max<size_t>(1, slices);
  if (per_slice == 0) {
    return 0;
  }
  auto rates = std::vector<double>{};
  for (auto slice = size_t{0}; slice < slices; ++slice) {
    const auto start = slice == 0 ? 0.0 : completions_s[slice * per_slice - 1];
    const auto end = completions_s[(slice + 1) * per_slice - 1];
    rates.push_back(static_cast<double>(per_slice) / (end - start));
  }
  return Median(rates);
}

double ProcessCpuSeconds() {
  auto now = timespec{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) / 1e9;
}

double PeakRssMb() {
  auto usage = rusage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

double DataBytes() {
  auto& storage_manager = hyrise::Hyrise::Get().storage_manager;
  auto bytes = 0.0;
  for (const auto& name : storage_manager.TableNames()) {
    const auto table = storage_manager.GetTable(name);
    for (auto chunk_id = hyrise::ChunkID{0}; chunk_id < table->chunk_count(); ++chunk_id) {
      bytes += static_cast<double>(table->GetChunk(chunk_id)->MemoryUsage());
    }
  }
  return bytes;
}

double DeadRows(const std::vector<std::string>& tables) {
  auto dead = 0.0;
  for (const auto& name : tables) {
    const auto physical = hyrise::Hyrise::Get().storage_manager.GetTable(name)->row_count();
    auto pipeline = hyrise::SqlPipeline::Builder{"SELECT COUNT(*) FROM " + name}
                        .WithPqpCache(nullptr)
                        .WithResultCache(nullptr)
                        .Build();
    if (pipeline.Execute() != hyrise::SqlPipelineStatus::kSuccess) {
      continue;
    }
    const auto rows = TableRows(pipeline.result_table());
    dead += static_cast<double>(physical) - AsDouble(rows.at(0).at(0));
  }
  return dead;
}

uint64_t Rng::Next() {
  state_ += 0x9E3779B97F4A7C15ull;
  auto mixed = state_;
  mixed = (mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9ull;
  mixed = (mixed ^ (mixed >> 27)) * 0x94D049BB133111EBull;
  return mixed ^ (mixed >> 31);
}

int64_t Rng::Uniform(int64_t low, int64_t high) {
  return low + static_cast<int64_t>(Next() % static_cast<uint64_t>(high - low + 1));
}

std::vector<Row> TableRows(const std::shared_ptr<const hyrise::Table>& table) {
  return table ? table->GetRows() : std::vector<Row>{};
}

double AsDouble(const hyrise::AllTypeVariant& value) {
  return std::visit(
      [](const auto& typed) -> double {
        using T = std::decay_t<decltype(typed)>;
        if constexpr (std::is_arithmetic_v<T>) {
          return static_cast<double>(typed);
        } else if constexpr (std::is_same_v<T, std::string>) {
          return std::strtod(typed.c_str(), nullptr);
        } else {
          return -HUGE_VAL;  // NULL sorts first.
        }
      },
      value);
}

bool WireEqual(double expected, double seen) {
  return std::fabs(seen - expected) <= std::max(1e-4, 1e-9 * std::fabs(expected));
}

bool NearlyEqual(double left, double right) {
  // Summation order differs between plans, threads and compiled kernels.
  return std::fabs(left - right) <= 1e-9 * std::max({1.0, std::fabs(left), std::fabs(right)});
}

namespace {

std::string RowToString(const Row& row) {
  auto text = std::string{"("};
  for (const auto& value : row) {
    text += (text.size() > 1 ? ", " : "") + hyrise::VariantToString(value);
  }
  return text + ")";
}

bool IsFloating(const hyrise::AllTypeVariant& value) {
  return std::holds_alternative<float>(value) || std::holds_alternative<double>(value);
}

bool SameValue(const hyrise::AllTypeVariant& left, const hyrise::AllTypeVariant& right) {
  const auto left_null = hyrise::VariantIsNull(left);
  const auto right_null = hyrise::VariantIsNull(right);
  if (left_null || right_null) {
    return left_null && right_null;
  }
  if (IsFloating(left) || IsFloating(right)) {
    return NearlyEqual(AsDouble(left), AsDouble(right));
  }
  if (std::holds_alternative<std::string>(left) || std::holds_alternative<std::string>(right)) {
    return left == right;
  }
  return AsDouble(left) == AsDouble(right);  // int vs long of the same value.
}

bool SameRow(const Row& left, const Row& right) {
  if (left.size() != right.size()) {
    return false;
  }
  for (auto column = size_t{0}; column < left.size(); ++column) {
    if (!SameValue(left[column], right[column])) {
      return false;
    }
  }
  return true;
}

/// Orders rows by their exact (non-float) columns first, so equal multisets
/// line up pairwise even when float columns differ in the last bits.
bool RowLess(const Row& left, const Row& right) {
  for (auto pass = 0; pass < 2; ++pass) {
    for (auto column = size_t{0}; column < std::min(left.size(), right.size()); ++column) {
      const auto floating = IsFloating(left[column]) || IsFloating(right[column]);
      if (floating != (pass == 1)) {
        continue;
      }
      if (floating) {
        const auto left_value = AsDouble(left[column]);
        const auto right_value = AsDouble(right[column]);
        if (left_value != right_value) {
          return left_value < right_value;
        }
        continue;
      }
      const auto left_text = hyrise::VariantToString(left[column]);
      const auto right_text = hyrise::VariantToString(right[column]);
      if (left_text != right_text) {
        return left_text < right_text;
      }
    }
  }
  return left.size() < right.size();
}

}  // namespace

bool SameMultiset(std::vector<Row> left, std::vector<Row> right, std::string& why) {
  if (left.size() != right.size()) {
    why = "row count " + std::to_string(left.size()) + " vs " + std::to_string(right.size());
    return false;
  }
  std::sort(left.begin(), left.end(), RowLess);
  std::sort(right.begin(), right.end(), RowLess);
  auto pairwise = true;
  for (auto index = size_t{0}; index < left.size() && pairwise; ++index) {
    pairwise = SameRow(left[index], right[index]);
  }
  if (pairwise) {
    return true;
  }
  // Float keys within tolerance may sort differently: match greedily.
  auto used = std::vector<bool>(right.size(), false);
  for (const auto& row : left) {
    auto matched = false;
    for (auto index = size_t{0}; index < right.size() && !matched; ++index) {
      if (!used[index] && SameRow(row, right[index])) {
        used[index] = true;
        matched = true;
      }
    }
    if (!matched) {
      why = "row " + RowToString(row) + " has no counterpart";
      return false;
    }
  }
  return true;
}

void StageTimes::Add(const hyrise::SqlPipelineMetrics& metrics) {
  milliseconds_["sql.parse_ms"].push_back(static_cast<double>(metrics.parse_ns) / 1e6);
  milliseconds_["sql.translate_ms"].push_back(static_cast<double>(metrics.translate_ns) / 1e6);
  milliseconds_["optimizer.optimize_ms"].push_back(static_cast<double>(metrics.optimize_ns) / 1e6);
  milliseconds_["lqp.translate_ms"].push_back(static_cast<double>(metrics.lqp_translate_ns) / 1e6);
}

void StageTimes::Report(RunResult& result) const {
  for (const auto& [name, values] : milliseconds_) {
    result.metrics[name] = Median(values);
  }
}

const std::vector<std::string>& ReportedOperatorTypes() {
  // Every operator type that runs in one of the workloads' plans. Update's
  // inner Delete and Insert are not part of the plan; they count as Update.
  static const auto types =
      std::vector<std::string>{"GetTable", "Validate", "TableScan", "Projection", "Alias",  "Aggregate", "Sort",
                               "Limit",    "JoinHash", "Product",   "Insert",     "Update", "SpecializedPipeline"};
  return types;
}

void OperatorProfile::Add(const std::shared_ptr<hyrise::AbstractOperator>& root, double weight) {
  auto seen = std::unordered_set<const hyrise::AbstractOperator*>{};
  auto stack = std::vector<const hyrise::AbstractOperator*>{root.get()};
  while (!stack.empty()) {
    const auto* op = stack.back();
    stack.pop_back();
    if (!op || !seen.insert(op).second) {
      continue;
    }
    if (op->performance_data.executed) {
      auto& entry = by_type[op->name()];
      entry.self_ns += weight * static_cast<double>(op->performance_data.walltime_ns);
      entry.rows_out += weight * static_cast<double>(op->performance_data.output_row_count);
    }
    stack.push_back(op->left_input().get());
    stack.push_back(op->right_input().get());
  }
}

void OperatorProfile::Report(RunResult& result, double operations) const {
  for (const auto& type : ReportedOperatorTypes()) {
    const auto iter = by_type.find(type);
    const auto entry = iter == by_type.end() ? Entry{} : iter->second;
    result.metrics["operators." + type + ".self_ms"] = operations > 0 ? entry.self_ns / 1e6 / operations : 0;
    result.metrics["operators." + type + ".rows_out"] = operations > 0 ? entry.rows_out / operations : 0;
  }
}

// --- PgClient -----------------------------------------------------------------------

namespace {

void AppendInt32(std::string& buffer, int32_t value) {
  const auto network = htonl(static_cast<uint32_t>(value));
  buffer.append(reinterpret_cast<const char*>(&network), 4);
}

int32_t ReadInt32(const char* bytes) {
  auto network = uint32_t{};
  std::memcpy(&network, bytes, 4);
  return static_cast<int32_t>(ntohl(network));
}

int16_t ReadInt16(const char* bytes) {
  auto network = uint16_t{};
  std::memcpy(&network, bytes, 2);
  return static_cast<int16_t>(ntohs(network));
}

}  // namespace

PgClient::PgClient(uint16_t port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return;
  }
  const auto no_delay = int{1};
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &no_delay, sizeof(no_delay));
  auto address = sockaddr_in{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  auto startup = std::string{};
  auto payload = std::string{};
  AppendInt32(payload, 196608);  // Protocol 3.0.
  payload.append("user\0perfbench\0\0", 16);
  AppendInt32(startup, static_cast<int32_t>(payload.size() + 4));
  startup += payload;
  if (connect(fd_, reinterpret_cast<sockaddr*>(&address), sizeof(address)) != 0 || !Send(startup) ||
      !ReadUntilReady().ok) {
    close(fd_);
    fd_ = -1;
  }
}

PgClient::~PgClient() {
  if (fd_ >= 0) {
    close(fd_);
  }
}

PgClient::Response PgClient::Query(const std::string& sql) {
  auto message = std::string{"Q"};
  AppendInt32(message, static_cast<int32_t>(sql.size() + 5));
  message += sql;
  message.push_back('\0');
  if (!Send(message)) {
    return {};
  }
  return ReadUntilReady();
}

bool PgClient::Send(const std::string& bytes) {
  auto sent = size_t{0};
  while (fd_ >= 0 && sent < bytes.size()) {
    const auto written = send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (written <= 0) {
      return false;
    }
    sent += static_cast<size_t>(written);
  }
  return fd_ >= 0;
}

bool PgClient::ReadExactly(char* buffer, size_t size) {
  auto received = size_t{0};
  while (received < size) {
    const auto read = recv(fd_, buffer + received, size - received, 0);
    if (read <= 0) {
      return false;
    }
    received += static_cast<size_t>(read);
  }
  return true;
}

PgClient::Response PgClient::ReadUntilReady() {
  auto response = Response{};
  auto payload = std::string{};
  while (fd_ >= 0) {
    char header[5];
    if (!ReadExactly(header, 5)) {
      return response;
    }
    const auto length = ReadInt32(header + 1);
    if (length < 4 || length > (1 << 28)) {
      return response;
    }
    payload.resize(static_cast<size_t>(length) - 4);
    if (!payload.empty() && !ReadExactly(payload.data(), payload.size())) {
      return response;
    }
    switch (header[0]) {
      case 'D': {
        auto row = std::vector<std::string>{};
        const auto columns = payload.size() >= 2 ? ReadInt16(payload.data()) : 0;
        auto offset = size_t{2};
        for (auto column = 0; column < columns && offset + 4 <= payload.size(); ++column) {
          const auto size = ReadInt32(payload.data() + offset);
          offset += 4;
          if (size < 0) {
            row.emplace_back("NULL");
            continue;
          }
          row.emplace_back(payload.substr(offset, static_cast<size_t>(size)));
          offset += static_cast<size_t>(size);
        }
        response.rows.push_back(std::move(row));
        break;
      }
      case 'E': {
        response.error = true;
        // Fields: type byte + NUL-terminated text; 'M' is the message.
        for (auto offset = size_t{0}; offset < payload.size() && payload[offset] != '\0';) {
          const auto end = payload.find('\0', offset + 1);
          if (payload[offset] == 'M') {
            response.error_message = payload.substr(offset + 1, end - offset - 1);
          }
          offset = end == std::string::npos ? payload.size() : end + 1;
        }
        break;
      }
      case 'Z':
        response.ok = true;
        return response;
      default:
        break;
    }
  }
  return response;
}

std::map<std::string, double> ServerStatsOverWire(PgClient& client) {
  auto stats = std::map<std::string, double>{};
  for (const auto& row : client.Query("SHOW SERVER STATS").rows) {
    if (row.size() == 2) {
      stats[row[0]] = std::strtod(row[1].c_str(), nullptr);
    }
  }
  return stats;
}

double RestartFromDisk(const std::string& restore_directory, const std::string& wal_directory,
                       std::unique_ptr<hyrise::Server>& server) {
  auto config = hyrise::ServerConfig{};
  config.restore_directory = restore_directory;
  config.wal_directory = wal_directory;
  config.jit = false;
  config.executor_workers = WorkerCount();
  auto seconds = std::vector<double>{};
  auto total_s = 0.0;
  for (auto restart = 0; restart < kMinRestarts || (restart < kMaxRestarts && total_s < kRestartBudgetSeconds);
       ++restart) {
    if (server) {
      server->Stop();
    }
    server.reset();
    hyrise::Hyrise::Reset();
    const auto start = Clock::now();
    server = std::make_unique<hyrise::Server>(config);
    const auto started = server->Start();
    seconds.push_back(SecondsSince(start));
    total_s += seconds.back();
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: restart failed: %s\n", started.error().c_str());
      server.reset();
      return -1;
    }
  }
  return Median(seconds);
}

// --- Statement log ------------------------------------------------------------------

StderrCapture::StderrCapture(const std::string& path) {
  std::fflush(stderr);
  const auto fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return;
  }
  saved_fd_ = dup(STDERR_FILENO);
  dup2(fd, STDERR_FILENO);
  close(fd);
}

StderrCapture::~StderrCapture() {
  if (saved_fd_ < 0) {
    return;
  }
  std::fflush(stderr);
  dup2(saved_fd_, STDERR_FILENO);
  close(saved_fd_);
}

namespace {

/// Value of `key=` in a log line, as text up to the next space.
std::string Field(const std::string& line, const std::string& key) {
  const auto position = line.find(" " + key + "=");
  if (position == std::string::npos) {
    return {};
  }
  const auto start = position + key.size() + 2;
  return line.substr(start, line.find(' ', start) - start);
}

}  // namespace

std::vector<std::vector<LoggedStatement>> ReadStatementLog(const std::string& path) {
  auto by_connection = std::map<uint64_t, std::vector<LoggedStatement>>{};
  auto file = std::ifstream{path};
  auto line = std::string{};
  while (std::getline(file, line)) {
    if (line.rfind("[statement] ", 0) != 0) {
      continue;
    }
    auto entry = LoggedStatement{};
    entry.connection = std::strtoull(Field(line, "conn").c_str(), nullptr, 10);
    entry.execute_ms = std::strtod(Field(line, "execute_ms").c_str(), nullptr);
    entry.pqp_cache_hit = Field(line, "pqp_cache_hit") == "1";
    entry.jit_hit = Field(line, "jit_hit") == "1";
    entry.jit_compile_ms = std::strtod(Field(line, "jit_compile_ms").c_str(), nullptr);
    entry.wal_wait_ms = std::strtod(Field(line, "wal_wait_ms").c_str(), nullptr);
    by_connection[entry.connection].push_back(entry);
  }
  auto result = std::vector<std::vector<LoggedStatement>>{};
  for (auto& [connection, entries] : by_connection) {
    result.push_back(std::move(entries));
  }
  return result;
}

}  // namespace perfbench
