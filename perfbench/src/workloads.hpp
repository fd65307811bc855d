#ifndef PERFBENCH_SRC_WORKLOADS_HPP_
#define PERFBENCH_SRC_WORKLOADS_HPP_

#include "common.hpp"

namespace perfbench {

/// TPC-H Q1-Q22 streams in-process through SqlPipeline (tpch_workload.cpp).
RunResult RunTpch(const Options& options);

/// Payment/NewOrder transactions over the wire with a sync WAL (oltp_workload.cpp).
RunResult RunOltp(const Options& options);

/// Repeating analytic texts plus INSERTs over the wire, caches and JIT on
/// (dashboard_workload.cpp).
RunResult RunDashboard(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_HPP_
