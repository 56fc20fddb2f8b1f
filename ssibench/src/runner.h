// The replaying closed-loop client runner.
//
// A round opens a fresh workload (set-up), starts the client thread, lets
// it dial its connection, and then times a window in which the client
// runs tickets 0 .. txns-1, one business transaction each. Ticket i's
// inputs come from a generator seeded by (seed, round, i). A
// serialization failure is retried at once with a copy of the same
// generator, so a retry replays the same business transaction and the
// client's tallies stay exact. A fixed count per round keeps what the
// round leaves behind (orders, bids, wal.log) independent of speed.
//
// The timed window is cut into slices of kSliceTxns consecutive
// transactions, each with its own wall time, process CPU time and
// latency percentiles: the end-to-end metrics are taken over slices.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "db/config.h"
#include "log_histogram.h"
#include "trace.h"
#include "workloads.h"

namespace pgssi::bench {

/// Business transactions per slice: 40 of them lie beyond a slice's p99.
constexpr uint64_t kSliceTxns = 4000;

struct Slice {
  double wall_s = 0;
  double cpu_s = 0;  // process CPU time over the slice
  double p50_us = 0;
  double p99_us = 0;
};

struct RoundSpec {
  Kind kind = Kind::kKv;
  Sizes sizes;
  Variant variant;
  uint64_t txns = 0;
  uint64_t seed = 1;
  uint32_t round = 0;
  std::string run_dir;
  bool traced = false;
  std::string span_file;  // traced: write the spans here ("" = don't)
};

struct RoundResult {
  std::string error;  // the failed check or operation; "" when all held

  double setup_s = 0;   // Setup() plus every client dialing in
  double timed_s = 0;   // the timed window
  double cpu_s = 0;     // process CPU time over the timed window

  uint64_t committed = 0;  // business transactions
  uint64_t attempts = 0;   // attempts, retries included
  uint64_t retries = 0;
  uint64_t failed = 0;     // business transactions that never committed
  Tally tally{};
  uint64_t anomalies = 0;  // allowed violations (RUBiS winner under RR)
  std::unique_ptr<LogHistogram> latency_ns;  // per business transaction
  std::vector<Slice> slices;  // every whole slice of the timed window

  // Engine and server counters over the timed window.
  SsiStats ssi{};
  uint64_t epoch_freed = 0;
  uint64_t fsyncs = 0;
  uint64_t log_bytes = 0;       // wal.log growth in the window
  uint64_t log_bytes_end = 0;   // wal.log size the run left
  double recover_s = 0;
  uint64_t net_ops = 0;
  uint64_t net_parks = 0;
  double leaf_fill = 0;         // largest table, at the end

  // Traced rounds only.
  uint64_t siread_locks_peak = 0;
  uint64_t horizon_lag_peak = 0;
  uint64_t retired_peak = 0;
  SpanSummary spans;

  double TxnPerSec() const {
    return timed_s > 0 ? static_cast<double>(committed) / timed_s : 0;
  }
};

/// Runs one round. `inspect` (optional) sees the workload and the result
/// after the checks, before the workload is torn down.
RoundResult RunRound(
    const RoundSpec& spec,
    const std::function<void(Workload&, const RoundResult&)>& inspect = {});

/// Peak resident set of the process, MiB.
double PeakRssMiB();

}  // namespace pgssi::bench
