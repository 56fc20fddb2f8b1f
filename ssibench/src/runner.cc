#include "runner.h"

#include <malloc.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <latch>
#include <thread>

#include "net/server.h"
#include "util/clock.h"

namespace pgssi::bench {

namespace {

// A business transaction that keeps failing serialization this often is
// counted as failed rather than retried forever.
constexpr uint32_t kMaxAttempts = 1000;
// Spans one attempt can open (root + begin + at most 15 calls).
constexpr size_t kMaxSpansPerAttempt = 17;

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t TicketSeed(uint64_t seed, uint32_t round, uint64_t ticket) {
  return SplitMix(SplitMix(SplitMix(seed) ^ round) ^ ticket);
}

struct Counters {
  SsiStats ssi{};
  uint64_t epoch_freed = 0;
  uint64_t fsyncs = 0;
  uint64_t log_bytes = 0;
  uint64_t net_ops = 0;
  uint64_t net_parks = 0;
};

Counters ReadCounters(const Workload& w) {
  Counters c;
  c.ssi = w.db()->GetSsiStats();
  c.epoch_freed = w.db()->EpochFreedObjectCount();
  c.fsyncs = w.db()->WalFsyncCount();
  c.log_bytes = w.LogBytes();
  if (net::Server* s = w.server()) {
    const net::Server::Stats st = s->stats();
    c.net_ops = st.ops_executed;
    c.net_parks = st.would_blocks;
  }
  return c;
}

SsiStats Delta(const SsiStats& a, const SsiStats& b) {
  SsiStats d;
  d.ssi_aborts = b.ssi_aborts - a.ssi_aborts;
  d.ww_aborts = b.ww_aborts - a.ww_aborts;
  d.s2pl_deadlocks = b.s2pl_deadlocks - a.s2pl_deadlocks;
  d.page_promotions = b.page_promotions - a.page_promotions;
  d.relation_promotions = b.relation_promotions - a.relation_promotions;
  d.safe_snapshots = b.safe_snapshots - a.safe_snapshots;
  d.deferrable_retries = b.deferrable_retries - a.deferrable_retries;
  return d;
}

struct ClientState {
  LogHistogram latency;
  LogHistogram slice_latency;
  std::vector<Slice> slices;
  Tally tally{};
  uint64_t attempts = 0;
  uint64_t retries = 0;
  uint64_t failed = 0;
  std::string error;
  std::unique_ptr<SpanBuffer> spans;
};

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void ClientLoop(Workload& w, const RoundSpec& spec, ClientState& cs) {
  TraceContext& ctx = CurrentTrace();
  ctx.buf = cs.spans.get();
  cs.slices.reserve(spec.txns / kSliceTxns);
  uint64_t slice_t0 = NowNanos();
  double slice_cpu0 = ProcessCpuSeconds();
  for (uint64_t ticket = 0; ticket < spec.txns; ticket++) {
    const Random inputs(TicketSeed(spec.seed, spec.round, ticket));
    const uint64_t t0 = NowNanos();
    Status st;
    int cls = 0;
    for (uint32_t attempt = 1;; attempt++) {
      Random rng = inputs;  // a retry replays the same transaction
      cs.attempts++;
      if (ctx.buf) {
        ctx.txn = ticket;
        ctx.root = ctx.buf->Open(Op::kTxn, ticket, kNoParent, NowNanos());
      }
      st = w.RunOne(rng, &cls);
      if (ctx.buf) ctx.buf->Close(ctx.root, NowNanos());
      if (!st.IsSerializationFailure() || attempt == kMaxAttempts) break;
      cs.retries++;
    }
    const uint64_t t1 = NowNanos();
    cs.latency.Add(t1 - t0);
    cs.slice_latency.Add(t1 - t0);
    if (cs.slice_latency.count() == kSliceTxns) {
      const double cpu = ProcessCpuSeconds();
      cs.slices.push_back({.wall_s = static_cast<double>(t1 - slice_t0) / 1e9,
                           .cpu_s = cpu - slice_cpu0,
                           .p50_us = cs.slice_latency.Percentile(50) / 1e3,
                           .p99_us = cs.slice_latency.Percentile(99) / 1e3});
      cs.slice_latency.Clear();
      slice_t0 = NowNanos();
      slice_cpu0 = cpu;
    }
    if (st.ok()) {
      cs.tally[static_cast<size_t>(cls)]++;
    } else {
      cs.failed++;
      if (cs.error.empty()) cs.error = st.ToString();
    }
  }
  ctx = TraceContext{};
}

}  // namespace

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

RoundResult RunRound(
    const RoundSpec& spec,
    const std::function<void(Workload&, const RoundResult&)>& inspect) {
  // Hand the previous round's freed memory back to the OS, so the peak
  // resident set is one round's and not a function of how many rounds
  // (how fast a run was) came before.
  malloc_trim(0);
  RoundResult r;
  r.latency_ns = std::make_unique<LogHistogram>();
  auto cs = std::make_unique<ClientState>();
  if (spec.traced) {
    // Room for every ticket plus retries: a reservation is only address
    // space until spans are written into it.
    const size_t cap = (spec.txns * 13 / 10 + 64) * kMaxSpansPerAttempt;
    cs->spans = std::make_unique<SpanBuffer>(cap);
  }

  const uint64_t setup_t0 = NowNanos();
  std::unique_ptr<Workload> w =
      MakeWorkload(spec.kind, spec.sizes, spec.variant, spec.run_dir,
                   spec.seed, spec.traced);
  Status st = w->Setup();
  if (!st.ok()) {
    r.error = "setup: " + st.ToString();
    return r;
  }

  std::latch ready(1);
  std::latch go(1);
  std::thread client([&] {
    w->ThreadInit();
    ready.count_down();
    go.wait();
    ClientLoop(*w, spec, *cs);
  });
  ready.wait();
  r.setup_s = static_cast<double>(NowNanos() - setup_t0) / 1e9;

  // Peaks are sampled only in traced rounds.
  std::atomic<bool> sampling{spec.traced};
  std::thread sampler;
  if (spec.traced) {
    sampler = std::thread([&] {
      Database* db = w->db();
      while (sampling.load(std::memory_order_acquire)) {
        r.siread_locks_peak =
            std::max<uint64_t>(r.siread_locks_peak, db->SireadTupleLockCount() +
                                                        db->SireadPageLockCount());
        const uint64_t oldest = db->OldestActiveSnapshot();
        const uint64_t last = db->LastCommittedSeq();
        if (oldest != UINT64_MAX && last > oldest) {
          r.horizon_lag_peak = std::max(r.horizon_lag_peak, last - oldest);
        }
        r.retired_peak =
            std::max<uint64_t>(r.retired_peak, db->EpochRetiredObjectCount());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  const Counters before = ReadCounters(*w);
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t t0 = NowNanos();
  go.count_down();
  client.join();
  r.timed_s = static_cast<double>(NowNanos() - t0) / 1e9;
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  const Counters after = ReadCounters(*w);
  if (sampler.joinable()) {
    sampling.store(false, std::memory_order_release);
    sampler.join();
  }

  r.latency_ns->Merge(cs->latency);
  r.slices = std::move(cs->slices);
  r.tally = cs->tally;
  r.attempts = cs->attempts;
  r.retries = cs->retries;
  r.failed = cs->failed;
  if (!cs->error.empty()) r.error = "transaction failed: " + cs->error;
  for (uint64_t n : r.tally) r.committed += n;
  r.ssi = Delta(before.ssi, after.ssi);
  r.epoch_freed = after.epoch_freed - before.epoch_freed;
  r.fsyncs = after.fsyncs - before.fsyncs;
  r.log_bytes = after.log_bytes - before.log_bytes;
  r.log_bytes_end = after.log_bytes;
  r.net_ops = after.net_ops - before.net_ops;
  r.net_parks = after.net_parks - before.net_parks;
  {
    const TableId t = w->db()->GetTableId(w->LargestTable());
    const double fanout = w->db()->options().engine.btree_fanout;
    const double leaves = static_cast<double>(w->db()->IndexLeafCount(t));
    r.leaf_fill = leaves > 0 ? static_cast<double>(w->db()->IndexEntryCount(t)) /
                                   (leaves * fanout)
                             : 0;
  }
  if (spec.traced) {
    std::vector<std::unique_ptr<SpanBuffer>> bufs;
    bufs.push_back(std::move(cs->spans));
    r.spans = Summarize(bufs);
    if (!spec.span_file.empty() &&
        !WriteSpans(spec.span_file, spec.variant.wire ? "net" : "db", bufs)) {
      std::fprintf(stderr, "could not write %s\n", spec.span_file.c_str());
    }
  }

  const std::string check = w->Check(r.tally, &r.anomalies);
  if (r.error.empty() && !check.empty()) r.error = "check failed: " + check;
  r.recover_s = w->RecoverSeconds();
  if (inspect) inspect(*w, r);
  return r;
}

}  // namespace pgssi::bench
