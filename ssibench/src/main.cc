// ssibench: the repository's benchmark.
//
//   ssibench --workload <kv_readmostly|dbt2_wal|rubis_embedded>
//            --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs whole rounds (fresh database, fixed count of committed
// transactions) until the timed windows add up to --seconds, and prints
// the end-to-end metrics over the rounds. --trace 1 is
// the traced pass: sets of one untraced and one traced round of the
// workload plus traced twin rounds that differ in one setting, a
// standalone index microbench, and the per-layer metrics.
// The last line of standard output is one JSON object; a failed check
// names itself on standard error and exits 1.
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "index/btree.h"
#include "runner.h"
#include "util/clock.h"
#include "util/epoch.h"

using namespace pgssi;
using namespace pgssi::bench;

namespace {

struct Args {
  Kind kind = Kind::kKv;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      if (!ParseKind(v, &a->kind)) return false;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a->trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1 && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

// Metrics in the order they are printed.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  size_t size() const { return items_.size(); }
  const std::string& name(size_t i) const { return items_[i].name; }
  double value(size_t i) const { return items_[i].value; }
  const std::string& unit(size_t i) const { return items_[i].unit; }
  std::string Json() const {
    std::string out;
    for (const auto& m : items_) {
      char buf[256];
      const double v = std::isfinite(m.value) ? m.value : 0;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    out.empty() ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
      out += buf;
    }
    return "{" + out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& m) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.Json().c_str());
  std::fflush(stdout);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The better quartile of the values: the first quartile when
// lower is better, the third when higher is (linear interpolation).
double BetterQuartile(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos =
      (higher_is_better ? 0.75 : 0.25) * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] * (1 - frac) + v[i + 1] * frac : v[i];
}

double PerK(uint64_t n, uint64_t commits) {
  return commits ? 1000.0 * static_cast<double>(n) / static_cast<double>(commits)
                 : 0;
}
double Per(double x, uint64_t commits) {
  return commits ? x / static_cast<double>(commits) : 0;
}

const char* FsName(const std::string& path) {
  struct statfs sf {};
  if (statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x9123683EUL:
      return "btrfs";
    case 0x58465342UL:
      return "xfs";
    case 0x794c7630UL:
      return "overlayfs";
    default:
      return "other";
  }
}

bool Report(const RoundResult& r, const char* what) {
  if (r.error.empty()) return true;
  std::fprintf(stderr, "%s: %s\n", what, r.error.c_str());
  return false;
}

// setup_s is the median of the rounds' set-up times. Every other
// end-to-end metric but peak_rss_mb is the better quartile of the run's
// slices: 4000-transaction stretches of the timed windows, 100 to 500
// per run. Other tenants of the host only ever slow the program
// down, by stalls that land on some slices, or on most of them for a
// spell; the better quartile still rests on a quarter of the slices, and
// a change to the program moves every slice alike.
int RunTimed(const Args& a, const Sizes& sizes, const std::string& run_dir) {
  std::vector<double> setups, tputs, p50s, p99s, cpus;
  double timed = 0;
  uint64_t committed = 0, failed = 0;
  bool correct = true;
  for (uint32_t round = 0; round == 0 || timed < a.seconds; round++) {
    RoundSpec spec;
    spec.kind = a.kind;
    spec.sizes = sizes;
    spec.variant = PrimaryVariant(a.kind);
    spec.txns = sizes.round_txns;
    spec.seed = a.seed;
    spec.round = round;
    spec.run_dir = run_dir;
    const RoundResult r = RunRound(spec);
    if (!r.error.empty() && r.timed_s == 0) {
      std::fprintf(stderr, "round %u: %s\n", round, r.error.c_str());
      return 1;
    }
    correct = Report(r, "check") && correct;
    setups.push_back(r.setup_s);
    for (const Slice& s : r.slices) {
      tputs.push_back(static_cast<double>(kSliceTxns) / s.wall_s);
      p50s.push_back(s.p50_us);
      p99s.push_back(s.p99_us);
      cpus.push_back(s.cpu_s * 1e6 / static_cast<double>(kSliceTxns));
    }
    std::fprintf(stderr,
                 "# round %u setup_s=%.3f txn_per_s=%.0f p50_us=%.1f "
                 "p99_us=%.1f cpu_us_per_txn=%.1f retries=%llu\n",
                 round, r.setup_s, r.TxnPerSec(),
                 r.latency_ns->Percentile(50) / 1e3,
                 r.latency_ns->Percentile(99) / 1e3,
                 Per(r.cpu_s * 1e6, r.committed),
                 static_cast<unsigned long long>(r.retries));
    timed += r.timed_s;
    committed += r.committed;
    failed += r.failed;
    if (!correct) break;
  }
  std::printf(
      "# workload=%s seed=%llu clients=1 rounds=%zu round_txns=%llu "
      "slices=%zu samples_per_slice=%llu beyond_p99=%llu run_dir_fs=%s\n",
      KindName(a.kind), static_cast<unsigned long long>(a.seed), setups.size(),
      static_cast<unsigned long long>(sizes.round_txns), tputs.size(),
      static_cast<unsigned long long>(kSliceTxns),
      static_cast<unsigned long long>(kSliceTxns / 100), FsName(run_dir));
  Metrics m;
  m.Add("setup_s", Median(setups), "s");
  m.Add("txn_per_s", BetterQuartile(tputs, true), "txn/s");
  m.Add("latency_p50_us", BetterQuartile(p50s, false), "us");
  m.Add("latency_p99_us", BetterQuartile(p99s, false), "us");
  m.Add("cpu_us_per_txn", BetterQuartile(cpus, false), "us");
  m.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  PrintResult(correct, committed + failed, failed, m);
  return correct ? 0 : 1;
}

struct IndexBench {
  double lookup_ns = 0;
  double insert_ns = 0;
};

// BTree::Lookup and BTree::Insert on standalone trees built with an
// EpochManager, each operation under its own pin as the engine does.
IndexBench RunIndexBench(const std::vector<std::string>& keys,
                         const std::vector<std::string>& inserts,
                         uint64_t seed) {
  IndexBench b;
  const uint32_t fanout = EngineConfig{}.btree_fanout;
  util::EpochManager epoch;
  PageId page = 0;
  if (!keys.empty()) {
    BTree tree(fanout, &epoch);
    for (size_t i = 0; i < keys.size(); i++) {
      util::EpochManager::Pin pin(&epoch);
      tree.Insert(keys[i], i, &page);
    }
    constexpr size_t kProbes = 400'000;
    std::vector<const std::string*> probe(kProbes);
    Random rng(seed);
    for (auto& p : probe) p = &keys[rng.Uniform(keys.size())];
    uint64_t found = 0;
    TupleId tid = 0;
    const uint64_t t0 = NowNanos();
    for (const std::string* k : probe) {
      util::EpochManager::Pin pin(&epoch);
      found += tree.Lookup(*k, &tid, &page) ? 1 : 0;
    }
    b.lookup_ns = static_cast<double>(NowNanos() - t0) / kProbes;
    if (found != kProbes) std::fprintf(stderr, "index lookup missed keys\n");
  }
  if (!inserts.empty()) {
    BTree tree(fanout, &epoch);
    const uint64_t t0 = NowNanos();
    for (size_t i = 0; i < inserts.size(); i++) {
      util::EpochManager::Pin pin(&epoch);
      tree.Insert(inserts[i], i, &page);
    }
    b.insert_ns = static_cast<double>(NowNanos() - t0) / inserts.size();
  }
  return b;
}

// One set of the traced pass's rounds. All of them replay the same
// inputs, so each twin differs from the primary in one setting only.
struct TwinSet {
  RoundResult u;      // primary, untraced: the reference for the overhead
  RoundResult p;      // primary, traced
  RoundResult r;      // REPEATABLE READ twin (isolates ssi/)
  RoundResult twin;   // dbt2: WAL off (isolates wal/); rubis: over the wire
  RoundResult batch;  // dbt2: wal_fsync=batch (group commit)
};

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

Metrics LayerMetrics(Kind kind, const TwinSet& t, const IndexBench& ib) {
  const RoundResult& p = t.p;
  const RoundResult& r = t.r;
  const bool dbt2 = kind == Kind::kDbt2;
  const bool rubis = kind == Kind::kRubis;
  const SpanSummary& ds = p.spans;
  const uint64_t c = p.committed;
  auto busy_per_txn = [](const RoundResult& x) {
    return Per(x.spans.child_us, x.committed);
  };
  const int scan = static_cast<int>(Op::kScan);
  const int count = static_cast<int>(Op::kCount);
  const uint64_t scans = ds.count[scan] + ds.count[count];
  const RoundResult& wire = t.twin;
  Metrics m;
  m.Add("workload.retries_per_ktxn", PerK(p.retries, c), "1/ktxn");
  m.Add("workload.think_us", Per(p.spans.root_self_us, p.spans.roots), "us");
  m.Add("db.begin_us", ds.MeanUs(Op::kBegin), "us");
  m.Add("db.get_us", ds.MeanUs(Op::kGet), "us");
  m.Add("db.put_us", ds.MeanUs(Op::kPut), "us");
  m.Add("db.insert_us", ds.MeanUs(Op::kInsert), "us");
  m.Add("db.scan_us", Per(ds.total_us[scan] + ds.total_us[count], scans), "us");
  m.Add("db.commit_us", ds.MeanUs(Op::kCommit), "us");
  m.Add("db.commit_ratio", Ratio(static_cast<double>(c), p.attempts),
        "fraction");
  m.Add("ssi.cost_us_per_txn", busy_per_txn(p) - busy_per_txn(r), "us");
  m.Add("ssi.get_extra_us", p.spans.MeanUs(Op::kGet) - r.spans.MeanUs(Op::kGet),
        "us");
  m.Add("ssi.commit_extra_us",
        p.spans.MeanUs(Op::kCommit) - r.spans.MeanUs(Op::kCommit), "us");
  m.Add("ssi.aborts_per_ktxn", PerK(p.ssi.ssi_aborts, c), "1/ktxn");
  m.Add("ssi.ww_aborts_per_ktxn", PerK(p.ssi.ww_aborts, c), "1/ktxn");
  m.Add("ssi.promotions_per_ktxn",
        PerK(p.ssi.page_promotions + p.ssi.relation_promotions, c), "1/ktxn");
  m.Add("ssi.safe_snapshots_per_ktxn", PerK(p.ssi.safe_snapshots, c), "1/ktxn");
  m.Add("ssi.siread_locks_peak", static_cast<double>(p.siread_locks_peak),
        "locks");
  m.Add("txn.horizon_lag_peak", static_cast<double>(p.horizon_lag_peak),
        "commits");
  m.Add("index.lookup_ns", ib.lookup_ns, "ns");
  m.Add("index.insert_ns", ib.insert_ns, "ns");
  m.Add("index.leaf_fill", p.leaf_fill, "fraction");
  m.Add("epoch.retired_peak", static_cast<double>(p.retired_peak), "objects");
  m.Add("epoch.freed_per_txn", Per(static_cast<double>(p.epoch_freed), c),
        "objects");
  // Group commit as the batch-fsync twin pays it, over the WAL-off twin.
  m.Add("wal.cost_us_per_txn",
        dbt2 ? t.batch.spans.MeanUs(Op::kCommit) -
                   t.twin.spans.MeanUs(Op::kCommit)
             : 0,
        "us");
  m.Add("wal.fsyncs_per_ktxn", PerK(t.batch.fsyncs, t.batch.committed),
        "1/ktxn");
  m.Add("wal.bytes_per_txn", Per(static_cast<double>(p.log_bytes), c), "B");
  m.Add("wal.recover_s", p.recover_s, "s");
  m.Add("wal.recover_mb_per_s",
        p.recover_s > 0 ? static_cast<double>(p.log_bytes_end) / 1e6 / p.recover_s
                        : 0,
        "MB/s");
  // net/ as the wire twin pays it.
  m.Add("net.op_us", rubis ? wire.spans.MeanCallUs() : 0, "us");
  m.Add("net.cost_us_per_op",
        rubis ? wire.spans.MeanCallUs() - p.spans.MeanCallUs() : 0, "us");
  m.Add("net.round_trips_per_txn",
        Per(static_cast<double>(wire.net_ops), wire.committed), "ops");
  m.Add("net.parks_per_ktxn", PerK(wire.net_parks, wire.committed), "1/ktxn");
  m.Add("trace.overhead", 1.0 - Ratio(p.TxnPerSec(), t.u.TxnPerSec()),
        "fraction");
  return m;
}

// The traced pass: kTwinSets sets of rounds, interleaved so that a slow
// spell of the host lands on every variant alike; each per-layer metric
// is the median over the sets. Its rounds are a quarter of the timed
// runs' rounds, and the wire twin's a fortieth: one client over loopback
// runs at a tenth to a fiftieth of the embedded rate, and the pass must
// end in time.
int RunTracedPass(const Args& a, const Sizes& sizes, const std::string& run_dir,
                  const std::string& span_file) {
  constexpr uint32_t kTwinSets = 5;
  const Variant primary = PrimaryVariant(a.kind);
  Variant rr = primary;
  rr.iso = IsolationLevel::kRepeatableRead;
  Variant twin = primary;
  twin.wal = false;
  twin.wire = a.kind == Kind::kRubis;
  Variant batch = primary;
  batch.group_commit = true;
  const bool dbt2 = a.kind == Kind::kDbt2;
  const bool has_twin = a.kind != Kind::kKv;

  bool ok = true;
  IndexBench ib;
  std::vector<TwinSet> sets(kTwinSets);
  uint64_t anomalies = 0, dropped = 0;
  for (uint32_t k = 0; k < kTwinSets; k++) {
    // The first traced primary round also writes its spans and runs the
    // index microbench on the workload's keys.
    auto run = [&](const Variant& v, bool traced, bool first_primary,
                   const char* what, RoundResult* out) {
      RoundSpec s;
      s.kind = a.kind;
      s.sizes = sizes;
      s.variant = v;
      s.txns = sizes.round_txns / (v.wire ? 40 : 4);
      s.seed = a.seed;
      s.round = k;
      s.run_dir = run_dir;
      s.traced = traced;
      std::function<void(Workload&, const RoundResult&)> inspect;
      if (first_primary) {
        s.span_file = span_file;
        inspect = [&](Workload& w, const RoundResult&) {
          std::vector<std::string> keys, inserts;
          w.IndexKeys(&keys, &inserts);
          ib = RunIndexBench(keys, inserts, a.seed);
        };
      }
      *out = RunRound(s, inspect);
      ok = Report(*out, what) && ok;
      dropped += out->spans.dropped;
    };
    TwinSet& t = sets[k];
    run(primary, false, false, "untraced round", &t.u);
    run(primary, true, k == 0, "traced round", &t.p);
    run(rr, true, false, "repeatable-read twin", &t.r);
    if (has_twin) run(twin, true, false, "twin", &t.twin);
    if (dbt2) run(batch, true, false, "batch-fsync twin", &t.batch);
    anomalies += t.r.anomalies;
  }

  std::vector<Metrics> per_set;
  std::vector<double> u_tps, p_tps, r_tps, x_tps, b_tps, ssi_si, x_ratio,
      b_ratio;
  for (const TwinSet& t : sets) {
    per_set.push_back(LayerMetrics(a.kind, t, ib));
    u_tps.push_back(t.u.TxnPerSec());
    p_tps.push_back(t.p.TxnPerSec());
    r_tps.push_back(t.r.TxnPerSec());
    x_tps.push_back(t.twin.TxnPerSec());
    b_tps.push_back(t.batch.TxnPerSec());
    ssi_si.push_back(Ratio(t.u.TxnPerSec(), t.r.TxnPerSec()));
    x_ratio.push_back(Ratio(t.twin.TxnPerSec(), t.u.TxnPerSec()));
    b_ratio.push_back(Ratio(t.batch.TxnPerSec(), t.u.TxnPerSec()));
  }
  std::printf(
      "# workload=%s seed=%llu sets=%u round_txns=%llu untraced_txn_per_s=%.1f "
      "traced_txn_per_s=%.1f rr_twin_txn_per_s=%.1f ssi_over_si=%.3f "
      "rr_twin_winner_violations=%llu spans_dropped=%llu spans=%s\n",
      KindName(a.kind), static_cast<unsigned long long>(a.seed), kTwinSets,
      static_cast<unsigned long long>(sizes.round_txns / 4), Median(u_tps),
      Median(p_tps), Median(r_tps), Median(ssi_si),
      static_cast<unsigned long long>(anomalies),
      static_cast<unsigned long long>(dropped), span_file.c_str());
  if (dbt2) {
    std::printf(
        "# wal_off_twin_txn_per_s=%.1f wal_off_over_primary=%.3f "
        "batch_fsync_twin_txn_per_s=%.1f batch_over_primary=%.3f\n",
        Median(x_tps), Median(x_ratio), Median(b_tps), Median(b_ratio));
  }
  if (a.kind == Kind::kRubis) {
    std::printf("# wire_twin_txn_per_s=%.1f wire_over_embedded=%.3f\n",
                Median(x_tps), Median(x_ratio));
  }
  Metrics m;
  for (size_t i = 0; i < per_set[0].size(); i++) {
    std::vector<double> v;
    for (const Metrics& ms : per_set) v.push_back(ms.value(i));
    m.Add(per_set[0].name(i), Median(v), per_set[0].unit(i));
  }
  const TwinSet& last = sets.back();
  PrintResult(ok, last.p.committed + last.p.failed, last.p.failed, m);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s --workload <kv_readmostly|dbt2_wal|rubis_embedded> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  const Sizes sizes = DefaultSizes(a.kind);
  // Everything a run writes stays under .bench_build in the working
  // directory (the checkout root).
  const std::string base = ".bench_build/ssibench-run";
  const std::string run_dir = base + "/" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", run_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const int rc =
      a.trace ? RunTracedPass(a, sizes, run_dir,
                              base + "/" + KindName(a.kind) + ".spans")
              : RunTimed(a, sizes, run_dir);
  std::filesystem::remove_all(run_dir, ec);
  return rc;
}
