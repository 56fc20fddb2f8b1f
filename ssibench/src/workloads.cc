#include "workloads.h"

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "net/client.h"
#include "net/server.h"
#include "trace.h"
#include "util/clock.h"
#include "workload/dbt2.h"
#include "workload/rubis.h"

namespace pgssi::bench {

namespace {

using Rows = std::vector<std::pair<std::string, std::string>>;

// Reads a whole table in one REPEATABLE READ snapshot.
Status ScanAll(Database* db, const std::string& table, Rows* out) {
  const TableId t = db->GetTableId(table);
  if (t == kInvalidTable) return Status::NotFound("table " + table);
  auto txn = db->Begin({.isolation = IsolationLevel::kRepeatableRead});
  Status st = txn->Scan(t, "", "\x7f", out);
  if (!st.ok()) return st;
  return txn->Commit();
}

bool ParseU64(const std::string& s, uint64_t* v) {
  if (s.empty() || s.size() > 19) return false;
  uint64_t x = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    x = x * 10 + static_cast<uint64_t>(c - '0');
  }
  *v = x;
  return true;
}

std::string Num(uint64_t v) { return std::to_string(v); }

std::vector<std::string> KeysOf(const Rows& rows) {
  std::vector<std::string> keys;
  keys.reserve(rows.size());
  for (const auto& r : rows) keys.push_back(r.first);
  return keys;
}

// ----- kv_readmostly -----

constexpr int kKvReads = 8;
constexpr double kKvWriteFraction = 0.10;

std::string KvKey(uint64_t i) {
  char b[24];
  std::snprintf(b, sizeof(b), "k%010llu", static_cast<unsigned long long>(i));
  return b;
}

class KvWorkload final : public Workload {
 public:
  KvWorkload(const Sizes& s, const Variant& v, bool traced)
      : sizes_(s), variant_(v), traced_(traced) {}

  Status Setup() override {
    db_ = Database::Open({});
    Status st = db_->CreateTable("kv", &table_);
    if (!st.ok()) return st;
    constexpr uint64_t kBatch = 4096;
    for (uint64_t i = 0; i < sizes_.kv_rows; i += kBatch) {
      auto txn = db_->Begin({.isolation = IsolationLevel::kRepeatableRead});
      for (uint64_t r = i; r < std::min(i + kBatch, sizes_.kv_rows); r++) {
        if (!(st = txn->Put(table_, KvKey(r), "0")).ok()) return st;
      }
      if (!(st = txn->Commit()).ok()) return st;
    }
    embedded_ = std::make_unique<workload::EmbeddedClient>(db_.get());
    client_ = embedded_.get();
    if (traced_) {
      traced_client_ = std::make_unique<TracedClient>(client_);
      client_ = traced_client_.get();
    }
    return Status::OK();
  }

  Status RunOne(Random& rng, int* cls) override {
    auto txn = client_->Begin({.isolation = variant_.iso});
    std::string v;
    for (int i = 0; i < kKvReads; i++) {
      Status st = txn->Get(table_, KvKey(rng.Uniform(sizes_.kv_rows)), &v);
      if (!st.ok()) return st;  // ~DbTxn aborts
    }
    *cls = 0;
    if (rng.Bernoulli(kKvWriteFraction)) {
      *cls = 1;
      const std::string k = KvKey(rng.Uniform(sizes_.kv_rows));
      Status st = txn->Get(table_, k, &v);
      uint64_t n = 0;
      if (st.ok() && !ParseU64(v, &n)) st = Status::Internal("bad counter");
      if (st.ok()) st = txn->Put(table_, k, Num(n + 1));
      if (!st.ok()) return st;
    }
    return txn->Commit();
  }

  std::string Check(const Tally& tally, uint64_t* anomalies) override {
    if (anomalies) *anomalies = 0;
    return CheckKv(db_.get(), sizes_.kv_rows, tally[1]);
  }

  std::string LargestTable() const override { return "kv"; }

  void IndexKeys(std::vector<std::string>* lookup,
                 std::vector<std::string>* inserts) override {
    lookup->clear();
    for (uint64_t i = 0; i < sizes_.kv_rows; i++) lookup->push_back(KvKey(i));
    *inserts = *lookup;  // the load inserts rows in key order
  }

 private:
  Sizes sizes_;
  Variant variant_;
  bool traced_;
  TableId table_ = kInvalidTable;
  std::unique_ptr<workload::EmbeddedClient> embedded_;
  std::unique_ptr<TracedClient> traced_client_;
  workload::DbClient* client_ = nullptr;
};

// ----- dbt2_wal -----

constexpr double kDbt2ReadOnlyFraction = 0.2;
// Stock quantities start at 100; new_order takes 10, or adds 91 when the
// quantity is at most 10 (workload/dbt2.cc), so they stay in [1, 101].
constexpr uint64_t kStockMin = 1;
constexpr uint64_t kStockMax = 101;

// The log lives in memory, like a log on /dev/shm: wal.log in the run
// directory is a symlink to a memfd of this process. On a shared virtual
// disk, fsync latency moves with other tenants' I/O (p99 went from 0.8 ms
// to 20 ms between runs minutes apart), which measures the device, not
// the program. The engine still appends, fsyncs and recovers the file
// through its path.
//
// The timed runs use wal_fsync=off: with batch fsync every commit waits
// on the WAL syncer thread and, while sibling commits are in flight, on
// its timed group-commit dwell, and on this shared host those wake-ups
// swung throughput 5x between runs. The traced pass runs a batch-fsync
// twin to measure group commit.
class Dbt2Workload final : public Workload {
 public:
  Dbt2Workload(const Sizes& s, const Variant& v, const std::string& run_dir,
               bool traced)
      : sizes_(s), variant_(v), traced_(traced) {
    opts_.engine.wal_enabled = v.wal;
    if (v.wal) {
      opts_.engine.wal_dir = run_dir + "/wal";
      opts_.engine.wal_fsync =
          v.group_commit ? WalFsyncMode::kBatch : WalFsyncMode::kOff;
    }
  }
  ~Dbt2Workload() override {
    Close();
    if (variant_.wal) {
      std::error_code ec;
      std::filesystem::remove_all(opts_.engine.wal_dir, ec);
    }
    if (log_fd_ >= 0) ::close(log_fd_);
  }

  Status Setup() override {
    if (variant_.wal) {
      std::error_code ec;
      std::filesystem::remove_all(opts_.engine.wal_dir, ec);
      std::filesystem::create_directories(opts_.engine.wal_dir, ec);
      log_fd_ = ::memfd_create("ssibench-wal", MFD_CLOEXEC);
      const std::string target = "/proc/self/fd/" + std::to_string(log_fd_);
      if (ec || log_fd_ < 0 ||
          ::symlink(target.c_str(), LogPath().c_str()) != 0) {
        return Status::IOError("cannot create the in-memory wal.log");
      }
    }
    Status st;
    db_ = Database::Open(opts_, &st);
    if (!db_) return st;
    embedded_ = std::make_unique<workload::EmbeddedClient>(db_.get());
    workload::DbClient* client = embedded_.get();
    if (traced_) {
      traced_client_ = std::make_unique<TracedClient>(client);
      client = traced_client_.get();
    }
    workload::Dbt2Config cfg;
    cfg.warehouses = sizes_.dbt2_warehouses;
    cfg.stock_per_warehouse = sizes_.dbt2_stock;
    cfg.read_only_fraction = kDbt2ReadOnlyFraction;
    cfg.isolation = variant_.iso;
    dbt2_ = std::make_unique<workload::Dbt2>(client, cfg);
    return dbt2_->Load();
  }

  Status RunOne(Random& rng, int* cls) override {
    return dbt2_->RunOne(rng, cls);
  }

  std::string Check(const Tally& tally, uint64_t* anomalies) override {
    if (anomalies) *anomalies = 0;
    std::string err = CheckDbt2(db_.get(), tally[0]);
    if (!err.empty() || !variant_.wal) return err;
    // Recover the log the run left with a fresh Open: the same checks
    // must hold, and every acknowledged district counter must be there.
    Rows before;
    if (!ScanAll(db_.get(), "district", &before).ok()) {
      return "dbt2.district_scan";
    }
    Close();
    Status st;
    const uint64_t t0 = NowNanos();
    db_ = Database::Open(opts_, &st);
    recover_s_ = static_cast<double>(NowNanos() - t0) / 1e9;
    if (!db_) return "dbt2.recovery_open: " + st.ToString();
    err = CheckDbt2(db_.get(), tally[0]);
    if (!err.empty()) return "after_recovery." + err;
    Rows after;
    if (!ScanAll(db_.get(), "district", &after).ok() || after != before) {
      return "after_recovery.dbt2.districts_match_acknowledged";
    }
    return "";
  }

  uint64_t LogBytes() const override {
    struct stat sb {};
    return log_fd_ >= 0 && ::fstat(log_fd_, &sb) == 0
               ? static_cast<uint64_t>(sb.st_size)
               : 0;
  }
  double RecoverSeconds() const override { return recover_s_; }

  std::string LargestTable() const override {
    const TableId stock = db_->GetTableId("stock");
    const TableId orders = db_->GetTableId("orders");
    return db_->IndexEntryCount(orders) > db_->IndexEntryCount(stock)
               ? "orders"
               : "stock";
  }

  void IndexKeys(std::vector<std::string>* lookup,
                 std::vector<std::string>* inserts) override {
    Rows rows;
    (void)ScanAll(db_.get(), LargestTable(), &rows);
    *lookup = KeysOf(rows);
    // Order keys are "<w>:<d>:<oid>"; new_order appends one per district
    // in oid order, so the stream interleaves districts by oid.
    rows.clear();
    (void)ScanAll(db_.get(), "orders", &rows);
    *inserts = KeysOf(rows);
    std::stable_sort(inserts->begin(), inserts->end(),
                     [](const std::string& a, const std::string& b) {
                       return a.substr(a.rfind(':')) < b.substr(b.rfind(':'));
                     });
  }

 private:
  std::string LogPath() const { return opts_.engine.wal_dir + "/wal.log"; }

  void Close() {
    dbt2_.reset();
    traced_client_.reset();
    embedded_.reset();
    db_.reset();
  }

  Sizes sizes_;
  Variant variant_;
  bool traced_;
  DatabaseOptions opts_;
  int log_fd_ = -1;
  double recover_s_ = 0;
  std::unique_ptr<workload::EmbeddedClient> embedded_;
  std::unique_ptr<TracedClient> traced_client_;
  std::unique_ptr<workload::Dbt2> dbt2_;
};

// ----- rubis_embedded -----

constexpr double kRubisBrowse = 0.85;
constexpr double kRubisBid = 0.10;

class RubisWorkload final : public Workload {
 public:
  RubisWorkload(const Sizes& s, const Variant& v, uint64_t seed, bool traced)
      : sizes_(s), variant_(v), seed_(seed), traced_(traced) {}
  ~RubisWorkload() override {
    rubis_.reset();
    traced_client_.reset();
    wire_.reset();  // closes every client connection
    if (server_) server_->Stop();
  }

  Status Setup() override {
    db_ = Database::Open({});
    embedded_ = std::make_unique<workload::EmbeddedClient>(db_.get());
    // Bid history: bid-only transactions against every item's epoch 0.
    workload::RubisConfig load_cfg;
    load_cfg.items = sizes_.rubis_items;
    load_cfg.browse_fraction = 0;
    load_cfg.bid_fraction = 1;
    load_cfg.isolation = IsolationLevel::kRepeatableRead;
    workload::Rubis loader(embedded_.get(), load_cfg);
    Status st = loader.Load();
    if (!st.ok()) return st;
    Random rng(seed_ ^ 0x6269647368697374ULL);
    const uint64_t n =
        uint64_t{sizes_.rubis_items} * sizes_.rubis_preload_bids;
    for (uint64_t i = 0; i < n; i++) {
      if (!(st = loader.RunOne(rng)).ok()) return st;
    }
    workload::DbClient* client = embedded_.get();
    if (variant_.wire) {
      server_ = std::make_unique<net::Server>(db_.get(), net::ServerOptions{});
      if (!(st = server_->Start()).ok()) return st;
      wire_ = std::make_unique<net::WireDbClient>("127.0.0.1", server_->port());
      client = wire_.get();
    }
    if (traced_) {
      traced_client_ = std::make_unique<TracedClient>(client);
      client = traced_client_.get();
    }
    workload::RubisConfig cfg;
    cfg.items = sizes_.rubis_items;
    cfg.browse_fraction = kRubisBrowse;
    cfg.bid_fraction = kRubisBid;
    cfg.isolation = variant_.iso;
    rubis_ = std::make_unique<workload::Rubis>(client, cfg);
    return rubis_->Load();  // opens the tables; items stay at epoch 0
  }

  void ThreadInit() override {
    if (wire_) (void)wire_->GetTableId("items");
  }

  Status RunOne(Random& rng, int* cls) override {
    return rubis_->RunOne(rng, cls);
  }

  std::string Check(const Tally& tally, uint64_t* anomalies) override {
    bool ok = true;
    if (!rubis_->CheckConsistency(&ok).ok()) return "rubis.check_consistency_ran";
    uint64_t violations = 0;
    std::string err =
        CheckRubis(db_.get(),
                   uint64_t{sizes_.rubis_items} * sizes_.rubis_preload_bids,
                   tally[1], tally[2], ok,
                   variant_.iso == IsolationLevel::kRepeatableRead,
                   &violations);
    if (anomalies) *anomalies = violations;
    return err;
  }

  net::Server* server() const override { return server_.get(); }

  std::string LargestTable() const override { return "bids"; }

  void IndexKeys(std::vector<std::string>* lookup,
                 std::vector<std::string>* inserts) override {
    Rows rows;
    (void)ScanAll(db_.get(), "bids", &rows);
    *lookup = KeysOf(rows);
    // Bid keys end in a random 64-bit tag, so bids arrive in no key
    // order: insert them in a seeded shuffle.
    *inserts = *lookup;
    Random rng(seed_);
    for (size_t i = inserts->size(); i > 1; i--) {
      std::swap((*inserts)[i - 1], (*inserts)[rng.Uniform(i)]);
    }
  }

 private:
  Sizes sizes_;
  Variant variant_;
  uint64_t seed_;
  bool traced_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<net::WireDbClient> wire_;
  std::unique_ptr<workload::EmbeddedClient> embedded_;
  std::unique_ptr<TracedClient> traced_client_;
  std::unique_ptr<workload::Rubis> rubis_;
};

}  // namespace

bool ParseKind(const std::string& name, Kind* kind) {
  for (Kind k : {Kind::kKv, Kind::kDbt2, Kind::kRubis}) {
    if (name == KindName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kKv:
      return "kv_readmostly";
    case Kind::kDbt2:
      return "dbt2_wal";
    case Kind::kRubis:
      return "rubis_embedded";
  }
  return "?";
}

Sizes DefaultSizes(Kind kind) {
  // Each round is a whole number of the runner's slices (kSliceTxns)
  // and lasts about two seconds.
  Sizes s;
  switch (kind) {
    case Kind::kKv:
      s.kv_rows = 200'000;
      s.round_txns = 100'000;
      break;
    case Kind::kDbt2:
      s.dbt2_warehouses = 32;
      s.dbt2_stock = 6000;
      s.round_txns = 60'000;
      break;
    case Kind::kRubis:
      s.rubis_items = 4000;
      s.rubis_preload_bids = 12;
      s.round_txns = 120'000;
      break;
  }
  return s;
}

Variant PrimaryVariant(Kind kind) {
  Variant v;
  v.wal = kind == Kind::kDbt2;
  return v;
}

std::unique_ptr<Workload> MakeWorkload(Kind kind, const Sizes& sizes,
                                       const Variant& variant,
                                       const std::string& run_dir,
                                       uint64_t seed, bool traced) {
  switch (kind) {
    case Kind::kKv:
      return std::make_unique<KvWorkload>(sizes, variant, traced);
    case Kind::kDbt2:
      return std::make_unique<Dbt2Workload>(sizes, variant, run_dir, traced);
    case Kind::kRubis:
      return std::make_unique<RubisWorkload>(sizes, variant, seed, traced);
  }
  return nullptr;
}

// ----- checkers -----

std::string CheckKv(Database* db, uint64_t rows, uint64_t increments) {
  Rows all;
  if (!ScanAll(db, "kv", &all).ok()) return "kv.scan";
  if (all.size() != rows) return "kv.row_count";
  uint64_t sum = 0;
  for (const auto& [k, v] : all) {
    uint64_t n = 0;
    if (!ParseU64(v, &n)) return "kv.counter_format";
    sum += n;
  }
  if (sum != increments) return "kv.counter_sum_equals_committed_increments";
  if (!db->CheckSsiLockConsistency()) return "kv.ssi_lock_consistency";
  return "";
}

std::string CheckDbt2(Database* db, uint64_t new_orders) {
  Rows districts, orders, stock;
  if (!ScanAll(db, "district", &districts).ok() ||
      !ScanAll(db, "orders", &orders).ok() ||
      !ScanAll(db, "stock", &stock).ok()) {
    return "dbt2.scan";
  }
  // Order keys are "<district key>:<oid>".
  std::map<std::string, uint64_t> per_district;
  for (const auto& [k, v] : orders) {
    const size_t colon = k.rfind(':');
    if (colon == std::string::npos) return "dbt2.order_key_format";
    per_district[k.substr(0, colon)]++;
  }
  uint64_t total = 0;
  for (const auto& [k, next] : districts) {
    uint64_t next_oid = 0;
    if (!ParseU64(next, &next_oid) || next_oid == 0) {
      return "dbt2.district_format";
    }
    const auto it = per_district.find(k);
    const uint64_t n = it == per_district.end() ? 0 : it->second;
    if (next_oid - 1 != n) return "dbt2.next_order_id_matches_order_rows";
    total += n;
  }
  if (total != orders.size()) return "dbt2.orders_belong_to_districts";
  if (total != new_orders) return "dbt2.order_rows_equal_committed_new_orders";
  for (const auto& [k, v] : stock) {
    uint64_t q = 0;
    if (!ParseU64(v, &q) || q < kStockMin || q > kStockMax) {
      return "dbt2.stock_quantity_in_range";
    }
  }
  return "";
}

std::string CheckRubis(Database* db, uint64_t preload_bids, uint64_t bids,
                       uint64_t closes, bool consistency_ok,
                       bool allow_violations, uint64_t* violations) {
  Rows items, bid_rows, closings;
  if (!ScanAll(db, "items", &items).ok() ||
      !ScanAll(db, "bids", &bid_rows).ok() ||
      !ScanAll(db, "closings", &closings).ok()) {
    return "rubis.scan";
  }
  if (bid_rows.size() != preload_bids + bids) {
    return "rubis.bid_rows_equal_committed_bids";
  }
  if (closings.size() != closes) {
    return "rubis.closing_rows_equal_committed_closes";
  }
  uint64_t epochs = 0;
  for (const auto& [k, v] : items) {
    uint64_t e = 0;
    if (!ParseU64(v, &e)) return "rubis.item_format";
    epochs += e;
  }
  if (epochs != closes) return "rubis.committed_closes_equal_item_epochs";
  // Winner property: bid keys are "<closing key>:<tag>", so each epoch's
  // bids are a key range.
  uint64_t bad = 0;
  for (const auto& [ck, winner] : closings) {
    uint64_t w = 0;
    if (!ParseU64(winner, &w)) return "rubis.closing_format";
    const std::string lo = ck + ":";
    auto it = std::lower_bound(
        bid_rows.begin(), bid_rows.end(), lo,
        [](const auto& row, const std::string& key) { return row.first < key; });
    for (; it != bid_rows.end() && it->first.compare(0, lo.size(), lo) == 0;
         ++it) {
      uint64_t amount = 0;
      if (!ParseU64(it->second, &amount)) return "rubis.bid_format";
      if (amount > w) {
        bad++;
        break;
      }
    }
  }
  *violations = bad;
  if (consistency_ok != (bad == 0)) return "rubis.check_consistency_agrees";
  if (bad != 0 && !allow_violations) return "rubis.no_bid_exceeds_winner";
  return "";
}

}  // namespace pgssi::bench
