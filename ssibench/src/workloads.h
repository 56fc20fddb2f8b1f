// The benchmark's three workloads and their correctness checks.
//
// A Workload owns one fresh database (and, over the wire, one server and
// one wire client) for one round. The transaction bodies of dbt2_wal and
// rubis_embedded are workload/'s Dbt2 and Rubis; kv_readmostly's body
// lives here because workload/ has no read-mostly key-value mix. Every
// body runs through a DbClient, so the traced pass can decorate it.
//
// The checkers compare what the database holds with tallies the clients
// kept of their own committed transactions; they are free functions so
// tests can feed them a tally that is off by one.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/transaction_handle.h"
#include "util/random.h"
#include "util/status.h"
#include "workload/client.h"

namespace pgssi::net {
class Server;
}

namespace pgssi::bench {

enum class Kind { kKv, kDbt2, kRubis };

/// Input sizes of one workload. Every workload runs one client.
struct Sizes {
  uint64_t round_txns = 0;   // business transactions per round
  uint64_t kv_rows = 0;
  uint32_t dbt2_warehouses = 0;
  uint32_t dbt2_stock = 0;   // stock rows per warehouse
  uint32_t rubis_items = 0;
  uint32_t rubis_preload_bids = 0;
};

/// The configuration a round runs; twins differ from the primary in
/// exactly one field.
struct Variant {
  IsolationLevel iso = IsolationLevel::kSerializable;
  bool wal = false;           // dbt2: WAL on, log in memory, wal_fsync=off
  bool group_commit = false;  // dbt2: wal_fsync=batch instead
  bool wire = false;          // rubis: over loopback through net::Server
};

bool ParseKind(const std::string& name, Kind* kind);
const char* KindName(Kind kind);
Sizes DefaultSizes(Kind kind);
Variant PrimaryVariant(Kind kind);

/// Committed business transactions per class, as the clients counted
/// them. Class indices are the workload's (kv: read, rmw; dbt2:
/// new_order, stock_level; rubis: browse, bid, close).
using Tally = std::array<uint64_t, 3>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Open the database, load the data, start the server.
  virtual Status Setup() = 0;
  /// Runs on the client thread before the timed window (dials its
  /// connection over the wire).
  virtual void ThreadInit() {}
  /// One attempt of one business transaction. `rng` holds the inputs; a
  /// retry replays a copy of the same generator.
  virtual Status RunOne(Random& rng, int* cls) = 0;
  /// Checks the database against the tally; "" when every check holds,
  /// else the name of the failed check. `anomalies` (optional) receives
  /// the count of violations the variant is allowed to show (RUBiS
  /// winner property under REPEATABLE READ).
  virtual std::string Check(const Tally& tally, uint64_t* anomalies) = 0;

  Database* db() const { return db_.get(); }
  virtual net::Server* server() const { return nullptr; }
  /// Size of wal.log now (0 without a WAL).
  virtual uint64_t LogBytes() const { return 0; }
  /// Seconds the post-run recovery Open took (0 without a WAL).
  virtual double RecoverSeconds() const { return 0; }
  /// The table with the most index entries (leaf fill, lookup keys).
  virtual std::string LargestTable() const = 0;
  /// Keys for the standalone index microbench: `lookup` is the largest
  /// table's key set, `inserts` the stream of keys the workload inserts,
  /// in the order it inserts them.
  virtual void IndexKeys(std::vector<std::string>* lookup,
                         std::vector<std::string>* inserts) = 0;

 protected:
  std::unique_ptr<Database> db_;
};

/// `run_dir` holds the WAL directory, if any; `seed` makes the preloaded
/// data; `traced` wraps the bodies' client in a TracedClient.
std::unique_ptr<Workload> MakeWorkload(Kind kind, const Sizes& sizes,
                                       const Variant& variant,
                                       const std::string& run_dir,
                                       uint64_t seed, bool traced);

// ----- checkers -----

/// kv_readmostly: every row holds a counter; their sum equals the
/// committed increments, and the SIREAD tables are consistent.
std::string CheckKv(Database* db, uint64_t rows, uint64_t increments);
/// dbt2: for every district next-order-id - 1 equals its order rows,
/// their sum equals the committed new_orders, and every stock quantity
/// lies in the range the new_order update rule can produce.
std::string CheckDbt2(Database* db, uint64_t new_orders);
/// rubis: bid rows = preloaded + committed bids; closing rows =
/// committed closes = sum of item epochs; no bid exceeds its epoch's
/// recorded winner (counted into *violations; a failure unless
/// `allow_violations`). `consistency_ok` is Rubis::CheckConsistency's
/// verdict, which must agree with the count.
std::string CheckRubis(Database* db, uint64_t preload_bids, uint64_t bids,
                       uint64_t closes, bool consistency_ok,
                       bool allow_violations, uint64_t* violations);

}  // namespace pgssi::bench
