// Spans for the traced pass.
//
// Each attempt of a business transaction is one root span; every call
// the workload body makes through the DbClient/DbTxn interface (into
// db/ embedded, or into net/'s wire client) is a child span of it. All
// spans of one business transaction carry its ticket number as the
// transaction id, so retried attempts group together. Spans go into a
// per-thread buffer whose capacity is reserved before the timed window;
// a full buffer drops spans and counts them rather than allocating.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/client.h"

namespace pgssi::bench {

enum class Op : uint8_t {
  kTxn = 0,  // root: one attempt of a business transaction
  kBegin,
  kGet,
  kPut,
  kInsert,
  kDelete,
  kScan,
  kCount,
  kCommit,
  kAbort,
  kNumOps,
};
inline constexpr const char* kOpNames[] = {
    "txn", "begin", "get", "put", "insert", "delete", "scan", "count",
    "commit", "abort"};

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint64_t txn;      // business-transaction id (ticket number)
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t parent;   // index in the same buffer, kNoParent for a root
  Op op;
};

class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span; returns its index (kNoParent when the buffer is full).
  uint32_t Open(Op op, uint64_t txn, uint32_t parent, uint64_t start_ns) {
    if (spans_.size() == spans_.capacity()) {
      dropped_++;
      return kNoParent;
    }
    spans_.push_back({txn, start_ns, 0, parent, op});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void Close(uint32_t idx, uint64_t end_ns) {
    if (idx != kNoParent) spans_[idx].end_ns = end_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// The calling thread's current root span. The runner sets it around
/// each attempt; TracedClient reads it to parent its spans.
struct TraceContext {
  SpanBuffer* buf = nullptr;
  uint32_t root = kNoParent;
  uint64_t txn = 0;
};
TraceContext& CurrentTrace();

/// Decorates any DbClient: Begin and every DbTxn call become child spans
/// of the calling thread's current root. With no buffer set on the
/// calling thread (set-up, checks) it only forwards.
class TracedClient final : public workload::DbClient {
 public:
  explicit TracedClient(workload::DbClient* inner) : inner_(inner) {}

  Status CreateTable(const std::string& name, TableId* id) override {
    return inner_->CreateTable(name, id);
  }
  TableId GetTableId(const std::string& name) override {
    return inner_->GetTableId(name);
  }
  std::unique_ptr<workload::DbTxn> Begin(const TxnOptions& opts) override;

 private:
  workload::DbClient* inner_;
};

/// Per-op aggregate over a set of span buffers.
struct SpanSummary {
  uint64_t count[static_cast<int>(Op::kNumOps)] = {};
  double total_us[static_cast<int>(Op::kNumOps)] = {};
  uint64_t roots = 0;        // attempts
  double root_us = 0;        // total root duration
  double root_self_us = 0;   // root duration minus child coverage
  double child_us = 0;       // total time inside engine/wire calls
  uint64_t child_calls = 0;
  uint64_t dropped = 0;

  double MeanUs(Op op) const {
    const int i = static_cast<int>(op);
    return count[i] ? total_us[i] / static_cast<double>(count[i]) : 0;
  }
  /// Mean over every call into the engine or wire client.
  double MeanCallUs() const {
    return child_calls ? child_us / static_cast<double>(child_calls) : 0;
  }
};

SpanSummary Summarize(const std::vector<std::unique_ptr<SpanBuffer>>& bufs);

/// Writes every span as one text line per span:
/// "<thread> <txn> <index> <parent|-> <op> <start_ns> <end_ns>".
bool WriteSpans(const std::string& path, const std::string& layer,
                const std::vector<std::unique_ptr<SpanBuffer>>& bufs);

}  // namespace pgssi::bench
