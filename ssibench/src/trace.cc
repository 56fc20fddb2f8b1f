#include "trace.h"

#include <cstdio>

#include "util/clock.h"

namespace pgssi::bench {

TraceContext& CurrentTrace() {
  thread_local TraceContext ctx;
  return ctx;
}

namespace {

// Opens a child span of the thread's current root for the duration of
// one call.
class ChildSpan {
 public:
  explicit ChildSpan(Op op) : ctx_(CurrentTrace()) {
    if (ctx_.buf) idx_ = ctx_.buf->Open(op, ctx_.txn, ctx_.root, NowNanos());
  }
  ~ChildSpan() {
    if (ctx_.buf) ctx_.buf->Close(idx_, NowNanos());
  }
  ChildSpan(const ChildSpan&) = delete;
  ChildSpan& operator=(const ChildSpan&) = delete;

 private:
  TraceContext& ctx_;
  uint32_t idx_ = kNoParent;
};

class TracedTxn final : public workload::DbTxn {
 public:
  explicit TracedTxn(std::unique_ptr<workload::DbTxn> inner)
      : inner_(std::move(inner)) {}

  Status Get(TableId table, const std::string& key,
             std::string* value) override {
    ChildSpan s(Op::kGet);
    return inner_->Get(table, key, value);
  }
  Status Put(TableId table, const std::string& key,
             const std::string& value) override {
    ChildSpan s(Op::kPut);
    return inner_->Put(table, key, value);
  }
  Status Insert(TableId table, const std::string& key,
                const std::string& value) override {
    ChildSpan s(Op::kInsert);
    return inner_->Insert(table, key, value);
  }
  Status Delete(TableId table, const std::string& key) override {
    ChildSpan s(Op::kDelete);
    return inner_->Delete(table, key);
  }
  Status Scan(TableId table, const std::string& lo, const std::string& hi,
              std::vector<std::pair<std::string, std::string>>* out) override {
    ChildSpan s(Op::kScan);
    return inner_->Scan(table, lo, hi, out);
  }
  Status Count(TableId table, const std::string& lo, const std::string& hi,
               uint64_t* n) override {
    ChildSpan s(Op::kCount);
    return inner_->Count(table, lo, hi, n);
  }
  Status Commit() override {
    ChildSpan s(Op::kCommit);
    return inner_->Commit();
  }
  Status Abort() override {
    ChildSpan s(Op::kAbort);
    return inner_->Abort();
  }

 private:
  std::unique_ptr<workload::DbTxn> inner_;
};

}  // namespace

std::unique_ptr<workload::DbTxn> TracedClient::Begin(const TxnOptions& opts) {
  std::unique_ptr<workload::DbTxn> t;
  {
    ChildSpan s(Op::kBegin);
    t = inner_->Begin(opts);
  }
  if (!t) return nullptr;
  return std::make_unique<TracedTxn>(std::move(t));
}

SpanSummary Summarize(const std::vector<std::unique_ptr<SpanBuffer>>& bufs) {
  SpanSummary s;
  for (const auto& b : bufs) {
    s.dropped += b->dropped();
    const auto& spans = b->spans();
    // Children of one attempt are sequential calls made by the thread
    // that owns the root, so their durations never overlap.
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span& sp : spans) {
      const double us = static_cast<double>(sp.end_ns - sp.start_ns) / 1e3;
      const int op = static_cast<int>(sp.op);
      if (sp.op == Op::kTxn) continue;
      s.count[op]++;
      s.total_us[op] += us;
      s.child_calls++;
      s.child_us += us;
      if (sp.parent != kNoParent) covered[sp.parent] += us;
    }
    for (size_t i = 0; i < spans.size(); i++) {
      if (spans[i].op != Op::kTxn) continue;
      const double us =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
      s.roots++;
      s.root_us += us;
      s.root_self_us += us > covered[i] ? us - covered[i] : 0;
    }
  }
  return s;
}

bool WriteSpans(const std::string& path, const std::string& layer,
                const std::vector<std::unique_ptr<SpanBuffer>>& bufs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "# layer=%s thread txn index parent op start_ns end_ns\n",
               layer.c_str());
  for (size_t t = 0; t < bufs.size(); t++) {
    const auto& spans = bufs[t]->spans();
    for (size_t i = 0; i < spans.size(); i++) {
      const Span& sp = spans[i];
      char parent[16] = "-";
      if (sp.parent != kNoParent) {
        std::snprintf(parent, sizeof(parent), "%u", sp.parent);
      }
      std::fprintf(f, "%zu %llu %zu %s %s %llu %llu\n", t,
                   static_cast<unsigned long long>(sp.txn), i, parent,
                   kOpNames[static_cast<int>(sp.op)],
                   static_cast<unsigned long long>(sp.start_ns),
                   static_cast<unsigned long long>(sp.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace pgssi::bench
