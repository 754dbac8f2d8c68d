#include "e2ebench/ledger.h"

#include <cstdio>

#include "src/corfu/types.h"
#include "src/util/threading.h"

namespace e2ebench {

RpcClass ClassifyRpc(uint16_t method) {
  switch (method) {
    case corfu::kSequencerNext:
      return kSeqNext;
    case corfu::kSequencerTail:
      return kSeqTail;
    case corfu::kStorageWrite:
      return kStorageWrite;
    case corfu::kStorageRead:
      return kStorageRead;
    case corfu::kStorageReadBatch:
      return kStorageReadBatch;
    default:
      return kOther;
  }
}

const char* RpcClassName(int rpc_class) {
  static constexpr const char* kNames[kNumRpcClasses] = {
      "seq_next", "seq_tail", "storage_write", "storage_read",
      "storage_read_batch", "other"};
  return kNames[rpc_class];
}

namespace {

std::atomic<uint64_t> next_ledger_id{1};

// The calling thread's tally for the ledger with this id.  Ledger ids are
// never reused, so a stale entry from an earlier ledger is simply replaced.
struct TallyCache {
  uint64_t ledger_id = 0;
  ThreadTally* tally = nullptr;
};
thread_local TallyCache tally_cache;

}  // namespace

Ledger::Ledger() : id_(next_ledger_id.fetch_add(1)) {}

ThreadTally& Ledger::Mine() {
  if (tally_cache.ledger_id != id_) {
    auto tally = std::make_unique<ThreadTally>();
    std::lock_guard<std::mutex> lock(mu_);
    tally->thread = static_cast<uint32_t>(tallies_.size());
    tally_cache = {id_, tally.get()};
    tallies_.push_back(std::move(tally));
  }
  return *tally_cache.tally;
}

void Ledger::Keep(ThreadTally& t, const Span& span) {
  if (t.spans.size() < kMaxSpansPerThread) {
    t.spans.push_back(span);
  } else {
    t.spans_dropped++;
  }
}

void Ledger::RecordCall(uint16_t method, uint64_t op, uint64_t start_ns,
                        uint64_t end_ns, bool ok) {
  ThreadTally& t = Mine();
  ThreadTally::Rpc& r = t.rpc[ClassifyRpc(method)];
  r.calls.Add(1);
  r.call_ns.Add(end_ns - start_ns);
  if (!ok) {
    r.failed.Add(1);
  }
  t.own_rpc_ns.Add(end_ns - start_ns);
  Keep(t, Span{SpanKind::kRpcCall, ok, method, t.thread, 0, op, start_ns,
               end_ns - start_ns});
}

void Ledger::RecordService(uint16_t method, uint64_t start_ns,
                           uint64_t end_ns) {
  ThreadTally& t = Mine();
  ThreadTally::Rpc& r = t.rpc[ClassifyRpc(method)];
  r.served.Add(1);
  r.service_ns.Add(end_ns - start_ns);
  Keep(t, Span{SpanKind::kRpcService, true, method, t.thread, 0, 0, start_ns,
               end_ns - start_ns});
}

void Ledger::RecordFs(SpanKind kind, uint64_t bytes, uint64_t start_ns,
                      uint64_t end_ns) {
  ThreadTally& t = Mine();
  if (kind == SpanKind::kFsAppend) {
    t.fs_appends.Add(1);
    t.fs_append_bytes.Add(bytes);
    t.fs_append_ns.Add(end_ns - start_ns);
  } else {
    t.fs_syncs.Add(1);
    t.fs_sync_ns.Add(end_ns - start_ns);
  }
  Keep(t, Span{kind, true, 0, t.thread, 0, 0, start_ns, end_ns - start_ns});
}

void Ledger::RecordOp(uint64_t op, uint64_t start_ns, uint64_t end_ns,
                      bool ok) {
  ThreadTally& t = Mine();
  Keep(t, Span{SpanKind::kOp, ok, 0, t.thread, op, 0, start_ns,
               end_ns - start_ns});
}

void OpSlot::CallStarted(uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (inflight_++ == 0) {
    busy_since_ns_ = now_ns;
  }
}

void OpSlot::CallEnded(uint64_t start_ns, uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  open_call_ns_ += now_ns - start_ns;
  if (--inflight_ == 0) {
    busy_ns_ += now_ns - busy_since_ns_;
    call_ns_ += open_call_ns_;
    open_call_ns_ = 0;
  }
}

uint64_t OpSlot::OverlapNanos() {
  std::lock_guard<std::mutex> lock(mu_);
  return call_ns_ - busy_ns_;
}

LedgerTotals& LedgerTotals::operator+=(const LedgerTotals& o) {
  for (int c = 0; c < kNumRpcClasses; ++c) {
    rpc[c].calls += o.rpc[c].calls;
    rpc[c].failed += o.rpc[c].failed;
    rpc[c].call_ns += o.rpc[c].call_ns;
    rpc[c].served += o.rpc[c].served;
    rpc[c].service_ns += o.rpc[c].service_ns;
  }
  fs_appends += o.fs_appends;
  fs_append_bytes += o.fs_append_bytes;
  fs_append_ns += o.fs_append_ns;
  fs_syncs += o.fs_syncs;
  fs_sync_ns += o.fs_sync_ns;
  return *this;
}

LedgerTotals Ledger::Sum() const {
  LedgerTotals sum;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : tallies_) {
    LedgerTotals one;
    for (int c = 0; c < kNumRpcClasses; ++c) {
      one.rpc[c] = {t->rpc[c].calls.Get(), t->rpc[c].failed.Get(),
                    t->rpc[c].call_ns.Get(), t->rpc[c].served.Get(),
                    t->rpc[c].service_ns.Get()};
    }
    one.fs_appends = t->fs_appends.Get();
    one.fs_append_bytes = t->fs_append_bytes.Get();
    one.fs_append_ns = t->fs_append_ns.Get();
    one.fs_syncs = t->fs_syncs.Get();
    one.fs_sync_ns = t->fs_sync_ns.Get();
    sum += one;
  }
  return sum;
}

uint64_t Ledger::SpansDropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t dropped = 0;
  for (const auto& t : tallies_) {
    dropped += t->spans_dropped;
  }
  return dropped;
}

bool Ledger::WriteSpans(const std::string& path) const {
  static constexpr const char* kKinds[] = {"op", "rpc_call", "rpc_service",
                                           "fs_append", "fs_sync"};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "kind,thread,id,parent,method,start_ns,dur_ns,ok\n");
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : tallies_) {
    for (const Span& s : t->spans) {
      std::fprintf(f, "%s,%u,%llu,%llu,%s,%llu,%llu,%d\n",
                   kKinds[static_cast<int>(s.kind)], s.thread,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   s.kind == SpanKind::kRpcCall ||
                           s.kind == SpanKind::kRpcService
                       ? RpcClassName(ClassifyRpc(s.method))
                       : "",
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.dur_ns), s.ok ? 1 : 0);
    }
  }
  return std::fclose(f) == 0;
}

tango::Status LedgerTransport::Call(tango::NodeId dest, uint16_t method,
                                    std::span<const uint8_t> request,
                                    std::vector<uint8_t>* response) {
  if (!ledger_->active()) {
    return inner_->Call(dest, method, request, response);
  }
  uint64_t op = slot_ != nullptr ? slot_->op() : 0;
  uint64_t start = tango::NowNanos();
  if (slot_ != nullptr) {
    slot_->CallStarted(start);
  }
  tango::Status st = inner_->Call(dest, method, request, response);
  uint64_t end = tango::NowNanos();
  if (slot_ != nullptr) {
    slot_->CallEnded(start, end);
  }
  ledger_->RecordCall(method, op, start, end, st.ok());
  return st;
}

void LedgerTransport::RegisterNode(tango::NodeId node,
                                   tango::RpcHandler handler) {
  inner_->RegisterNode(
      node, [ledger = ledger_, handler = std::move(handler)](
                uint16_t method, tango::ByteReader& req,
                tango::ByteWriter& resp) {
        if (!ledger->active()) {
          return handler(method, req, resp);
        }
        uint64_t start = tango::NowNanos();
        tango::Status st = handler(method, req, resp);
        ledger->RecordService(method, start, tango::NowNanos());
        return st;
      });
}

namespace {

class LedgerFile : public corfu::storage::File {
 public:
  LedgerFile(std::unique_ptr<corfu::storage::File> inner, Ledger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  tango::Result<size_t> Append(std::span<const uint8_t> bytes) override {
    if (!ledger_->active()) {
      return inner_->Append(bytes);
    }
    uint64_t start = tango::NowNanos();
    tango::Result<size_t> n = inner_->Append(bytes);
    ledger_->RecordFs(SpanKind::kFsAppend, n.ok() ? n.value() : 0, start,
                      tango::NowNanos());
    return n;
  }

  tango::Status Sync() override {
    if (!ledger_->active()) {
      return inner_->Sync();
    }
    uint64_t start = tango::NowNanos();
    tango::Status st = inner_->Sync();
    ledger_->RecordFs(SpanKind::kFsSync, 0, start, tango::NowNanos());
    return st;
  }

  tango::Result<size_t> ReadAt(uint64_t offset,
                               std::span<uint8_t> out) override {
    return inner_->ReadAt(offset, out);
  }
  tango::Status Truncate(uint64_t size) override {
    return inner_->Truncate(size);
  }
  tango::Result<uint64_t> Size() override { return inner_->Size(); }

 private:
  std::unique_ptr<corfu::storage::File> inner_;
  Ledger* ledger_;
};

}  // namespace

tango::Result<std::unique_ptr<corfu::storage::File>> LedgerFs::Open(
    const std::string& path) {
  tango::Result<std::unique_ptr<corfu::storage::File>> file =
      inner_->Open(path);
  if (!file.ok()) {
    return file.status();
  }
  return std::unique_ptr<corfu::storage::File>(
      std::make_unique<LedgerFile>(std::move(file).value(), ledger_));
}

}  // namespace e2ebench
