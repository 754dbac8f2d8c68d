// Traced-run ledger for the end-to-end benchmark.
//
// The benchmark measures per-layer cost from its own files, by timing the
// calls into each layer's public seam:
//
//   LedgerTransport  decorates tango::Transport.  Call() is timed on the
//                    client side and attributed to the calling client's
//                    current op; every RpcHandler passed to RegisterNode is
//                    timed as service time.
//   LedgerFs         decorates corfu::storage::FileSystem (and the Files it
//                    opens), timing Append and Sync for the segment store.
//
// Untraced runs do not install either decorator.  In a traced run the
// ledger is switched on only while ops are measured, so set-up, preload and
// verification traffic stay out of the tallies.
//
// Tallies are per thread (a shared atomic counter costs measurable put
// throughput under TCP) and merged by Sum().  Spans are kept in memory, one
// per op, per RPC and per file-system call, and written out by WriteSpans().

#ifndef E2EBENCH_LEDGER_H_
#define E2EBENCH_LEDGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/net/transport.h"
#include "src/storage/fault_fs.h"

namespace e2ebench {

// RPC classes the ledger reports separately; everything else is kOther.
enum RpcClass : int {
  kSeqNext = 0,
  kSeqTail,
  kStorageWrite,
  kStorageRead,
  kStorageReadBatch,
  kOther,
  kNumRpcClasses,
};

RpcClass ClassifyRpc(uint16_t method);
const char* RpcClassName(int rpc_class);

// A counter written by one thread and read by any: relaxed load + store, so
// the owner pays no locked instruction and readers see no torn value.
class OwnedCounter {
 public:
  void Add(uint64_t n) {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  uint64_t Get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

enum class SpanKind : uint8_t { kOp, kRpcCall, kRpcService, kFsAppend, kFsSync };

struct Span {
  SpanKind kind;
  bool ok;
  uint16_t method;   // RPC method id; 0 for ops and fs calls
  uint32_t thread;   // ledger-local thread index
  uint64_t id;       // op id for kOp spans, else 0
  uint64_t parent;   // owning op id; 0 = unparented
  uint64_t start_ns;
  uint64_t dur_ns;
};

struct ThreadTally {
  struct Rpc {
    OwnedCounter calls, failed, call_ns, served, service_ns;
  };
  std::array<Rpc, kNumRpcClasses> rpc;
  OwnedCounter fs_appends, fs_append_bytes, fs_append_ns;
  OwnedCounter fs_syncs, fs_sync_ns;
  // Client-side RPC time spent on this thread; an op's own-thread RPC time
  // is the difference across the op.
  OwnedCounter own_rpc_ns;
  uint32_t thread = 0;
  std::vector<Span> spans;  // owner-only until the traced run has ended
  uint64_t spans_dropped = 0;
};

// One client's running op, shared with every thread that makes RPCs for it
// (pool threads of a parallel batch read, playback threads).  In traced runs
// it also keeps the client's total RPC call time and the wall time during
// which at least one of its RPCs was in flight; the difference is the RPC
// time hidden by calls running in parallel.  The mutex is taken only in
// traced runs and only by the threads of one client.
class OpSlot {
 public:
  void set_op(uint64_t op) { op_.store(op, std::memory_order_relaxed); }
  uint64_t op() const { return op_.load(std::memory_order_relaxed); }

  void CallStarted(uint64_t now_ns);
  void CallEnded(uint64_t start_ns, uint64_t now_ns);
  // Cumulative call time minus in-flight wall time, over the in-flight
  // intervals that have closed.
  uint64_t OverlapNanos();

 private:
  std::atomic<uint64_t> op_{0};
  std::mutex mu_;
  int inflight_ = 0;
  uint64_t busy_since_ns_ = 0;
  uint64_t open_call_ns_ = 0;  // calls finished in the open interval
  uint64_t call_ns_ = 0;
  uint64_t busy_ns_ = 0;
};

// Merged tallies.
struct LedgerTotals {
  struct Rpc {
    uint64_t calls = 0, failed = 0, call_ns = 0, served = 0, service_ns = 0;
  };
  std::array<Rpc, kNumRpcClasses> rpc{};
  uint64_t fs_appends = 0, fs_append_bytes = 0, fs_append_ns = 0;
  uint64_t fs_syncs = 0, fs_sync_ns = 0;

  LedgerTotals& operator+=(const LedgerTotals& o);
};

class Ledger {
 public:
  // Spans kept per thread; later ones are counted as dropped.
  static constexpr size_t kMaxSpansPerThread = 250000;

  Ledger();

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  void set_active(bool on) { active_.store(on, std::memory_order_relaxed); }
  bool active() const { return active_.load(std::memory_order_relaxed); }

  // The calling thread's tally, registered on first use.
  ThreadTally& Mine();

  void RecordCall(uint16_t method, uint64_t op, uint64_t start_ns,
                  uint64_t end_ns, bool ok);
  void RecordService(uint16_t method, uint64_t start_ns, uint64_t end_ns);
  void RecordFs(SpanKind kind, uint64_t bytes, uint64_t start_ns,
                uint64_t end_ns);
  void RecordOp(uint64_t op, uint64_t start_ns, uint64_t end_ns, bool ok);

  LedgerTotals Sum() const;
  uint64_t SpansDropped() const;
  // Writes every span as CSV.  Call only once every traced thread is idle.
  bool WriteSpans(const std::string& path) const;

 private:
  void Keep(ThreadTally& t, const Span& span);

  const uint64_t id_;
  std::atomic<bool> active_{false};
  mutable std::mutex mu_;  // guards tallies_ (the list, not the counters)
  std::vector<std::unique_ptr<ThreadTally>> tallies_;
};

// Transport decorator.  `slot`, when given, holds the op that the client
// owning this transport is running; it is read on every Call, so RPCs made
// for the op from pool or playback threads are parented too.
class LedgerTransport : public tango::Transport {
 public:
  LedgerTransport(tango::Transport* inner, Ledger* ledger,
                  OpSlot* slot = nullptr)
      : inner_(inner), ledger_(ledger), slot_(slot) {}

  tango::Status Call(tango::NodeId dest, uint16_t method,
                     std::span<const uint8_t> request,
                     std::vector<uint8_t>* response) override;
  void RegisterNode(tango::NodeId node, tango::RpcHandler handler) override;
  void UnregisterNode(tango::NodeId node) override {
    inner_->UnregisterNode(node);
  }

 private:
  tango::Transport* inner_;
  Ledger* ledger_;
  OpSlot* slot_;
};

// FileSystem decorator over the real POSIX file system.
class LedgerFs : public corfu::storage::FileSystem {
 public:
  explicit LedgerFs(Ledger* ledger)
      : inner_(corfu::storage::PosixFileSystem()), ledger_(ledger) {}

  tango::Result<std::unique_ptr<corfu::storage::File>> Open(
      const std::string& path) override;
  tango::Result<std::vector<std::string>> List(const std::string& dir) override {
    return inner_->List(dir);
  }
  tango::Status Remove(const std::string& path) override {
    return inner_->Remove(path);
  }
  tango::Status CreateDir(const std::string& path) override {
    return inner_->CreateDir(path);
  }
  bool Exists(const std::string& path) override { return inner_->Exists(path); }

 private:
  corfu::storage::FileSystem* inner_;
  Ledger* ledger_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_LEDGER_H_
