// The benchmark's three closed-loop workloads over the public object API.
//
//   put_tcp_durable  blind TangoMap::Put over one shared TcpTransport on
//                    loopback to a 2-node chain on the durable segment store
//                    (fsync_batch 64, 20 ms flusher).  Exercises the whole
//                    write path; the read path sits idle.
//   txn_zipf         transfer transactions (Get a, Get b, Put a-1, Put b+1)
//                    on one shared TangoMap of 10K balances, keys zipf 0.99,
//                    in-process at 0 us links on 4 memory-backed nodes.
//                    Commit records, txn bookkeeping and playback of every
//                    other client's commits; contention shows as aborts.
//   catchup_50us     each op builds a fresh client, runtime and map and
//                    calls Size() against a 4000-entry log (2000 updates to
//                    the target map, 2000 to another object, in seeded
//                    random order), in-process at 50 us links.  The cold
//                    read path; no appends.
//
// Every workload takes its inputs from the seed alone, and checks its
// results: an op whose result is checked and wrong returns kWrong, and
// Verify() counts wrong results in the final state.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "e2ebench/ledger.h"

namespace e2ebench {

// kFailed: the op returned a non-OK status other than an abort.
// kWrong: the op succeeded but its result failed the workload's check.
enum class Outcome { kOk, kAborted, kFailed, kWrong };

struct Config {
  std::string workload;
  uint64_t seed = 1;
  int clients = 3;
  // Parent directory for the durable workload's fresh data directories.
  std::string data_root;
  // Self-test only: corrupts the state the checks compare against, so every
  // check must report wrong results.
  bool inject_wrong = false;
};

// Runtime and entry-cache counters summed over a workload's views.
struct RuntimeCounters {
  uint64_t entries_played = 0;
  uint64_t updates_applied = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t prefetch_batches = 0;
  uint64_t reconstruction_reads = 0;

  RuntimeCounters& operator+=(const RuntimeCounters& o);
  RuntimeCounters operator-(const RuntimeCounters& o) const;
};

// Per-op context.  End() closes the timed part of the op early: work after
// it (checking the op's result, tearing down a fresh view) is not latency.
struct OpContext {
  Ledger* ledger = nullptr;  // null in untraced runs
  OpSlot* slot = nullptr;    // null in untraced runs
  uint64_t end_ns = 0;
  uint64_t own_rpc_end_ns = 0;
  uint64_t overlap_end_ns = 0;
  // Transaction commit time, filled by workloads that run transactions.
  uint64_t endtx_ns = 0;
  uint64_t endtx_rpc_ns = 0;
  // Bytes of keys and values the op asked to store.
  uint64_t user_bytes = 0;

  void End();
  // The calling thread's client-side RPC time so far (0 untraced).
  uint64_t OwnRpcNanos() const;
  // The client's RPC time hidden by parallel calls so far (0 untraced).
  uint64_t OverlapNanos() const;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // How the harness measures this workload.
  // Set-ups per run whose median is setup_s.
  virtual int setup_reps() const = 0;
  // Length of the windows that goodput and latency percentiles are taken
  // over, for rounds of `round_s` seconds.
  virtual double window_s(double round_s) const = 0;
  // Latency quantile reported as lat_tail_us.
  virtual double tail_quantile() const = 0;
  // Ops per client of the warm-up round; peak RSS is read after it, so it
  // reflects a fixed amount of work.
  virtual int64_t warmup_ops() const = 0;

  // Builds the deployment and preloads it.  A non-null `ledger` installs the
  // decorators; `slots[c]` then holds client c's running op.
  virtual bool Setup(Ledger* ledger, OpSlot* slots) = 0;
  // One op on client `client`'s own view.
  virtual Outcome Op(int client, OpContext& ctx) = 0;
  // Cumulative counters over every view; call only while no op runs.
  virtual RuntimeCounters Counters() = 0;
  // Checks the final state after the clients stopped.  Returns the number
  // of wrong results and sets `digest` to a hash of the verified state.
  virtual uint64_t Verify(std::string* digest) = 0;
};

// Null for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const Config& config);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
