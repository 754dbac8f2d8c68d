// Streaming CORFU (§5): a readnext/sync interface layered on the shared log.
//
// A stream's metadata is a client-side linked list of the log offsets that
// belong to it.  The list is built lazily by asking the sequencer for the
// stream's last K offsets and striding *backward* through the K-redundant
// backpointers stored in each entry's stream header — N/K logical reads for
// a stream with N unseen entries.  With read-ahead on, those reads take about
// span/W round trips (span = the log range the N entries cover): when a
// stride's frontier misses the cache, one batched read covers a window of W
// positions below it, W sized from the stream's measured density, so one
// round trip serves many strides.  Junk entries (filled holes) carry no
// backpointers; when every pointer out of the frontier dead-ends in junk, the
// reader falls back to scanning the log backward offset-by-offset, exactly as
// the paper prescribes.
//
// Thread safety: StreamStore is designed to sit under the Tango runtime's
// playback lock; concurrent Append/MultiAppend calls are safe (they only
// touch the CorfuClient), but Sync/ReadNext for the same store must be
// externally serialized.

#ifndef SRC_CORFU_STREAM_H_
#define SRC_CORFU_STREAM_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/corfu/log_client.h"
#include "src/obs/metrics.h"
#include "src/corfu/types.h"
#include "src/util/status.h"

namespace tango {
class Executor;
}  // namespace tango

namespace corfu {

// A decoded entry paired with its log position.
struct StreamEntry {
  LogOffset offset = kInvalidOffset;
  std::shared_ptr<const LogEntry> entry;
};

class StreamStore {
 public:
  struct Options {
    // Entries cached across streams (a multiappended entry is fetched from
    // the log once even if it belongs to many local streams).  The cache is
    // LRU: a hit promotes, so hot multiappended entries survive long replays.
    size_t cache_capacity = 8192;
    // Read-ahead depth: on a cache miss, FetchEntry batch-reads up to this
    // many upcoming known offsets in one CorfuClient::ReadBatch call and
    // lands them in the entry cache.  0 disables prefetching entirely (the
    // original one-RPC-per-entry path).
    size_t readahead = 0;
  };

  // Which way FetchEntry prefetches through the known-offset list: forward
  // for playback, backward for newest-first scans (checkpoint search).
  enum class PrefetchDirection { kForward, kBackward };

  explicit StreamStore(CorfuClient* log) : StreamStore(log, Options{}) {}
  StreamStore(CorfuClient* log, Options options);
  ~StreamStore();  // waits out any in-flight async prefetch

  // Registers interest in a stream (idempotent).  Only opened streams can be
  // synced and read.
  void Open(StreamId stream);

  // Appends to a single stream.
  tango::Result<LogOffset> Append(StreamId stream,
                                  std::span<const uint8_t> payload);

  // Appends one entry to several streams atomically (multiappend).
  tango::Result<LogOffset> MultiAppend(std::span<const uint8_t> payload,
                                       const std::vector<StreamId>& streams);

  // Brings the stream's linked list up to date with the sequencer and
  // returns the current global log tail (the position up to which the list
  // is now complete).  Must be called before ReadNext for linearizability.
  // Brown-out: when the sequencer answers with an overload / outage status
  // (kBusy, kUnavailable, kTimeout), returns the stream's last synced tail,
  // marked stale via IsStale, instead of the error, so readers keep draining
  // known offsets while the cluster sheds.  Entries are immutable, so only
  // the tail is behind.
  tango::Result<LogOffset> Sync(StreamId stream);

  // Returns the next data entry of the stream, skipping junk.  Returns
  // kUnwritten when the cursor has consumed everything Sync discovered.
  tango::Result<StreamEntry> ReadNext(StreamId stream);

  // Like ReadNext but does not advance the cursor.
  tango::Result<StreamEntry> PeekNext(StreamId stream);

  // Syncs several streams with a single sequencer round trip; returns the
  // global log tail.  Equivalent to calling Sync on each stream.  Under
  // brown-out (every requested stream already synced once, overload
  // failure) returns the most conservative stale tail: the minimum of the
  // streams' last synced tails.
  tango::Result<LogOffset> SyncAll(const std::vector<StreamId>& streams);

  // Whether the stream's last Sync served a stale (brown-out) tail rather
  // than a fresh sequencer answer.
  bool IsStale(StreamId stream) const;

  // Advances the cursor past exactly one known offset (junk included),
  // without fetching it.  Used by global-order playback, which steps all
  // co-located streams through a multiappended entry in lockstep.
  void AdvanceCursor(StreamId stream);

  // Positions the cursor at the first known offset strictly greater than
  // `offset` (used when restoring a view from a checkpoint).
  void SeekCursorAfter(StreamId stream, LogOffset offset);

  // Log offset of the next entry the cursor would deliver, or kInvalidOffset
  // if the cursor is at the synced end.
  LogOffset NextOffset(StreamId stream) const;

  // All known offsets of the stream (ascending; includes junk positions).
  const std::vector<LogOffset>& KnownOffsets(StreamId stream) const;

  // Rewinds the readnext cursor to the beginning of the stream (used to
  // rebuild a view from history, §3.1).
  void ResetCursor(StreamId stream);

  // Cached random read of any log position (repairing holes if needed).
  // With Options::readahead > 0, a miss prefetches the next known offsets in
  // `direction` via one batched read before falling back to ReadRepair for
  // the demanded offset.
  tango::Result<std::shared_ptr<const LogEntry>> FetchEntry(
      LogOffset offset,
      PrefetchDirection direction = PrefetchDirection::kForward);

  // Launches a background batched read of the uncached offsets among the
  // next Options::readahead known offsets in [from, limit) on `executor`,
  // so the fetch of the next playback window overlaps the apply of the
  // current one.  Each call examines at most readahead offsets, resuming
  // past those an earlier call already examined.  The
  // `limit` bound is the caller's playback horizon: offsets beyond it belong
  // to a future playback round and must still cross the transport then (a
  // failed fetch has to surface there, not be masked by a stale prefetch).
  // At most one async batch is in flight; calls while one is pending (or
  // with readahead 0) are no-ops.  Results are folded into the entry cache
  // from the owning thread — by the next FetchEntry or DrainAsyncPrefetch
  // call — so the cache itself stays externally serialized.  A FetchEntry
  // miss on an offset covered by the in-flight batch waits for that batch
  // instead of issuing a duplicate read.
  void StartAsyncPrefetch(LogOffset from, LogOffset limit,
                          tango::Executor* executor);

  // Folds a completed async batch into the cache; with `wait`, blocks until
  // the in-flight batch (if any) lands first.
  void DrainAsyncPrefetch(bool wait);

  // Drops every cached entry (bench/test hook; counters are kept).
  void ClearEntryCache();

  CorfuClient* log() const { return log_; }

  // Number of log reads issued for metadata reconstruction (ablation metric).
  uint64_t reconstruction_reads() const { return reconstruction_reads_; }
  // Entry-cache effectiveness counters (demanded FetchEntry lookups only;
  // prefetch inserts are not counted as misses).
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }
  // Number of ReadBatch calls issued by the prefetcher.
  uint64_t prefetch_batches() const { return prefetch_batches_; }
  // Number of background (overlapped) prefetch batches launched.
  uint64_t async_prefetch_batches() const { return async_prefetch_batches_; }

 private:
  struct StreamState {
    std::vector<LogOffset> offsets;  // ascending, complete up to synced_tail
    size_t cursor = 0;               // index into offsets
    LogOffset synced_tail = 0;       // log tail as of the last Sync
    bool stale = false;              // last Sync was a brown-out answer
  };

  // Marks `state` stale (metrics included) and returns its last synced
  // tail; the brown-out path shared by Sync and SyncAll.
  LogOffset ServeStaleTail(StreamState& state);
  void MarkFresh(StreamState& state);

  // Walks backpointers (and, on junk dead-ends, scans) to discover every
  // offset of `stream` in (floor, start_set...], appending them ascending.
  tango::Status Backfill(StreamId stream, StreamState& state,
                         const StreamTail& latest);

  StreamState& StateFor(StreamId stream);

  // LRU cache primitives.  Lookup promotes; insert evicts from the cold end.
  std::shared_ptr<const LogEntry> CacheLookup(LogOffset offset);
  void CacheInsert(LogOffset offset, std::shared_ptr<const LogEntry> entry);

  // Batch-reads up to Options::readahead uncached known offsets starting at
  // `offset` (inclusive) in `direction`, landing successes in the cache.
  // Holes/trims degrade per offset and are simply not cached.
  void Prefetch(LogOffset offset, PrefetchDirection direction);

  // Batch-reads `offsets` in one ReadBatch (best effort; holes are reported,
  // never filled).  Every entry that decodes is cached, except that a
  // `speculative` read caches only entries that are Cacheable.
  void PrefetchOffsets(const std::vector<LogOffset>& offsets,
                       bool speculative);

  // Whether a speculatively read entry may enter the cache: junk, or
  // carrying a header of an opened stream.  Foreign entries a window read
  // happens to cover must not crowd the LRU.
  bool Cacheable(const LogEntry& entry) const;

  // Backfill's one read mode: batch-reads every uncached position in
  // [lo, hi], highest first, plus the uncached `members` below lo.
  void ReadWindow(LogOffset lo, LogOffset hi,
                  const std::vector<LogOffset>& members, bool speculative);

  // Width W of Backfill's window below a frontier (its new member offsets,
  // distinct, newest first): min(readahead * g, 4 * readahead), where g is
  // the frontier's mean spacing.  0 when the window would hold no more than
  // the frontier's K members (a sparse stream): read exactly the frontier.
  LogOffset WindowWidth(const std::vector<LogOffset>& frontier) const;

  CorfuClient* log_;
  Options options_;
  std::unordered_map<StreamId, StreamState> streams_;

  // Union of every stream's known offsets (ascending) — the prefetcher's
  // read-ahead source, maintained by Backfill.
  std::set<LogOffset> known_offsets_;

  // LRU entry cache: lru_ front is hottest, back is next to evict.
  struct CachedEntry {
    std::shared_ptr<const LogEntry> entry;
    std::list<LogOffset>::iterator lru_it;
  };
  std::unordered_map<LogOffset, CachedEntry> cache_;
  std::list<LogOffset> lru_;
  uint64_t reconstruction_reads_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t prefetch_batches_ = 0;
  uint64_t async_prefetch_batches_ = 0;

  // In-flight background prefetch.  `offsets` is written by the owning
  // thread before launch and read only by it; the mutex guards the
  // worker-to-owner handoff (inflight flag + results).
  struct AsyncPrefetch {
    std::mutex mu;
    std::condition_variable cv;
    bool inflight = false;
    bool has_results = false;
    std::vector<CorfuClient::BatchedRead> results;
  };
  std::vector<LogOffset> apf_offsets_;  // request of the in-flight batch
  // Known offsets below this were already examined by an async scan; the
  // next scan resumes here (lowered when Backfill discovers older offsets).
  LogOffset apf_next_ = 0;
  AsyncPrefetch apf_;

  // Registry mirrors of the counters above, plus demanded-read accounting.
  // The cache-hit fast path increments only store.cache.hits (one atomic,
  // to stay inside the read-path overhead budget); every cache miss lands
  // in exactly one of miss_ok/trimmed/errors, so at quiescence
  //   store.cache.misses == store.fetch.miss_ok + store.fetch.trimmed +
  //                         store.fetch.errors
  // and demanded reads == hits + misses (chaos_test asserts both).
  tango::obs::Counter* obs_hits_;
  tango::obs::Counter* obs_misses_;
  tango::obs::Counter* obs_prefetch_batches_;
  tango::obs::Counter* obs_async_batches_;
  tango::obs::Counter* obs_backfill_reads_;
  tango::obs::Counter* fetch_miss_ok_;
  tango::obs::Counter* fetch_trimmed_;
  tango::obs::Counter* fetch_errors_;
  tango::obs::Counter* stale_syncs_;
  tango::obs::Gauge* stale_streams_;
};

}  // namespace corfu

#endif  // SRC_CORFU_STREAM_H_
