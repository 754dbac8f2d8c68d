#include "src/corfu/stream.h"

#include <algorithm>
#include <functional>

#include "src/util/logging.h"
#include "src/util/threading.h"

namespace corfu {

using tango::Result;
using tango::Status;
using tango::StatusCode;

StreamStore::StreamStore(CorfuClient* log, Options options)
    : log_(log), options_(options) {
  auto& reg = tango::obs::MetricsRegistry::Default();
  obs_hits_ = reg.GetCounter("store.cache.hits");
  obs_misses_ = reg.GetCounter("store.cache.misses");
  obs_prefetch_batches_ = reg.GetCounter("store.prefetch.batches");
  obs_async_batches_ = reg.GetCounter("store.prefetch.async_batches");
  obs_backfill_reads_ = reg.GetCounter("store.backfill.reads");
  fetch_miss_ok_ = reg.GetCounter("store.fetch.miss_ok");
  fetch_trimmed_ = reg.GetCounter("store.fetch.trimmed");
  fetch_errors_ = reg.GetCounter("store.fetch.errors");
  stale_syncs_ = reg.GetCounter("overload.stream.stale_syncs");
  stale_streams_ = reg.GetGauge("overload.stream.stale");
}

StreamStore::~StreamStore() { DrainAsyncPrefetch(/*wait=*/true); }

void StreamStore::Open(StreamId stream) { (void)StateFor(stream); }

StreamStore::StreamState& StreamStore::StateFor(StreamId stream) {
  return streams_[stream];
}

Result<LogOffset> StreamStore::Append(StreamId stream,
                                      std::span<const uint8_t> payload) {
  return log_->AppendToStreams(payload, {stream});
}

Result<LogOffset> StreamStore::MultiAppend(
    std::span<const uint8_t> payload, const std::vector<StreamId>& streams) {
  return log_->AppendToStreams(payload, streams);
}

std::shared_ptr<const LogEntry> StreamStore::CacheLookup(LogOffset offset) {
  auto it = cache_.find(offset);
  if (it == cache_.end()) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // promote on hit
  return it->second.entry;
}

void StreamStore::CacheInsert(LogOffset offset,
                              std::shared_ptr<const LogEntry> entry) {
  auto it = cache_.find(offset);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;  // entries are immutable; keep the existing copy
  }
  lru_.push_front(offset);
  cache_.emplace(offset, CachedEntry{std::move(entry), lru_.begin()});
  while (cache_.size() > options_.cache_capacity) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
}

void StreamStore::ClearEntryCache() {
  cache_.clear();
  lru_.clear();
  apf_next_ = 0;
}

bool StreamStore::Cacheable(const LogEntry& entry) const {
  if (entry.is_junk()) {
    return true;
  }
  for (const StreamHeader& header : entry.headers) {
    if (streams_.contains(header.stream)) {
      return true;
    }
  }
  return false;
}

void StreamStore::PrefetchOffsets(const std::vector<LogOffset>& offsets,
                                  bool speculative) {
  if (offsets.empty()) {
    return;
  }
  ++prefetch_batches_;
  obs_prefetch_batches_->Add();
  Result<std::vector<CorfuClient::BatchedRead>> batch =
      log_->ReadBatch(offsets);
  if (!batch.ok()) {
    return;  // best effort: demand reads repair or surface the error
  }
  for (size_t i = 0; i < offsets.size(); ++i) {
    CorfuClient::BatchedRead& slot = (*batch)[i];
    if (slot.status.ok() && (!speculative || Cacheable(slot.entry))) {
      CacheInsert(offsets[i],
                  std::make_shared<const LogEntry>(std::move(slot.entry)));
    }
  }
}

void StreamStore::ReadWindow(LogOffset lo, LogOffset hi,
                             const std::vector<LogOffset>& members,
                             bool speculative) {
  std::vector<LogOffset> wanted;
  for (LogOffset o = hi + 1; o-- > lo;) {
    if (!cache_.contains(o)) {
      wanted.push_back(o);
    }
  }
  for (LogOffset o : members) {
    if (o < lo && !cache_.contains(o)) {
      wanted.push_back(o);
    }
  }
  PrefetchOffsets(wanted, speculative);
}

void StreamStore::Prefetch(LogOffset offset, PrefetchDirection direction) {
  std::vector<LogOffset> wanted;
  wanted.reserve(options_.readahead);
  if (direction == PrefetchDirection::kForward) {
    for (auto it = known_offsets_.lower_bound(offset);
         it != known_offsets_.end() && wanted.size() < options_.readahead;
         ++it) {
      if (!cache_.contains(*it)) {
        wanted.push_back(*it);
      }
    }
  } else {
    auto it = known_offsets_.upper_bound(offset);
    while (it != known_offsets_.begin() &&
           wanted.size() < options_.readahead) {
      --it;
      if (!cache_.contains(*it)) {
        wanted.push_back(*it);
      }
    }
  }
  PrefetchOffsets(wanted, /*speculative=*/false);
}

void StreamStore::StartAsyncPrefetch(LogOffset from, LogOffset limit,
                                     tango::Executor* executor) {
  if (options_.readahead == 0 || executor == nullptr) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(apf_.mu);
    if (apf_.inflight) {
      return;
    }
  }
  DrainAsyncPrefetch(/*wait=*/false);  // fold in a landed batch first

  // Examine at most `readahead` known offsets, resuming where the previous
  // call stopped: an all-cached replay then costs O(readahead) per entry
  // instead of a walk over every remaining known offset.
  std::vector<LogOffset> wanted;
  wanted.reserve(options_.readahead);
  auto it = known_offsets_.lower_bound(std::max(from, apf_next_));
  for (size_t examined = 0; it != known_offsets_.end() && *it < limit &&
                            examined < options_.readahead;
       ++it, ++examined) {
    if (!cache_.contains(*it)) {
      wanted.push_back(*it);
    }
    apf_next_ = *it + 1;
  }
  if (wanted.empty()) {
    return;
  }
  apf_offsets_ = wanted;
  {
    std::lock_guard<std::mutex> lock(apf_.mu);
    apf_.inflight = true;
    apf_.has_results = false;
    apf_.results.clear();
  }
  ++async_prefetch_batches_;
  obs_async_batches_->Add();
  executor->Submit([this, wanted = std::move(wanted)] {
    Result<std::vector<CorfuClient::BatchedRead>> batch =
        log_->ReadBatch(wanted);
    std::lock_guard<std::mutex> lock(apf_.mu);
    if (batch.ok()) {
      apf_.results = std::move(*batch);
      apf_.has_results = true;
    }
    apf_.inflight = false;
    apf_.cv.notify_all();
  });
}

void StreamStore::DrainAsyncPrefetch(bool wait) {
  std::vector<CorfuClient::BatchedRead> results;
  {
    std::unique_lock<std::mutex> lock(apf_.mu);
    if (wait) {
      apf_.cv.wait(lock, [this] { return !apf_.inflight; });
    } else if (apf_.inflight) {
      return;
    }
    if (!apf_.has_results) {
      return;
    }
    results = std::move(apf_.results);
    apf_.has_results = false;
  }
  for (size_t i = 0; i < results.size() && i < apf_offsets_.size(); ++i) {
    if (results[i].status.ok()) {
      CacheInsert(apf_offsets_[i], std::make_shared<const LogEntry>(
                                       std::move(results[i].entry)));
    }
  }
  apf_offsets_.clear();
}

Result<std::shared_ptr<const LogEntry>> StreamStore::FetchEntry(
    LogOffset offset, PrefetchDirection direction) {
  DrainAsyncPrefetch(/*wait=*/false);
  // The cache-hit fast path pays for exactly one counter update; demanded
  // reads are derived as hits + misses, and the full outcome accounting
  // (miss_ok/trimmed/errors) happens only on the slow miss path.
  if (std::shared_ptr<const LogEntry> hit = CacheLookup(offset)) {
    ++cache_hits_;
    obs_hits_->Add();
    return hit;
  }
  ++cache_misses_;
  obs_misses_->Add();
  // A miss on an offset the in-flight background batch already covers: wait
  // for that batch rather than issuing a duplicate read.
  if (std::binary_search(apf_offsets_.begin(), apf_offsets_.end(), offset)) {
    DrainAsyncPrefetch(/*wait=*/true);
    if (std::shared_ptr<const LogEntry> hit = CacheLookup(offset)) {
      fetch_miss_ok_->Add();
      return hit;
    }
  }
  if (options_.readahead > 0) {
    Prefetch(offset, direction);
    if (std::shared_ptr<const LogEntry> hit = CacheLookup(offset)) {
      fetch_miss_ok_->Add();
      return hit;
    }
    // The batch reported a hole, a trim, or an error for this offset; fall
    // through to the single-read path, which waits out and repairs holes.
  }
  Result<LogEntry> entry = log_->ReadRepair(offset);
  if (!entry.ok()) {
    if (entry.status() == StatusCode::kTrimmed) {
      fetch_trimmed_->Add();
    } else {
      fetch_errors_->Add();
    }
    return entry.status();
  }
  fetch_miss_ok_->Add();
  auto shared = std::make_shared<const LogEntry>(std::move(entry).value());
  CacheInsert(offset, shared);
  return shared;
}

LogOffset StreamStore::WindowWidth(
    const std::vector<LogOffset>& frontier) const {
  const uint64_t n = frontier.size();
  if (n < 2) {
    return 0;
  }
  // g = span / (n - 1), the mean spacing of the frontier backpointers: the
  // stream's measured density near the frontier.
  const uint64_t span = frontier.front() - frontier.back();
  const uint64_t width =
      std::min(options_.readahead * span / (n - 1), 4 * options_.readahead);
  // W / g <= K: the window would hold no more members than the frontier.
  return width * (n - 1) <= n * span ? 0 : width;
}

Status StreamStore::Backfill(StreamId stream, StreamState& state,
                             const StreamTail& latest) {
  // Positions below `first` are already known (or precede the stream).
  const LogOffset first = state.offsets.empty() ? 0 : state.offsets.back() + 1;
  const bool batched = options_.readahead > 1;
  // Lowest position of a `width`-position window whose top is `top`.
  auto bottom = [first](LogOffset top, LogOffset width) {
    return std::max(first, top + 1 > width ? top + 1 - width : 0);
  };
  // Positions from `unread` up were already covered by a window read of
  // this walk; later (older) frontiers only need what lies below it.
  LogOffset unread = kInvalidOffset;

  std::vector<LogOffset> discovered;
  std::vector<LogOffset> chain(latest.begin(), latest.end());
  std::vector<LogOffset> frontier;
  while (true) {
    frontier.clear();
    for (LogOffset o : chain) {
      if (o != kInvalidOffset && o >= first) {
        frontier.push_back(o);
      }
    }
    if (frontier.empty()) {
      break;  // reached known territory or the start of the stream
    }
    std::sort(frontier.begin(), frontier.end(), std::greater<>());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
    discovered.insert(discovered.end(), frontier.begin(), frontier.end());
    const LogOffset oldest = frontier.back();

    // Stride: one read yields the next K backpointers.  When the frontier
    // misses the cache, one batch covers many strides: every uncached
    // position in a window of W below the newest missing member (W sized
    // from the stream's density), plus the frontier members below it.
    // Backpointers stay the only source of membership; the window only
    // fills the cache, and never fills a hole.
    if (batched) {
      auto missing =
          std::find_if(frontier.begin(), frontier.end(), [&](LogOffset o) {
            return o < unread && !cache_.contains(o);
          });
      if (missing != frontier.end()) {
        const LogOffset hi = *missing;
        const LogOffset width = WindowWidth(frontier);
        LogOffset lo = hi + 1;  // width 0: read exactly the frontier
        if (width > 0) {
          lo = bottom(hi, width);
          unread = lo;
        }
        ReadWindow(lo, hi, frontier, /*speculative=*/true);
      }
    }
    ++reconstruction_reads_;
    obs_backfill_reads_->Add();
    Result<std::shared_ptr<const LogEntry>> entry = FetchEntry(oldest);
    if (!entry.ok()) {
      if (entry.status() == StatusCode::kTrimmed) {
        break;  // history below this point was forgotten
      }
      return entry.status();
    }
    const StreamHeader* header = (*entry)->FindHeader(stream);
    if (header != nullptr) {
      chain.assign(header->backpointers.begin(), header->backpointers.end());
      continue;
    }

    // Dead end: the frontier entry is junk (a filled hole carries no
    // backpointers).  Fall back to scanning the log backward until we
    // reconnect with known territory (§5, Failure Handling).  Every scanned
    // position is demanded, so the same descending-window reader caches
    // all of them, `readahead` positions per batch.
    LogOffset window_lo = oldest;
    for (LogOffset scan = oldest; scan-- > first;) {
      if (batched && scan < window_lo) {
        window_lo = bottom(scan, options_.readahead);
        ReadWindow(window_lo, scan, {}, /*speculative=*/false);
      }
      ++reconstruction_reads_;
      obs_backfill_reads_->Add();
      Result<std::shared_ptr<const LogEntry>> e = FetchEntry(scan);
      if (!e.ok()) {
        if (e.status() == StatusCode::kTrimmed) {
          break;
        }
        return e.status();
      }
      if ((*e)->FindHeader(stream) != nullptr) {
        discovered.push_back(scan);
      }
    }
    break;
  }

  if (!discovered.empty()) {
    std::sort(discovered.begin(), discovered.end());
    discovered.erase(std::unique(discovered.begin(), discovered.end()),
                     discovered.end());
    state.offsets.insert(state.offsets.end(), discovered.begin(),
                         discovered.end());
    known_offsets_.insert(discovered.begin(), discovered.end());
    apf_next_ = std::min(apf_next_, discovered.front());
  }
  return Status::Ok();
}

namespace {

// Sync failures that mean "the cluster is shedding or partially out", where
// a stale answer beats no answer.  kSealedEpoch and hard errors are not
// brown-out material: the former already retried inside the client, and the
// latter would hide real bugs.
bool BrownoutStatus(const Status& st) {
  return st == StatusCode::kBusy || st == StatusCode::kUnavailable ||
         st == StatusCode::kTimeout;
}

}  // namespace

LogOffset StreamStore::ServeStaleTail(StreamState& state) {
  stale_syncs_->Add();
  if (!state.stale) {
    state.stale = true;
    stale_streams_->Add(1);
  }
  return state.synced_tail;
}

void StreamStore::MarkFresh(StreamState& state) {
  if (state.stale) {
    state.stale = false;
    stale_streams_->Add(-1);
  }
}

bool StreamStore::IsStale(StreamId stream) const {
  auto it = streams_.find(stream);
  return it != streams_.end() && it->second.stale;
}

Result<LogOffset> StreamStore::Sync(StreamId stream) {
  StreamState& state = StateFor(stream);
  Result<SequencerTailInfo> info = log_->StreamTails({stream});
  if (!info.ok()) {
    if (BrownoutStatus(info.status())) {
      // Brown-out: the sequencer (or the path to it) is shedding.  Readers
      // keep consuming everything already discovered — entries are
      // immutable, so the list is correct, just possibly behind.
      return ServeStaleTail(state);
    }
    return info.status();
  }
  TANGO_RETURN_IF_ERROR(Backfill(stream, state, info->backpointers[0]));
  state.synced_tail = info->tail;
  MarkFresh(state);
  return info->tail;
}

Result<StreamEntry> StreamStore::ReadNext(StreamId stream) {
  StreamState& state = StateFor(stream);
  while (state.cursor < state.offsets.size()) {
    LogOffset offset = state.offsets[state.cursor];
    Result<std::shared_ptr<const LogEntry>> entry = FetchEntry(offset);
    if (!entry.ok()) {
      if (entry.status() == StatusCode::kTrimmed) {
        ++state.cursor;  // trimmed history: nothing to deliver
        continue;
      }
      return entry.status();
    }
    ++state.cursor;
    if ((*entry)->is_junk()) {
      continue;  // filled hole: position consumed, nothing to deliver
    }
    StreamEntry out;
    out.offset = offset;
    out.entry = std::move(entry).value();
    return out;
  }
  return Status(StatusCode::kUnwritten, "stream cursor at synced end");
}

Result<StreamEntry> StreamStore::PeekNext(StreamId stream) {
  StreamState& state = StateFor(stream);
  size_t saved = state.cursor;
  Result<StreamEntry> entry = ReadNext(stream);
  state.cursor = saved;
  return entry;
}

LogOffset StreamStore::NextOffset(StreamId stream) const {
  auto it = streams_.find(stream);
  if (it == streams_.end() || it->second.cursor >= it->second.offsets.size()) {
    return kInvalidOffset;
  }
  return it->second.offsets[it->second.cursor];
}

const std::vector<LogOffset>& StreamStore::KnownOffsets(
    StreamId stream) const {
  static const std::vector<LogOffset> kEmpty;
  auto it = streams_.find(stream);
  return it == streams_.end() ? kEmpty : it->second.offsets;
}

void StreamStore::ResetCursor(StreamId stream) { StateFor(stream).cursor = 0; }

Result<LogOffset> StreamStore::SyncAll(const std::vector<StreamId>& streams) {
  if (streams.empty()) {
    return log_->CheckTail();
  }
  Result<SequencerTailInfo> info = log_->StreamTails(streams);
  if (!info.ok()) {
    if (BrownoutStatus(info.status())) {
      // Brown-out: every requested stream serves its last synced list; the
      // returned tail is the most conservative one (all lists are complete
      // up to the minimum).
      LogOffset tail = kInvalidOffset;
      for (StreamId stream : streams) {
        tail = std::min(tail, ServeStaleTail(StateFor(stream)));
      }
      return tail;
    }
    return info.status();
  }
  for (size_t i = 0; i < streams.size(); ++i) {
    StreamState& state = StateFor(streams[i]);
    TANGO_RETURN_IF_ERROR(
        Backfill(streams[i], state, info->backpointers[i]));
    state.synced_tail = info->tail;
    MarkFresh(state);
  }
  return info->tail;
}

void StreamStore::AdvanceCursor(StreamId stream) {
  StreamState& state = StateFor(stream);
  if (state.cursor < state.offsets.size()) {
    ++state.cursor;
  }
}

void StreamStore::SeekCursorAfter(StreamId stream, LogOffset offset) {
  StreamState& state = StateFor(stream);
  state.cursor = static_cast<size_t>(
      std::upper_bound(state.offsets.begin(), state.offsets.end(), offset) -
      state.offsets.begin());
}

}  // namespace corfu
