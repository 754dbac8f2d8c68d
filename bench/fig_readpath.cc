// Read path: playback throughput and sync latency vs read batch size.
//
// Sweeps the simulated per-call transport latency {0, 50, 200}us against the
// read-ahead depth {1, 8, 32, 128} (1 = the unbatched one-RPC-per-entry
// path, i.e. readahead off).  For each cell a writer fills one stream, then
// a cold reader syncs it (backpointer backfill) and replays every entry with
// an empty entry cache.  Shape to reproduce: with nonzero transport latency,
// playback throughput scales near-linearly with batch size until the batch
// amortizes the round trip below the storage/deserialize cost; at zero
// latency batching is roughly neutral.  --json=FILE dumps the grid for
// EXPERIMENTS.md.

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/corfu/stream.h"

namespace tangobench {
namespace {

struct Cell {
  uint32_t latency_us = 0;
  int batch = 1;
  double sync_ms = 0;        // cold sync: backpointer walk + offset discovery
  double playback_eps = 0;   // entries/sec replaying the synced stream
  uint64_t replay_rpcs = 0;  // transport calls issued during replay
};

Cell MeasureCell(int entries, uint32_t latency_us, int batch) {
  const corfu::StreamId stream = 7;
  const std::vector<uint8_t> payload(64, 0xab);

  Testbed bed(6, 2, 0);
  // Fill phase at zero link latency: the write path is not under test.
  auto writer = bed.MakeClient();
  corfu::StreamStore wstore(writer.get());
  for (int i = 0; i < entries; ++i) {
    if (!wstore.Append(stream, payload).ok()) {
      std::fprintf(stderr, "append failed\n");
      std::exit(1);
    }
  }

  auto reader = bed.MakeClient();
  corfu::StreamStore::Options opt;
  opt.readahead = batch == 1 ? 0 : static_cast<size_t>(batch);
  opt.cache_capacity = static_cast<size_t>(entries) + 1;
  corfu::StreamStore rstore(reader.get(), opt);

  bed.transport.set_link_latency_us(latency_us);

  Cell cell;
  cell.latency_us = latency_us;
  cell.batch = batch;

  Stopwatch sync_timer;
  if (!rstore.Sync(stream).ok()) {
    std::fprintf(stderr, "sync failed\n");
    std::exit(1);
  }
  cell.sync_ms = static_cast<double>(sync_timer.ElapsedUs()) / 1000.0;

  // Replay with a cold cache so every entry crosses the transport.
  rstore.ClearEntryCache();
  rstore.ResetCursor(stream);
  uint64_t rpc_before = bed.transport.call_count();
  Stopwatch replay_timer;
  int replayed = 0;
  while (true) {
    tango::Result<corfu::StreamEntry> e = rstore.ReadNext(stream);
    if (!e.ok()) {
      if (e.status() == tango::StatusCode::kUnwritten) {
        break;  // synced end
      }
      std::fprintf(stderr, "replay failed: %s\n",
                   e.status().ToString().c_str());
      std::exit(1);
    }
    ++replayed;
  }
  double elapsed_s = static_cast<double>(replay_timer.ElapsedUs()) / 1e6;
  cell.playback_eps = replayed > 0 ? replayed / elapsed_s : 0.0;
  cell.replay_rpcs = bed.transport.call_count() - rpc_before;
  bed.transport.set_link_latency_us(0);

  if (replayed != entries) {
    std::fprintf(stderr, "replayed %d of %d entries\n", replayed, entries);
    std::exit(1);
  }
  return cell;
}

// The observability overhead budget: the hot read path with the metrics
// registry live vs SetMetricsEnabled(false), over interleaved on/off pairs.
// DESIGN.md holds the registry to < 3% on the median.
struct ObsOverhead {
  int pairs = 0;
  double enabled_eps = 0;   // medians over the pairs
  double disabled_eps = 0;
  double overhead_pct = 0;  // median of the per-pair overheads
  double overhead_p25 = 0;  // their quartiles: the spread of the estimate
  double overhead_p75 = 0;
};

// The q-quantile (0..1) of `v` by nearest rank; sorts `v`.
double Quantile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5)];
}

ObsOverhead MeasureObsOverhead(int entries, int pairs) {
  const corfu::StreamId stream = 7;
  const std::vector<uint8_t> payload(64, 0xab);

  // One shared testbed with interleaved enabled/disabled replays, so setup
  // and machine drift cancel out of the comparison.
  Testbed bed(6, 2, 0);
  auto writer = bed.MakeClient();
  corfu::StreamStore wstore(writer.get());
  for (int i = 0; i < entries; ++i) {
    if (!wstore.Append(stream, payload).ok()) {
      std::fprintf(stderr, "append failed\n");
      std::exit(1);
    }
  }
  auto reader = bed.MakeClient();
  corfu::StreamStore::Options opt;
  opt.readahead = 32;
  opt.cache_capacity = static_cast<size_t>(entries) + 1;
  corfu::StreamStore rstore(reader.get(), opt);
  if (!rstore.Sync(stream).ok()) {
    std::fprintf(stderr, "sync failed\n");
    std::exit(1);
  }

  auto replay_once = [&]() -> double {
    rstore.ClearEntryCache();
    rstore.ResetCursor(stream);
    Stopwatch timer;
    int replayed = 0;
    while (true) {
      tango::Result<corfu::StreamEntry> e = rstore.ReadNext(stream);
      if (!e.ok()) {
        if (e.status() == tango::StatusCode::kUnwritten) {
          break;
        }
        std::fprintf(stderr, "replay failed: %s\n",
                     e.status().ToString().c_str());
        std::exit(1);
      }
      ++replayed;
    }
    if (replayed != entries) {
      std::fprintf(stderr, "replayed %d of %d entries\n", replayed, entries);
      std::exit(1);
    }
    return replayed / (static_cast<double>(timer.ElapsedUs()) / 1e6);
  };

  replay_once();  // warmup: page in code and allocator state

  // Each pair measures enabled and disabled back to back, in alternating
  // order to cancel drift.  The per-pair overheads give a median and its
  // quartiles, so one pair that lands on a scheduler hiccup moves neither.
  std::vector<double> enabled, disabled, overheads;
  for (int r = 0; r < pairs; ++r) {
    double enabled_eps, disabled_eps;
    if (r % 2 == 0) {
      tango::obs::SetMetricsEnabled(true);
      enabled_eps = replay_once();
      tango::obs::SetMetricsEnabled(false);
      disabled_eps = replay_once();
    } else {
      tango::obs::SetMetricsEnabled(false);
      disabled_eps = replay_once();
      tango::obs::SetMetricsEnabled(true);
      enabled_eps = replay_once();
    }
    enabled.push_back(enabled_eps);
    disabled.push_back(disabled_eps);
    overheads.push_back((disabled_eps - enabled_eps) * 100.0 / disabled_eps);
  }
  tango::obs::SetMetricsEnabled(true);
  ObsOverhead result;
  result.pairs = pairs;
  result.enabled_eps = Quantile(enabled, 0.5);
  result.disabled_eps = Quantile(disabled, 0.5);
  result.overhead_pct = Quantile(overheads, 0.5);
  result.overhead_p25 = Quantile(overheads, 0.25);
  result.overhead_p75 = Quantile(overheads, 0.75);
  return result;
}

void Run(const Flags& flags) {
  const int entries = static_cast<int>(flags.GetInt("entries", 2000));
  const int obs_reps =
      std::max(1, static_cast<int>(flags.GetInt("obs-reps", 101)));
  const std::string json_path = flags.GetString("json", "");
  auto stats_dumper = MaybeStartStatsDumper(flags);

  std::printf(
      "Read path: playback throughput vs read batch size\n"
      "(%d entries, 6 storage nodes, replication 2; batch 1 = readahead "
      "off)\n\n",
      entries);
  PrintHeader({"latency_us", "batch", "sync_ms", "Kentries/s", "replay_rpcs"});

  std::vector<Cell> cells;
  for (uint32_t latency_us : {0u, 50u, 200u}) {
    for (int batch : {1, 8, 32, 128}) {
      Cell cell = MeasureCell(entries, latency_us, batch);
      PrintRow({std::to_string(latency_us), std::to_string(batch),
                Fmt(cell.sync_ms, 1), Fmt(cell.playback_eps / 1000.0),
                std::to_string(cell.replay_rpcs)});
      cells.push_back(cell);
    }
    std::printf("\n");
  }

  // Longer runs than the grid cells: the replay must be well past the
  // timer/cache-warmup noise floor for a < 3% comparison to mean anything.
  const int obs_entries = std::max(entries, 10000);
  ObsOverhead obs = MeasureObsOverhead(obs_entries, obs_reps);
  std::printf(
      "metrics-registry overhead (%d entries, latency 0, batch 32, %d "
      "interleaved pairs):\n"
      "  enabled %.0f entries/s, disabled %.0f entries/s (medians) -> "
      "%.2f%%, quartiles %.2f..%.2f%% (budget < 3%%)\n\n",
      obs_entries, obs.pairs, obs.enabled_eps, obs.disabled_eps,
      obs.overhead_pct, obs.overhead_p25, obs.overhead_p75);

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      std::exit(1);
    }
    std::fprintf(f, "{\n  \"bench\": \"fig_readpath\",\n  \"entries\": %d,\n",
                 entries);
    std::fprintf(f,
                 "  \"obs_overhead\": {\"pairs\": %d, "
                 "\"enabled_entries_per_sec\": %.1f, "
                 "\"disabled_entries_per_sec\": %.1f, \"overhead_pct\": "
                 "%.2f, \"overhead_pct_p25\": %.2f, "
                 "\"overhead_pct_p75\": %.2f},\n",
                 obs.pairs, obs.enabled_eps, obs.disabled_eps,
                 obs.overhead_pct, obs.overhead_p25, obs.overhead_p75);
    WriteRunInfoField(f);
    WriteMetricsField(f);
    std::fprintf(f, "  \"cells\": [\n");
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(f,
                   "    {\"latency_us\": %u, \"batch\": %d, \"sync_ms\": "
                   "%.2f, \"playback_entries_per_sec\": %.1f, "
                   "\"replay_rpcs\": %llu}%s\n",
                   c.latency_us, c.batch, c.sync_ms, c.playback_eps,
                   static_cast<unsigned long long>(c.replay_rpcs),
                   i + 1 == cells.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace tangobench

int main(int argc, char** argv) {
  tangobench::Flags flags(argc, argv);
  tangobench::Run(flags);
  return 0;
}
