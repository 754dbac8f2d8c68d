// Figure 9: transactions on a single fully replicated TangoMap.
//
// Every node hosts a view of the same map; each transaction reads 3 keys and
// writes 3 other keys, with keys drawn zipf (YCSB-a style, theta .99) or
// uniform.  The paper's shapes: goodput approaches throughput as the key
// space grows (less contention); zipf keeps goodput lower than uniform at
// every size; and adding nodes beyond a point does not increase throughput —
// the playback bottleneck, since every client must consume every update.
// --json=FILE dumps the grid, stamped with run_info, for EXPERIMENTS.md.

#include "bench/bench_common.h"
#include "src/objects/tango_map.h"
#include "src/runtime/runtime.h"

namespace tangobench {
namespace {

constexpr tango::ObjectId kMapOid = 1;

struct Cell {
  bool zipf = false;
  uint64_t keys = 0;
  int nodes = 0;
  double tx_per_sec = 0;
  double good_per_sec = 0;
};

struct Node {
  std::unique_ptr<corfu::CorfuClient> client;
  std::unique_ptr<tango::TangoRuntime> runtime;
  std::unique_ptr<tango::TangoMap> map;
};

void Run(const Flags& flags) {
  const int duration_ms = static_cast<int>(flags.GetInt("duration-ms", 300));
  const int reads_per_tx = static_cast<int>(flags.GetInt("reads", 3));
  const int writes_per_tx = static_cast<int>(flags.GetInt("writes", 3));
  // Client-side latency between reading and committing.  On the paper's
  // testbed this window is real network/SSD time (tx latency ~6.5 ms); in
  // one process the threads would otherwise serialize and almost never
  // overlap, hiding contention entirely.
  const int think_us = static_cast<int>(flags.GetInt("think-us", 200));
  const std::string json_path = flags.GetString("json", "");

  std::printf(
      "Figure 9: transactions on one fully replicated TangoMap (3R+3W)\n\n");
  PrintHeader({"dist", "keys", "nodes", "Ktx/s", "Kgood/s", "good%"});

  std::vector<Cell> cells;
  for (bool zipf : {true, false}) {
    for (uint64_t num_keys : {10ULL, 1000ULL, 100000ULL}) {
      for (int num_nodes : {2, 4, 8}) {
        Testbed bed(18, 2, 0);
        std::vector<Node> nodes(num_nodes);
        for (Node& node : nodes) {
          node.client = bed.MakeClient();
          node.runtime =
              std::make_unique<tango::TangoRuntime>(node.client.get());
          node.map =
              std::make_unique<tango::TangoMap>(node.runtime.get(), kMapOid);
        }
        // Seed a few keys and sync all views.
        (void)nodes[0].map->Put("seed", "0");
        for (Node& node : nodes) {
          (void)node.map->Size();
        }

        RunResult result = RunWorkers(
            num_nodes, duration_ms,
            [&](int t, std::atomic<bool>* stop, WorkerCounts* counts) {
              Node& node = nodes[t];
              tango::ZipfGenerator zgen(num_keys, 0.99, 7000 + t);
              tango::Rng rng(9000 + t);
              auto next_key = [&] {
                uint64_t k = zipf ? zgen.Next() : rng.NextBelow(num_keys);
                return "key" + std::to_string(k);
              };
              while (!stop->load(std::memory_order_relaxed)) {
                (void)node.runtime->BeginTx();
                for (int r = 0; r < reads_per_tx; ++r) {
                  (void)node.map->Get(next_key());
                }
                bool staged = true;
                for (int w = 0; w < writes_per_tx; ++w) {
                  staged &= node.map->Put(next_key(), "v").ok();
                }
                if (think_us > 0) {
                  std::this_thread::sleep_for(
                      std::chrono::microseconds(think_us));
                }
                counts->total++;
                if (staged && node.runtime->EndTx().ok()) {
                  counts->good++;
                } else if (node.runtime->InTx()) {
                  node.runtime->AbortTx();
                }
              }
            });

        double good_pct = result.ops_per_sec > 0
                              ? 100.0 * result.good_ops_per_sec /
                                    result.ops_per_sec
                              : 0;
        PrintRow({zipf ? "zipf" : "uniform", std::to_string(num_keys),
                  std::to_string(num_nodes),
                  Fmt(result.ops_per_sec / 1000.0, 2),
                  Fmt(result.good_ops_per_sec / 1000.0, 2), Fmt(good_pct)});
        cells.push_back({zipf, num_keys, num_nodes, result.ops_per_sec,
                         result.good_ops_per_sec});
      }
    }
    std::printf("\n");
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      std::exit(1);
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"fig9_txn_map\",\n"
                 "  \"duration_ms\": %d,\n  \"reads\": %d,\n"
                 "  \"writes\": %d,\n  \"think_us\": %d,\n",
                 duration_ms, reads_per_tx, writes_per_tx, think_us);
    WriteRunInfoField(f);
    std::fprintf(f, "  \"cells\": [\n");
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(f,
                   "    {\"dist\": \"%s\", \"keys\": %llu, \"nodes\": %d, "
                   "\"tx_per_sec\": %.1f, \"good_per_sec\": %.1f}%s\n",
                   c.zipf ? "zipf" : "uniform",
                   static_cast<unsigned long long>(c.keys), c.nodes,
                   c.tx_per_sec, c.good_per_sec,
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
