#include "e2ebench/workloads.h"

#include <stdlib.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/corfu/cluster.h"
#include "src/net/inproc_transport.h"
#include "src/net/tcp_transport.h"
#include "src/objects/tango_map.h"
#include "src/runtime/runtime.h"
#include "src/util/random.h"
#include "src/util/serialize.h"
#include "src/util/threading.h"

namespace e2ebench {

RuntimeCounters& RuntimeCounters::operator+=(const RuntimeCounters& o) {
  entries_played += o.entries_played;
  updates_applied += o.updates_applied;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  prefetch_batches += o.prefetch_batches;
  reconstruction_reads += o.reconstruction_reads;
  return *this;
}

RuntimeCounters RuntimeCounters::operator-(const RuntimeCounters& o) const {
  RuntimeCounters d;
  d.entries_played = entries_played - o.entries_played;
  d.updates_applied = updates_applied - o.updates_applied;
  d.cache_hits = cache_hits - o.cache_hits;
  d.cache_misses = cache_misses - o.cache_misses;
  d.prefetch_batches = prefetch_batches - o.prefetch_batches;
  d.reconstruction_reads = reconstruction_reads - o.reconstruction_reads;
  return d;
}

uint64_t OpContext::OwnRpcNanos() const {
  return ledger != nullptr ? ledger->Mine().own_rpc_ns.Get() : 0;
}

uint64_t OpContext::OverlapNanos() const {
  return slot != nullptr ? slot->OverlapNanos() : 0;
}

void OpContext::End() {
  end_ns = tango::NowNanos();
  own_rpc_end_ns = OwnRpcNanos();
  overlap_end_ns = OverlapNanos();
}

namespace {

using View = std::map<std::string, std::string>;

// splitmix64 over (seed, stream): independent, reproducible input streams.
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// FNV-1a over the sorted view.
std::string Digest(const View& view) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto feed = [&h](const std::string& s) {
    for (unsigned char ch : s) {
      h = (h ^ ch) * 0x100000001b3ULL;
    }
    h = (h ^ 0xff) * 0x100000001b3ULL;
  };
  for (const auto& [key, value] : view) {
    feed(key);
    feed(value);
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

// The map's local view, decoded from its (log-free) checkpoint image.
View Snapshot(const tango::TangoMap& map) {
  std::vector<uint8_t> image = map.Checkpoint();
  tango::ByteReader r(image);
  View view;
  uint32_t count = r.GetU32();
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    std::string key = r.GetString();
    std::string value = r.GetString();
    (void)r.GetU64();
    view.emplace(std::move(key), std::move(value));
  }
  return view;
}

// Syncs `map` to the log tail, then snapshots it.
bool SyncedSnapshot(tango::TangoMap& map, View* view) {
  if (!map.Size().ok()) {
    return false;
  }
  *view = Snapshot(map);
  return true;
}

RuntimeCounters Count(const tango::TangoRuntime& runtime) {
  tango::TangoRuntime::Stats stats = runtime.stats();
  const corfu::StreamStore& store = runtime.store();
  RuntimeCounters c;
  c.entries_played = stats.entries_played;
  c.updates_applied = stats.updates_applied;
  c.cache_hits = store.cache_hits();
  c.cache_misses = store.cache_misses();
  c.prefetch_batches = store.prefetch_batches() + store.async_prefetch_batches();
  c.reconstruction_reads = store.reconstruction_reads();
  return c;
}

// One client's view of one map: its own CorfuClient, TangoRuntime and
// TangoMap with default options.  In traced runs the client talks through
// its own LedgerTransport, which parents every RPC to the client's op.
struct ClientView {
  std::unique_ptr<LedgerTransport> wire;
  std::unique_ptr<corfu::CorfuClient> client;
  std::unique_ptr<tango::TangoRuntime> runtime;
  std::unique_ptr<tango::TangoMap> map;

  ClientView(tango::Transport* transport, const corfu::CorfuCluster& cluster,
             tango::ObjectId oid, Ledger* ledger = nullptr,
             OpSlot* slot = nullptr) {
    if (ledger != nullptr) {
      wire = std::make_unique<LedgerTransport>(transport, ledger, slot);
      transport = wire.get();
    }
    client = std::make_unique<corfu::CorfuClient>(
        transport, cluster.projection_store_node());
    runtime = std::make_unique<tango::TangoRuntime>(client.get());
    map = std::make_unique<tango::TangoMap>(runtime.get(), oid);
  }
};

// Transport the cluster registers its services on: the raw transport, or a
// LedgerTransport that times every handler.
tango::Transport* ServiceTransport(tango::Transport* raw, Ledger* ledger,
                                   std::unique_ptr<LedgerTransport>* holder) {
  if (ledger == nullptr) {
    return raw;
  }
  *holder = std::make_unique<LedgerTransport>(raw, ledger);
  return holder->get();
}

constexpr tango::ObjectId kMapOid = 1;

// --- put_tcp_durable ---------------------------------------------------------

class PutTcpDurable : public Workload {
 public:
  static constexpr uint64_t kKeysPerClient = 100000;
  static constexpr size_t kValueBytes = 64;
  // last_ marker for a key whose put failed: its value is unknown.
  static constexpr uint64_t kAmbiguous = ~0ULL;

  explicit PutTcpDurable(const Config& config) : config_(config) {}

  ~PutTcpDurable() override {
    views_.clear();
    cluster_.reset();
    if (!data_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(data_dir_, ec);
    }
  }

  // Set-up takes milliseconds, so it repeats many times.
  int setup_reps() const override { return 41; }
  double window_s(double) const override { return 0.5; }
  double tail_quantile() const override { return 0.99; }
  int64_t warmup_ops() const override { return 8000; }

  bool Setup(Ledger* ledger, OpSlot* slots) override {
    std::error_code ec;
    std::filesystem::create_directories(config_.data_root, ec);
    std::string templ = config_.data_root + "/put-XXXXXX";
    if (::mkdtemp(templ.data()) == nullptr) {
      std::fprintf(stderr, "mkdtemp under %s failed\n",
                   config_.data_root.c_str());
      return false;
    }
    data_dir_ = templ;

    tcp_ = std::make_unique<tango::TcpTransport>();
    corfu::CorfuCluster::Options options;
    options.num_storage_nodes = 2;
    options.replication_factor = 2;
    options.data_dir = data_dir_;
    if (ledger != nullptr) {
      fs_ = std::make_unique<LedgerFs>(ledger);
      options.storage.fs = fs_.get();
    }
    cluster_ = std::make_unique<corfu::CorfuCluster>(
        ServiceTransport(tcp_.get(), ledger, &server_), options);
    for (int c = 0; c < config_.clients; ++c) {
      views_.push_back(std::make_unique<ClientView>(
          tcp_.get(), *cluster_, kMapOid, ledger,
          slots != nullptr ? slots + c : nullptr));
      rngs_.emplace_back(Mix(config_.seed, 100 + c));
      last_.emplace_back(kKeysPerClient, 0);
    }
    // One put per client opens its connections before measuring.
    for (int c = 0; c < config_.clients; ++c) {
      if (!views_[c]->map->Put(WarmKey(c), Value(c + 1)).ok()) {
        return false;
      }
    }
    return true;
  }

  Outcome Op(int client, OpContext& ctx) override {
    tango::Rng& rng = rngs_[client];
    uint64_t index = rng.NextBelow(kKeysPerClient);
    uint64_t value_seed = (rng.Next() >> 1) | 1;  // never 0 or kAmbiguous
    std::string key = Key(client, index);
    std::string value = Value(value_seed);
    ctx.user_bytes = key.size() + value.size();
    tango::Status st = views_[client]->map->Put(key, value);
    last_[client][index] = st.ok() ? value_seed : kAmbiguous;
    return st.ok() ? Outcome::kOk : Outcome::kFailed;
  }

  RuntimeCounters Counters() override {
    RuntimeCounters sum;
    for (const auto& v : views_) {
      sum += Count(*v->runtime);
    }
    return sum;
  }

  // A fresh view must read back every key's last acked value, and nothing
  // for keys no put touched.
  uint64_t Verify(std::string* digest) override {
    ClientView fresh(tcp_.get(), *cluster_, kMapOid);
    View view;
    if (!SyncedSnapshot(*fresh.map, &view)) {
      return 1;
    }
    uint64_t wrong = 0;
    size_t present = 0;
    for (int c = 0; c < config_.clients; ++c) {
      auto warm = view.find(WarmKey(c));
      wrong += warm == view.end() ||
               warm->second != Value(c + 1 + config_.inject_wrong);
      present++;
      for (uint64_t i = 0; i < kKeysPerClient; ++i) {
        uint64_t v = last_[c][i];
        if (v == kAmbiguous) {
          present += view.count(Key(c, i));
          continue;
        }
        auto it = view.find(Key(c, i));
        if (v == 0) {
          wrong += it != view.end();
          continue;
        }
        present++;
        wrong += it == view.end() || it->second != Value(v);
      }
    }
    wrong += view.size() - std::min(view.size(), present);
    *digest = Digest(view);
    return wrong;
  }

 private:
  static std::string Key(int client, uint64_t index) {
    return "u" + std::to_string(client) + "-" + std::to_string(index);
  }

  static std::string WarmKey(int client) {
    return "warm" + std::to_string(client);
  }

  static std::string Value(uint64_t seed) {
    std::string value;
    value.reserve(kValueBytes);
    uint64_t x = seed;
    while (value.size() < kValueBytes) {
      char buf[17];
      std::snprintf(buf, sizeof(buf), "%016" PRIx64, x);
      value.append(buf);
      x = Mix(x, 1);
    }
    value.resize(kValueBytes);
    return value;
  }

  Config config_;
  std::string data_dir_;
  // Declaration order is teardown order, reversed: the clients go first,
  // then the cluster, then the decorators and the transport under them.
  std::unique_ptr<tango::TcpTransport> tcp_;
  std::unique_ptr<LedgerTransport> server_;
  std::unique_ptr<LedgerFs> fs_;
  std::unique_ptr<corfu::CorfuCluster> cluster_;
  std::vector<std::unique_ptr<ClientView>> views_;
  std::vector<tango::Rng> rngs_;
  // Per client, per key: the seed of the last acked value (0 = never put).
  std::vector<std::vector<uint64_t>> last_;
};

// --- txn_zipf ----------------------------------------------------------------

class TxnZipf : public Workload {
 public:
  static constexpr uint64_t kAccounts = 10000;
  static constexpr double kTheta = 0.99;

  explicit TxnZipf(const Config& config) : config_(config) {}

  int setup_reps() const override { return 7; }
  double window_s(double) const override { return 0.5; }
  double tail_quantile() const override { return 0.99; }
  int64_t warmup_ops() const override { return 15000; }

  bool Setup(Ledger* ledger, OpSlot* slots) override {
    corfu::CorfuCluster::Options options;
    options.num_storage_nodes = 4;
    options.replication_factor = 2;
    cluster_ = std::make_unique<corfu::CorfuCluster>(
        ServiceTransport(&inproc_, ledger, &server_), options);
    for (int c = 0; c < config_.clients; ++c) {
      views_.push_back(std::make_unique<ClientView>(
          &inproc_, *cluster_, kMapOid, ledger,
          slots != nullptr ? slots + c : nullptr));
      zipfs_.emplace_back(kAccounts, kTheta, Mix(config_.seed, 200 + c));
    }
    // Preload every balance to 0, striped over the clients in parallel.
    std::atomic<bool> ok{true};
    std::vector<std::thread> loaders;
    for (int c = 0; c < config_.clients; ++c) {
      loaders.emplace_back([this, c, &ok] {
        for (uint64_t a = c; a < kAccounts; a += config_.clients) {
          if (!views_[c]->map->Put(Key(a), "0").ok()) {
            ok = false;
          }
        }
      });
    }
    for (std::thread& t : loaders) {
      t.join();
    }
    // First sync of every view.
    for (const auto& v : views_) {
      tango::Result<size_t> n = v->map->Size();
      ok = ok && n.ok() && n.value() == kAccounts;
    }
    return ok;
  }

  // Moves one unit from a to b: BeginTx, Get a, Get b, Put a-1, Put b+1,
  // EndTx.
  Outcome Op(int client, OpContext& ctx) override {
    tango::ZipfGenerator& zipf = zipfs_[client];
    uint64_t a = zipf.Next();
    uint64_t b = zipf.Next();
    while (b == a) {
      b = zipf.Next();
    }
    ClientView& v = *views_[client];
    if (!v.runtime->BeginTx().ok()) {
      return Outcome::kFailed;
    }
    tango::Result<std::string> va = v.map->Get(Key(a));
    tango::Result<std::string> vb = v.map->Get(Key(b));
    if (!va.ok() || !vb.ok()) {
      v.runtime->AbortTx();
      return Outcome::kFailed;
    }
    // Every balance is an integer; anything else is a wrong read.
    int64_t ia = 0, ib = 0;
    if (!Parse(va.value(), &ia) || !Parse(vb.value(), &ib)) {
      v.runtime->AbortTx();
      return Outcome::kWrong;
    }
    if (!v.map->Put(Key(a), std::to_string(ia - 1)).ok() ||
        !v.map->Put(Key(b), std::to_string(ib + 1)).ok()) {
      v.runtime->AbortTx();
      return Outcome::kFailed;
    }
    uint64_t rpc0 = ctx.OwnRpcNanos();
    uint64_t start = tango::NowNanos();
    tango::Status st = v.runtime->EndTx();
    ctx.endtx_ns = tango::NowNanos() - start;
    ctx.endtx_rpc_ns = ctx.OwnRpcNanos() - rpc0;
    if (st.ok()) {
      return Outcome::kOk;
    }
    return st == tango::StatusCode::kAborted ? Outcome::kAborted
                                             : Outcome::kFailed;
  }

  RuntimeCounters Counters() override {
    RuntimeCounters sum;
    for (const auto& v : views_) {
      sum += Count(*v->runtime);
    }
    return sum;
  }

  // Balances sum to zero, and every view agrees after a final sync.
  uint64_t Verify(std::string* digest) override {
    std::vector<View> synced(views_.size());
    for (size_t c = 0; c < views_.size(); ++c) {
      if (!SyncedSnapshot(*views_[c]->map, &synced[c])) {
        return 1;
      }
    }
    uint64_t wrong = 0;
    for (size_t c = 1; c < synced.size(); ++c) {
      for (const auto& [key, value] : synced[0]) {
        auto it = synced[c].find(key);
        wrong += it == synced[c].end() || it->second != value;
      }
      wrong += synced[c].size() != synced[0].size();
    }
    int64_t sum = 0;
    for (const auto& [key, value] : synced[0]) {
      int64_t balance = 0;
      if (!Parse(value, &balance)) {
        wrong++;
      }
      sum += balance;
    }
    wrong += sum != (config_.inject_wrong ? 1 : 0);
    wrong += synced[0].size() != kAccounts;
    *digest = Digest(synced[0]);
    return wrong;
  }

 private:
  static std::string Key(uint64_t account) {
    return "acct" + std::to_string(account);
  }

  static bool Parse(const std::string& s, int64_t* out) {
    char* end = nullptr;
    long long v = std::strtoll(s.c_str(), &end, 10);
    if (s.empty() || end != s.c_str() + s.size()) {
      return false;
    }
    *out = v;
    return true;
  }

  Config config_;
  tango::InProcTransport inproc_;
  std::unique_ptr<LedgerTransport> server_;
  std::unique_ptr<corfu::CorfuCluster> cluster_;
  std::vector<std::unique_ptr<ClientView>> views_;
  std::vector<tango::ZipfGenerator> zipfs_;
};

// --- catchup_50us ------------------------------------------------------------

class Catchup50us : public Workload {
 public:
  static constexpr int kUpdates = 4000;  // half to the target map
  static constexpr uint64_t kKeys = 1000;
  static constexpr uint32_t kLinkLatencyUs = 50;
  static constexpr tango::ObjectId kOtherOid = 2;

  explicit Catchup50us(const Config& config) : config_(config) {}

  int setup_reps() const override { return 9; }
  // A catch-up takes over 100 ms, so the window is the whole round.
  double window_s(double round_s) const override { return round_s; }
  // A round holds about a hundred catch-ups, too few for a steady p99.
  double tail_quantile() const override { return 0.9; }
  int64_t warmup_ops() const override { return 6; }

  bool Setup(Ledger* ledger, OpSlot* slots) override {
    ledger_ = ledger;
    slots_ = slots;
    corfu::CorfuCluster::Options options;
    options.num_storage_nodes = 4;
    options.replication_factor = 2;
    cluster_ = std::make_unique<corfu::CorfuCluster>(
        ServiceTransport(&inproc_, ledger, &server_), options);
    // The writer interleaves updates to the target map and another object
    // in seeded random order, at 0 us links, so the target's entries land on
    // every replica set.
    {
      ClientView writer(&inproc_, *cluster_, kMapOid);
      tango::TangoMap other(writer.runtime.get(), kOtherOid);
      tango::Rng rng(Mix(config_.seed, 300));
      std::vector<char> to_target(kUpdates, 0);
      std::fill(to_target.begin(), to_target.begin() + kUpdates / 2, 1);
      for (int i = kUpdates - 1; i > 0; --i) {
        std::swap(to_target[i], to_target[rng.NextBelow(i + 1)]);
      }
      for (int i = 0; i < kUpdates; ++i) {
        tango::TangoMap& map = to_target[i] ? *writer.map : other;
        std::string key = "k" + std::to_string(rng.NextBelow(kKeys));
        char value[17];
        std::snprintf(value, sizeof(value), "%016" PRIx64, rng.Next());
        if (!map.Put(key, value).ok()) {
          return false;
        }
      }
      if (!SyncedSnapshot(*writer.map, &expected_)) {
        return false;
      }
    }
    if (config_.inject_wrong && !expected_.empty()) {
      expected_.begin()->second += "!";
    }
    inproc_.set_link_latency_us(kLinkLatencyUs);
    return true;
  }

  // Builds a fresh client, runtime and map and catches the view up.  The
  // view must equal the writer's final state.
  Outcome Op(int client, OpContext& ctx) override {
    auto fresh = std::make_unique<ClientView>(
        &inproc_, *cluster_, kMapOid, ledger_,
        slots_ != nullptr ? slots_ + client : nullptr);
    tango::Result<size_t> n = fresh->map->Size();
    ctx.End();
    bool right = n.ok() && n.value() == expected_.size() &&
                 Snapshot(*fresh->map) == expected_;
    RuntimeCounters counted = Count(*fresh->runtime);
    {
      std::lock_guard<std::mutex> lock(mu_);
      counters_ += counted;
    }
    if (!n.ok()) {
      return Outcome::kFailed;
    }
    return right ? Outcome::kOk : Outcome::kWrong;
  }

  RuntimeCounters Counters() override {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }

  uint64_t Verify(std::string* digest) override {
    ClientView fresh(&inproc_, *cluster_, kMapOid);
    View view;
    if (!SyncedSnapshot(*fresh.map, &view)) {
      return 1;
    }
    *digest = Digest(view);
    return view == expected_ ? 0 : 1;
  }

 private:
  Config config_;
  Ledger* ledger_ = nullptr;
  OpSlot* slots_ = nullptr;
  tango::InProcTransport inproc_;
  std::unique_ptr<LedgerTransport> server_;
  std::unique_ptr<corfu::CorfuCluster> cluster_;
  View expected_;
  std::mutex mu_;  // guards counters_
  RuntimeCounters counters_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const Config& config) {
  if (config.workload == "put_tcp_durable") {
    return std::make_unique<PutTcpDurable>(config);
  }
  if (config.workload == "txn_zipf") {
    return std::make_unique<TxnZipf>(config);
  }
  if (config.workload == "catchup_50us") {
    return std::make_unique<Catchup50us>(config);
  }
  return nullptr;
}

}  // namespace e2ebench
