#include "src/baseline/two_phase_locking.h"

#include <algorithm>
#include <atomic>

#include "src/corfu/types.h"
#include "src/util/logging.h"

namespace twopl {

using corfu::kLockAbort;
using corfu::kLockAcquire;
using corfu::kLockCommit;
using corfu::kTimestampNext;
using tango::ByteReader;
using tango::ByteWriter;
using tango::NodeId;
using tango::Result;
using tango::Status;
using tango::StatusCode;

TimestampOracle::TimestampOracle(tango::Transport* transport, NodeId node)
    : transport_(transport), node_(node) {
  dispatcher_.Register(kTimestampNext,
                       [this](ByteReader& /*req*/, ByteWriter& resp) {
                         resp.PutU64(next_.fetch_add(1));
                         return Status::Ok();
                       });
  dispatcher_.Serve(transport_, node_);
}

TimestampOracle::~TimestampOracle() { transport_->UnregisterNode(node_); }

Result<TxTimestamp> FetchTimestamp(tango::Transport* transport,
                                   NodeId oracle) {
  std::vector<uint8_t> resp;
  Status st = transport->Call(oracle, kTimestampNext, {}, &resp);
  if (!st.ok()) {
    return st;
  }
  ByteReader r(resp);
  TxTimestamp ts = r.GetU64();
  if (!r.ok()) {
    return Status(StatusCode::kInternal, "malformed timestamp");
  }
  return ts;
}

ItemStore::ItemStore(tango::Transport* transport, NodeId node)
    : transport_(transport), node_(node) {
  dispatcher_.Register(kLockAcquire, [this](ByteReader& q, ByteWriter& p) {
    return HandleLock(q, p);
  });
  dispatcher_.Register(kLockCommit, [this](ByteReader& q, ByteWriter& p) {
    return HandleCommit(q, p);
  });
  dispatcher_.Register(kLockAbort, [this](ByteReader& q, ByteWriter& p) {
    return HandleAbort(q, p);
  });
  dispatcher_.Serve(transport_, node_);
}

ItemStore::~ItemStore() { transport_->UnregisterNode(node_); }

ItemStore::VersionedValue ItemStore::Read(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  const Item& item = items_[key];
  return VersionedValue{item.value, item.version};
}

Result<TxTimestamp> ItemStore::Lock(uint64_t txid, uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  Item& item = items_[key];
  if (item.locked_by != 0 && item.locked_by != txid) {
    return Status(StatusCode::kUnavailable, "item locked");
  }
  item.locked_by = txid;
  return item.version;
}

void ItemStore::Unlock(uint64_t txid, uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = items_.find(key);
  if (it != items_.end() && it->second.locked_by == txid) {
    it->second.locked_by = 0;
  }
}

Status ItemStore::Commit(uint64_t txid, uint64_t key, int64_t value,
                         TxTimestamp ts) {
  std::lock_guard<std::mutex> lock(mu_);
  Item& item = items_[key];
  if (item.locked_by != txid) {
    return Status(StatusCode::kFailedPrecondition, "commit without lock");
  }
  item.value = value;
  item.version = ts;
  item.locked_by = 0;
  return Status::Ok();
}

Status ItemStore::HandleLock(ByteReader& req, ByteWriter& resp) {
  uint64_t txid = req.GetU64();
  uint64_t key = req.GetU64();
  if (!req.ok()) {
    return Status(StatusCode::kInvalidArgument, "malformed lock");
  }
  Result<TxTimestamp> version = Lock(txid, key);
  if (!version.ok()) {
    return version.status();
  }
  resp.PutU64(*version);
  return Status::Ok();
}

Status ItemStore::HandleCommit(ByteReader& req, ByteWriter& /*resp*/) {
  uint64_t txid = req.GetU64();
  uint64_t key = req.GetU64();
  int64_t value = req.GetI64();
  TxTimestamp ts = req.GetU64();
  if (!req.ok()) {
    return Status(StatusCode::kInvalidArgument, "malformed commit");
  }
  return Commit(txid, key, value, ts);
}

Status ItemStore::HandleAbort(ByteReader& req, ByteWriter& /*resp*/) {
  uint64_t txid = req.GetU64();
  uint64_t key = req.GetU64();
  if (!req.ok()) {
    return Status(StatusCode::kInvalidArgument, "malformed abort");
  }
  Unlock(txid, key);
  return Status::Ok();
}

TwoPhaseLockingClient::TwoPhaseLockingClient(tango::Transport* transport,
                                             NodeId oracle,
                                             ItemStore* local_store,
                                             uint64_t client_id)
    : transport_(transport),
      oracle_(oracle),
      local_store_(local_store),
      client_id_(client_id) {}

Status TwoPhaseLockingClient::ExecuteTx(const std::vector<ReadIntent>& reads,
                                        const std::vector<WriteIntent>& writes,
                                        int max_retries) {
  for (int attempt = 0; attempt < max_retries; ++attempt) {
    Status st = TryOnce(reads, writes);
    if (st.ok() || st != StatusCode::kAborted) {
      return st;
    }
    ++retries_;
  }
  return Status(StatusCode::kAborted, "2PL retries exhausted");
}

Status TwoPhaseLockingClient::TryOnce(const std::vector<ReadIntent>& reads,
                                      const std::vector<WriteIntent>& writes) {
  uint64_t txid = (client_id_ << 32) | tx_seq_++;

  // Phase 0: read the (local) read set optimistically.
  std::vector<std::pair<uint64_t, TxTimestamp>> observed;
  observed.reserve(reads.size());
  for (const ReadIntent& read : reads) {
    observed.emplace_back(read.key, local_store_->Read(read.key).version);
  }

  // Phase 1a: timestamp = this transaction's version.
  Result<TxTimestamp> ts = FetchTimestamp(transport_, oracle_);
  if (!ts.ok()) {
    return ts.status();
  }

  struct Held {
    NodeId owner;
    uint64_t key;
    bool local;
  };
  std::vector<Held> held;
  auto unlock_all = [&] {
    for (const Held& h : held) {
      if (h.local) {
        local_store_->Unlock(txid, h.key);
      } else {
        ByteWriter w(16);
        w.PutU64(txid);
        w.PutU64(h.key);
        (void)transport_->Call(h.owner, kLockAbort, w.bytes(), nullptr);
      }
    }
    held.clear();
  };

  // Phase 1b: lock + validate the read set.
  for (const auto& [key, version] : observed) {
    Result<TxTimestamp> current = local_store_->Lock(txid, key);
    if (!current.ok()) {
      unlock_all();
      return Status(StatusCode::kAborted, "read lock unavailable");
    }
    held.push_back(Held{local_store_->node(), key, true});
    if (*current != version) {
      unlock_all();
      return Status(StatusCode::kAborted, "read-set item changed");
    }
  }

  // Phase 2: lock the write set at its owners, checking for write-write
  // conflicts (any version above our timestamp).
  for (const WriteIntent& write : writes) {
    TxTimestamp version;
    if (write.owner == local_store_->node()) {
      Result<TxTimestamp> v = local_store_->Lock(txid, write.key);
      if (!v.ok()) {
        unlock_all();
        return Status(StatusCode::kAborted, "write lock unavailable");
      }
      version = *v;
      held.push_back(Held{write.owner, write.key, true});
    } else {
      ByteWriter w(16);
      w.PutU64(txid);
      w.PutU64(write.key);
      std::vector<uint8_t> resp;
      Status st = transport_->Call(write.owner, kLockAcquire, w.bytes(), &resp);
      if (!st.ok()) {
        unlock_all();
        return st == StatusCode::kUnavailable
                   ? Status(StatusCode::kAborted, "write lock unavailable")
                   : st;
      }
      ByteReader r(resp);
      version = r.GetU64();
      held.push_back(Held{write.owner, write.key, false});
    }
    if (version > *ts) {
      unlock_all();
      return Status(StatusCode::kAborted, "write-write conflict");
    }
  }

  // Phase 3: commit everywhere (installs values at version ts and unlocks).
  for (const WriteIntent& write : writes) {
    if (write.owner == local_store_->node()) {
      Status st = local_store_->Commit(txid, write.key, write.value, *ts);
      if (!st.ok()) {
        return st;
      }
    } else {
      ByteWriter w(32);
      w.PutU64(txid);
      w.PutU64(write.key);
      w.PutI64(write.value);
      w.PutU64(*ts);
      Status st = transport_->Call(write.owner, kLockCommit, w.bytes(),
                                   nullptr);
      if (!st.ok()) {
        return st;
      }
    }
  }
  // Release read locks (reads are not version-bumped).
  for (const Held& h : held) {
    bool written = std::any_of(writes.begin(), writes.end(),
                               [&](const WriteIntent& w) {
                                 return w.owner == h.owner && w.key == h.key;
                               });
    if (!written && h.local) {
      local_store_->Unlock(txid, h.key);
    }
  }
  return Status::Ok();
}

}  // namespace twopl
