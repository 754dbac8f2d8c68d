#include "src/corfu/projection.h"

#include <mutex>

namespace corfu {

using tango::ByteReader;
using tango::ByteWriter;
using tango::NodeId;
using tango::Result;
using tango::Status;
using tango::StatusCode;

void Projection::Encode(ByteWriter& w) const {
  w.PutU32(epoch);
  w.PutU32(page_size);
  w.PutU32(backpointer_count);
  w.PutU32(sequencer);
  w.PutU32(static_cast<uint32_t>(replica_sets.size()));
  for (const std::vector<NodeId>& chain : replica_sets) {
    w.PutU32(static_cast<uint32_t>(chain.size()));
    for (NodeId node : chain) {
      w.PutU32(node);
    }
  }
}

Result<Projection> Projection::Decode(ByteReader& r) {
  Projection p;
  p.epoch = r.GetU32();
  p.page_size = r.GetU32();
  p.backpointer_count = r.GetU32();
  p.sequencer = r.GetU32();
  uint32_t num_sets = r.GetU32();
  p.replica_sets.reserve(num_sets);
  for (uint32_t i = 0; i < num_sets && r.ok(); ++i) {
    uint32_t chain_len = r.GetU32();
    if (chain_len == 0) {
      return Status(StatusCode::kInvalidArgument,
                    "malformed projection: empty replica chain");
    }
    std::vector<NodeId> chain;
    chain.reserve(chain_len);
    for (uint32_t j = 0; j < chain_len; ++j) {
      chain.push_back(r.GetU32());
    }
    p.replica_sets.push_back(std::move(chain));
  }
  // Valid() is the same guard the striping accessors (SetIndexFor /
  // LocalOffsetFor) enforce by CHECK: no replica sets or a zero page size
  // would turn offset math into division by zero.
  if (!r.ok() || !p.Valid()) {
    return Status(StatusCode::kInvalidArgument, "malformed projection");
  }
  return p;
}

ProjectionStore::ProjectionStore(tango::Transport* transport, NodeId node,
                                 Projection initial)
    : transport_(transport), node_(node), current_(std::move(initial)) {
  dispatcher_.Register(kProjectionGet,
                       [this](ByteReader& req, ByteWriter& resp) {
                         return HandleGet(req, resp);
                       });
  dispatcher_.Register(kProjectionPropose,
                       [this](ByteReader& req, ByteWriter& resp) {
                         return HandlePropose(req, resp);
                       });
  dispatcher_.Serve(transport_, node_);
}

ProjectionStore::~ProjectionStore() { transport_->UnregisterNode(node_); }

Status ProjectionStore::HandleGet(ByteReader& /*req*/, ByteWriter& resp) {
  std::lock_guard<std::mutex> lock(mu_);
  current_.Encode(resp);
  return Status::Ok();
}

Status ProjectionStore::HandlePropose(ByteReader& req, ByteWriter& resp) {
  Result<Projection> proposed = Projection::Decode(req);
  if (!proposed.ok()) {
    return proposed.status();
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Any strictly higher epoch wins: racing reconfigurers collide on equal
  // epochs (second proposer rejected here), and a proposer that jumped
  // several epochs ahead is legitimate — after a restart the in-memory
  // store lags the epochs durably sealed into the storage nodes, and the
  // storage seal (not store contiguity) is what fences stale projections.
  if (proposed->epoch <= current_.epoch) {
    // Lost the race (or proposer was behind); return the winner so the
    // caller can adopt it.
    current_.Encode(resp);
    return Status(StatusCode::kFailedPrecondition, "epoch conflict");
  }
  current_ = std::move(proposed).value();
  current_.Encode(resp);
  return Status::Ok();
}

Result<Projection> FetchProjection(tango::Transport* transport,
                                   NodeId store) {
  std::vector<uint8_t> resp;
  Status st = transport->Call(store, kProjectionGet, {}, &resp);
  if (!st.ok()) {
    return st;
  }
  ByteReader r(resp);
  return Projection::Decode(r);
}

Status ProposeProjection(tango::Transport* transport, NodeId store,
                         const Projection& next) {
  ByteWriter w;
  next.Encode(w);
  std::vector<uint8_t> resp;
  return transport->Call(store, kProjectionPropose, w.bytes(), &resp);
}

}  // namespace corfu
