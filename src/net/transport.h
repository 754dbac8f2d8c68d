// Transport abstraction.
//
// All Tango/CORFU protocol participants (storage nodes, the sequencer, the
// 2PL baseline's lock managers) are services addressed by a NodeId and
// reached exclusively through synchronous RPC on a Transport.  Tango runtimes
// never talk to each other directly — exactly as in the paper, where all
// inter-client coordination flows through the shared log.
//
// Two implementations exist:
//   * InProcTransport — direct dispatch inside one process, with optional
//     simulated latency, drop probability and per-node kill switches.  This
//     is the substrate for tests and benches (substituting for the paper's
//     36-machine cluster).
//   * TcpTransport — real POSIX sockets with length-prefixed frames, showing
//     the same protocol code running over an actual network.

#ifndef SRC_NET_TRANSPORT_H_
#define SRC_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/util/serialize.h"
#include "src/util/status.h"

namespace tango {

using NodeId = uint32_t;

inline constexpr NodeId kInvalidNodeId = 0xffffffffu;

// A service handler: decodes the request from `req`, encodes the reply into
// `resp`, and returns the RPC-level status.  The returned status travels back
// to the caller verbatim; `resp` contents are delivered only when OK.
using RpcHandler =
    std::function<Status(uint16_t method, ByteReader& req, ByteWriter& resp)>;

class Transport {
 public:
  virtual ~Transport() = default;

  // Synchronous request/response.  On success, `*response` holds the reply
  // payload.  Non-OK statuses produced by the remote handler are returned
  // as-is; transport failures surface as kUnavailable or kTimeout.
  virtual Status Call(NodeId dest, uint16_t method,
                      std::span<const uint8_t> request,
                      std::vector<uint8_t>* response) = 0;

  // Registers (or replaces) the handler serving `node`.
  virtual void RegisterNode(NodeId node, RpcHandler handler) = 0;

  // Removes the handler; subsequent calls to `node` fail with kUnavailable.
  virtual void UnregisterNode(NodeId node) = 0;
};

// A convenience dispatch table mapping method ids to typed handlers, so a
// service implements one small function per RPC verb.
class RpcDispatcher {
 public:
  using Method =
      std::function<Status(ByteReader& req, ByteWriter& resp)>;

  // `never_blocks`: `fn` may run on an event loop, returning kWouldBlock
  // without side effects where it would wait while MustNotBlock().
  void Register(uint16_t method, Method fn, bool never_blocks = false) {
    methods_[method] = std::move(fn);
    if (never_blocks) {
      never_blocking_.push_back(method);
    }
  }

  // Serves this table as `node`.  The never-blocking methods reach the
  // transport through NeverBlockingBeingServed() during RegisterNode, past
  // decorators that wrap the handler and forward RegisterNode synchronously.
  void Serve(Transport* transport, NodeId node) {
    serving_ = &never_blocking_;
    transport->RegisterNode(
        node, [this](uint16_t method, ByteReader& req, ByteWriter& resp) {
          return Dispatch(method, req, resp);
        });
    serving_ = nullptr;
  }

  // Set only inside Serve, on its thread.
  static const std::vector<uint16_t>* NeverBlockingBeingServed() {
    return serving_;
  }

  Status Dispatch(uint16_t method, ByteReader& req, ByteWriter& resp) {
    auto it = methods_.find(method);
    if (it == methods_.end()) {
      return Status(StatusCode::kInvalidArgument, "unknown rpc method");
    }
    return it->second(req, resp);
  }

 private:
  static inline thread_local const std::vector<uint16_t>* serving_ = nullptr;

  std::unordered_map<uint16_t, Method> methods_;
  std::vector<uint16_t> never_blocking_;
};

}  // namespace tango

#endif  // SRC_NET_TRANSPORT_H_
