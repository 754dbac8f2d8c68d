#include "src/obs/stats_service.h"

#include "src/corfu/types.h"
#include "src/obs/flight.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"

namespace tango::obs {

StatsService::StatsService(Transport* transport, NodeId node)
    : transport_(transport), node_(node) {
  dispatcher_.Register(
      corfu::kStatsDump, [](ByteReader& req, ByteWriter& resp) {
        uint8_t kind = req.GetU8();
        if (!req.ok()) {
          return Status(StatusCode::kInvalidArgument, "bad stats request");
        }
        switch (static_cast<StatsKind>(kind)) {
          case StatsKind::kMetricsText:
            resp.PutString(MetricsRegistry::Default().RenderText());
            return Status::Ok();
          case StatsKind::kMetricsJson:
            resp.PutString(MetricsRegistry::Default().RenderJson());
            return Status::Ok();
          case StatsKind::kChromeTrace:
            resp.PutString(Tracer::Default().ExportChromeJson());
            return Status::Ok();
          case StatsKind::kFlightRecorder:
            resp.PutString(FlightRecorder::Default().Dump());
            return Status::Ok();
          case StatsKind::kSloJson:
            resp.PutString(SloTracker::Default().RenderJson());
            return Status::Ok();
          case StatsKind::kPrometheus:
            resp.PutString(MetricsRegistry::Default().RenderPrometheus());
            return Status::Ok();
        }
        return Status(StatusCode::kInvalidArgument, "unknown stats kind");
      });
  dispatcher_.Serve(transport_, node_);
}

StatsService::~StatsService() { transport_->UnregisterNode(node_); }

Result<std::string> FetchStats(Transport* transport, NodeId node,
                               StatsKind kind) {
  ByteWriter req;
  req.PutU8(static_cast<uint8_t>(kind));
  std::vector<uint8_t> resp;
  TANGO_RETURN_IF_ERROR(
      transport->Call(node, corfu::kStatsDump, req.bytes(), &resp));
  ByteReader reader(resp);
  std::string payload = reader.GetString();
  if (!reader.ok()) {
    return Status(StatusCode::kInternal, "bad stats response");
  }
  return payload;
}

}  // namespace tango::obs
