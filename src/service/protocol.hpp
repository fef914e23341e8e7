// The service wire protocol: newline-delimited JSON requests and replies.
//
// Every request is one line, a JSON object with an "op" field; every
// reply is one line, `{"ok":true,...}` or
// `{"ok":false,"error":"<code>","message":"..."}`. An optional client
// "seq" value is echoed verbatim in the reply so pipelining clients can
// correlate (the single-threaded reactor also guarantees in-order
// replies). The grammar is documented in DESIGN.md §11.
//
// Requests:
//   {"op":"ping"}
//   {"op":"submit","nodes":32,"runtime":120.5,
//    "id":7?, "bandwidth":1.0?, "arrival":3.5?}
//   {"op":"cancel","job":7}
//   {"op":"status","job":7}
//   {"op":"stats"}
//   {"op":"metrics"}
//   {"op":"fail","target":"node 17","time":40.0?}
//   {"op":"repair","target":"node 17","time":90.0?}
//   {"op":"drain"}
//   {"op":"snapshot"}
//   {"op":"shutdown"}
//
// Keys a request's op does not read are ignored. One daemon serves one
// cluster; several clusters run as several daemons, each on its own
// socket.
//
// This header is transport-agnostic: parse_request() turns a line into a
// typed Request, and the reply builders produce lines. The daemon
// (service/daemon.hpp) does the semantics; the reactor only moves bytes.

#pragma once

#include <optional>
#include <string>

#include "service/json.hpp"
#include "sim/metrics.hpp"
#include "topology/ids.hpp"

namespace jigsaw::service {

/// Typed error codes; the wire form is the lowercase name below.
enum class ErrorCode {
  kParse,         ///< line is not valid JSON
  kBadRequest,    ///< JSON fine, required field missing/mistyped
  kUnknownOp,     ///< unrecognized "op"
  kOversizedJob,  ///< submit larger than the cluster
  kQueueFull,     ///< admission or per-client pending queue at capacity
  kLineTooLong,   ///< request line exceeded the reactor's byte cap
  kUnknownJob,    ///< cancel/status for an id never accepted
  kBadState,      ///< op invalid in this mode/phase (e.g. wall-clock drain)
  kInternal,      ///< engine rejected an accepted-looking request
};

const char* error_code_name(ErrorCode code);

/// The largest job id the protocol carries: requests name ids as JSON
/// numbers, which the parser reads as doubles, exact up to 2^53. The WAL
/// stores ids as i64; replay refuses one past this bound as damage.
inline constexpr JobId kMaxJobId = JobId{1} << 53;

enum class RequestOp {
  kPing,
  kSubmit,
  kCancel,
  kStatus,
  kStats,
  kMetrics,
  kFail,
  kRepair,
  kDrain,
  kSnapshot,
  kShutdown,
};

struct Request {
  RequestOp op = RequestOp::kPing;
  std::string seq;  ///< serialized client "seq" value, echoed verbatim
  // submit
  std::optional<JobId> id;      ///< client-chosen id (else daemon assigns)
  int nodes = 0;
  double runtime = 0.0;
  double bandwidth = 1.0;
  std::optional<double> arrival;
  // cancel / status
  JobId job = kNoJob;
  // fail / repair
  std::string target;
  std::optional<double> time;
};

struct ParseFailure {
  ErrorCode code = ErrorCode::kParse;
  std::string message;
  std::string seq;  ///< best-effort echo even for bad requests
};

/// Parse one request line. On failure returns false and fills *failure
/// (never throws; the daemon turns failures into error replies).
bool parse_request(const std::string& line, Request* out,
                   ParseFailure* failure);

// -- reply builders (no trailing newline; the transport appends it) ------

/// `{"ok":false,"error":"...","message":"...","seq":...}`.
std::string error_reply(ErrorCode code, const std::string& message,
                        const std::string& seq = std::string());

/// `{"ok":true,<body>}` where `body` is a comma-led fragment like
/// `"job":7` (may be empty).
std::string ok_reply(const std::string& body,
                     const std::string& seq = std::string());

/// The full SimMetrics as a JSON object fragment with every double
/// rendered %.17g — the representation the golden equivalence test
/// compares bit-for-bit against a batch simulate() run.
std::string metrics_json(const SimMetrics& m);

}  // namespace jigsaw::service
