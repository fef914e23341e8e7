#include "service/protocol.hpp"

#include <cmath>
#include <cstdio>

#include "obs/sink.hpp"  // json_escape

namespace jigsaw::service {

namespace {

bool require_number(const JsonValue& obj, const char* key, double* out,
                    std::string* message) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    *message = std::string("missing or non-numeric field \"") + key + "\"";
    return false;
  }
  *out = v->as_double();
  return true;
}

/// Job ids travel as JSON numbers. Only a non-negative integer a double
/// holds exactly (at most kMaxJobId) converts to JobId exactly and with
/// defined behaviour; anything else is refused.
bool job_id_field(const JsonValue& v, JobId* out) {
  if (!v.is_number()) return false;
  const double d = v.as_double();
  if (!(d >= 0.0) || d > static_cast<double>(kMaxJobId) ||
      d != std::floor(d)) {
    return false;
  }
  *out = static_cast<JobId>(d);
  return true;
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownOp: return "unknown_op";
    case ErrorCode::kOversizedJob: return "oversized_job";
    case ErrorCode::kQueueFull: return "queue_full";
    case ErrorCode::kLineTooLong: return "line_too_long";
    case ErrorCode::kUnknownJob: return "unknown_job";
    case ErrorCode::kBadState: return "bad_state";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

bool parse_request(const std::string& line, Request* out,
                   ParseFailure* failure) {
  JsonValue doc;
  std::string error;
  if (!parse_json(line, &doc, &error)) {
    failure->code = ErrorCode::kParse;
    failure->message = error;
    return false;
  }
  if (!doc.is_object()) {
    failure->code = ErrorCode::kBadRequest;
    failure->message = "request must be a JSON object";
    return false;
  }
  if (const JsonValue* seq = doc.find("seq")) {
    out->seq = to_json(*seq);
    failure->seq = out->seq;
  }
  const JsonValue* opv = doc.find("op");
  if (opv == nullptr || !opv->is_string()) {
    failure->code = ErrorCode::kBadRequest;
    failure->message = "missing \"op\"";
    return false;
  }
  const std::string& op = opv->as_string();
  std::string message;
  if (op == "ping") {
    out->op = RequestOp::kPing;
  } else if (op == "submit") {
    out->op = RequestOp::kSubmit;
    double nodes = 0.0;
    double runtime = 0.0;
    if (!require_number(doc, "nodes", &nodes, &message) ||
        !require_number(doc, "runtime", &runtime, &message)) {
      failure->code = ErrorCode::kBadRequest;
      failure->message = message;
      return false;
    }
    if (nodes < 1.0 || nodes != std::floor(nodes) || nodes > 1e9) {
      failure->code = ErrorCode::kBadRequest;
      failure->message = "\"nodes\" must be a positive integer";
      return false;
    }
    if (!(runtime > 0.0) || !std::isfinite(runtime)) {
      failure->code = ErrorCode::kBadRequest;
      failure->message = "\"runtime\" must be positive and finite";
      return false;
    }
    out->nodes = static_cast<int>(nodes);
    out->runtime = runtime;
    if (const JsonValue* v = doc.find("id")) {
      JobId id = 0;
      if (!job_id_field(*v, &id)) {
        failure->code = ErrorCode::kBadRequest;
        failure->message = "\"id\" must be a non-negative integer";
        return false;
      }
      out->id = id;
    }
    if (const JsonValue* v = doc.find("bandwidth")) {
      if (!v->is_number() || !std::isfinite(v->as_double()) ||
          v->as_double() < 0.0) {
        failure->code = ErrorCode::kBadRequest;
        failure->message = "\"bandwidth\" must be non-negative and finite";
        return false;
      }
      out->bandwidth = v->as_double();
    }
    if (const JsonValue* v = doc.find("arrival")) {
      if (!v->is_number() || !std::isfinite(v->as_double()) ||
          v->as_double() < 0.0) {
        failure->code = ErrorCode::kBadRequest;
        failure->message = "\"arrival\" must be a non-negative number";
        return false;
      }
      out->arrival = v->as_double();
    }
  } else if (op == "cancel" || op == "status") {
    out->op = op == "cancel" ? RequestOp::kCancel : RequestOp::kStatus;
    const JsonValue* v = doc.find("job");
    if (v == nullptr || !job_id_field(*v, &out->job)) {
      failure->code = ErrorCode::kBadRequest;
      failure->message = "\"job\" must be a non-negative integer";
      return false;
    }
  } else if (op == "stats") {
    out->op = RequestOp::kStats;
  } else if (op == "metrics") {
    out->op = RequestOp::kMetrics;
  } else if (op == "fail" || op == "repair") {
    out->op = op == "fail" ? RequestOp::kFail : RequestOp::kRepair;
    const JsonValue* target = doc.find("target");
    if (target == nullptr || !target->is_string() ||
        target->as_string().empty()) {
      failure->code = ErrorCode::kBadRequest;
      failure->message = "missing \"target\" string";
      return false;
    }
    out->target = target->as_string();
    if (const JsonValue* v = doc.find("time")) {
      if (!v->is_number() || !std::isfinite(v->as_double())) {
        failure->code = ErrorCode::kBadRequest;
        failure->message = "\"time\" must be a finite number";
        return false;
      }
      out->time = v->as_double();
    }
  } else if (op == "drain") {
    out->op = RequestOp::kDrain;
  } else if (op == "snapshot") {
    out->op = RequestOp::kSnapshot;
  } else if (op == "shutdown") {
    out->op = RequestOp::kShutdown;
  } else {
    failure->code = ErrorCode::kUnknownOp;
    failure->message = "unknown op \"" + op + "\"";
    return false;
  }
  return true;
}

std::string error_reply(ErrorCode code, const std::string& message,
                        const std::string& seq) {
  std::string out = "{\"ok\":false,\"error\":\"";
  out += error_code_name(code);
  out += "\",\"message\":\"";
  out += obs::json_escape(message);
  out += '"';
  if (!seq.empty()) {
    out += ",\"seq\":";
    out += seq;
  }
  out += '}';
  return out;
}

std::string ok_reply(const std::string& body, const std::string& seq) {
  std::string out = "{\"ok\":true";
  out += body;
  if (!seq.empty()) {
    out += ",\"seq\":";
    out += seq;
  }
  out += '}';
  return out;
}

namespace {

/// Renders the named scalars of metrics_fields (sim/metrics.hpp) as one
/// flat JSON object; the two sequences stay out of the reply.
class MetricsJson {
 public:
  void f64(double v, const char* name) {
    key(name);
    if (std::isfinite(v)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += buf;
    } else {
      // +/-inf can legitimately appear (makespan of an empty run); keep
      // the reply valid JSON and exactly invertible.
      out += '"';
      out += v > 0 ? "inf" : (v < 0 ? "-inf" : "nan");
      out += '"';
    }
  }
  template <typename T>
  void u64(const T& v, const char* name) {
    key(name);
    out += std::to_string(static_cast<std::uint64_t>(v));
  }
  template <typename Seq, typename Fn>
  void seq(const Seq&, Fn&&) {}

  std::string out = "{";

 private:
  void key(const char* name) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += name;
    out += "\":";
  }
};

}  // namespace

std::string metrics_json(const SimMetrics& m) {
  MetricsJson json;
  metrics_fields(json, m);
  json.out += '}';
  return std::move(json.out);
}

}  // namespace jigsaw::service
