// jigsaw_client: command-line client for jigsaw_daemon.
//
// One request per invocation (plus `watch`, which polls, and
// `submit-trace`, which replays a generated trace). Replies are printed
// as the raw JSON line the daemon sent, so the output is scriptable —
// scripts/service_smoke.sh and the CI job build on it.
//
//   $ ./jigsaw_client --connect unix:/tmp/jigsaw.sock --op submit
//       --nodes 32 --runtime 600
//   {"ok":true,"job":0,"arrival":0}
//   $ ./jigsaw_client --op status --job 0
//   {"ok":true,"job":0,"phase":"queued","nodes":32,...}
//   $ ./jigsaw_client --op submit-trace --trace Synth-16 --jobs 800
//   $ ./jigsaw_client --op drain          # virtual clock: run + metrics
//
// Exit status: 0 when every reply was ok:true, 1 otherwise.

#include <unistd.h>

#include <iostream>
#include <string>

#include "service/client.hpp"
#include "service/json.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace jigsaw;

/// Reply is ok:true? (Malformed replies count as failures.)
bool reply_ok(const std::string& reply) {
  service::JsonValue doc;
  std::string error;
  if (!service::parse_json(reply, &doc, &error)) return false;
  const service::JsonValue* ok = doc.find("ok");
  return ok != nullptr && ok->as_bool();
}

std::string reply_string(const std::string& reply, const char* key) {
  service::JsonValue doc;
  std::string error;
  if (!service::parse_json(reply, &doc, &error)) return std::string();
  const service::JsonValue* v = doc.find(key);
  return v != nullptr ? v->as_string() : std::string();
}

std::string submit_request(const Job& job, bool with_id) {
  std::string req = "{\"op\":\"submit\"";
  if (with_id) req += ",\"id\":" + std::to_string(job.id);
  req += ",\"nodes\":" + std::to_string(job.nodes) + ",\"runtime\":";
  service::append_double(req, job.runtime);
  req += ",\"bandwidth\":";
  service::append_double(req, job.bandwidth);
  req += ",\"arrival\":";
  service::append_double(req, job.arrival);
  req += "}";
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.define("connect", "daemon endpoint: unix:/path or tcp:PORT",
               "unix:/tmp/jigsaw.sock");
  flags.define("op",
               "ping / submit / cancel / status / watch / stats / metrics / "
               "drain / fail / repair / shutdown / submit-trace",
               "ping");
  flags.define("nodes", "submit: node count", "0");
  flags.define("runtime", "submit: runtime seconds", "0");
  flags.define("bandwidth", "submit: per-link GB/s (< 0 = daemon default)",
               "-1");
  flags.define("arrival", "submit: arrival time (< 0 = daemon's now)", "-1");
  flags.define("id", "submit: client-chosen job id (< 0 = daemon assigns)",
               "-1");
  flags.define("job", "cancel/status/watch: job id", "-1");
  flags.define("target", "fail/repair: e.g. \"node 17\" or \"l2wire 0 3 1\"",
               "");
  flags.define("time", "fail/repair: event time (< 0 = daemon's now)", "-1");
  flags.define("trace", "submit-trace: synthetic trace name", "Synth-16");
  flags.define("jobs", "submit-trace: job count", "800");
  flags.define("interval", "watch: poll interval seconds", "1");
  flags.define("timeout",
               "bound connect and each reply wait to this many seconds; a "
               "dead daemon fails the command instead of hanging it "
               "(0 = wait forever)",
               "0");
  flags.define("cluster",
               "sharded daemon: route to this cluster id (< 0 = omit; the "
               "daemon then uses cluster 0 / aggregates)",
               "-1");
  try {
    if (!flags.parse(argc, argv)) return 0;
    const std::string op = flags.str("op");
    const long cluster = flags.integer("cluster");

    service::ServiceClient client;
    client.set_timeout(flags.real("timeout"));
    std::string error;
    if (!client.connect(flags.str("connect"), &error)) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }

    // Route to --cluster when given: every op accepts the field.
    auto with_cluster = [cluster](std::string req) {
      if (cluster >= 0) {
        req.insert(1, "\"cluster\":" + std::to_string(cluster) + ",");
      }
      return req;
    };

    auto roundtrip = [&](const std::string& request) -> bool {
      std::string reply;
      if (!client.request(with_cluster(request), &reply, &error)) {
        std::cerr << "error: " << error << "\n";
        return false;
      }
      std::cout << reply << "\n";
      return reply_ok(reply);
    };

    if (op == "ping" || op == "stats" || op == "metrics" ||
        op == "drain" || op == "shutdown") {
      return roundtrip("{\"op\":\"" + op + "\"}") ? 0 : 1;
    }
    if (op == "submit") {
      Job job;
      job.id = flags.integer("id");
      job.nodes = static_cast<int>(flags.integer("nodes"));
      job.runtime = flags.real("runtime");
      job.bandwidth = flags.real("bandwidth");
      job.arrival = flags.real("arrival");
      std::string req = "{\"op\":\"submit\"";
      if (job.id >= 0) req += ",\"id\":" + std::to_string(job.id);
      req += ",\"nodes\":" + std::to_string(job.nodes) + ",\"runtime\":";
      service::append_double(req, job.runtime);
      if (job.bandwidth >= 0.0) {
        req += ",\"bandwidth\":";
        service::append_double(req, job.bandwidth);
      }
      if (job.arrival >= 0.0) {
        req += ",\"arrival\":";
        service::append_double(req, job.arrival);
      }
      req += "}";
      return roundtrip(req) ? 0 : 1;
    }
    if (op == "cancel" || op == "status") {
      return roundtrip("{\"op\":\"" + op +
                       "\",\"job\":" + std::to_string(flags.integer("job")) +
                       "}")
                 ? 0
                 : 1;
    }
    if (op == "fail" || op == "repair") {
      std::string req = "{\"op\":\"" + op + "\",\"target\":\"" +
                        flags.str("target") + "\"";
      if (flags.real("time") >= 0.0) {
        req += ",\"time\":";
        service::append_double(req, flags.real("time"));
      }
      req += "}";
      return roundtrip(req) ? 0 : 1;
    }
    if (op == "watch") {
      const std::string req =
          "{\"op\":\"status\",\"job\":" + std::to_string(flags.integer("job")) +
          "}";
      const useconds_t nap = static_cast<useconds_t>(
          flags.real("interval") * 1e6);
      while (true) {
        std::string reply;
        if (!client.request(with_cluster(req), &reply, &error)) {
          std::cerr << "error: " << error << "\n";
          return 1;
        }
        std::cout << reply << std::endl;
        if (!reply_ok(reply)) return 1;
        const std::string phase = reply_string(reply, "phase");
        if (phase == "completed" || phase == "cancelled") return 0;
        ::usleep(nap);
      }
    }
    if (op == "submit-trace") {
      Trace trace = named_synthetic(flags.str("trace"),
                                    static_cast<std::size_t>(
                                        flags.integer("jobs")));
      // Same bandwidth-class assignment as the bench harness, so the
      // drained metrics line up with the batch simulator's.
      Rng rng(0xBADC0FFEEULL);
      assign_bandwidth_classes(trace, rng);
      std::size_t accepted = 0;
      std::size_t rejected = 0;
      for (const Job& job : trace.jobs) {
        std::string reply;
        if (!client.request(with_cluster(submit_request(job, /*with_id=*/true)),
                            &reply, &error)) {
          std::cerr << "error: " << error << "\n";
          return 1;
        }
        if (reply_ok(reply)) {
          ++accepted;
        } else {
          ++rejected;
          std::cerr << reply << "\n";
        }
      }
      std::cout << "{\"submitted\":" << accepted << ",\"rejected\":"
                << rejected << "}\n";
      return rejected == 0 ? 0 : 1;
    }
    std::cerr << "error: unknown --op " << op << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
