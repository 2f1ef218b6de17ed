// qagview_server: the standalone HTTP front end.
//
//   qagview_server --port 8080 --workers 4 --queue 64
//       --dataset sales=path/to/sales.csv [--dataset more=other.csv]
//       [--prefetch]
//
// Serves the QueryService endpoints documented in server/server.h until
// SIGTERM or SIGINT, then drains gracefully (in-flight requests finish)
// and prints the transport + service counters.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "server/serde.h"
#include "server/server.h"
#include "service/query_service.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] [--workers N] [--queue N]\n"
               "          [--dataset name=path.csv]... [--prefetch]\n"
               "\n"
               "  --port P     0..65535 (0: the kernel picks; default 8080)\n"
               "  --workers N  1..1024 request workers (default 4)\n"
               "  --queue N    1..1048576 requests waiting for a worker\n"
               "               before the server answers 503 (default 64)\n"
               "  --prefetch   speculatively build likely next exploration\n"
               "               levels in the background\n",
               argv0);
}

/// The integer value of a flag, or usage and exit 2 when it is not an
/// integer in [lo, hi].
int IntFlag(const char* argv0, const char* flag, const char* text, int lo,
            int hi) {
  qagview::Result<int64_t> value = qagview::ParseInt64(text);
  if (!value.ok() || *value < lo || *value > hi) {
    std::fprintf(stderr, "%s expects an integer in [%d, %d], got '%s'\n",
                 flag, lo, hi, text);
    Usage(argv0);
    std::exit(2);
  }
  return static_cast<int>(*value);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qagview;

  server::ServerOptions options;
  options.port = 8080;
  service::ServiceOptions service_options;
  std::vector<std::pair<std::string, std::string>> datasets;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      options.bind_address = next();
    } else if (arg == "--port") {
      options.port = IntFlag(argv[0], "--port", next(), 0, 65535);
    } else if (arg == "--workers") {
      options.num_workers = IntFlag(argv[0], "--workers", next(), 1, 1024);
    } else if (arg == "--queue") {
      options.max_queue = IntFlag(argv[0], "--queue", next(), 1, 1 << 20);
    } else if (arg == "--prefetch") {
      service_options.prefetch = true;
    } else if (arg == "--dataset") {
      const std::string spec = next();
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--dataset expects name=path.csv, got %s\n",
                     spec.c_str());
        return 2;
      }
      datasets.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  // Block the shutdown signals in every thread the server will spawn, then
  // sigwait for them on the main thread: the classic drain-on-SIGTERM shape.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  service::QueryService service(service_options);
  for (const auto& [name, path] : datasets) {
    Status status = service.RegisterCsvFile(name, path);
    if (!status.ok()) {
      std::fprintf(stderr, "failed to load dataset %s from %s: %s\n",
                   name.c_str(), path.c_str(), status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded dataset %s from %s\n", name.c_str(),
                 path.c_str());
  }

  server::HttpServer http(&service, options);
  Status status = http.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "failed to start: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "qagview_server listening on %s:%d (%d workers)\n",
               options.bind_address.c_str(), http.port(),
               options.num_workers);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::fprintf(stderr, "signal %d: draining...\n", sig);
  http.Shutdown();

  std::fprintf(stderr, "drained. server stats: %s\n",
               server::ToJson(http.stats()).Dump().c_str());
  std::fprintf(stderr, "service stats: %s\n",
               server::ToJson(service.stats()).Dump().c_str());
  return 0;
}
