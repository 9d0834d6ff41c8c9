// e2ebench_loadgen: the end-to-end benchmark of viewauth.
//
//   e2ebench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                   --server PATH --workdir DIR
//
// --trace 0 launches `viewauth_server` on a durable log in DIR, loads the
// workload's database over the wire, and drives the server over loopback
// from two closed-loop connections; every reply is checked by the
// oracle. After the run the server is killed with SIGKILL and restarted
// on the same log, and every acknowledged write must be back.
//
// --trace 1 replays the same requests in-process against the linked
// libraries and times each layer's public entry point (trace.cc).
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics. DIR is removed at the end.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "oracle.h"
#include "report.h"
#include "server/client.h"
#include "trace.h"
#include "workload.h"

extern char** environ;

namespace e2ebench {
namespace {

const Clock::time_point g_process_start = Clock::now();

// One viewauth_server child process, killed and reaped on destruction.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Kill(); }

  // Starts the server on `log` and waits until it listens.
  bool Launch(const std::string& binary, const std::string& log, const std::string& out_path,
              std::string* why) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, (out_path + ".err").c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<std::string> args = {binary, "--port", "0", "--log", log};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      *why = "cannot start " + binary + ": " + std::strerror(rc);
      return false;
    }
    // The server prints "listening on 127.0.0.1:PORT" once it serves.
    const std::string marker = "listening on 127.0.0.1:";
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    while (Clock::now() < deadline) {
      std::ifstream in(out_path);
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind(marker, 0) == 0 && !in.eof()) {
          port_ = std::atoi(line.c_str() + marker.size());
          return true;
        }
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *why = "server exited during start-up (see " + out_path + ".err)";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    *why = "server did not start listening";
    return false;
  }

  int port() const { return port_; }

  // The server's peak resident set (VmHWM), in MiB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0;
  }

  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  // Graceful stop (SIGTERM drains), with SIGKILL after 30 s.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Kill();
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

bool IsWrite(const Request& r) { return r.kind != RequestKind::kRetrieve; }

// What one closed-loop connection measured.
struct ConnResult {
  std::vector<double> retrieve_us;
  std::vector<double> write_us;
  RunResult counts;  // attempted / failed / first failure
  Clock::time_point end;
};

// A connection that reconnects whenever the acting user changes (user
// sessions) or stays logged in as the admin.
class Session {
 public:
  Session(int port, bool admin) : port_(port), admin_(admin) {}

  viewauth::Client* For(const std::string& user, std::string* why) {
    const std::string login = admin_ ? "admin" : user;
    if (client_ != nullptr && client_->alive() && login == login_) return client_.get();
    if (client_ != nullptr) client_->Goodbye();
    auto connected = viewauth::Client::ConnectTcp("127.0.0.1", port_, login);
    if (!connected.ok()) {
      client_.reset();
      *why = "connect as " + login + ": " + connected.status().ToString();
      return nullptr;
    }
    client_ = std::move(*connected);
    login_ = login;
    return client_.get();
  }

  void Close() {
    if (client_ != nullptr) client_->Goodbye();
    client_.reset();
  }

 private:
  int port_;
  bool admin_;
  std::string login_;
  std::unique_ptr<viewauth::Client> client_;
};

// Sends `request`, times it, and checks the reply; acknowledged writes
// are applied to `oracle`. Returns the reply text, checked or not, or
// nullopt when the server gave none.
std::optional<std::string> Exchange(Session& session, const Request& request, Oracle& oracle,
                                    ConnResult* out) {
  ++out->counts.attempted;
  std::string why;
  viewauth::Client* client = session.For(request.user, &why);
  if (client == nullptr) {
    out->counts.Fail(why);
    return std::nullopt;
  }
  const Clock::time_point sent = Clock::now();
  viewauth::Result<std::string> reply = client->Execute(request.text);
  const double us = Micros(sent, Clock::now());
  if (!reply.ok()) {
    out->counts.Fail("'" + request.text + "': " + reply.status().ToString());
    return std::nullopt;
  }
  if (IsWrite(request)) {
    out->write_us.push_back(us);
    oracle.Apply(request);
  } else {
    out->retrieve_us.push_back(us);
    if (!oracle.Check(request, *reply, &why)) out->counts.Fail(why);
  }
  return std::move(*reply);
}

void RunStream(int port, const std::vector<Request>& stream, bool admin, Oracle* oracle,
               std::latch* ready, ConnResult* out) {
  Session session(port, admin);
  std::string ignored;
  if (!stream.empty()) session.For(stream.front().user, &ignored);
  ready->arrive_and_wait();
  for (const Request& request : stream) Exchange(session, request, *oracle, out);
  out->end = Clock::now();
  session.Close();
}

long long FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<long long>(st.st_size) : 0;
}

// Starts the server on `log`, sends `load` and then the probe as the
// admin. `load_s` receives the seconds the load took.
bool StartAndProbe(ServerProcess* server, const std::string& binary, const std::string& log,
                   const std::string& out_path, const Inputs& inputs,
                   const std::vector<Request>& load, Oracle* oracle, ConnResult* out,
                   std::unique_ptr<Session>* admin, std::string* probe_reply, double* load_s,
                   std::string* why) {
  if (!server->Launch(binary, log, out_path, why)) return false;
  *admin = std::make_unique<Session>(server->port(), true);
  const Clock::time_point load_start = Clock::now();
  for (const Request& r : load) Exchange(**admin, r, *oracle, out);
  *load_s = Seconds(load_start, Clock::now());
  std::optional<std::string> reply = Exchange(**admin, inputs.probe, *oracle, out);
  if (!reply) {
    *why = "probe failed: " + out->counts.first_failure;
    return false;
  }
  *probe_reply = std::move(*reply);
  return true;
}

void Merge(const RunResult& from, RunResult* into) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  if (into->first_failure.empty()) into->first_failure = from.first_failure;
}

int RunWire(const Inputs& inputs, const std::string& binary, const std::string& workdir) {
  RunResult result;
  const std::string log = workdir + "/viewauth.log";
  ServerProcess server;
  // One oracle per connection: the admin's tracks its acknowledged
  // writes; oracles are never shared between threads.
  Oracle oracles[2] = {Oracle(inputs), Oracle(inputs)};
  std::unique_ptr<Session> admin;
  std::string why, probe_reply;

  // --- set-up: launch, load the database over the wire, first reply ----
  ConnResult load;
  double load_s = 0;
  if (!StartAndProbe(&server, binary, log, workdir + "/server.out", inputs, inputs.load,
                     &oracles[0], &load, &admin, &probe_reply, &load_s, &why)) {
    std::fprintf(stderr, "e2ebench: set-up failed: %s\n", why.c_str());
    return 1;
  }
  const double setup_s = Seconds(g_process_start, Clock::now());
  Merge(load.counts, &result);
  if (!SelfTestReplies(inputs, probe_reply, &why)) {
    result.correct = false;
    result.first_failure = why;
  }
  const long long log_after_load = FileBytes(log);

  // --- the measured run: two closed-loop connections --------------------
  admin->Close();
  ConnResult conn[2];
  std::latch ready(3);
  std::thread threads[2];
  for (int c = 0; c < 2; ++c) {
    threads[c] = std::thread(RunStream, server.port(), std::cref(inputs.streams[c]),
                             AdminStream(inputs, c), &oracles[c], &ready, &conn[c]);
  }
  ready.arrive_and_wait();
  const Clock::time_point run_start = Clock::now();
  for (std::thread& t : threads) t.join();
  const double wall_s = Seconds(run_start, std::max(conn[0].end, conn[1].end));
  const double peak_rss_mb = server.PeakRssMb();
  const long long log_after_run = FileBytes(log);

  std::vector<double> retrieve_us, write_us;
  for (ConnResult& c : conn) {
    retrieve_us.insert(retrieve_us.end(), c.retrieve_us.begin(), c.retrieve_us.end());
    write_us.insert(write_us.end(), c.write_us.begin(), c.write_us.end());
    Merge(c.counts, &result);
  }

  const long long log_growth = log_after_run - log_after_load;

  // --- recovery: SIGKILL, restart on the same log, check every write ----
  // The restart's time goes to standard error only: a single-threaded
  // replay of a second or two spreads too widely between runs on a host
  // whose speed drifts to carry a bound (see README.md).
  server.Kill();
  const Clock::time_point restart = Clock::now();
  ConnResult recovered;
  double unused = 0;
  if (!StartAndProbe(&server, binary, log, workdir + "/server2.out", inputs, {}, &oracles[0],
                     &recovered, &admin, &probe_reply, &unused, &why)) {
    std::fprintf(stderr, "e2ebench: restart failed: %s\n", why.c_str());
    return 1;
  }
  const double recovery_s = Seconds(restart, Clock::now());
  for (const Request& check : RecoveryChecks()) {
    const std::optional<std::string> reply = Exchange(*admin, check, oracles[0], &recovered);
    if (reply && check.user == "U0" && !SelfTestLostGrant(oracles[0], check, *reply, &why)) {
      result.correct = false;
      result.first_failure = why;
    }
  }
  Merge(recovered.counts, &result);
  admin->Close();
  server.Stop();

  result.Add("setup_s", setup_s, "s");
  result.Add("retrieves_per_s", static_cast<double>(retrieve_us.size()) / wall_s, "1/s");
  result.Add("retrieve_p50_us", Quantile(retrieve_us, 0.50), "us");
  result.Add("retrieve_p99_us", Quantile(retrieve_us, 0.99), "us");
  result.Add("peak_rss_mb", peak_rss_mb, "MiB");
  result.Add("writes_per_s", static_cast<double>(write_us.size()) / wall_s, "1/s");
  result.Add("write_p50_us", Quantile(write_us, 0.50), "us");
  result.Add("log_bytes_per_write",
             static_cast<double>(log_growth) / static_cast<double>(std::max<size_t>(write_us.size(), 1)),
             "B");
  std::fprintf(stderr,
               "e2ebench: %s seed %llu: %zu retrieves, %zu writes in %.2f s (connections "
               "done at %.2f s, %.2f s); set-up %.2f s (load %.2f s), recovery %.2f s\n",
               WorkloadName(inputs.kind), static_cast<unsigned long long>(inputs.seed),
               retrieve_us.size(), write_us.size(), wall_s, Seconds(run_start, conn[0].end),
               Seconds(run_start, conn[1].end), setup_s, load_s, recovery_s);
  if (result.failed > 0) result.correct = false;
  PrintResult(result);
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: e2ebench_loadgen --workload param_lookups|join_scans|grant_churn\n"
               "                       --seed N --seconds S --trace 0|1\n"
               "                       --server PATH --workdir DIR\n");
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  std::string workload, server, workdir;
  long long seed = -1, seconds = 0, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atoll(value);
    } else if (flag == "--trace") {
      trace = std::atoll(value);
    } else if (flag == "--server") {
      server = value;
    } else if (flag == "--workdir") {
      workdir = value;
    } else {
      Usage();
      return 2;
    }
  }
  const std::optional<WorkloadKind> kind = ParseWorkload(workload);
  if (!kind || seed < 0 || seconds < 1 || (trace != 0 && trace != 1) || workdir.empty() ||
      (trace == 0 && server.empty())) {
    Usage();
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(workdir, ec);
  std::filesystem::create_directories(workdir, ec);
  if (ec) {
    std::fprintf(stderr, "e2ebench: cannot create %s: %s\n", workdir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const Inputs inputs = MakeInputs(*kind, static_cast<uint64_t>(seed), static_cast<int>(seconds));
  const int rc = trace == 1 ? RunTraced(inputs, workdir) : RunWire(inputs, server, workdir);
  std::filesystem::remove_all(workdir, ec);
  return rc;
}
