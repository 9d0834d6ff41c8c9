// The traced run. It links the libraries and replays a prefix of the
// workload's request stream in-process, timing from here the calls into
// each layer's public entry point. Three replicas receive every request,
// so each sees the same state and the same cache history:
//
//   A  a DurableEngine served by an in-process Server over loopback,
//      driven through Client — the wire round trip;
//   B  a DurableEngine on a timing FileSystem, driven by ParseStatement +
//      DurableEngine::ExecuteParsed — parse, execute and the commit path;
//   C  an in-memory Engine whose database, catalog and cache back a bare
//      Authorizer — the S'/S pipeline and its steps, one by one.
//
// A fourth replica, A0, replays the same prefix through the wire with no
// timers; its rate against A's is the tracing overhead.

#include "trace.h"

#include <atomic>
#include <map>
#include <memory>

#include "algebra/vectorized.h"
#include "authz/compiled_mask.h"
#include "common/file.h"
#include "engine/durable.h"
#include "engine/table_printer.h"
#include "oracle.h"
#include "parser/parser.h"
#include "report.h"
#include "server/client.h"
#include "server/server.h"

namespace e2ebench {
namespace {

using viewauth::AuthorizationOptions;
using viewauth::Authorizer;
using viewauth::AuthzStats;
using viewauth::DurableEngine;
using viewauth::DurableOptions;
using viewauth::FileSystem;
using viewauth::Result;
using viewauth::Status;
using viewauth::WritableFile;
using viewauth::WriteMode;

// Counts appended bytes and times every fsync of the files it opens.
class TimingFileSystem : public FileSystem {
 public:
  std::atomic<long long> fsyncs{0};
  std::atomic<long long> fsync_ns{0};
  std::atomic<long long> append_bytes{0};

  Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path,
                                                        WriteMode mode) override {
    auto base = base_->NewWritableFile(path, mode);
    if (!base.ok()) return base.status();
    return std::unique_ptr<WritableFile>(std::make_unique<TimedFile>(std::move(*base), this));
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  bool FileExists(const std::string& path) override { return base_->FileExists(path); }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override { return base_->RemoveFile(path); }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status SyncDirectoryOf(const std::string& path) override { return base_->SyncDirectoryOf(path); }

 private:
  class TimedFile : public WritableFile {
   public:
    TimedFile(std::unique_ptr<WritableFile> base, TimingFileSystem* fs)
        : base_(std::move(base)), fs_(fs) {}
    Status Append(std::string_view data) override {
      fs_->append_bytes += static_cast<long long>(data.size());
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      const Clock::time_point start = Clock::now();
      Status s = base_->Sync();
      fs_->fsync_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
                           .count();
      ++fs_->fsyncs;
      return s;
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
    TimingFileSystem* fs_;
  };

  FileSystem* base_ = FileSystem::Default();
};

// A wire replica: a DurableEngine served in-process, with one client per
// login (the admin or a user session).
class WireReplica {
 public:
  bool Open(const std::string& log, const Inputs& inputs, std::string* why) {
    auto opened = DurableEngine::Open(log);
    if (!opened.ok()) {
      *why = opened.status().ToString();
      return false;
    }
    durable_ = std::move(*opened);
    std::string script;
    for (const Request& r : inputs.load) script += r.text + "\n";
    auto loaded = durable_->ExecuteScript(script);
    if (!loaded.ok()) {
      *why = "load: " + loaded.status().ToString();
      return false;
    }
    server_ = std::make_unique<viewauth::Server>(durable_.get());
    auto listener = viewauth::ListenSocket::ListenTcp("127.0.0.1", 0);
    if (!listener.ok() || !server_->Start(std::move(*listener)).ok()) {
      *why = "cannot start the in-process server";
      return false;
    }
    return true;
  }

  ~WireReplica() {
    clients_.clear();
    if (server_ != nullptr) server_->Stop();
  }

  Result<std::string> Execute(const std::string& login, const std::string& text) {
    std::unique_ptr<viewauth::Client>& client = clients_[login];
    if (client == nullptr || !client->alive()) {
      auto connected = viewauth::Client::ConnectTcp("127.0.0.1", server_->port(), login);
      if (!connected.ok()) return connected.status();
      client = std::move(*connected);
    }
    return client->Execute(text);
  }

 private:
  std::unique_ptr<DurableEngine> durable_;
  std::unique_ptr<viewauth::Server> server_;
  std::map<std::string, std::unique_ptr<viewauth::Client>> clients_;
};

struct Step {
  const Request* request;
  std::string login;  // "admin" or the session user
};

// The traced prefix: an eighth of each stream, interleaved. Each step
// runs on every replica and its layers one by one, so a step costs
// several untraced requests.
std::vector<Step> TracedSteps(const Inputs& inputs) {
  std::vector<Step> steps;
  const size_t n = inputs.streams[0].size() / 8;
  for (size_t i = 0; i < n; ++i) {
    for (int c = 0; c < 2; ++c) {
      const Request& r = inputs.streams[c][i];
      steps.push_back(Step{&r, AdminStream(inputs, c) ? "admin" : r.user});
    }
  }
  return steps;
}

// Sums of one per-layer quantity.
struct Sum {
  double total = 0;
  long long count = 0;
  void Add(double v) {
    total += v;
    ++count;
  }
  double Mean() const { return count == 0 ? 0 : total / static_cast<double>(count); }
};

double Ratio(long long num, long long den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

int RunTraced(const Inputs& inputs, const std::string& workdir) {
  RunResult result;
  std::string why;
  const std::vector<Step> steps = TracedSteps(inputs);

  // --- A0: the untraced wire replay ------------------------------------
  double untraced_rate = 0;
  {
    WireReplica a0;
    if (!a0.Open(workdir + "/a0.log", inputs, &why)) {
      std::fprintf(stderr, "e2ebench: trace set-up failed: %s\n", why.c_str());
      return 1;
    }
    const Clock::time_point start = Clock::now();
    for (const Step& s : steps) (void)a0.Execute(s.login, s.request->text);
    untraced_rate = static_cast<double>(steps.size()) / Seconds(start, Clock::now());
  }

  // --- the replicas ------------------------------------------------------
  WireReplica a;
  if (!a.Open(workdir + "/a.log", inputs, &why)) {
    std::fprintf(stderr, "e2ebench: trace set-up failed: %s\n", why.c_str());
    return 1;
  }
  TimingFileSystem timing_fs;
  DurableOptions durable_options;
  durable_options.fs = &timing_fs;
  auto opened_b = DurableEngine::Open(workdir + "/b.log", durable_options);
  if (!opened_b.ok()) {
    std::fprintf(stderr, "e2ebench: %s\n", opened_b.status().ToString().c_str());
    return 1;
  }
  DurableEngine& b = **opened_b;
  viewauth::Engine c;

  Sum round_trip, reply_bytes, parse, query_build, execute, render, derive_miss, mask_compile,
      apply_mask, describe, mask_tuples, retrieve, fanout, plan, rows_scanned, batches,
      output_rows, catalog_clone, grant_commit, insert_commit;
  double all_round_trips_us = 0;  // retrieves and writes
  long long delivered_rows = 0, answer_rows = 0;
  long long writes = 0, fsyncs = 0, fsync_ns = 0, append_bytes = 0, invalidated = 0;

  // Times one catalog clone of C's current catalog.
  auto time_clone = [&] {
    const Clock::time_point t0 = Clock::now();
    auto copy = c.catalog().Clone(c.db().schema_ptr());
    catalog_clone.Add(Micros(t0, Clock::now()));
  };

  // Applies a write to B (timed, with its file-system and cache effects)
  // and to C.
  auto traced_write = [&](const Request& w, bool counted) -> bool {
    const long long fsyncs0 = timing_fs.fsyncs, fsync_ns0 = timing_fs.fsync_ns,
                    bytes0 = timing_fs.append_bytes;
    const long long invalidated0 = b.engine().authz_stats().entries_invalidated;
    auto parsed = viewauth::ParseStatement(w.text);
    if (!parsed.ok()) return false;
    const Clock::time_point t0 = Clock::now();
    auto done = b.ExecuteParsed(*parsed);
    const double us = Micros(t0, Clock::now());
    if (!done.ok() || !c.Execute(w.text).ok()) return false;
    if (!counted) return true;
    ++writes;
    if (w.kind == RequestKind::kInsert) insert_commit.Add(us);
    if (w.kind == RequestKind::kPermit || w.kind == RequestKind::kDeny) grant_commit.Add(us);
    fsyncs += timing_fs.fsyncs - fsyncs0;
    fsync_ns += timing_fs.fsync_ns - fsync_ns0;
    append_bytes += timing_fs.append_bytes - bytes0;
    invalidated += b.engine().authz_stats().entries_invalidated - invalidated0;
    return true;
  };

  for (const Request& w : inputs.load) {
    ++result.attempted;
    if (!traced_write(w, false)) result.Fail("trace load: '" + w.text + "'");
  }

  // --- the traced replay ---------------------------------------------------
  Oracle oracle(inputs);
  const AuthorizationOptions options;
  const AuthzStats stats0 = c.authz_cache().Snapshot();
  viewauth::TablePrintOptions print_options;
  for (const Step& s : steps) {
    const Request& r = *s.request;
    ++result.attempted;

    const Clock::time_point t0 = Clock::now();
    Result<std::string> reply = a.Execute(s.login, r.text);
    const double rt_us = Micros(t0, Clock::now());
    all_round_trips_us += rt_us;
    if (!reply.ok()) {
      result.Fail("trace: '" + r.text + "': " + reply.status().ToString());
      continue;
    }
    if (r.kind != RequestKind::kRetrieve) {
      oracle.Apply(r);
      time_clone();
      if (!traced_write(r, true)) result.Fail("trace write: '" + r.text + "'");
      continue;
    }
    if (!oracle.Check(r, *reply, &why)) {
      result.Fail(why);
      continue;
    }
    round_trip.Add(rt_us);
    reply_bytes.Add(static_cast<double>(reply->size()));

    // B: parse, then execute as the server would (a user session binds
    // the retrieve to its user).
    Clock::time_point t = Clock::now();
    auto parsed = viewauth::ParseStatement(r.text);
    parse.Add(Micros(t, Clock::now()));
    if (!parsed.ok()) {
      result.Fail("trace parse: " + parsed.status().ToString());
      continue;
    }
    auto& stmt = std::get<viewauth::RetrieveStmt>(*parsed);
    if (s.login != "admin") stmt.as_user = s.login;
    t = Clock::now();
    auto executed = b.ExecuteParsed(*parsed);
    execute.Add(Micros(t, Clock::now()));

    // C: the authorized retrieve and its steps, each timed on its own.
    t = Clock::now();
    auto query = viewauth::ConjunctiveQuery::FromRetrieve(c.db().schema(), stmt);
    query_build.Add(Micros(t, Clock::now()));
    if (!executed.ok() || !query.ok()) {
      result.Fail("trace execute: '" + r.text + "'");
      continue;
    }
    const Authorizer cached(&c.db(), &c.catalog(), &c.authz_cache());
    const long long misses0 = c.authz_cache().Snapshot().mask_misses;
    t = Clock::now();
    auto authorized = cached.Retrieve(r.user, *query, options);
    const double retrieve_us = Micros(t, Clock::now());
    retrieve.Add(retrieve_us);
    if (!authorized.ok()) {
      result.Fail("trace retrieve: " + authorized.status().ToString());
      continue;
    }
    const bool mask_miss = c.authz_cache().Snapshot().mask_misses > misses0;
    print_options.caption = "result for " + r.user + ":";
    t = Clock::now();
    const std::string rendered = viewauth::PrintRelation(authorized->answer, print_options);
    render.Add(Micros(t, Clock::now()));

    const Authorizer bare(&c.db(), &c.catalog(), nullptr);
    t = Clock::now();
    auto mask = bare.DeriveMask(r.user, *query, options);
    const double derive_us = Micros(t, Clock::now());
    derive_miss.Add(derive_us);
    if (!mask.ok()) {
      result.Fail("trace derive: " + mask.status().ToString());
      continue;
    }
    mask_tuples.Add(mask->size());
    t = Clock::now();
    const viewauth::CompiledMask compiled = viewauth::CompiledMask::Compile(*mask);
    const double compile_us = Micros(t, Clock::now());
    mask_compile.Add(compile_us);

    viewauth::EvalStats eval;
    t = Clock::now();
    auto answer = viewauth::EvaluateVectorized(*query, c.db(), "ANSWER", &eval);
    const double plan_us = Micros(t, Clock::now());
    plan.Add(plan_us);
    if (!answer.ok()) {
      result.Fail("trace plan: " + answer.status().ToString());
      continue;
    }
    rows_scanned.Add(static_cast<double>(eval.rows_scanned));
    batches.Add(static_cast<double>(eval.batches_evaluated));
    output_rows.Add(static_cast<double>(eval.output_rows));
    t = Clock::now();
    const viewauth::Relation delivered = Authorizer::ApplyMaskVectorized(
        *answer, compiled, options.drop_fully_masked_rows);
    const double apply_us = Micros(t, Clock::now());
    apply_mask.Add(apply_us);
    delivered_rows += delivered.size();
    answer_rows += answer->size();
    t = Clock::now();
    const auto permits = bare.DescribeMask(*mask);
    const double describe_us = Micros(t, Clock::now());
    describe.Add(describe_us);
    fanout.Add(retrieve_us - (mask_miss ? derive_us + compile_us : 0) - plan_us - apply_us -
               describe_us);
  }
  const AuthzStats stats1 = c.authz_cache().Snapshot();

  // Recovery: reopening B's log replays the load and the traced writes.
  opened_b->reset();
  const Clock::time_point reopen_start = Clock::now();
  auto reopened = DurableEngine::Open(workdir + "/b.log");
  const double reopen_s = Seconds(reopen_start, Clock::now());
  if (!reopened.ok()) result.Fail("trace reopen: " + reopened.status().ToString());
  const double traced_rate =
      all_round_trips_us > 0 ? static_cast<double>(steps.size()) / (all_round_trips_us / 1e6) : 0;

  const double wire_us = round_trip.Mean() - execute.Mean();
  result.Add("server.round_trip_us", round_trip.Mean(), "us");
  result.Add("server.wire_overhead_us", wire_us, "us");
  result.Add("server.reply_bytes", reply_bytes.Mean(), "B");
  result.Add("parser.parse_us", parse.Mean(), "us");
  result.Add("calculus.query_build_us", query_build.Mean(), "us");
  result.Add("engine.execute_us", execute.Mean(), "us");
  result.Add("engine.render_us", render.Mean(), "us");
  result.Add("engine.overhead_us", execute.Mean() - retrieve.Mean() - render.Mean(), "us");
  result.Add("authz.retrieve_us", retrieve.Mean(), "us");
  result.Add("authz.fanout_overhead_us", fanout.Mean(), "us");
  result.Add("authz.derive_mask_miss_us", derive_miss.Mean(), "us");
  result.Add("authz.mask_hit_ratio",
             Ratio(stats1.mask_hits - stats0.mask_hits,
                   stats1.mask_hits - stats0.mask_hits + stats1.mask_misses - stats0.mask_misses),
             "ratio");
  result.Add("authz.prepared_hit_ratio",
             Ratio(stats1.prepared_hits - stats0.prepared_hits,
                   stats1.prepared_hits - stats0.prepared_hits + stats1.prepared_misses -
                       stats0.prepared_misses),
             "ratio");
  result.Add("authz.mask_compile_us", mask_compile.Mean(), "us");
  result.Add("authz.apply_mask_us", apply_mask.Mean(), "us");
  result.Add("authz.describe_mask_us", describe.Mean(), "us");
  result.Add("authz.mask_tuples", mask_tuples.Mean(), "count");
  result.Add("authz.delivered_row_ratio", Ratio(delivered_rows, answer_rows), "ratio");
  result.Add("algebra.plan_us", plan.Mean(), "us");
  result.Add("algebra.rows_scanned", rows_scanned.Mean(), "count");
  result.Add("algebra.batches", batches.Mean(), "count");
  result.Add("algebra.output_rows", output_rows.Mean(), "count");
  result.Add("meta.catalog_clone_us", catalog_clone.Mean(), "us");
  result.Add("authz.entries_invalidated_per_write", Ratio(invalidated, writes), "count");
  result.Add("engine.grant_commit_us", grant_commit.Mean(), "us");
  result.Add("engine.insert_commit_us", insert_commit.Mean(), "us");
  result.Add("common.fsync_us", fsyncs == 0 ? 0 : static_cast<double>(fsync_ns) / 1e3 / static_cast<double>(fsyncs), "us");
  result.Add("common.fsyncs_per_write", Ratio(fsyncs, writes), "count");
  result.Add("common.append_bytes_per_write", Ratio(append_bytes, writes), "B");
  result.Add("engine.reopen_s", reopen_s, "s");
  result.Add("trace.overhead_pct",
             untraced_rate > 0 ? 100.0 * (untraced_rate - traced_rate) / untraced_rate : 0,
             "%");
  std::fprintf(stderr,
               "e2ebench: traced %s seed %llu: %lld retrieves, %lld writes; untraced %.0f/s, "
               "traced %.0f/s\n",
               WorkloadName(inputs.kind), static_cast<unsigned long long>(inputs.seed),
               round_trip.count, writes, untraced_rate, traced_rate);
  if (result.failed > 0) result.correct = false;
  PrintResult(result);
  return 0;
}

}  // namespace e2ebench
