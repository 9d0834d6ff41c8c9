// Unit tests for the wire-protocol server: frame codec, session
// identity policy, per-request deadline propagation, admission-shed
// structured replies, connection caps, graceful drain, and the server
// counters. The fault-injection suite lives in network_torture_test.cc.

#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "common/file.h"
#include "engine/durable.h"
#include "server/client.h"
#include "test_fs_util.h"

namespace viewauth {
namespace {

using Clock = std::chrono::steady_clock;

// The governor test's adversarial workload: a genuine N^2 cross product
// (no equality column), permitted whole to Brown, so a retrieve with a
// short deadline reliably trips mid-scan and one without takes real
// wall time.
std::string CrossProductScript(int rows) {
  std::string script =
      "relation A (AK string key, X int)\n"
      "relation B (BK string key, Y int)\n";
  for (int i = 0; i < rows; ++i) {
    script += "insert into A values (a" + std::to_string(i) + ", " +
              std::to_string(i) + ")\n";
    script += "insert into B values (b" + std::to_string(i) + ", " +
              std::to_string(rows - 10 + i) + ")\n";
  }
  script +=
      "view AB (A.X, B.Y)\n"
      "permit AB to Brown\n";
  return script;
}

constexpr const char* kCrossQuery = "retrieve (A.X, B.Y) where A.X > B.Y";

class ServerTest : public ::testing::Test {
 protected:
  void SeedEmployees(Engine* engine) {
    auto setup = engine->ExecuteScript(R"(
      relation EMPLOYEE (NAME string key, TITLE string, SALARY int)
      insert into EMPLOYEE values (Jones, manager, 26000)
      insert into EMPLOYEE values (Brown, engineer, 32000)
      view SAE (EMPLOYEE.NAME, EMPLOYEE.SALARY)
      permit SAE to Brown
    )");
    ASSERT_TRUE(setup.ok()) << setup.status();
  }

  void StartServer(Engine* engine, ServerOptions options = {}) {
    server_ = std::make_unique<Server>(engine, options);
    auto listener = ListenSocket::ListenTcp("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok()) << listener.status();
    ASSERT_TRUE(server_->Start(std::move(*listener)).ok());
  }

  Result<std::unique_ptr<Client>> Connect(const std::string& user,
                                          ClientOptions options = {}) {
    return Client::ConnectTcp("127.0.0.1", server_->port(), user, options);
  }

  Engine engine_;
  std::unique_ptr<Server> server_;
};

TEST(FrameCodecTest, RoundTripThroughSocketPair) {
  auto pair = MakeSocketPair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  RequestPayload request;
  request.id = 42;
  request.deadline_ms = 250;
  request.statement = "retrieve (EMPLOYEE.NAME) as Brown";
  const std::string frame =
      EncodeFrame(FrameType::kRequest, EncodeRequest(request));
  ASSERT_TRUE(WriteFully(*pair->first, frame, 1000).ok());

  auto read = ReadFrame(*pair->second, kDefaultMaxFrameBytes, 1000, 1000);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->type, FrameType::kRequest);
  auto decoded = DecodeRequest(read->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id, 42u);
  EXPECT_EQ(decoded->deadline_ms, 250u);
  EXPECT_EQ(decoded->statement, request.statement);
}

TEST(FrameCodecTest, CleanCloseAtBoundaryIsNotFound) {
  auto pair = MakeSocketPair();
  ASSERT_TRUE(pair.ok());
  pair->first.reset();  // close without sending anything
  auto read = ReadFrame(*pair->second, kDefaultMaxFrameBytes, 1000, 1000);
  EXPECT_TRUE(read.status().IsNotFound()) << read.status();
}

TEST(FrameCodecTest, MidFrameDisconnectIsProtocolError) {
  auto pair = MakeSocketPair();
  ASSERT_TRUE(pair.ok());
  const std::string frame = EncodeFrame(FrameType::kHello, "brown");
  // Half the frame, then the peer dies.
  ASSERT_TRUE(WriteFully(*pair->first, frame.substr(0, 6), 1000).ok());
  pair->first.reset();
  auto read = ReadFrame(*pair->second, kDefaultMaxFrameBytes, 1000, 1000);
  EXPECT_TRUE(read.status().IsInvalidArgument()) << read.status();
  EXPECT_NE(read.status().message().find("mid-frame"), std::string::npos);
}

TEST(FrameCodecTest, OversizedLengthRejectedBeforeAllocation) {
  auto pair = MakeSocketPair();
  ASSERT_TRUE(pair.ok());
  std::string header;
  const uint32_t huge = 0xfffffff0u;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  }
  header.append(4, '\0');  // CRC never checked: length fails first
  ASSERT_TRUE(WriteFully(*pair->first, header, 1000).ok());
  auto read = ReadFrame(*pair->second, 1 << 20, 1000, 1000);
  ASSERT_TRUE(read.status().IsInvalidArgument()) << read.status();
  EXPECT_NE(read.status().message().find("exceeds"), std::string::npos);
}

TEST(FrameCodecTest, CorruptBodyFailsCrc) {
  auto pair = MakeSocketPair();
  ASSERT_TRUE(pair.ok());
  std::string frame = EncodeFrame(FrameType::kHello, "brown");
  frame[frame.size() - 1] ^= 0x40;  // flip one payload bit
  ASSERT_TRUE(WriteFully(*pair->first, frame, 1000).ok());
  auto read = ReadFrame(*pair->second, kDefaultMaxFrameBytes, 1000, 1000);
  ASSERT_TRUE(read.status().IsInvalidArgument()) << read.status();
  EXPECT_NE(read.status().message().find("CRC"), std::string::npos);
}

TEST_F(ServerTest, HelloThenRetrieve) {
  SeedEmployees(&engine_);
  StartServer(&engine_);

  auto client = Connect("Brown");
  ASSERT_TRUE(client.ok()) << client.status();
  auto out = (*client)->Execute("retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("Jones"), std::string::npos);
  EXPECT_NE(out->find("26,000"), std::string::npos);

  // The session identity decides whose masks apply: TITLE is not
  // covered by Brown's view, so it is withheld.
  auto masked = (*client)->Execute("retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE)");
  ASSERT_TRUE(masked.ok());
  EXPECT_EQ(masked->find("manager"), std::string::npos);
}

TEST_F(ServerTest, RequestBeforeHelloIsRefused) {
  SeedEmployees(&engine_);
  StartServer(&engine_);

  auto socket = ConnectTcp("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(socket.ok());
  RequestPayload request;
  request.id = 1;
  request.statement = "retrieve (EMPLOYEE.NAME)";
  ASSERT_TRUE(WriteFully(*(*socket),
                         EncodeFrame(FrameType::kRequest,
                                     EncodeRequest(request)),
                         1000)
                  .ok());
  auto read = ReadFrame(*(*socket), kDefaultMaxFrameBytes, 2000, 1000);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->type, FrameType::kReply);
  auto reply = DecodeReply(read->payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->code,
            static_cast<int32_t>(StatusCode::kPermissionDenied));
  EXPECT_NE(reply->text.find("hello"), std::string::npos);
}

TEST_F(ServerTest, IdentityCannotBeEscalated) {
  SeedEmployees(&engine_);
  StartServer(&engine_);

  auto brown = Connect("Brown");
  ASSERT_TRUE(brown.ok()) << brown.status();
  // `as` naming the session user is redundant but fine.
  EXPECT_TRUE(
      (*brown)->Execute("retrieve (EMPLOYEE.NAME) as Brown").ok());
  // Impersonation is refused at the protocol boundary.
  auto as_jones = (*brown)->Execute("retrieve (EMPLOYEE.NAME) as Jones");
  ASSERT_FALSE(as_jones.ok());
  EXPECT_TRUE(as_jones.status().IsPermissionDenied()) << as_jones.status();
  // So are administrative statements from a non-admin session.
  auto ddl = (*brown)->Execute("relation SNEAKY (A int)");
  ASSERT_FALSE(ddl.ok());
  EXPECT_TRUE(ddl.status().IsPermissionDenied());
  EXPECT_FALSE(engine_.db().GetRelation("SNEAKY").ok());

  // An admin session may do both.
  auto admin = Connect("admin");
  ASSERT_TRUE(admin.ok()) << admin.status();
  EXPECT_TRUE((*admin)->Execute("retrieve (EMPLOYEE.NAME) as Brown").ok());
  EXPECT_TRUE((*admin)->Execute("relation AUDITED (A int)").ok());
}

TEST_F(ServerTest, PerRequestDeadlinePropagatesIntoGovernor) {
  ASSERT_TRUE(engine_.ExecuteScript(CrossProductScript(1000)).ok());
  StartServer(&engine_);

  auto client = Connect("Brown");
  ASSERT_TRUE(client.ok()) << client.status();
  // 1ms against a 10^6-pair cross product trips the governor...
  auto governed = (*client)->Execute(kCrossQuery, /*deadline_ms=*/1);
  ASSERT_FALSE(governed.ok());
  EXPECT_TRUE(governed.status().IsDeadlineExceeded()) << governed.status();
  // ...and the connection survives a governed abort: the same query
  // without a deadline completes.
  auto full = (*client)->Execute(kCrossQuery);
  ASSERT_TRUE(full.ok()) << full.status();
}

TEST_F(ServerTest, AdmissionShedIsAStructuredReply) {
  ASSERT_TRUE(engine_.ExecuteScript(CrossProductScript(1000)).ok());
  engine_.options().max_concurrent = 1;
  engine_.options().admission_queue = 0;
  StartServer(&engine_);

  auto slow = Connect("Brown");
  auto fast = Connect("Brown");
  ASSERT_TRUE(slow.ok() && fast.ok());

  // Park a slow retrieve on one connection while probing on the other:
  // with a single admission slot and no queue, whichever side loses the
  // race gets a structured Unavailable reply — never a dropped socket.
  std::thread parked([&] {
    auto out = (*slow)->Execute(kCrossQuery);
    if (!out.ok()) {
      EXPECT_TRUE(out.status().IsUnavailable()) << out.status();
    }
  });
  for (int i = 0; i < 200 && server_->stats().requests_shed == 0; ++i) {
    auto raced = (*fast)->Execute("retrieve (A.X) where A.X = 1");
    if (!raced.ok()) {
      EXPECT_TRUE(raced.status().IsUnavailable()) << raced.status();
    }
  }
  parked.join();
  EXPECT_GE(server_->stats().requests_shed, 1) << "no shed observed";
  // Both connections survived their (possible) sheds.
  EXPECT_TRUE((*slow)->alive());
  EXPECT_TRUE((*fast)->Execute("retrieve (A.X) where A.X = 1").ok());
}

TEST_F(ServerTest, AtCapacityConnectionsAreRejectedStructurally) {
  SeedEmployees(&engine_);
  ServerOptions options;
  options.max_connections = 1;
  StartServer(&engine_, options);

  auto first = Connect("Brown");
  ASSERT_TRUE(first.ok()) << first.status();
  // The second connection is greeted with an error frame, not a slam.
  auto second = Connect("Brown");
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.status().message().find("capacity"), std::string::npos)
      << second.status();
  EXPECT_GE(server_->stats().connections_rejected, 1);
  // The first connection is unaffected.
  EXPECT_TRUE((*first)->Execute("retrieve (EMPLOYEE.NAME)").ok());
}

TEST_F(ServerTest, GracefulDrainFinishesInFlightAndRefusesQueued) {
  // A durable backend whose fsyncs park at a gate: the in-flight request
  // is a commit held at its fsync until the drain has provably begun,
  // so the test never races a sleep against the request's run time.
  const std::string path = ::testing::TempDir() + "viewauth_drain_test.log";
  std::remove(path.c_str());
  GateFileSystem gate(FileSystem::Default());
  DurableOptions durable_options;
  durable_options.fs = &gate;
  auto durable = DurableEngine::Open(path, durable_options);
  ASSERT_TRUE(durable.ok()) << durable.status();
  ASSERT_TRUE((*durable)
                  ->ExecuteScript("relation A (AK string key, X int)\n"
                                  "insert into A values (a1, 1)\n"
                                  "view VA (A.X)\n"
                                  "permit VA to Brown\n")
                  .ok());
  Engine& engine = (*durable)->engine();
  server_ = std::make_unique<Server>(durable->get());
  auto listener = ListenSocket::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  ASSERT_TRUE(server_->Start(std::move(*listener)).ok());

  // Pipeline two requests on a raw admin connection: a commit that parks
  // at the gate, and a fast probe queued behind it.
  auto socket = ConnectTcp("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(
      WriteFully(*(*socket), EncodeFrame(FrameType::kHello, "admin"), 1000)
          .ok());
  auto hello_ack = ReadFrame(*(*socket), kDefaultMaxFrameBytes, 2000, 1000);
  ASSERT_TRUE(hello_ack.ok()) << hello_ack.status();

  RequestPayload slow;
  slow.id = 1;
  slow.statement = "insert into A values (a2, 2)";
  RequestPayload fast;
  fast.id = 2;
  fast.statement = "retrieve (A.X) where A.X = 1 as Brown";
  std::string pipelined =
      EncodeFrame(FrameType::kRequest, EncodeRequest(slow)) +
      EncodeFrame(FrameType::kRequest, EncodeRequest(fast));
  gate.CloseGate();
  ASSERT_TRUE(WriteFully(*(*socket), pipelined, 1000).ok());
  gate.AwaitWaiter();  // the commit is in flight, parked at its fsync

  std::thread stopper([&] { server_->Stop(); });
  // Stop() raises the server's drain flag before the engine's, so once
  // the engine sheds retrieves the queued probe can only be refused.
  const auto give_up = Clock::now() + std::chrono::seconds(30);
  while (engine.Execute("retrieve (A.X) as Brown").ok() &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.OpenGate();

  // The in-flight request completes.
  auto first = ReadFrame(*(*socket), kDefaultMaxFrameBytes, 60'000, 5000);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->type, FrameType::kReply);
  auto first_reply = DecodeReply(first->payload);
  ASSERT_TRUE(first_reply.ok());
  EXPECT_EQ(first_reply->id, 1u);
  EXPECT_EQ(first_reply->code, 0) << first_reply->text;

  // The queued request gets the structured shutting-down reply.
  auto second = ReadFrame(*(*socket), kDefaultMaxFrameBytes, 10'000, 5000);
  ASSERT_TRUE(second.ok()) << second.status();
  if (second->type == FrameType::kReply) {
    auto second_reply = DecodeReply(second->payload);
    ASSERT_TRUE(second_reply.ok());
    EXPECT_EQ(second_reply->id, 2u);
    EXPECT_EQ(second_reply->code,
              static_cast<int32_t>(StatusCode::kUnavailable));
    EXPECT_NE(second_reply->text.find("shutting down"), std::string::npos);
  } else {
    // The drain flag may have landed between the two reads; then the
    // queued request is answered by the connection-final error frame.
    EXPECT_EQ(second->type, FrameType::kError);
  }
  stopper.join();

  EXPECT_FALSE(server_->running());
  ServerStats stats = server_->stats();
  EXPECT_EQ(stats.connections_active, 0);
  EXPECT_GE(stats.drain_rejects + stats.connections_evicted, 1);
  EXPECT_GT(stats.drain_micros, 0);
  // No snapshot leaked: the drained engine is back to a single live
  // state version.
  EXPECT_EQ(engine.snapshots_live(), 1);

  // New connections are refused outright (the listener is closed).
  auto late = Connect("Brown");
  EXPECT_FALSE(late.ok());

  // The engine itself is released from draining and fully usable, and
  // the drained commit is durable.
  EXPECT_TRUE(engine.Execute("retrieve (A.X) where A.X = 1 as Brown").ok());
  EXPECT_EQ(engine.db().GetRelation("A").value()->size(), 2);
  server_.reset();
  durable->reset();
  std::remove(path.c_str());
}

TEST_F(ServerTest, CountersReconcileAndRenderAndStatsFrameWorks) {
  SeedEmployees(&engine_);
  StartServer(&engine_);

  auto client = Connect("Brown");
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE((*client)->Execute("retrieve (EMPLOYEE.NAME)").ok());
  auto denied = (*client)->Execute("relation NOPE (A int)");
  EXPECT_TRUE(denied.status().IsPermissionDenied());

  auto report = (*client)->Stats();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_NE(report->find("server stats:"), std::string::npos);
  EXPECT_NE(report->find("authorization stats:"), std::string::npos);

  (*client)->Goodbye();
  // Give the goodbye a moment to land so counters settle.
  for (int i = 0; i < 100 && server_->stats().connections_active > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  ServerStats stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, 1);
  EXPECT_EQ(stats.connections_active, 0);
  EXPECT_GE(stats.frames_in, 4);  // hello + 2 requests + stats + goodbye
  EXPECT_GE(stats.frames_out, 4);
  EXPECT_EQ(stats.requests_ok, 1);
  EXPECT_EQ(stats.requests_error, 1);
  EXPECT_EQ(stats.requests_in_flight, 0);
  const std::string rendered = stats.ToString();
  EXPECT_NE(rendered.find("connections:"), std::string::npos);
  EXPECT_NE(rendered.find("requests:"), std::string::npos);
  EXPECT_NE(rendered.find("drain:"), std::string::npos);
}

TEST_F(ServerTest, ReplyLargerThanFrameCapIsAStructuredError) {
  std::string script =
      "relation EMPLOYEE (NAME string key, SALARY int)\n";
  for (int i = 0; i < 300; ++i) {
    script += "insert into EMPLOYEE values (employee_number_" +
              std::to_string(i) + ", " + std::to_string(20000 + i) + ")\n";
  }
  script +=
      "view SAE (EMPLOYEE.NAME, EMPLOYEE.SALARY)\n"
      "permit SAE to Brown\n";
  ASSERT_TRUE(engine_.ExecuteScript(script).ok());
  ServerOptions options;
  options.max_frame_bytes = 1024;  // far below the 300-row rendering
  StartServer(&engine_, options);

  auto client = Connect("Brown");
  ASSERT_TRUE(client.ok()) << client.status();
  auto out = (*client)->Execute("retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)");
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsResourceExhausted()) << out.status();
  EXPECT_NE(out.status().message().find("frame cap"), std::string::npos);
  // The connection survives; a small reply still fits.
  EXPECT_TRUE(
      (*client)
          ->Execute(
              "retrieve (EMPLOYEE.SALARY) where EMPLOYEE.SALARY = 20000")
          .ok());
}

TEST_F(ServerTest, DurableBackendServesAndCommits) {
  const std::string path = ::testing::TempDir() + "viewauth_server_test.log";
  std::remove(path.c_str());
  auto durable = DurableEngine::Open(path);
  ASSERT_TRUE(durable.ok()) << durable.status();
  Server server(durable->get());
  auto listener = ListenSocket::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  ASSERT_TRUE(server.Start(std::move(*listener)).ok());

  auto admin = Client::ConnectTcp("127.0.0.1", server.port(), "admin");
  ASSERT_TRUE(admin.ok()) << admin.status();
  ASSERT_TRUE((*admin)->Execute("relation T (A int)").ok());
  ASSERT_TRUE((*admin)->Execute("insert into T values (7)").ok());
  server.Stop();
  durable->reset();

  // The acked mutations are durable: a strict reopen replays them.
  auto reopened = DurableEngine::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->engine().db().GetRelation("T").value()->size(), 1);
  std::remove(path.c_str());
}

TEST(RetryingClientTest, RetriesShedsAndReconnects) {
  Engine engine;
  ASSERT_TRUE(engine.ExecuteScript(R"(
    relation T (A int key)
    insert into T values (1)
    view VT (T.A)
    permit VT to Brown
  )").ok());
  Server server(&engine);
  auto listener = ListenSocket::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  ASSERT_TRUE(server.Start(std::move(*listener)).ok());
  const int port = server.port();

  RetryPolicy policy;
  policy.base_backoff_ms = 1;
  RetryingClient client(
      [port] { return Client::ConnectTcp("127.0.0.1", port, "Brown"); },
      policy);
  EXPECT_TRUE(client.Execute("retrieve (T.A)").ok());

  // Semantic failures pass straight through, no retries.
  const long long retries_before = client.retries();
  auto denied = client.Execute("retrieve (T.A) as Jones");
  EXPECT_TRUE(denied.status().IsPermissionDenied());
  EXPECT_EQ(client.retries(), retries_before);

  server.Stop();
}

}  // namespace
}  // namespace viewauth
