#include "frontend/wire.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>

#include "common/json.hpp"
#include "frontend/daemon.hpp"
#include "frontend/wall_clock.hpp"
#include "net/network.hpp"

namespace gridvc::frontend {
namespace {

using gridftp::IoMode;
using gridftp::Server;
using gridftp::ServerConfig;
using gridftp::TransferEngine;
using gridftp::TransferEngineConfig;
using gridftp::TransferService;
using gridftp::TransferSpec;
using gridftp::UsageStatsCollector;

struct WireFixture {
  sim::Simulator sim;
  net::Topology topo;
  net::LinkId ab;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<Server> src, dst;
  UsageStatsCollector collector;
  std::unique_ptr<TransferEngine> engine;
  std::unique_ptr<TransferService> service;
  std::unique_ptr<FrontEnd> front;
  std::unique_ptr<WireContext> ctx;

  explicit WireFixture(double submit_rate = 0.0) {
    const auto a = topo.add_node("a", net::NodeKind::kHost);
    const auto b = topo.add_node("b", net::NodeKind::kHost);
    ab = topo.add_link(a, b, gbps(10), 0.005);
    network = std::make_unique<net::Network>(sim, topo);
    ServerConfig sc;
    sc.name = "src";
    sc.nic_rate = gbps(8);
    src = std::make_unique<Server>(sc);
    sc.name = "dst";
    dst = std::make_unique<Server>(sc);
    TransferEngineConfig ecfg;
    ecfg.server_noise_sigma = 0.0;
    engine = std::make_unique<TransferEngine>(*network, collector, ecfg, Rng(3));
    service = std::make_unique<TransferService>(sim, *engine);
    FrontEndConfig fcfg;
    TenantConfig tc;
    tc.name = "acme";
    tc.submit_rate = submit_rate;
    if (submit_rate > 0) tc.submit_burst = 1.0;
    fcfg.tenants = {tc};
    front = std::make_unique<FrontEnd>(sim, *service, fcfg);
    TransferSpec tmpl;
    tmpl.src = {src.get(), IoMode::kMemory};
    tmpl.dst = {dst.get(), IoMode::kMemory};
    tmpl.path = {ab};
    tmpl.rtt = 0.01;
    tmpl.remote_host = "b";
    ctx = std::make_unique<WireContext>(WireContext{*front, sim, tmpl});
  }

  /// Run one request and parse the response back.
  Json roundtrip(const std::string& line, WireResult* raw = nullptr) {
    const WireResult r = handle_wire_line(*ctx, line);
    if (raw != nullptr) *raw = r;
    return parse_json(r.response);
  }
};

bool ok(const Json& res) {
  const Json* v = res.get("ok");
  return v != nullptr && v->type == Json::Type::kBool && v->boolean;
}

double num(const Json& res, const std::string& key) {
  const Json* v = res.get(key);
  EXPECT_NE(v, nullptr) << "missing key " << key;
  return v == nullptr ? -1.0 : v->number;
}

TEST(Wire, FullSessionRoundTrip) {
  WireFixture f;
  WireResult raw;
  Json res = f.roundtrip("{\"op\":\"connect\",\"tenant\":\"acme\"}", &raw);
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(num(res, "session"), 1.0);
  ASSERT_TRUE(raw.opened_session.has_value());
  EXPECT_EQ(*raw.opened_session, 1u);

  res = f.roundtrip(
      "{\"op\":\"submit\",\"session\":1,\"label\":\"j\",\"files\":[1048576]}");
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(num(res, "ticket"), 1.0);

  f.sim.run();
  res = f.roundtrip("{\"op\":\"poll\",\"session\":1,\"ticket\":1}");
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(res.get("state")->str, "done");
  EXPECT_EQ(res.get("task_state")->str, "succeeded");
  EXPECT_EQ(num(res, "bytes_done"), 1048576.0);

  res = f.roundtrip("{\"op\":\"stats\",\"tenant\":\"acme\"}");
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(num(res, "completed"), 1.0);

  res = f.roundtrip("{\"op\":\"disconnect\",\"session\":1}", &raw);
  ASSERT_TRUE(ok(res));
  ASSERT_TRUE(raw.closed_session.has_value());
  EXPECT_EQ(*raw.closed_session, 1u);
}

TEST(Wire, RejectionIsNotAnError) {
  WireFixture f(/*submit_rate=*/1.0);  // 1 submission/sec, burst 1
  ASSERT_TRUE(ok(f.roundtrip("{\"op\":\"connect\",\"tenant\":\"acme\"}")));
  Json res =
      f.roundtrip("{\"op\":\"submit\",\"session\":1,\"files\":[1024]}");
  ASSERT_TRUE(ok(res));
  res = f.roundtrip("{\"op\":\"submit\",\"session\":1,\"files\":[1024]}");
  EXPECT_FALSE(ok(res));
  EXPECT_EQ(res.get("error"), nullptr);  // refusal, not an error
  EXPECT_TRUE(res.get("rejected")->boolean);
  EXPECT_EQ(res.get("reason")->str, "rate_limited");
  EXPECT_GT(num(res, "retry_after"), 0.0);
}

TEST(Wire, StructuralAndDomainErrors) {
  WireFixture f;
  EXPECT_FALSE(ok(f.roundtrip("not json at all")));
  EXPECT_FALSE(ok(f.roundtrip("{\"op\":\"warp\"}")));
  EXPECT_FALSE(ok(f.roundtrip("{\"tenant\":\"acme\"}")));  // missing op
  EXPECT_FALSE(ok(f.roundtrip("{\"op\":\"connect\",\"tenant\":\"ghost\"}")));
  EXPECT_FALSE(ok(f.roundtrip("{\"op\":\"poll\",\"session\":7,\"ticket\":1}")));
  EXPECT_FALSE(ok(
      f.roundtrip("{\"op\":\"submit\",\"session\":1,\"files\":[-5]}")));
  // Ids are integers in [0, 2^64); a fractional or negative one is never
  // rounded onto a live session.
  const Json opened = f.roundtrip("{\"op\":\"connect\",\"tenant\":\"acme\"}");
  ASSERT_TRUE(ok(opened));
  const double session = num(opened, "session");
  for (const std::string& bad : {std::to_string(session + 0.5), std::string("-1")}) {
    EXPECT_FALSE(ok(f.roundtrip("{\"op\":\"disconnect\",\"session\":" + bad + "}")))
        << bad;
  }
  // Byte counts are whole numbers in [1, 2^53] and priority a whole
  // number in int range; anything else is refused, never cast (1.5 would
  // truncate to a 1-byte file, 1e300 is undefined as an integer).
  const std::string submit =
      "{\"op\":\"submit\",\"session\":" + std::to_string(static_cast<int>(session)) + ",";
  for (const char* files :
       {"[1.5]", "[0.5]", "[0]", "[1e300]", "[9007199254740994]", "[1024,2.25]"}) {
    const Json res = f.roundtrip(submit + "\"files\":" + files + "}");
    EXPECT_FALSE(ok(res)) << files;
    EXPECT_NE(res.get("error"), nullptr) << files;
  }
  for (const char* priority : {"1.5", "-0.5", "1e300", "2147483648", "-2147483649"}) {
    const Json res = f.roundtrip(submit + "\"files\":[1024],\"priority\":" + priority + "}");
    EXPECT_FALSE(ok(res)) << priority;
    EXPECT_NE(res.get("error"), nullptr) << priority;
  }
  // The bounds themselves pass: sent on an unknown session (so nothing is
  // queued), the refusal comes from the session lookup.
  const Json edge = f.roundtrip(
      "{\"op\":\"submit\",\"session\":999,\"files\":[9007199254740992],"
      "\"priority\":-2147483648}");
  ASSERT_NE(edge.get("error"), nullptr);
  EXPECT_NE(edge.get("error")->str.find("unknown session"), std::string::npos)
      << edge.get("error")->str;
  EXPECT_TRUE(ok(f.roundtrip(submit + "\"files\":[1],\"priority\":2147483647}")));
  EXPECT_TRUE(ok(f.roundtrip("{\"op\":\"disconnect\",\"session\":" +
                             std::to_string(static_cast<int>(session)) + "}")));
  // A failed request never reports session bookkeeping.
  WireResult raw;
  (void)f.roundtrip("{\"op\":\"connect\",\"tenant\":\"ghost\"}", &raw);
  EXPECT_FALSE(raw.opened_session.has_value());
}

TEST(Wire, PingReportsSimTime) {
  WireFixture f;
  f.sim.run_until(12.5);
  const Json res = f.roundtrip("{\"op\":\"ping\"}");
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(num(res, "time"), 12.5);
}

TEST(RequestRing, BlocksProducerWhenFullAndDrainsFifo) {
  RequestRing ring(2);
  ring.push({1, "a", false});
  ring.push({1, "b", false});
  std::thread producer([&] { ring.push({1, "c", false}); });
  // The third push must wait for a pop.
  RequestRing::Item item;
  ASSERT_TRUE(ring.pop(item, 1000));
  EXPECT_EQ(item.line, "a");
  producer.join();  // unblocked by the pop
  ASSERT_TRUE(ring.pop(item, 1000));
  EXPECT_EQ(item.line, "b");
  ASSERT_TRUE(ring.pop(item, 1000));
  EXPECT_EQ(item.line, "c");
  EXPECT_FALSE(ring.pop(item, 0));
  EXPECT_EQ(ring.depth(), 0u);
}

TEST(WallClock, TestClockJumpsForwardOnly) {
  TestWallClock clock;
  EXPECT_TRUE(clock.is_virtual());
  EXPECT_EQ(clock.now(), 0.0);
  clock.advance_to(5.0);
  EXPECT_EQ(clock.now(), 5.0);
  clock.advance_to(3.0);  // never backward
  EXPECT_EQ(clock.now(), 5.0);
}

TEST(WallClock, SteadyClockAdvances) {
  SteadyWallClock clock;
  EXPECT_FALSE(clock.is_virtual());
  const Seconds a = clock.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const Seconds b = clock.now();
  EXPECT_GT(b, a);
}

}  // namespace
}  // namespace gridvc::frontend
