// Tests for dsx::net (src/net): the framing protocol codec (round trips,
// header/payload rejection), wire robustness against a live IngressServer
// (garbage magic, oversized length prefixes, truncated frames, slow-loris
// partial writes, disconnect-mid-reply, write-queue backpressure - never a
// crash, a leaked future, or a stalled event loop; every accepted frame
// answered exactly once), tenant auth/quota/QoS admission, and the
// ResidencyManager (LRU eviction + pinning, single-flight fault-in,
// bit-identical faulted-in replies, journaled transitions, mixed-tenant
// wire traffic under eviction churn and hot-swap with zero request errors).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/socket_io.hpp"
#include "deploy/deploy.hpp"
#include "net/net.hpp"
#include "nn/layer.hpp"
#include "obs/http_exporter.hpp"
#include "obs/journal.hpp"
#include "serve/server.hpp"
#include "tensor/random.hpp"
#include "testing_utils.hpp"

namespace fs = std::filesystem;

namespace dsx::net {
namespace {

using testing::bit_identical;

constexpr int64_t kImage = 16;
constexpr int64_t kClasses = 10;

deploy::ArchSpec tiny_spec(uint64_t seed) {
  deploy::ArchSpec spec;
  spec.family = "mobilenet";
  spec.num_classes = kClasses;
  spec.image = kImage;
  spec.scheme.scheme = models::ConvScheme::kDWSCC;
  spec.scheme.cg = 2;
  spec.scheme.co = 0.5;
  spec.scheme.width_mult = 0.25;
  spec.init_seed = seed;
  return spec;
}

std::unique_ptr<serve::CompiledModel> compile_spec(const deploy::ArchSpec& spec,
                                                   int64_t max_batch = 4) {
  return std::make_unique<serve::CompiledModel>(
      deploy::build_architecture(spec), spec.image_shape(),
      serve::CompileOptions{.max_batch = max_batch});
}

Tensor make_image(uint64_t seed) {
  Rng rng(seed);
  return random_uniform(make_nchw(1, 3, kImage, kImage), rng, -1.0f, 1.0f);
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

/// Client-side frame read over a raw fd (the tests that talk malformed
/// bytes cannot use net::Client's well-formed sender).
bool read_reply_raw(int fd, ReplyFrame* out) {
  uint8_t header[kHeaderBytes];
  if (!sockio::recv_all(fd, header, sizeof(header))) return false;
  FrameType type;
  uint32_t len = 0;
  if (parse_header(header, kDefaultMaxFrameBytes, &type, &len) !=
          HeaderVerdict::kOk ||
      type != FrameType::kReply) {
    return false;
  }
  std::vector<uint8_t> payload(len);
  if (len > 0 && !sockio::recv_all(fd, payload.data(), len)) return false;
  return parse_reply_payload(payload.data(), payload.size(), out);
}

// ---- protocol codec --------------------------------------------------------

TEST(NetProtocol, RequestRoundTrip) {
  RequestFrame req;
  req.request_id = 0xDEADBEEFCAFEull;
  req.model = "mnet";
  req.token = "tenant-a";
  req.priority = serve::Priority::kInteractive;
  req.deadline_us = 250000;
  req.image = make_image(3);
  const std::string wire = encode_request(req);
  ASSERT_GE(wire.size(), kHeaderBytes);

  FrameType type;
  uint32_t len = 0;
  ASSERT_EQ(parse_header(reinterpret_cast<const uint8_t*>(wire.data()),
                         kDefaultMaxFrameBytes, &type, &len),
            HeaderVerdict::kOk);
  EXPECT_EQ(type, FrameType::kRequest);
  ASSERT_EQ(wire.size(), kHeaderBytes + len);

  RequestFrame back;
  std::string err;
  ASSERT_EQ(parse_request_payload(
                reinterpret_cast<const uint8_t*>(wire.data()) + kHeaderBytes,
                len, &back, &err),
            Status::kOk)
      << err;
  EXPECT_EQ(back.request_id, req.request_id);
  EXPECT_EQ(back.model, req.model);
  EXPECT_EQ(back.token, req.token);
  EXPECT_EQ(back.priority, req.priority);
  EXPECT_EQ(back.deadline_us, req.deadline_us);
  EXPECT_TRUE(bit_identical(back.image, req.image));
}

TEST(NetProtocol, ReplyRoundTripOkAndError) {
  ReplyFrame ok;
  ok.request_id = 7;
  ok.status = Status::kOk;
  ok.output = make_image(5);
  const std::string ok_wire = encode_reply(ok);
  ReplyFrame ok_back;
  ASSERT_TRUE(parse_reply_payload(
      reinterpret_cast<const uint8_t*>(ok_wire.data()) + kHeaderBytes,
      ok_wire.size() - kHeaderBytes, &ok_back));
  EXPECT_EQ(ok_back.request_id, 7u);
  EXPECT_EQ(ok_back.status, Status::kOk);
  EXPECT_TRUE(bit_identical(ok_back.output, ok.output));

  ReplyFrame err;
  err.request_id = 9;
  err.status = Status::kQueueFull;
  err.message = "queue full";
  const std::string err_wire = encode_reply(err);
  ReplyFrame err_back;
  ASSERT_TRUE(parse_reply_payload(
      reinterpret_cast<const uint8_t*>(err_wire.data()) + kHeaderBytes,
      err_wire.size() - kHeaderBytes, &err_back));
  EXPECT_EQ(err_back.status, Status::kQueueFull);
  EXPECT_EQ(err_back.message, "queue full");
  EXPECT_FALSE(err_back.output.defined());
}

TEST(NetProtocol, HeaderRejectsGarbage) {
  RequestFrame req;
  req.model = "m";
  req.image = make_image(1);
  std::string wire = encode_request(req);
  FrameType type;
  uint32_t len = 0;
  auto header = [&] { return reinterpret_cast<uint8_t*>(wire.data()); };

  wire[0] = 'X';  // magic
  EXPECT_EQ(parse_header(header(), kDefaultMaxFrameBytes, &type, &len),
            HeaderVerdict::kBadMagic);
  wire = encode_request(req);
  wire[4] = 9;  // version
  EXPECT_EQ(parse_header(header(), kDefaultMaxFrameBytes, &type, &len),
            HeaderVerdict::kBadVersion);
  wire = encode_request(req);
  wire[6] = 77;  // type
  EXPECT_EQ(parse_header(header(), kDefaultMaxFrameBytes, &type, &len),
            HeaderVerdict::kBadType);
  wire = encode_request(req);
  const uint32_t huge = kDefaultMaxFrameBytes + 1;
  std::memcpy(wire.data() + 8, &huge, 4);  // oversized length prefix
  EXPECT_EQ(parse_header(header(), kDefaultMaxFrameBytes, &type, &len),
            HeaderVerdict::kTooLarge);
}

TEST(NetProtocol, PayloadRejectsEveryTruncation) {
  RequestFrame req;
  req.request_id = 42;
  req.model = "mnet";
  req.token = "t";
  req.image = make_image(2);
  const std::string wire = encode_request(req);
  const uint8_t* payload =
      reinterpret_cast<const uint8_t*>(wire.data()) + kHeaderBytes;
  const size_t full = wire.size() - kHeaderBytes;
  // Every proper prefix must parse to a clean kBadRequest - never a crash,
  // never a bogus kOk.
  for (size_t len = 0; len < full; ++len) {
    RequestFrame out;
    std::string err;
    EXPECT_EQ(parse_request_payload(payload, len, &out, &err),
              Status::kBadRequest)
        << "prefix " << len << " parsed";
  }
}

TEST(NetProtocol, PayloadRejectsHostileShapes) {
  RequestFrame req;
  req.request_id = 1;
  req.model = "m";
  req.image = make_image(4);
  std::string wire = encode_request(req);
  // The rank byte sits right after id + name + token + priority + deadline.
  const size_t rank_at = kHeaderBytes + 8 + (2 + 1) + (2 + 0) + 1 + 8;
  RequestFrame out;
  std::string err;

  std::string bad = wire;
  bad[rank_at] = 0;  // rank 0
  EXPECT_EQ(parse_request_payload(
                reinterpret_cast<const uint8_t*>(bad.data()) + kHeaderBytes,
                bad.size() - kHeaderBytes, &out, &err),
            Status::kBadRequest);

  bad = wire;
  bad[rank_at] = 9;  // rank > kMaxRank
  EXPECT_EQ(parse_request_payload(
                reinterpret_cast<const uint8_t*>(bad.data()) + kHeaderBytes,
                bad.size() - kHeaderBytes, &out, &err),
            Status::kBadRequest);

  bad = wire;
  const int64_t evil = int64_t{1} << 40;  // numel-overflow attempt
  std::memcpy(bad.data() + rank_at + 1, &evil, 8);
  EXPECT_EQ(parse_request_payload(
                reinterpret_cast<const uint8_t*>(bad.data()) + kHeaderBytes,
                bad.size() - kHeaderBytes, &out, &err),
            Status::kBadRequest);

  bad = wire;
  bad.resize(bad.size() - 4);  // shape/bytes mismatch
  EXPECT_EQ(parse_request_payload(
                reinterpret_cast<const uint8_t*>(bad.data()) + kHeaderBytes,
                bad.size() - kHeaderBytes, &out, &err),
            Status::kBadRequest);
}

// ---- wire robustness -------------------------------------------------------

/// Pass-through layer that takes its gate mutex on every forward: a test
/// holding the mutex pins the next batch inside CompiledModel::run. This
/// stalls execution on any pool size - a 1-thread pool runs kernels inline
/// and never blocks on a pool.
class GateLayer : public nn::Layer {
 public:
  explicit GateLayer(std::shared_ptr<std::mutex> gate)
      : gate_(std::move(gate)) {}
  Tensor forward(const Tensor& input, bool /*training*/) override {
    const std::lock_guard<std::mutex> pass(*gate_);
    return input;
  }
  Tensor backward(const Tensor& doutput) override { return doutput; }
  std::unique_ptr<nn::Layer> clone() const override {
    return std::make_unique<GateLayer>(gate_);
  }
  Shape output_shape(const Shape& input) const override { return input; }
  std::string name() const override { return "Gate"; }

 private:
  std::shared_ptr<std::mutex> gate_;
};

/// One server + one registered model (ending in a GateLayer) + one running
/// ingress.
struct WireRig {
  serve::InferenceServer server;
  std::shared_ptr<std::mutex> gate = std::make_shared<std::mutex>();
  std::unique_ptr<IngressServer> ingress;

  explicit WireRig(IngressOptions opts = {}, int64_t max_batch = 4,
                   serve::BatcherOptions bopts = {}) {
    const deploy::ArchSpec spec = tiny_spec(11);
    auto net = deploy::build_architecture(spec);
    net->emplace<GateLayer>(gate);
    server.register_model(
        "mnet",
        std::make_unique<serve::CompiledModel>(
            std::move(net), spec.image_shape(),
            serve::CompileOptions{.max_batch = max_batch}),
        bopts);
    ingress = std::make_unique<IngressServer>(server, std::move(opts));
    ingress->start();
  }
  ~WireRig() {
    ingress->stop();
    server.stop();
  }
  int port() const { return ingress->port(); }
  Client client(const std::string& token = "") {
    return Client({.host = "127.0.0.1", .port = port(), .token = token});
  }
};

TEST(NetWire, RoundTripMatchesInProcess) {
  WireRig rig;
  const Tensor image = make_image(21);
  const Tensor expect = rig.server.infer("mnet", image);
  Client client = rig.client();
  const ReplyFrame reply = client.infer("mnet", image);
  ASSERT_EQ(reply.status, Status::kOk) << reply.message;
  EXPECT_TRUE(bit_identical(reply.output, expect));
}

TEST(NetWire, PipelinedRepliesMatchedById) {
  WireRig rig;
  Client client = rig.client();
  std::vector<Tensor> images;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    images.push_back(make_image(100 + static_cast<uint64_t>(i)));
    ids.push_back(client.send("mnet", images.back()));
  }
  // Consume newest-first: the stash matches replies to ids regardless of
  // arrival order.
  for (int i = 5; i >= 0; --i) {
    const ReplyFrame reply = client.recv(ids[static_cast<size_t>(i)]);
    ASSERT_EQ(reply.status, Status::kOk) << reply.message;
    EXPECT_TRUE(bit_identical(
        reply.output, rig.server.infer("mnet", images[static_cast<size_t>(i)])));
  }
}

TEST(NetWire, UnknownModelAnsweredTypedAndConnectionSurvives) {
  WireRig rig;
  Client client = rig.client();
  const ReplyFrame miss = client.infer("nope", make_image(1));
  EXPECT_EQ(miss.status, Status::kNoSuchModel);
  const ReplyFrame hit = client.infer("mnet", make_image(2));
  EXPECT_EQ(hit.status, Status::kOk) << hit.message;
}

TEST(NetWire, GarbageMagicAnsweredThenClosed) {
  WireRig rig;
  const int fd = sockio::connect_tcp("127.0.0.1", rig.port(),
                                     std::chrono::milliseconds(5000));
  ASSERT_TRUE(sockio::send_all(fd, std::string(32, 'X')));
  ReplyFrame reply;
  ASSERT_TRUE(read_reply_raw(fd, &reply));
  EXPECT_EQ(reply.status, Status::kBadRequest);
  // Framing is unrecoverable: the server closes after the error reply.
  char byte;
  EXPECT_FALSE(sockio::recv_all(fd, &byte, 1));
  ::close(fd);
  // The event loop kept running: a fresh connection still serves.
  Client client = rig.client();
  EXPECT_EQ(client.infer("mnet", make_image(3)).status, Status::kOk);
}

TEST(NetWire, OversizedLengthPrefixKillsOnlyThatConnection) {
  WireRig rig;
  const int fd = sockio::connect_tcp("127.0.0.1", rig.port(),
                                     std::chrono::milliseconds(5000));
  std::string frame = encode_request(
      {.request_id = 1, .model = "mnet", .image = make_image(1)});
  const uint32_t huge = kDefaultMaxFrameBytes + 1;
  std::memcpy(frame.data() + 8, &huge, 4);
  ASSERT_TRUE(sockio::send_all(fd, frame));
  ReplyFrame reply;
  ASSERT_TRUE(read_reply_raw(fd, &reply));
  EXPECT_EQ(reply.status, Status::kBadRequest);
  char byte;
  EXPECT_FALSE(sockio::recv_all(fd, &byte, 1));
  ::close(fd);
  Client client = rig.client();
  EXPECT_EQ(client.infer("mnet", make_image(4)).status, Status::kOk);
}

TEST(NetWire, TruncatedFrameAtDisconnectOwesNoReply) {
  WireRig rig;
  const IngressServer::Stats before = rig.ingress->stats();
  const int fd = sockio::connect_tcp("127.0.0.1", rig.port(),
                                     std::chrono::milliseconds(5000));
  const std::string frame =
      encode_request({.request_id = 1, .model = "mnet",
                      .image = make_image(1)});
  // Header promises a payload that never fully arrives.
  ASSERT_TRUE(sockio::send_all(fd, frame.substr(0, kHeaderBytes + 10)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ::close(fd);
  // Server keeps serving; the half-frame was never a request.
  Client client = rig.client();
  EXPECT_EQ(client.infer("mnet", make_image(5)).status, Status::kOk);
  EXPECT_EQ(rig.ingress->stats().frames, before.frames + 1);  // the real one
}

TEST(NetWire, BadPayloadInWellFramedFrameKeepsConnection) {
  WireRig rig;
  const int fd = sockio::connect_tcp("127.0.0.1", rig.port(),
                                     std::chrono::milliseconds(5000));
  // A perfectly framed 20-byte payload of zeros: parses an id, then dies at
  // the truncated priority/deadline - recoverable, kBadRequest.
  std::string frame = encode_request(
      {.request_id = 1, .model = "m", .image = make_image(1)});
  frame.resize(kHeaderBytes);
  const uint32_t len = 20;
  std::memcpy(frame.data() + 8, &len, 4);
  frame.append(20, '\0');
  ASSERT_TRUE(sockio::send_all(fd, frame));
  ReplyFrame reply;
  ASSERT_TRUE(read_reply_raw(fd, &reply));
  EXPECT_EQ(reply.status, Status::kBadRequest);
  // Same connection, valid frame: still served.
  ASSERT_TRUE(sockio::send_all(
      fd, encode_request(
              {.request_id = 2, .model = "mnet", .image = make_image(6)})));
  ASSERT_TRUE(read_reply_raw(fd, &reply));
  EXPECT_EQ(reply.request_id, 2u);
  EXPECT_EQ(reply.status, Status::kOk) << reply.message;
  ::close(fd);
}

TEST(NetWire, SlowLorisDoesNotStallTheEventLoop) {
  WireRig rig;
  const int slow = sockio::connect_tcp("127.0.0.1", rig.port(),
                                       std::chrono::milliseconds(5000));
  const Tensor image = make_image(31);
  const std::string frame =
      encode_request({.request_id = 5, .model = "mnet", .image = image});
  // Drip the frame in 8 slices; between slices, other clients must be
  // served promptly.
  const size_t slice = frame.size() / 8 + 1;
  Client fast = rig.client();
  for (size_t off = 0; off < frame.size(); off += slice) {
    ASSERT_TRUE(sockio::send_all(slow, frame.substr(off, slice)));
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(fast.infer("mnet", make_image(32)).status, Status::kOk);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  }
  ReplyFrame reply;
  ASSERT_TRUE(read_reply_raw(slow, &reply));
  EXPECT_EQ(reply.request_id, 5u);
  EXPECT_EQ(reply.status, Status::kOk) << reply.message;
  EXPECT_TRUE(bit_identical(reply.output, rig.server.infer("mnet", image)));
  ::close(slow);
}

TEST(NetWire, DisconnectMidReplyNeverLeaksOrCrashes) {
  WireRig rig;
  const IngressServer::Stats before = rig.ingress->stats();
  {
    // Stall execution so the reply is guaranteed to complete only after the
    // peer is gone.
    std::unique_lock<std::mutex> stall(*rig.gate);
    const int fd = sockio::connect_tcp("127.0.0.1", rig.port(),
                                       std::chrono::milliseconds(5000));
    ASSERT_TRUE(sockio::send_all(
        fd, encode_request(
                {.request_id = 9, .model = "mnet", .image = make_image(7)})));
    // Wait for the frame to be parsed and dispatched, then vanish.
    for (int i = 0; i < 200 && rig.ingress->stats().frames == before.frames;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(rig.ingress->stats().frames, before.frames + 1);
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // The future is consumed either way: the reply is delivered into a write
  // queue (kernel buffers absorb it) or dropped at delivery.
  for (int i = 0; i < 400; ++i) {
    const IngressServer::Stats s = rig.ingress->stats();
    if (s.replies + s.dropped_replies == before.replies +
                                            before.dropped_replies + 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const IngressServer::Stats after = rig.ingress->stats();
  EXPECT_EQ(after.replies + after.dropped_replies,
            before.replies + before.dropped_replies + 1);
  // And the rig still serves.
  Client client = rig.client();
  EXPECT_EQ(client.infer("mnet", make_image(8)).status, Status::kOk);
}

TEST(NetWire, BackpressureNeverDropsAReply) {
  // Tiny server-side send buffer + tiny client receive buffer + a 64-byte
  // write-queue cap: with the reader idle, reply bytes overwhelm the kernel
  // in a few dozen frames and the connection's reads must pause - and every
  // reply must still arrive, exactly once, when the reader wakes up.
  WireRig rig({.max_conn_out_bytes = 64, .so_sndbuf = 4096,
               .dispatch_capacity = 512});
  obs::Counter pauses = obs::Registry::global().counter(
      "dsx_net_backpressure_pauses_total", {});
  const int64_t pauses_before = pauses.value();

  // Raw socket so SO_RCVBUF is clamped BEFORE connect (window negotiation).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockio::set_io_timeout(fd, std::chrono::milliseconds(20000));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(rig.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  constexpr int kRequests = 256;
  const Tensor image = make_image(300);
  std::atomic<bool> send_failed{false};
  std::thread writer([&] {
    for (int i = 0; i < kRequests; ++i) {
      RequestFrame req;
      req.request_id = static_cast<uint64_t>(i) + 1;
      req.model = "mnet";
      req.image = image;
      if (!sockio::send_all(fd, encode_request(req))) {
        send_failed.store(true);
        return;
      }
    }
  });
  // The pause must engage while we are not reading.
  bool paused = false;
  for (int i = 0; i < 2000 && !paused; ++i) {
    paused = pauses.value() > pauses_before;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(paused) << "write queue never exceeded the cap";
  // Now drain: unpausing must deliver every reply, each id exactly once.
  std::vector<int> seen(kRequests, 0);
  for (int i = 0; i < kRequests; ++i) {
    ReplyFrame reply;
    ASSERT_TRUE(read_reply_raw(fd, &reply)) << "reply stream ended early";
    ASSERT_EQ(reply.status, Status::kOk) << reply.message;
    ASSERT_GE(reply.request_id, 1u);
    ASSERT_LE(reply.request_id, static_cast<uint64_t>(kRequests));
    seen[static_cast<size_t>(reply.request_id - 1)]++;
  }
  writer.join();
  EXPECT_FALSE(send_failed.load());
  for (int i = 0; i < kRequests; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], 1);
  ::close(fd);
}

TEST(NetWire, AdmissionErrorsArriveAsFramedReplies) {
  // queue_capacity 1 + max_batch 1: with execution stalled, the batcher can
  // absorb at most its executing request plus one queued - the rest must
  // come back as framed kQueueFull, not dropped connections.
  WireRig rig({}, /*max_batch=*/1,
              serve::BatcherOptions{.max_batch = 1, .queue_capacity = 1});
  Client client = rig.client();
  std::vector<uint64_t> ids;
  {
    std::unique_lock<std::mutex> stall(*rig.gate);
    for (int i = 0; i < 4; ++i) {
      ids.push_back(client.send("mnet", make_image(40 + i)));
    }
    // Let every frame reach a dispatch worker and hit the batcher while
    // execution is pinned.
    for (int i = 0; i < 400 && rig.ingress->stats().frames < 4; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  int ok = 0, queue_full = 0;
  for (uint64_t id : ids) {
    const ReplyFrame reply = client.recv(id);
    if (reply.status == Status::kOk) ++ok;
    if (reply.status == Status::kQueueFull) ++queue_full;
  }
  EXPECT_EQ(ok + queue_full, 4) << "every frame answered with a typed reply";
  EXPECT_GE(ok, 1);
  EXPECT_GE(queue_full, 2);
}

TEST(NetWire, ExpiredDeadlineComesBackTyped) {
  WireRig rig;
  Client client = rig.client();
  uint64_t blocked_id = 0;
  uint64_t doomed_id = 0;
  {
    std::unique_lock<std::mutex> stall(*rig.gate);
    blocked_id = client.send("mnet", make_image(50));
    // Give the first request time to enter execution (and block).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    doomed_id = client.send("mnet", make_image(51),
                            serve::Priority::kInteractive,
                            /*deadline_us=*/30000);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
  }
  EXPECT_EQ(client.recv(blocked_id).status, Status::kOk);
  EXPECT_EQ(client.recv(doomed_id).status, Status::kDeadlineExceeded);
}

// ---- tenant auth / quota / QoS ---------------------------------------------

IngressOptions tenant_opts() {
  IngressOptions opts;
  opts.allow_anonymous = false;
  opts.tenants = {
      TenantSpec{.token = "tok-a", .name = "alpha",
                 .priority = serve::Priority::kNormal, .max_inflight = 1},
      TenantSpec{.token = "tok-b", .name = "beta",
                 .priority = serve::Priority::kBulk},
  };
  return opts;
}

TEST(NetTenant, UnknownAndMissingTokensDenied) {
  WireRig rig(tenant_opts());
  Client anon = rig.client();
  EXPECT_EQ(anon.infer("mnet", make_image(1)).status, Status::kAuthDenied);
  Client bogus = rig.client("who-dis");
  EXPECT_EQ(bogus.infer("mnet", make_image(2)).status, Status::kAuthDenied);
  Client good = rig.client("tok-a");
  EXPECT_EQ(good.infer("mnet", make_image(3)).status, Status::kOk);
}

TEST(NetTenant, QuotaRejectsTypedWithoutDroppingConnection) {
  WireRig rig(tenant_opts());
  Client client = rig.client("tok-a");  // max_inflight = 1
  uint64_t first = 0, second = 0;
  {
    std::unique_lock<std::mutex> stall(*rig.gate);
    first = client.send("mnet", make_image(4));
    second = client.send("mnet", make_image(5));
    // The second frame is parsed while the first is still in flight; the
    // quota answers it immediately.
    const ReplyFrame rejected = client.recv(second);
    EXPECT_EQ(rejected.status, Status::kQueueFull);
    EXPECT_NE(rejected.message.find("alpha"), std::string::npos);
  }
  EXPECT_EQ(client.recv(first).status, Status::kOk);
  // Quota slot freed: the tenant serves again.
  EXPECT_EQ(client.infer("mnet", make_image(6)).status, Status::kOk);
}

// ---- residency -------------------------------------------------------------

/// A store with `count` versions of the tiny arch (distinct seeds), plus
/// the per-model residency cost measured from one real compile.
struct StoreRig {
  deploy::ModelStore store;
  int64_t cost_floats = 0;

  explicit StoreRig(const std::string& dir, int count)
      : store(fresh_dir(dir)) {
    for (int i = 0; i < count; ++i) {
      const deploy::ArchSpec spec = tiny_spec(100 + static_cast<uint64_t>(i));
      auto net = deploy::build_architecture(spec);
      store.save_version("m" + std::to_string(i), "v1", *net, spec);
    }
    auto probe = store.compile("m0", "v1",
                               serve::CompileOptions{.max_batch = 4});
    cost_floats = probe->report().param_floats +
                  probe->report().workspace_floats;
  }

  ResidencyOptions budget_for(int resident_models) const {
    ResidencyOptions opts;
    opts.budget_floats = cost_floats * resident_models + cost_floats / 2;
    opts.compile.max_batch = 4;
    return opts;
  }
};

TEST(NetResidency, EvictsLruAndFaultsBackInBitIdentical) {
  StoreRig rig("residency_lru", 3);
  serve::InferenceServer server;
  ResidencyManager mgr(server, rig.store, rig.budget_for(2));
  for (int i = 0; i < 3; ++i) mgr.add_model("m" + std::to_string(i), "v1");

  const Tensor image = make_image(60);
  const Tensor first = mgr.infer("m0", image);
  EXPECT_TRUE(mgr.resident("m0"));
  // Two more models under a budget of two: m0 (LRU) must be demoted.
  mgr.infer("m1", image);
  mgr.infer("m2", image);
  EXPECT_FALSE(mgr.resident("m0"));
  EXPECT_TRUE(mgr.resident("m1"));
  EXPECT_TRUE(mgr.resident("m2"));
  const ResidencyStats mid = mgr.stats();
  EXPECT_EQ(mid.faults, 3);
  EXPECT_EQ(mid.evictions, 1);
  EXPECT_LE(mid.used_floats, rig.budget_for(2).budget_floats);

  // Fault back in: same stored weights, same compile - bit-identical logits,
  // and the caller never saw an error.
  const Tensor again = mgr.infer("m0", image);
  EXPECT_TRUE(bit_identical(again, first));
  EXPECT_TRUE(mgr.resident("m0"));
  EXPECT_EQ(mgr.stats().faults, 4);

  const std::string journal = obs::Journal::global().to_text();
  EXPECT_NE(journal.find("residency"), std::string::npos);
  EXPECT_NE(journal.find("evicted m0"), std::string::npos);
  EXPECT_NE(journal.find("faulted in m0/v1"), std::string::npos);
  server.stop();
}

TEST(NetResidency, PinnedModelsAreNeverEvicted) {
  StoreRig rig("residency_pin", 3);
  serve::InferenceServer server;
  ResidencyManager mgr(server, rig.store, rig.budget_for(2));
  mgr.add_model("m0", "v1", {.pinned = true});
  mgr.add_model("m1", "v1");
  mgr.add_model("m2", "v1");
  const Tensor image = make_image(61);
  mgr.infer("m0", image);
  // Cycle the other two repeatedly; only they may trade places.
  for (int round = 0; round < 3; ++round) {
    mgr.infer("m1", image);
    mgr.infer("m2", image);
    EXPECT_TRUE(mgr.resident("m0"));
  }
  server.stop();
}

TEST(NetResidency, SingleFlightFaultInCompilesOnce) {
  StoreRig rig("residency_herd", 3);
  serve::InferenceServer server;
  ResidencyManager mgr(server, rig.store, rig.budget_for(2));
  for (int i = 0; i < 3; ++i) mgr.add_model("m" + std::to_string(i), "v1");
  const Tensor image = make_image(62);
  mgr.infer("m0", image);
  mgr.infer("m1", image);
  mgr.infer("m2", image);  // evicts m0
  ASSERT_FALSE(mgr.resident("m0"));
  const int64_t faults_before = mgr.stats().faults;

  // Thundering herd for the cold model: one compile, everyone answered.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Tensor> answers(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { answers[static_cast<size_t>(t)] = mgr.infer("m0", image); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mgr.stats().faults, faults_before + 1) << "herd compiled once";
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_TRUE(bit_identical(answers[static_cast<size_t>(t)], answers[0]));
  }
  server.stop();
}

TEST(NetResidency, MixedTenantWireTrafficUnderChurnZeroErrors) {
  StoreRig rig("residency_wire", 3);
  serve::InferenceServer server;
  const int metrics_port = server.start_exporter({.port = 0});
  ResidencyManager mgr(server, rig.store, rig.budget_for(2));
  for (int i = 0; i < 3; ++i) mgr.add_model("m" + std::to_string(i), "v1");
  // A direct (non-managed) model that hot-swaps underneath the traffic.
  server.register_model("direct", compile_spec(tiny_spec(500)));

  IngressOptions iopts;
  iopts.tenants = {
      TenantSpec{.token = "tok-a", .priority = serve::Priority::kNormal},
      TenantSpec{.token = "tok-b", .priority = serve::Priority::kBulk},
  };
  IngressServer ingress(server, iopts, &mgr);
  ingress.start();

  // Per-model references, compiled straight from the store.
  const Tensor image = make_image(70);
  std::vector<Tensor> refs;
  for (int i = 0; i < 3; ++i) {
    auto compiled = rig.store.compile("m" + std::to_string(i), "v1",
                                      serve::CompileOptions{.max_batch = 4});
    refs.push_back(compiled->run(image));
  }

  // Test threads join on every path out of the test (the swapper stops on
  // request), and an exception in one is reported as a test failure.
  std::jthread swapper = testing::test_thread([&](std::stop_token stop) {
    // Hot-swap the direct model with a same-seed recompile: outputs stay
    // bit-identical while fleets churn underneath the wire traffic.
    while (!stop.stop_requested()) {
      server.swap_model("direct", compile_spec(tiny_spec(500)));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  constexpr int kPerClient = 12;
  std::atomic<int> errors{0};
  std::atomic<int> answered{0};
  auto run_client = [&](const std::string& token) {
    Client client({.host = "127.0.0.1", .port = ingress.port(),
                   .token = token});
    for (int i = 0; i < kPerClient; ++i) {
      const int model = i % 4;
      const std::string name =
          model == 3 ? "direct" : "m" + std::to_string(model);
      const ReplyFrame reply = client.infer(name, image);
      answered.fetch_add(1);
      if (reply.status != Status::kOk) {
        errors.fetch_add(1);
        continue;
      }
      if (model != 3 &&
          !bit_identical(reply.output, refs[static_cast<size_t>(model)])) {
        errors.fetch_add(1);
      }
    }
  };
  {
    const std::jthread a = testing::test_thread([&] { run_client("tok-a"); });
    const std::jthread b = testing::test_thread([&] { run_client("tok-b"); });
    const std::jthread anon = testing::test_thread([&] { run_client(""); });
  }
  swapper.request_stop();
  swapper.join();

  EXPECT_EQ(answered.load(), 3 * kPerClient) << "exactly-once over the wire";
  EXPECT_EQ(errors.load(), 0);
  const ResidencyStats rs = mgr.stats();
  EXPECT_GT(rs.evictions, 0) << "budget churned under traffic";
  EXPECT_GT(rs.faults, 3);

  // The /residency endpoint serves the table through the shared exporter.
  const obs::HttpResponse http =
      obs::http_get("127.0.0.1", metrics_port, "/residency");
  EXPECT_EQ(http.status, 200);
  EXPECT_NE(http.body.find("\"budget_floats\""), std::string::npos);
  EXPECT_NE(http.body.find("\"m0\""), std::string::npos);
  EXPECT_NE(http.body.find("\"evictions\""), std::string::npos);

  ingress.stop();
  server.stop();
}

}  // namespace
}  // namespace dsx::net
