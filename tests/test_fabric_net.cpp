// Multi-host fabric transport suite: the authentication primitives, the
// HELLO/CHALLENGE/AUTH handshake (every refusal lands before a lease), TCP
// workers merging byte-identical to the single-process golden run, and the
// NetChaos kill/partition matrices — connection cuts at message boundaries,
// corrupted frames in both directions, wedged half-open proxies, delayed
// delivery, full-fleet loss with a fresh-fleet resume — over the synthetic
// sweep of fabric_synth.hpp.
//
// Process discipline matches test_fabric.cpp: the parent is single-threaded
// at every fork(), children (workers, chaos proxies, raw misbehaving
// clients) leave via _Exit so sanitizer atexit machinery never runs twice.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lpsram/runtime/fabric/net/auth.hpp"
#include "lpsram/runtime/fabric/net/net.hpp"
#include "lpsram/runtime/fabric/net/remote_worker.hpp"
#include "lpsram/runtime/fabric/net/server.hpp"
#include "lpsram/runtime/fabric/wire.hpp"
#include "lpsram/runtime/journal.hpp"
#include "lpsram/runtime/parallel.hpp"
#include "lpsram/util/error.hpp"
#include "fabric_synth.hpp"
#include "net_chaos.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#define LPSRAM_FABRIC_NET_POSIX 1
#endif

namespace lpsram {
namespace {

namespace fs = std::filesystem;
using namespace lpsram::fabric;

using namespace lpsram::fabric_synth;

const char* const kToken = "test-campaign-token-7391";

NetFabricOptions net_options(const std::string& dir) {
  NetFabricOptions options;
  set_synth_sweep(options);
  options.dir = dir + "/server";
  options.token = kToken;
  return options;
}

// ---------- auth primitives --------------------------------------------------

TEST(NetAuth, Sha256KnownVectors) {
  const auto hex = [](const Sha256Digest& d) {
    std::string out;
    for (std::uint8_t b : d) {
      static const char* k = "0123456789abcdef";
      out += k[b >> 4];
      out += k[b & 0xF];
    }
    return out;
  };
  EXPECT_EQ(hex(sha256(nullptr, 0)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const char* abc = "abc";
  EXPECT_EQ(hex(sha256(reinterpret_cast<const std::uint8_t*>(abc), 3)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // 56 bytes — crosses the one-block padding boundary.
  const char* two = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(hex(sha256(reinterpret_cast<const std::uint8_t*>(two), 56)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(NetAuth, HmacSha256Rfc4231Vectors) {
  const auto hex = [](const Sha256Digest& d) {
    std::string out;
    for (std::uint8_t b : d) {
      static const char* k = "0123456789abcdef";
      out += k[b >> 4];
      out += k[b & 0xF];
    }
    return out;
  };
  // RFC 4231 test case 1.
  std::vector<std::uint8_t> key1(20, 0x0b);
  const char* msg1 = "Hi There";
  EXPECT_EQ(hex(hmac_sha256(key1.data(), key1.size(),
                            reinterpret_cast<const std::uint8_t*>(msg1), 8)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // RFC 4231 test case 2 ("Jefe").
  const char* key2 = "Jefe";
  const char* msg2 = "what do ya want for nothing?";
  EXPECT_EQ(hex(hmac_sha256(reinterpret_cast<const std::uint8_t*>(key2), 4,
                            reinterpret_cast<const std::uint8_t*>(msg2), 28)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // RFC 4231 test case 3: 20-byte 0xaa key, 50-byte 0xdd message.
  std::vector<std::uint8_t> key3(20, 0xaa);
  std::vector<std::uint8_t> msg3(50, 0xdd);
  EXPECT_EQ(hex(hmac_sha256(key3.data(), key3.size(), msg3.data(),
                            msg3.size())),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(NetAuth, ConstantTimeEqual) {
  const std::uint8_t a[4] = {1, 2, 3, 4};
  const std::uint8_t b[4] = {1, 2, 3, 4};
  const std::uint8_t c[4] = {1, 2, 3, 5};
  EXPECT_TRUE(constant_time_equal(a, b, 4));
  EXPECT_FALSE(constant_time_equal(a, c, 4));
  EXPECT_TRUE(constant_time_equal(a, c, 0));
}

TEST(NetAuth, TokenFileTrimsWhitespaceAndRejectsEmpty) {
  const std::string dir = fabric_dir("net-token");
  {
    std::ofstream out(dir + "/token");
    out << "  secret-token \n\n";
  }
  EXPECT_EQ(load_token_file(dir + "/token"), "  secret-token");
  {
    std::ofstream out(dir + "/empty");
    out << " \n\t\n";
  }
  EXPECT_THROW(load_token_file(dir + "/empty"), InvalidArgument);
  EXPECT_THROW(load_token_file(dir + "/missing"), InvalidArgument);
  // The size cap: a file at the cap is still a token, one byte more is not.
  {
    std::ofstream out(dir + "/at-cap");
    out << std::string(kMaxTokenFileBytes, 'k');
  }
  EXPECT_EQ(load_token_file(dir + "/at-cap").size(), kMaxTokenFileBytes);
  {
    std::ofstream out(dir + "/oversized");
    out << std::string(kMaxTokenFileBytes + 1, 'k');
  }
  EXPECT_THROW(load_token_file(dir + "/oversized"), InvalidArgument);
}

TEST(NetAuth, HandshakeMacBindsDirectionAndTranscript) {
  NetHelloFields hello;
  hello.protocol = kNetProtocolVersion;
  hello.worker_id = 3;
  hello.salt = 0x1111;
  hello.fingerprint = 0x2222;
  std::uint8_t wn[kNetNonceBytes] = {1};
  std::uint8_t sn[kNetNonceBytes] = {2};

  const Sha256Digest server = handshake_mac(kToken, 'S', hello, wn, sn);
  const Sha256Digest worker = handshake_mac(kToken, 'W', hello, wn, sn);
  // Direction labels: a challenge can never be reflected back.
  EXPECT_NE(server, worker);
  // Any transcript field change changes the MAC.
  NetHelloFields tampered = hello;
  tampered.fingerprint ^= 1;
  EXPECT_NE(handshake_mac(kToken, 'S', tampered, wn, sn), server);
  // A different token changes the MAC.
  EXPECT_NE(handshake_mac("other-token", 'S', hello, wn, sn), server);
  // Nonces give freshness.
  std::uint8_t wn2[kNetNonceBytes] = {9};
  EXPECT_NE(handshake_mac(kToken, 'S', hello, wn2, sn), server);
}

TEST(NetWire, ParseHostport) {
  EXPECT_EQ(parse_hostport("127.0.0.1:8080").host, "127.0.0.1");
  EXPECT_EQ(parse_hostport("127.0.0.1:8080").port, 8080);
  EXPECT_EQ(parse_hostport("0.0.0.0:0").port, 0);
  EXPECT_THROW(parse_hostport("no-port"), InvalidArgument);
  EXPECT_THROW(parse_hostport("host:"), InvalidArgument);
  EXPECT_THROW(parse_hostport("host:notanumber"), InvalidArgument);
  EXPECT_THROW(parse_hostport("host:70000"), InvalidArgument);
}

#if defined(LPSRAM_FABRIC_NET_POSIX)

TEST(NetServer, RejectsBadOptionsAtConstruction) {
  const std::string dir = fabric_dir("net-optcheck");
  TcpListener listener;
  listener.listen("127.0.0.1", 0);
  const auto key_of = [](std::uint64_t i) { return synth_key(i); };

  NetFabricOptions options = net_options(dir);
  options.token.clear();
  EXPECT_THROW(run_net_fabric(listener, options, 4, key_of), InvalidArgument);

  options = net_options(dir);
  options.max_workers = 0;
  EXPECT_THROW(run_net_fabric(listener, options, 4, key_of), InvalidArgument);

  // Lease timing validation is shared with the single-host path.
  options = net_options(dir);
  options.lease_timeout_s = -1.0;
  EXPECT_THROW(run_net_fabric(listener, options, 4, key_of), InvalidArgument);
  options = net_options(dir);
  options.heartbeat_interval_s = options.lease_timeout_s;
  EXPECT_THROW(run_net_fabric(listener, options, 4, key_of), InvalidArgument);
}

// ---------- e2e process harness ---------------------------------------------

RemoteWorkerOptions worker_options(int port, const std::string& shard_dir,
                                   int worker_id,
                                   const NetFabricOptions& server_opts) {
  RemoteWorkerOptions options;
  options.host = "127.0.0.1";
  options.port = port;
  options.token = server_opts.token;
  options.worker_id = worker_id;
  options.shard_journal =
      shard_dir + "/shard-" + std::to_string(worker_id) + ".journal";
  options.heartbeat_interval_s = 0.05;
  options.salt = server_opts.salt;
  options.fingerprint = server_opts.fingerprint;
  options.reconnect_backoff_initial_s = 0.02;
  options.reconnect_backoff_max_s = 0.2;
  options.give_up_after_s = 20.0;
  return options;
}

// Child exit codes for forked remote workers.
constexpr int kExitShutdown = 0;
constexpr int kExitRefused = 3;
constexpr int kExitGaveUp = 4;
constexpr int kExitError = 5;
constexpr int kExitChaos = 9;  // WorkerChaos exit_after_results fires _Exit(9)

pid_t spawn_worker(const RemoteWorkerOptions& options) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  try {
    fs::create_directories(fs::path(options.shard_journal).parent_path());
    const RemoteWorkerReport report = run_remote_worker(
        options, [](std::uint64_t index) { return synth_key(index); },
        [](std::uint64_t index, int) { return synth_payload(index); });
    if (report.refused != NetRefusal::None) std::_Exit(kExitRefused);
    if (report.gave_up) std::_Exit(kExitGaveUp);
    std::_Exit(report.shutdown ? kExitShutdown : kExitError);
  } catch (...) {
    std::_Exit(kExitError);
  }
}

pid_t spawn_proxy(TcpListener& proxy_listener, int upstream_port,
                  const NetChaos& chaos) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  try {
    run_chaos_proxy(proxy_listener, "127.0.0.1", upstream_port, chaos);
  } catch (...) {
  }
  std::_Exit(0);
}

[[nodiscard]] bool reap(pid_t pid, int expected_status) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return false;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != expected_status) {
    ADD_FAILURE() << "child " << pid << " exited "
                  << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
                  << ", expected " << expected_status;
    return false;
  }
  return true;
}

void kill_proxy(pid_t pid) {
  kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
}

// ---------- happy path -------------------------------------------------------

TEST(FabricNet, TwoRemoteWorkersMergeByteIdenticalToGolden) {
  const std::string dir = fabric_dir("net-two-workers");
  const NetFabricOptions options = net_options(dir);
  constexpr std::uint64_t kTasks = 16;

  TcpListener listener;
  listener.listen("127.0.0.1", 0);
  const pid_t w0 =
      spawn_worker(worker_options(listener.port(), dir + "/w0", 0, options));
  const pid_t w1 =
      spawn_worker(worker_options(listener.port(), dir + "/w1", 1, options));

  const NetFabricReport report = run_net_fabric(
      listener, options, kTasks, [](std::uint64_t i) { return synth_key(i); });

  EXPECT_TRUE(reap(w0, kExitShutdown));
  EXPECT_TRUE(reap(w1, kExitShutdown));
  EXPECT_TRUE(report.fabric.complete);
  EXPECT_EQ(report.handshakes_completed, 2u);
  EXPECT_EQ(report.refusals_protocol + report.refusals_manifest +
                report.refusals_auth + report.refusals_busy,
            0u);
  EXPECT_EQ(report.fabric.tasks_executed, kTasks);
  EXPECT_GT(report.shard_bytes_received, 0u);
  expect_merged_matches_golden(options, kTasks);

  // The server kept its transport snapshot for fabric_inspect.py.
  const auto status = read_file_bytes(options.dir + "/connections.status");
  EXPECT_FALSE(status.empty());
}

// ---------- refusals: always before any lease --------------------------------

// A raw client that drives the handshake to a chosen violation and checks
// the server's NetRefuse reason. Runs forked; exits 0 when the server
// behaved exactly as expected.
pid_t spawn_raw_refused_client(int port, const NetFabricOptions& server_opts,
                               NetRefusal expect_reason) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  try {
    MessageChannel ch = tcp_connect("127.0.0.1", port, 5.0, 5.0);
    NetHelloFields hello;
    hello.protocol = expect_reason == NetRefusal::Protocol
                         ? kNetProtocolVersion + 7
                         : kNetProtocolVersion;
    hello.worker_id = 2;
    hello.salt = server_opts.salt;
    hello.fingerprint = expect_reason == NetRefusal::Manifest
                            ? server_opts.fingerprint ^ 0xdead
                            : server_opts.fingerprint;
    hello.reconnect = 0;
    std::uint8_t nonce[kNetNonceBytes];
    fill_random_nonce(nonce, kNetNonceBytes);
    PayloadWriter h;
    h.u32(hello.protocol);
    h.u32(hello.worker_id);
    h.u64(hello.salt);
    h.u64(hello.fingerprint);
    h.u8(hello.reconnect);
    std::vector<std::uint8_t> hello_bytes = h.take();
    hello_bytes.insert(hello_bytes.end(), nonce, nonce + kNetNonceBytes);
    if (!ch.send(kMsgNetHello, hello_bytes)) std::_Exit(11);

    WireMessage msg;
    if (ch.recv(&msg, 5000) != RecvStatus::Ok) std::_Exit(12);
    if (expect_reason == NetRefusal::Auth) {
      // The Hello was clean; answer the challenge with a forged MAC.
      if (msg.type != kMsgNetChallenge) std::_Exit(13);
      const std::vector<std::uint8_t> forged(kNetMacBytes, 0x42);
      if (!ch.send(kMsgNetAuth, forged)) std::_Exit(14);
      if (ch.recv(&msg, 5000) != RecvStatus::Ok) std::_Exit(15);
    }
    if (msg.type != kMsgNetRefuse) std::_Exit(16);
    PayloadReader r(msg.payload);
    if (static_cast<NetRefusal>(r.u32()) != expect_reason) std::_Exit(17);
    std::_Exit(0);
  } catch (...) {
    std::_Exit(18);
  }
}

TEST(FabricNet, EveryRefusalLandsBeforeAnyLease) {
  const std::string dir = fabric_dir("net-refusals");
  NetFabricOptions options = net_options(dir);
  options.first_connect_timeout_s = 3.0;
  NetFabricReport observed;
  options.report_out = &observed;

  TcpListener listener;
  listener.listen("127.0.0.1", 0);

  // Four bad citizens: wrong protocol version, wrong manifest fingerprint,
  // forged auth MAC, and a full worker launched with the wrong token (the
  // mutual handshake makes it refuse US — the server cannot prove token
  // possession — before it uploads a byte).
  const pid_t bad_proto =
      spawn_raw_refused_client(listener.port(), options, NetRefusal::Protocol);
  const pid_t bad_manifest =
      spawn_raw_refused_client(listener.port(), options, NetRefusal::Manifest);
  const pid_t bad_mac =
      spawn_raw_refused_client(listener.port(), options, NetRefusal::Auth);
  RemoteWorkerOptions wrong_token =
      worker_options(listener.port(), dir + "/wt", 3, options);
  wrong_token.token = "not-the-campaign-token";
  const pid_t bad_token = spawn_worker(wrong_token);

  // No legitimate worker ever arrives: the run must end in FabricWorkersLost
  // with zero leases granted and every refusal accounted for.
  EXPECT_THROW(run_net_fabric(listener, options, 8,
                              [](std::uint64_t i) { return synth_key(i); }),
               FabricWorkersLost);

  EXPECT_TRUE(reap(bad_proto, 0));
  EXPECT_TRUE(reap(bad_manifest, 0));
  EXPECT_TRUE(reap(bad_mac, 0));
  EXPECT_TRUE(reap(bad_token, kExitRefused));

  EXPECT_EQ(observed.refusals_protocol, 1u);
  EXPECT_EQ(observed.refusals_manifest, 1u);
  EXPECT_GE(observed.refusals_auth, 1u);
  EXPECT_EQ(observed.fabric.leases_issued, 0u);
  EXPECT_EQ(observed.handshakes_completed, 0u);
  EXPECT_EQ(observed.shard_bytes_received, 0u);
}

TEST(FabricNet, WorkerIdBeyondMaxWorkersRefusedBusy) {
  const std::string dir = fabric_dir("net-busy");
  NetFabricOptions options = net_options(dir);
  options.max_workers = 2;
  options.first_connect_timeout_s = 2.0;
  NetFabricReport observed;
  options.report_out = &observed;

  TcpListener listener;
  listener.listen("127.0.0.1", 0);
  const pid_t w9 =
      spawn_worker(worker_options(listener.port(), dir + "/w9", 9, options));

  EXPECT_THROW(run_net_fabric(listener, options, 4,
                              [](std::uint64_t i) { return synth_key(i); }),
               FabricWorkersLost);
  EXPECT_TRUE(reap(w9, kExitRefused));
  EXPECT_EQ(observed.refusals_busy, 1u);
  EXPECT_EQ(observed.fabric.leases_issued, 0u);
}

// ---------- hostile / broken clients must not kill the server ---------------

TEST(FabricNet, GarbageSpewingClientIsDroppedNotFatal) {
  const std::string dir = fabric_dir("net-garbage");
  NetFabricOptions options = net_options(dir);
  constexpr std::uint64_t kTasks = 8;

  TcpListener listener;
  listener.listen("127.0.0.1", 0);

  // Garbage spewer: raw bytes that can never frame. CRC framing must reject
  // it and the server must drop the connection, not throw, and the sweep
  // must complete on the legitimate worker.
  const pid_t garbage = [&]() -> pid_t {
    const pid_t pid = fork();
    if (pid != 0) return pid;
    try {
      MessageChannel ch = tcp_connect("127.0.0.1", listener.port(), 5.0, 5.0);
      std::vector<std::uint8_t> junk(4096);
      std::uint64_t h = 0x6a6b;
      for (auto& b : junk) b = static_cast<std::uint8_t>(h = mix64(h));
      for (int i = 0; i < 4; ++i)
        if (::send(ch.fd(), junk.data(), junk.size(), 0) < 0) std::_Exit(1);
      usleep(200 * 1000);
      std::_Exit(0);
    } catch (...) {
      std::_Exit(1);
    }
  }();
  const pid_t good =
      spawn_worker(worker_options(listener.port(), dir + "/w0", 0, options));

  const NetFabricReport report = run_net_fabric(
      listener, options, kTasks, [](std::uint64_t i) { return synth_key(i); });

  EXPECT_TRUE(reap(garbage, 0));
  EXPECT_TRUE(reap(good, kExitShutdown));
  EXPECT_TRUE(report.fabric.complete);
  EXPECT_GE(report.connections_dropped, 1u);
  expect_merged_matches_golden(options, kTasks);
}

TEST(FabricNet, SilentClientReapedByHandshakeDeadline) {
  const std::string dir = fabric_dir("net-silent");
  NetFabricOptions options = net_options(dir);
  options.handshake_timeout_s = 0.3;
  options.first_connect_timeout_s = 2.0;
  NetFabricReport observed;
  options.report_out = &observed;

  TcpListener listener;
  listener.listen("127.0.0.1", 0);

  // Connects, never says a word. The handshake deadline must reap it; with
  // no legitimate worker the run then ends in FabricWorkersLost.
  const pid_t silent = [&]() -> pid_t {
    const pid_t pid = fork();
    if (pid != 0) return pid;
    try {
      MessageChannel ch = tcp_connect("127.0.0.1", listener.port(), 5.0, 5.0);
      usleep(1500 * 1000);
      std::_Exit(0);
    } catch (...) {
      std::_Exit(1);
    }
  }();

  EXPECT_THROW(run_net_fabric(listener, options, 4,
                              [](std::uint64_t i) { return synth_key(i); }),
               FabricWorkersLost);
  EXPECT_TRUE(reap(silent, 0));
  EXPECT_EQ(observed.connections_accepted, 1u);
  EXPECT_EQ(observed.connections_dropped, 1u);
  EXPECT_EQ(observed.handshakes_completed, 0u);
}

// ---------- reconnect & resume ----------------------------------------------

// One worker behind a chaos proxy that cuts the connection after N
// worker->server frames: the worker reconnects through the (now clean)
// proxy, the server resumes its lease inside the reconnect window, and the
// shard upload continues from the server's acknowledged offset.
void run_cut_case(const std::string& name, const NetChaos& chaos,
                  std::uint64_t expect_resume_or_drop) {
  const std::string dir = fabric_dir(name);
  NetFabricOptions options = net_options(dir);
  constexpr std::uint64_t kTasks = 12;

  TcpListener server_listener;
  server_listener.listen("127.0.0.1", 0);
  TcpListener proxy_listener;
  proxy_listener.listen("127.0.0.1", 0);

  const int proxy_port = proxy_listener.port();
  const pid_t proxy =
      spawn_proxy(proxy_listener, server_listener.port(), chaos);
  proxy_listener.close();  // the child owns it now
  const pid_t worker =
      spawn_worker(worker_options(proxy_port, dir + "/w0", 0, options));

  const NetFabricReport report =
      run_net_fabric(server_listener, options, kTasks,
                     [](std::uint64_t i) { return synth_key(i); });

  EXPECT_TRUE(reap(worker, kExitShutdown));
  kill_proxy(proxy);
  EXPECT_TRUE(report.fabric.complete);
  if (expect_resume_or_drop > 0) {
    EXPECT_GE(report.connections_dropped + report.lease_resumes, 1u)
        << "chaos never fired?";
  }
  expect_merged_matches_golden(options, kTasks);
}

TEST(FabricNet, ReconnectResumesLeaseAfterUpstreamCut) {
  NetChaos chaos;
  chaos.cut_after_frames_up = 6;  // mid-lease, after some uploads
  run_cut_case("net-cut-up", chaos, 1);
}

TEST(FabricNet, ReconnectSurvivesDownstreamCut) {
  NetChaos chaos;
  chaos.cut_after_frames_down = 3;  // right around the grant
  run_cut_case("net-cut-down", chaos, 1);
}

// ---------- NetChaos soak matrices ------------------------------------------

TEST(FabricNetSoak, CutMatrixConvergesByteIdentical) {
  for (const std::uint64_t cut : {2u, 5u, 9u, 14u}) {
    NetChaos up;
    up.cut_after_frames_up = cut;
    run_cut_case("net-soak-cut-up-" + std::to_string(cut), up, 0);
    NetChaos down;
    down.cut_after_frames_down = cut;
    run_cut_case("net-soak-cut-down-" + std::to_string(cut), down, 0);
  }
}

TEST(FabricNetSoak, CorruptedFramesAreNeverActedOn) {
  // A flipped byte in either direction must be caught by the frame CRC and
  // treated as a torn connection — reconnect, never a decoded message.
  NetChaos up;
  up.corrupt_frame_up = 4;
  run_cut_case("net-soak-corrupt-up", up, 1);
  NetChaos down;
  down.corrupt_frame_down = 3;
  run_cut_case("net-soak-corrupt-down", down, 1);
}

TEST(FabricNetSoak, DelayedDeliveryStillConverges) {
  NetChaos chaos;
  chaos.delay_s = 0.01;
  run_cut_case("net-soak-delay", chaos, 0);
}

TEST(FabricNetSoak, WedgedProxyLeaseReissuedToSurvivor) {
  const std::string dir = fabric_dir("net-soak-wedge");
  NetFabricOptions options = net_options(dir);
  options.lease_timeout_s = 1.0;
  options.heartbeat_interval_s = 0.05;
  constexpr std::uint64_t kTasks = 12;

  TcpListener server_listener;
  server_listener.listen("127.0.0.1", 0);
  TcpListener proxy_listener;
  proxy_listener.listen("127.0.0.1", 0);

  // Worker 0 goes through a proxy that swallows everything upward after 4
  // frames — a half-open connection only deadlines can unstick. Worker 1
  // connects directly and must pick up the re-issued lease.
  NetChaos chaos;
  chaos.wedge_after_frames_up = 4;
  const int proxy_port = proxy_listener.port();
  const pid_t proxy =
      spawn_proxy(proxy_listener, server_listener.port(), chaos);
  proxy_listener.close();
  const pid_t w0 =
      spawn_worker(worker_options(proxy_port, dir + "/w0", 0, options));
  const pid_t w1 = spawn_worker(
      worker_options(server_listener.port(), dir + "/w1", 1, options));

  const NetFabricReport report =
      run_net_fabric(server_listener, options, kTasks,
                     [](std::uint64_t i) { return synth_key(i); });

  EXPECT_TRUE(reap(w0, kExitShutdown));
  EXPECT_TRUE(reap(w1, kExitShutdown));
  kill_proxy(proxy);
  EXPECT_TRUE(report.fabric.complete);
  EXPECT_GE(report.connections_dropped, 1u);  // the wedged conn was reaped
  expect_merged_matches_golden(options, kTasks);
}

// ---------- full-fleet loss and fresh-fleet resume ---------------------------

TEST(FabricNetSoak, FleetVanishesThenFreshFleetResumesByteIdentical) {
  const std::string dir = fabric_dir("net-soak-fleet-lost");
  NetFabricOptions options = net_options(dir);
  options.lease_timeout_s = 1.0;
  options.heartbeat_interval_s = 0.05;
  options.all_lost_grace_s = 0.5;
  constexpr std::uint64_t kTasks = 24;
  const auto key_of = [](std::uint64_t i) { return synth_key(i); };

  TcpListener listener;
  listener.listen("127.0.0.1", 0);

  // Fleet one: every worker dies at a lease boundary with results committed
  // and acknowledged. The server outlives the drops, then reports the fleet
  // lost — FAILED but resumable.
  RemoteWorkerOptions w0_opts =
      worker_options(listener.port(), dir + "/w0", 0, options);
  w0_opts.chaos.exit_after_results = 3;
  RemoteWorkerOptions w1_opts =
      worker_options(listener.port(), dir + "/w1", 1, options);
  w1_opts.chaos.exit_after_results = 4;
  const pid_t w0 = spawn_worker(w0_opts);
  const pid_t w1 = spawn_worker(w1_opts);

  NetFabricReport first;
  options.report_out = &first;
  EXPECT_THROW(run_net_fabric(listener, options, kTasks, key_of),
               FabricWorkersLost);
  EXPECT_TRUE(reap(w0, kExitChaos));
  EXPECT_TRUE(reap(w1, kExitChaos));
  EXPECT_GE(first.handshakes_completed, 2u);
  EXPECT_GT(first.shard_bytes_received, 0u);

  // Fleet two: fresh worker ids (fresh shard lineages), same server
  // directory. The new server instance replays the lease log, rescans its
  // shard replicas, and only the uncommitted tail re-executes.
  options.report_out = nullptr;
  const pid_t w2 =
      spawn_worker(worker_options(listener.port(), dir + "/w2", 2, options));
  const pid_t w3 =
      spawn_worker(worker_options(listener.port(), dir + "/w3", 3, options));
  const NetFabricReport second =
      run_net_fabric(listener, options, kTasks, key_of);

  EXPECT_TRUE(reap(w2, kExitShutdown));
  EXPECT_TRUE(reap(w3, kExitShutdown));
  EXPECT_TRUE(second.fabric.complete);
  EXPECT_GT(second.fabric.tasks_recovered, 0u);
  EXPECT_EQ(second.fabric.tasks_recovered + second.fabric.tasks_executed,
            kTasks);
  expect_merged_matches_golden(options, kTasks);
}

#endif  // LPSRAM_FABRIC_NET_POSIX

}  // namespace
}  // namespace lpsram
