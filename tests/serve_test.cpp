// End-to-end tests for the `svlc serve` daemon: an in-process Server on
// its own thread, real clients over the Unix socket. Covers the
// acceptance bar of the serve subsystem:
//   * a repeated verify of an unchanged job is a session hit — zero
//     re-elaboration, zero solver calls — and its rendered outputs are
//     byte-identical to an in-process `svlc check`,
//   * invalidate forces a re-verify,
//   * concurrent clients on different sessions never observe
//     interleaved frames,
//   * didChange pushes LSP-flavored diagnostics, always the full set,
//   * a session miss solves: the daemon writes job verdicts through to
//     its store but never obligation records,
//   * graceful shutdown flushes the store so a later cold
//     `svlc batch --store` warm-skips,
//   * --idle-timeout exits on its own, and
//   * oversized, malformed and half-sent frames are refused or dropped
//     without disturbing other clients.
#include "serve/client.hpp"
#include "serve/server.hpp"

#include "driver/driver.hpp"
#include "incr/store.hpp"
#include "pipeline/compilation.hpp"
#include "support/fsutil.hpp"
#include "support/net.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <unistd.h>

#ifndef SVLC_HDL_DIR
#define SVLC_HDL_DIR ""
#endif

namespace svlc::test {
namespace {

namespace fs = std::filesystem;
using serve::Client;
using serve::RpcMessage;
using serve::ServeOptions;
using serve::Server;

const char* kSecureSrc = R"(
lattice { level T; level U; flow T -> U; }
module ok(input com {T} a, output com {T} b);
  assign b = a;
endmodule
)";

const char* kRejectedSrc = R"(
lattice { level T; level U; flow T -> U; }
module bad(input com {U} dirty);
  reg seq {T} creg;
  always @(seq) begin
    creg <= dirty;
  end
endmodule
)";

std::string unique_socket(const char* tag) {
    static std::atomic<int> counter{0};
    return (fs::temp_directory_path() /
            ("svlc_serve_test_" + std::to_string(::getpid()) + "_" + tag +
             "_" + std::to_string(counter++) + ".sock"))
        .string();
}

/// Server on a background thread; stopped and joined on destruction.
struct TestServer {
    Server server;
    std::thread thread;

    explicit TestServer(ServeOptions opts) : server(std::move(opts)) {}
    ~TestServer() { stop(); }

    bool start() {
        std::string error;
        if (!server.start(error)) {
            ADD_FAILURE() << "server start: " << error;
            return false;
        }
        thread = std::thread([this] { server.run(); });
        return true;
    }
    void stop() {
        server.request_stop();
        if (thread.joinable())
            thread.join();
    }
};

ServeOptions test_options(const std::string& socket) {
    ServeOptions opts;
    opts.socket_path = socket;
    opts.install_signal_handlers = false;
    return opts;
}

JsonValue call_ok(Client& client, const std::string& method,
                  const JsonValue& params,
                  std::vector<RpcMessage>* notifications = nullptr) {
    RpcMessage response;
    std::string error;
    EXPECT_TRUE(client.call(method, params, response, error, notifications))
        << method << ": " << error;
    EXPECT_TRUE(response.has_result)
        << method << " errored: " << response.error_message;
    return response.result;
}

JsonValue verify_params(const std::string& name, const std::string& source) {
    JsonValue params = JsonValue::object();
    params.set("name", JsonValue(name));
    params.set("source", JsonValue(source));
    return params;
}

TEST(Serve, WarmHitIsByteIdenticalToInProcessCheck) {
    std::string file = std::string(SVLC_HDL_DIR) + "/shared_counter.svlc";
    std::string source;
    ASSERT_TRUE(read_file(file, source));

    TestServer ts(test_options(unique_socket("warm")));
    ASSERT_TRUE(ts.start());

    // The in-process reference: exactly what `svlc check <file>` renders.
    pipeline::Compilation comp;
    comp.load_text(source, file);
    const check::CheckResult* res = comp.check();
    ASSERT_NE(res, nullptr);
    std::string want_human = pipeline::check_human_summary(comp, *res);
    std::string want_report = pipeline::check_report_json(comp, *res, file);
    std::string want_diags = comp.render_diagnostics();
    std::string want_stats = pipeline::solver_stats_line(res->solver_stats);

    std::string error;
    auto client = Client::connect(ts.server.socket_path(), error);
    ASSERT_TRUE(client.has_value()) << error;

    JsonValue first = call_ok(*client, "verify", verify_params(file, source));
    EXPECT_EQ(first.get_string("status"), "secure");
    EXPECT_FALSE(first.get_bool("cached"));
    EXPECT_EQ(first.get_string("human"), want_human);
    EXPECT_EQ(first.get_string("report"), want_report);
    EXPECT_EQ(first.get_string("diagnostics"), want_diags);
    EXPECT_EQ(first.get_string("stats_line"), want_stats);

    JsonValue before = call_ok(*client, "status", JsonValue::object());

    // Second verify: session hit, identical bytes.
    JsonValue second =
        call_ok(*client, "verify", verify_params(file, source));
    EXPECT_TRUE(second.get_bool("cached"));
    EXPECT_EQ(second.get_string("human"), want_human);
    EXPECT_EQ(second.get_string("report"), want_report);
    EXPECT_EQ(second.get_string("diagnostics"), want_diags);
    EXPECT_EQ(second.get_string("stats_line"), want_stats);
    EXPECT_EQ(second.get_string("fingerprint"),
              first.get_string("fingerprint"));

    // Zero pipeline and zero solver work on the hit: the verify counter
    // did not move.
    JsonValue after = call_ok(*client, "status", JsonValue::object());
    EXPECT_EQ(after.find("stats")->get_uint("verifies"),
              before.find("stats")->get_uint("verifies"));
    EXPECT_EQ(after.find("stats")->get_uint("session_hits"),
              before.find("stats")->get_uint("session_hits") + 1);
}

TEST(Serve, RemoteCheckMatchesInProcess) {
    std::string file = std::string(SVLC_HDL_DIR) + "/fig4_mode_switch.svlc";
    std::string source;
    ASSERT_TRUE(read_file(file, source));

    TestServer ts(test_options(unique_socket("remote")));
    ASSERT_TRUE(ts.start());

    pipeline::Compilation comp;
    comp.load_text(source, file);
    const check::CheckResult* res = comp.check();
    ASSERT_NE(res, nullptr);

    serve::RemoteCheckResult remote;
    ASSERT_TRUE(serve::remote_check(ts.server.socket_path(), file, "",
                                    check::CheckOptions{}, remote));
    EXPECT_EQ(remote.human, pipeline::check_human_summary(comp, *res));
    EXPECT_EQ(remote.report_json,
              pipeline::check_report_json(comp, *res, file));
    EXPECT_EQ(remote.diagnostics, comp.render_diagnostics());
    EXPECT_EQ(remote.stats_line,
              pipeline::solver_stats_line(res->solver_stats));

    // And nothing listening → remote_check reports false so the CLI
    // falls back in-process.
    serve::RemoteCheckResult none;
    EXPECT_FALSE(serve::remote_check(unique_socket("nobody"), file, "",
                                     check::CheckOptions{}, none));
}

TEST(Serve, InvalidateForcesReverify) {
    TestServer ts(test_options(unique_socket("inval")));
    ASSERT_TRUE(ts.start());
    std::string error;
    auto client = Client::connect(ts.server.socket_path(), error);
    ASSERT_TRUE(client.has_value()) << error;

    JsonValue params = verify_params("buf.svlc", kSecureSrc);
    EXPECT_FALSE(call_ok(*client, "verify", params).get_bool("cached"));
    EXPECT_TRUE(call_ok(*client, "verify", params).get_bool("cached"));

    JsonValue inv = JsonValue::object();
    inv.set("name", JsonValue("buf.svlc"));
    EXPECT_EQ(call_ok(*client, "invalidate", inv).get_uint("dropped"), 1u);

    // Session gone: the next verify runs the pipeline again.
    EXPECT_FALSE(call_ok(*client, "verify", params).get_bool("cached"));
}

TEST(Serve, DidChangePushesDiagnostics) {
    TestServer ts(test_options(unique_socket("didchange")));
    ASSERT_TRUE(ts.start());
    std::string error;
    auto client = Client::connect(ts.server.socket_path(), error);
    ASSERT_TRUE(client.has_value()) << error;

    std::vector<RpcMessage> notes;
    JsonValue result = call_ok(*client, "didChange",
                               verify_params("edit.svlc", kRejectedSrc),
                               &notes);
    EXPECT_EQ(result.get_string("status"), "rejected");

    ASSERT_EQ(notes.size(), 1u);
    EXPECT_EQ(notes[0].method, "svlc/publishDiagnostics");
    EXPECT_EQ(notes[0].params.get_string("name"), "edit.svlc");
    const JsonValue* diags = notes[0].params.find("diagnostics");
    ASSERT_NE(diags, nullptr);
    ASSERT_GE(diags->size(), 1u);
    const JsonValue& d = diags->items()[0];
    EXPECT_EQ(d.find("severity")->int_val(), 1); // LSP Error
    EXPECT_FALSE(d.get_string("message").empty());
    // 0-based LSP positions within the buffer.
    const JsonValue* start = d.find("range")->find("start");
    ASSERT_NE(start, nullptr);
    EXPECT_GT(start->get_uint("line"), 0u);

    // An edit that fixes the flow re-verifies under the same session.
    std::vector<RpcMessage> notes2;
    JsonValue fixed = call_ok(*client, "didChange",
                              verify_params("edit.svlc", kSecureSrc),
                              &notes2);
    EXPECT_EQ(fixed.get_string("status"), "secure");
    EXPECT_FALSE(fixed.get_bool("cached"));
    ASSERT_EQ(notes2.size(), 1u);
    EXPECT_EQ(notes2[0].params.find("diagnostics")->size(), 0u);
}

TEST(Serve, DidChangePushesFullDiagnosticSet) {
    // An LSP client replaces a document's diagnostics on every publish,
    // so an edit that changes bytes but no constraint (a comment) must
    // push the rejected buffer's errors again, not an empty set.
    TestServer ts(test_options(unique_socket("fullpush")));
    ASSERT_TRUE(ts.start());
    std::string error;
    auto client = Client::connect(ts.server.socket_path(), error);
    ASSERT_TRUE(client.has_value()) << error;

    std::vector<RpcMessage> notes;
    JsonValue first = call_ok(*client, "didChange",
                              verify_params("i.svlc", kRejectedSrc), &notes);
    EXPECT_EQ(first.get_string("status"), "rejected");
    ASSERT_EQ(notes.size(), 1u);
    const JsonValue* pushed = notes[0].params.find("diagnostics");
    ASSERT_NE(pushed, nullptr);
    ASSERT_GE(pushed->size(), 1u);

    // A comment appended below the module: new bytes, same constraints,
    // same diagnostic positions.
    std::string touched = std::string(kRejectedSrc) + "// touch\n";
    std::vector<RpcMessage> notes2;
    JsonValue second = call_ok(*client, "didChange",
                               verify_params("i.svlc", touched), &notes2);
    EXPECT_EQ(second.get_string("status"), "rejected");
    EXPECT_FALSE(second.get_bool("cached")); // bytes changed: not a hit
    EXPECT_EQ(second.get_uint("obligations"), first.get_uint("obligations"));
    ASSERT_EQ(notes2.size(), 1u);
    const JsonValue* pushed2 = notes2[0].params.find("diagnostics");
    ASSERT_NE(pushed2, nullptr);
    EXPECT_GE(pushed2->size(), 1u);
    EXPECT_TRUE(*pushed2 == *pushed)
        << pushed2->dump(0) << " vs " << pushed->dump(0);

    // A session hit pushes the full set too.
    std::vector<RpcMessage> notes3;
    JsonValue third = call_ok(*client, "didChange",
                              verify_params("i.svlc", touched), &notes3);
    EXPECT_TRUE(third.get_bool("cached"));
    ASSERT_EQ(notes3.size(), 1u);
    EXPECT_TRUE(*notes3[0].params.find("diagnostics") == *pushed2);
}

TEST(Serve, SessionMissSolvesAndWritesOnlyVerdicts) {
    fs::path store =
        fs::temp_directory_path() /
        ("svlc_serve_test_solve_store_" + std::to_string(::getpid()));
    fs::remove_all(store);
    {
        ServeOptions opts = test_options(unique_socket("solve"));
        opts.store_dir = store.string();
        TestServer ts(std::move(opts));
        ASSERT_TRUE(ts.start());
        std::string error;
        auto client = Client::connect(ts.server.socket_path(), error);
        ASSERT_TRUE(client.has_value()) << error;

        JsonValue first = call_ok(*client, "didChange",
                                  verify_params("s.svlc", kRejectedSrc));
        EXPECT_EQ(first.get_string("status"), "rejected");
        JsonValue second = call_ok(
            *client, "didChange",
            verify_params("s.svlc", std::string(kRejectedSrc) + "// touch\n"));
        EXPECT_EQ(second.get_string("status"), "rejected");
        EXPECT_FALSE(second.get_bool("cached"));
        EXPECT_EQ(second.find("obligations_replayed"), nullptr);
        EXPECT_EQ(second.find("obligations_solved"), nullptr);

        JsonValue status = call_ok(*client, "status", JsonValue::object());
        EXPECT_EQ(status.get_string("schema"), "svlc-serve/v2");
        EXPECT_EQ(status.find("cache"), nullptr);
        EXPECT_EQ(status.find("stats")->get_uint("verifies"), 2u);
        ASSERT_NE(status.find("store"), nullptr);
        EXPECT_EQ(status.find("store")->get_uint("verdict_stores"), 2u);
    }

    // Both verdicts are on disk (one per job fingerprint); no
    // obligation record is.
    incr::ArtifactStore reopened(incr::StoreOptions{store.string()});
    std::string error;
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_EQ(reopened.list_verdicts().size(), 2u);
    EXPECT_TRUE(reopened.list_obligations().empty());
    EXPECT_TRUE(fs::is_empty(store / "v2" / "obligations"));
    fs::remove_all(store);
}

TEST(Serve, ConcurrentClientsDoNotInterleaveFrames) {
    TestServer ts(test_options(unique_socket("conc")));
    ASSERT_TRUE(ts.start());

    // Two clients on two different sessions, hammering concurrently.
    // Interleaved frames would surface as parse failures or id
    // mismatches inside Client::call.
    auto worker = [&](const std::string& name, const char* src,
                      const std::string& want_status,
                      std::atomic<int>& failures) {
        std::string error;
        auto client = Client::connect(ts.server.socket_path(), error);
        if (!client) {
            ++failures;
            return;
        }
        for (int i = 0; i < 25; ++i) {
            RpcMessage response;
            std::vector<RpcMessage> notes;
            if (!client->call("verify", verify_params(name, src), response,
                              error, &notes) ||
                !response.has_result ||
                response.result.get_string("status") != want_status ||
                notes.size() != 1)
                ++failures;
        }
    };
    std::atomic<int> failures{0};
    std::thread a(worker, "a.svlc", kSecureSrc, "secure",
                  std::ref(failures));
    std::thread b(worker, "b.svlc", kRejectedSrc, "rejected",
                  std::ref(failures));
    a.join();
    b.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(Serve, SessionLruEviction) {
    ServeOptions opts = test_options(unique_socket("lru"));
    opts.max_sessions = 2;
    TestServer ts(std::move(opts));
    ASSERT_TRUE(ts.start());
    std::string error;
    auto client = Client::connect(ts.server.socket_path(), error);
    ASSERT_TRUE(client.has_value()) << error;

    for (const char* name : {"one.svlc", "two.svlc", "three.svlc"})
        call_ok(*client, "verify", verify_params(name, kSecureSrc));
    // Oldest session evicted; re-verifying it is a miss, the newest two
    // are still hits.
    EXPECT_FALSE(call_ok(*client, "verify",
                         verify_params("one.svlc", kSecureSrc))
                     .get_bool("cached"));
    EXPECT_TRUE(call_ok(*client, "verify",
                        verify_params("three.svlc", kSecureSrc))
                    .get_bool("cached"));
}

TEST(Serve, ShutdownFlushesStoreForBatchWarmSkip) {
    std::string file = std::string(SVLC_HDL_DIR) + "/fig4_mode_switch.svlc";
    std::string source;
    ASSERT_TRUE(read_file(file, source));
    fs::path store =
        fs::temp_directory_path() /
        ("svlc_serve_test_store_" + std::to_string(::getpid()));
    fs::remove_all(store);

    {
        ServeOptions opts = test_options(unique_socket("flush"));
        opts.store_dir = store.string();
        TestServer ts(std::move(opts));
        ASSERT_TRUE(ts.start());
        std::string error;
        auto client = Client::connect(ts.server.socket_path(), error);
        ASSERT_TRUE(client.has_value()) << error;
        // The daemon writes the verdict under the same fingerprint a
        // batch job with this name computes.
        call_ok(*client, "verify", verify_params(file, source));
        // Graceful shutdown via the protocol.
        call_ok(*client, "shutdown", JsonValue::object());
        ts.thread.join();
        ts.thread = std::thread(); // already joined
    }

    // A cold batch over the same job warm-skips from the daemon's store,
    // which holds no entailment cache.
    driver::DriverOptions dopts;
    dopts.store_dir = store.string();
    driver::JobSpec job;
    job.name = file;
    job.path = file;
    driver::VerificationDriver drv(dopts);
    driver::BatchReport report = drv.run({job});
    EXPECT_EQ(report.skipped_count(), 1u);
    EXPECT_EQ(report.results[0].status, driver::JobStatus::Secure);
    EXPECT_FALSE(fs::exists(store / "v2" / "entail.cache"));

    fs::remove_all(store);
}

TEST(Serve, IdleTimeoutExitsOnItsOwn) {
    ServeOptions opts = test_options(unique_socket("idle"));
    opts.idle_timeout_sec = 1;
    Server server(std::move(opts));
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    std::atomic<bool> done{false};
    std::thread t([&] {
        server.run();
        done = true;
    });
    for (int i = 0; i < 100 && !done; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_TRUE(done.load()) << "idle server did not exit";
    t.join();
    // Socket removed on the way out.
    EXPECT_FALSE(net::socket_alive(server.socket_path()));
}

TEST(Serve, SecondServerOnLiveSocketRefused) {
    std::string socket = unique_socket("second");
    TestServer ts(test_options(socket));
    ASSERT_TRUE(ts.start());

    Server other(test_options(socket));
    std::string error;
    EXPECT_FALSE(other.start(error));
    EXPECT_NE(error.find("already listening"), std::string::npos) << error;
    // The running server is unharmed.
    std::string connect_error;
    EXPECT_TRUE(Client::connect(socket, connect_error).has_value())
        << connect_error;
}

TEST(Serve, ProtocolErrors) {
    TestServer ts(test_options(unique_socket("errors")));
    ASSERT_TRUE(ts.start());
    std::string error;
    auto client = Client::connect(ts.server.socket_path(), error);
    ASSERT_TRUE(client.has_value()) << error;

    RpcMessage response;
    ASSERT_TRUE(client->call("no-such-method", JsonValue::object(),
                             response, error));
    EXPECT_TRUE(response.has_error);
    EXPECT_EQ(response.error_code, serve::kErrMethodNotFound);

    // verify without source or file → invalid params.
    ASSERT_TRUE(
        client->call("verify", JsonValue::object(), response, error));
    EXPECT_TRUE(response.has_error);
    EXPECT_EQ(response.error_code, serve::kErrInvalidParams);

    // The connection survives both errors.
    JsonValue status = call_ok(*client, "status", JsonValue::object());
    EXPECT_EQ(status.get_string("schema"), "svlc-serve/v2");
}

TEST(Serve, HostileFramesAreRefusedWithoutHurtingPeers) {
    TestServer ts(test_options(unique_socket("hostile")));
    ASSERT_TRUE(ts.start());
    const std::string& socket = ts.server.socket_path();
    std::string error;
    auto good = Client::connect(socket, error);
    ASSERT_TRUE(good.has_value()) << error;
    auto stat = [&](const char* key) {
        return call_ok(*good, "status", JsonValue::object())
            .find("stats")
            ->get_uint(key);
    };
    uint64_t errors_before = stat("protocol_errors");

    // Half a frame, left open: the daemon keeps serving other clients
    // while this one's body never arrives, then drops it on close
    // without counting a protocol error.
    auto half = net::UnixStream::connect(socket, error);
    ASSERT_TRUE(half.has_value()) << error;
    ASSERT_TRUE(half->send_all("Content-Length: 100\r\n\r\n{\"jsonrpc\"",
                               error))
        << error;
    // Verify only once the daemon has accepted the half-open client.
    for (int i = 0; i < 500 && stat("connections") < 2; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(call_ok(*good, "verify", verify_params("a.svlc", kSecureSrc))
                  .get_string("status"),
              "secure");
    half->close();

    // An oversized and a malformed header: each gets one
    // kErrInvalidRequest reply, then the daemon closes the connection.
    auto expect_refused = [&](const std::string& header) {
        auto raw = net::UnixStream::connect(socket, error);
        ASSERT_TRUE(raw.has_value()) << error;
        ASSERT_TRUE(raw->send_all(header, error)) << error;
        // Bounded waits, so a daemon that neither answers nor closes
        // fails the test instead of hanging it.
        pollfd pfd{raw->fd(), POLLIN, 0};
        ASSERT_EQ(::poll(&pfd, 1, 5000), 1) << "no reply";
        net::FrameBuffer fb;
        std::string payload;
        ASSERT_TRUE(net::read_frame(*raw, fb, payload, error)) << error;
        // The reply carries `"id": null` (no request id was read), so it
        // is checked as plain JSON.
        JsonValue reply;
        ASSERT_TRUE(JsonReader::parse(payload, reply, error)) << error;
        ASSERT_NE(reply.find("id"), nullptr);
        EXPECT_TRUE(reply.find("id")->is_null());
        ASSERT_NE(reply.find("error"), nullptr);
        EXPECT_EQ(reply.find("error")->find("code")->int_val(),
                  serve::kErrInvalidRequest);
        ASSERT_EQ(::poll(&pfd, 1, 5000), 1) << "connection left open";
        std::string rest;
        EXPECT_EQ(raw->read_some(rest), 0);
    };
    expect_refused("Content-Length: " +
                   std::to_string(net::kMaxFramePayload + 1) + "\r\n\r\n");
    expect_refused("Content-Length: twelve\r\n\r\n");

    EXPECT_EQ(stat("protocol_errors"), errors_before + 2);
    EXPECT_EQ(call_ok(*good, "verify", verify_params("b.svlc", kRejectedSrc))
                  .get_string("status"),
              "rejected");
}

} // namespace
} // namespace svlc::test
