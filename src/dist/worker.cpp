#include "dist/worker.hpp"

#include "dist/protocol.hpp"
#include "driver/driver.hpp"
#include "incr/fingerprint.hpp"
#include "pipeline/compilation.hpp"
#include "serve/client.hpp"
#include "solver/entail.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>
#include <unistd.h>

namespace svlc::dist {

namespace {

/// Records per push frame: diagnostics make a verdict kilobytes, and one
/// frame must stay far below net::kMaxFramePayload.
constexpr size_t kPushChunk = 128;

} // namespace

Worker::Worker(WorkerOptions opts) : opts_(std::move(opts)) {}

bool Worker::run(std::string& error) {
    if (opts_.socket_path.empty()) {
        error = "worker: --connect PATH is required";
        return false;
    }
    auto client = serve::Client::connect(opts_.socket_path, opts_.retry,
                                         error);
    if (!client)
        return false;

    std::string name = opts_.name.empty()
                           ? "worker-" + std::to_string(::getpid())
                           : opts_.name;

    JsonValue reg = JsonValue::object();
    reg.set("schema", JsonValue(kDistSchema));
    reg.set("version", JsonValue(incr::kToolVersion));
    reg.set("worker", JsonValue(name));
    serve::RpcMessage response;
    if (!client->call("register", reg, response, error))
        return false;
    if (response.has_error) {
        error = "register rejected: " + response.error_message;
        return false;
    }
    uint64_t worker_id = response.result.get_uint("worker_id");
    uint64_t default_timeout_ms = response.result.get_uint("timeout_ms");

    // Adopt the coordinator's checker configuration wholesale — a fleet
    // where workers disagree on mode or backend would produce verdicts
    // the coordinator's report could not have produced itself.
    check::CheckOptions copts;
    if (const JsonValue* o = response.result.find("options");
        o && o->is_object()) {
        copts.mode = o->get_bool("classic")
                         ? check::CheckerMode::ClassicSecVerilog
                         : check::CheckerMode::SecVerilogLC;
        copts.hold_obligations = !o->get_bool("no_hold");
        if (const JsonValue* backend = o->find("solver"))
            if (auto kind = solver::parse_backend(backend->str()))
                copts.solver.backend = *kind;
    }

    std::unique_ptr<incr::ArtifactStore> store;
    if (!opts_.store_dir.empty()) {
        store = std::make_unique<incr::ArtifactStore>(
            incr::StoreOptions{opts_.store_dir});
        std::string store_error;
        if (!store->open(store_error)) {
            std::fprintf(stderr, "svlc worker: store disabled: %s\n",
                         store_error.c_str());
            store.reset();
        }
    }

    pipeline::CompilationOptions popts;
    popts.check = copts;
    pipeline::Compilation comp(std::move(popts));

    for (;;) {
        JsonValue lease_params = JsonValue::object();
        lease_params.set("worker_id", JsonValue(worker_id));
        if (!client->call("lease", lease_params, response, error))
            return false;
        if (response.has_error) {
            error = "lease rejected: " + response.error_message;
            return false;
        }
        std::string state = response.result.get_string("state");
        if (state == "done")
            break;
        if (state == "wait") {
            ++stats_.waits;
            std::this_thread::sleep_for(std::chrono::milliseconds(
                response.result.get_uint("backoff_ms", 50)));
            continue;
        }
        if (state != "job") {
            error = "lease returned unknown state '" + state + "'";
            return false;
        }
        ++stats_.leases;

        uint64_t lease_id = response.result.get_uint("lease");
        driver::JobSpec spec;
        spec.name = response.result.get_string("name");
        spec.top = response.result.get_string("top");
        spec.timeout_ms = response.result.get_uint("timeout_ms");
        spec.hunt_depth = response.result.get_uint("hunt", 0);
        std::string text = response.result.get_string("source");

        // Recompute the fingerprint locally: it must agree with the
        // coordinator's, or the two sides are not running the same tool
        // over the same bytes and pooling results would be unsound.
        // Hunt jobs travel fingerprint-free (the fingerprint does not
        // cover hunt parameters) and never touch the store.
        std::string fp =
            spec.hunt_depth > 0
                ? std::string()
                : incr::job_fingerprint(spec.name, text, spec.top, copts);
        std::string coord_fp = response.result.get_string("fingerprint");

        driver::JobResult res;
        bool skipped = false;
        if (spec.hunt_depth > 0) {
            for (int attempt = 0; attempt < 2; ++attempt) {
                try {
                    res = driver::hunt_text(spec, text);
                    break;
                } catch (const std::exception& e) {
                    res = driver::JobResult();
                    res.name = spec.name;
                    res.status = driver::JobStatus::Error;
                    res.diagnostics =
                        std::string("exception: ") + e.what();
                }
            }
            ++stats_.verified;
        } else if (!coord_fp.empty() && coord_fp != fp) {
            res.name = spec.name;
            res.status = driver::JobStatus::Error;
            res.diagnostics = "fingerprint mismatch (worker " + fp +
                              ", coordinator " + coord_fp + ")";
        } else if (store && [&] {
                       auto hit = store->load_verdict(fp);
                       if (!hit)
                           return false;
                       res = driver::job_result_from_verdict(
                           spec.name, fp, std::move(*hit), true);
                       return true;
                   }()) {
            skipped = true;
            ++stats_.store_hits;
        } else {
            // Same retry-once policy as the batch driver: one throw is
            // assumed transient, the second is the job's verdict.
            for (int attempt = 0; attempt < 2; ++attempt) {
                try {
                    res = driver::verify_text(comp, spec, text,
                                              default_timeout_ms,
                                              store.get());
                    break;
                } catch (const std::exception& e) {
                    res = driver::JobResult();
                    res.name = spec.name;
                    res.status = driver::JobStatus::Error;
                    res.diagnostics =
                        std::string("exception: ") + e.what();
                }
            }
            ++stats_.verified;
            if (store)
                driver::store_job_verdict(*store, fp, res);
        }

        JsonValue params = JsonValue::object();
        params.set("worker_id", JsonValue(worker_id));
        params.set("lease", JsonValue(lease_id));
        params.set("name", JsonValue(spec.name));
        params.set("fingerprint", JsonValue(fp));
        params.set("status",
                   JsonValue(driver::job_status_name(res.status)));
        if (res.status == driver::JobStatus::Secure ||
            res.status == driver::JobStatus::Rejected) {
            incr::StoredVerdict v;
            v.secure = res.status == driver::JobStatus::Secure;
            v.obligations = res.obligations;
            v.failed = res.failed;
            v.downgrades = res.downgrades;
            v.diagnostics = res.diagnostics;
            v.flagged = res.flagged;
            params.set("verdict",
                       JsonValue(hex_encode(encode_stored_verdict(v))));
        }
        params.set("queries", JsonValue(res.solver.queries));
        params.set("syntactic", JsonValue(res.solver.syntactic_hits));
        params.set("conflicts", JsonValue(res.solver.conflicts));
        params.set("propagations", JsonValue(res.solver.propagations));
        params.set("learned_clauses", JsonValue(res.solver.learned_clauses));
        params.set("restarts", JsonValue(res.solver.restarts));
        params.set("skipped", JsonValue(skipped));
        if (!res.diagnostics.empty())
            params.set("diagnostics", JsonValue(res.diagnostics));

        if (!client->call("result", params, response, error))
            return false;
        if (response.has_result &&
            response.result.get_bool("duplicate"))
            ++stats_.results_duplicate;
        else if (response.has_result &&
                 response.result.get_bool("accepted"))
            ++stats_.results_accepted;
    }

    // Delta-sync: offer every local record by fingerprint, push only what
    // the coordinator says it lacks. A store-less worker has nothing to
    // offer.
    if (!store)
        return true;
    JsonValue sync = JsonValue::object();
    sync.set("worker_id", JsonValue(worker_id));
    JsonValue fps = JsonValue::array();
    for (const std::string& fp : store->list_verdicts())
        fps.push_back(JsonValue(fp));
    sync.set("verdicts", std::move(fps));
    JsonValue obs = JsonValue::array();
    for (const std::string& fp : store->list_obligations())
        obs.push_back(JsonValue(fp));
    sync.set("obligations", std::move(obs));
    if (!client->call("sync", sync, response, error))
        return false;
    if (response.has_error) {
        error = "sync rejected: " + response.error_message;
        return false;
    }

    std::vector<std::string> want_verdicts;
    if (const JsonValue* w = response.result.find("want_verdicts");
        w && w->is_array())
        for (const JsonValue& fp : w->items())
            if (fp.is_string())
                want_verdicts.push_back(fp.str());
    std::vector<std::string> want_obligations;
    if (const JsonValue* w = response.result.find("want_obligations");
        w && w->is_array())
        for (const JsonValue& fp : w->items())
            if (fp.is_string())
                want_obligations.push_back(fp.str());

    size_t vi = 0, oi = 0;
    while (vi < want_verdicts.size() || oi < want_obligations.size()) {
        JsonValue push = JsonValue::object();
        push.set("worker_id", JsonValue(worker_id));
        JsonValue verdicts = JsonValue::array();
        for (size_t n = 0; vi < want_verdicts.size() && n < kPushChunk;
             ++vi, ++n) {
            auto hit = store->load_verdict(want_verdicts[vi]);
            if (!hit)
                continue;
            JsonValue item = JsonValue::object();
            item.set("fp", JsonValue(want_verdicts[vi]));
            item.set("data", JsonValue(hex_encode(
                                 encode_stored_verdict(*hit))));
            verdicts.push_back(std::move(item));
            ++stats_.pushed_verdicts;
        }
        push.set("verdicts", std::move(verdicts));
        JsonValue push_obs = JsonValue::array();
        for (size_t n = 0; oi < want_obligations.size() && n < kPushChunk;
             ++oi, ++n) {
            auto hit = store->load_obligation(want_obligations[oi]);
            if (!hit)
                continue;
            JsonValue item = JsonValue::object();
            item.set("fp", JsonValue(want_obligations[oi]));
            item.set("data", JsonValue(hex_encode(
                                 encode_stored_obligation(*hit))));
            push_obs.push_back(std::move(item));
            ++stats_.pushed_obligations;
        }
        push.set("obligations", std::move(push_obs));
        if (!client->call("push", push, response, error))
            return false;
    }
    return true;
}

} // namespace svlc::dist
