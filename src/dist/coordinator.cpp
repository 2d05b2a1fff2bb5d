#include "dist/coordinator.hpp"

#include "dist/protocol.hpp"
#include "incr/fingerprint.hpp"
#include "solver/entail.hpp"
#include "support/fsutil.hpp"
#include "support/hash.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

namespace svlc::dist {

using svlc::JsonValue;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

struct Coordinator::Conn {
    uint64_t id;
    net::UnixStream stream;
    net::FrameBuffer fb;
    bool dead = false;

    Conn(uint64_t i, net::UnixStream s) : id(i), stream(std::move(s)) {}
};

Coordinator::Coordinator(CoordinatorOptions opts,
                         std::vector<driver::JobSpec> jobs)
    : opts_(std::move(opts)) {
    jobs_.reserve(jobs.size());
    for (auto& spec : jobs) {
        JobState js;
        js.spec = std::move(spec);
        jobs_.push_back(std::move(js));
    }
}

Coordinator::~Coordinator() {
    if (wake_pipe_[0] >= 0)
        ::close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0)
        ::close(wake_pipe_[1]);
}

bool Coordinator::start(std::string& error) {
    if (opts_.socket_path.empty()) {
        error = "coordinator: --socket PATH is required";
        return false;
    }
    auto listener = net::UnixListener::bind(opts_.socket_path, error);
    if (!listener)
        return false;
    if (::pipe(wake_pipe_) < 0) {
        error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    for (int fd : wake_pipe_) {
        int flags = ::fcntl(fd, F_GETFL, 0);
        if (flags >= 0)
            ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }

    if (!opts_.store_dir.empty()) {
        auto store = std::make_unique<incr::ArtifactStore>(
            incr::StoreOptions{opts_.store_dir});
        std::string store_error;
        if (store->open(store_error)) {
            store_ = std::move(store);
        } else {
            // Same degradation policy as batch: a broken store means a
            // cold coordinator, not a dead fleet.
            std::fprintf(stderr, "svlc coordinator: store disabled: %s\n",
                         store_error.c_str());
        }
    }

    // Resolve every job up front: the source bytes ship inside lease
    // responses (workers need no shared filesystem), the fingerprint is
    // the shard key, and the coordinator's own store answers unchanged
    // jobs before any worker sees them.
    for (size_t i = 0; i < jobs_.size(); ++i) {
        JobState& js = jobs_[i];
        js.text = js.spec.source;
        if (js.text.empty() && !js.spec.path.empty() &&
            !read_file(js.spec.path, js.text)) {
            driver::JobResult res;
            res.name = js.spec.name;
            res.status = driver::JobStatus::Error;
            res.diagnostics = "cannot open '" + js.spec.path + "'";
            decide(i, std::move(res));
            continue;
        }
        // Hunt jobs keep an empty fingerprint: it does not cover search
        // parameters, so a stored check verdict must never answer (or be
        // overwritten by) a hunt outcome.
        if (js.spec.hunt_depth > 0)
            continue;
        js.fingerprint = incr::job_fingerprint(js.spec.name, js.text,
                                               js.spec.top, opts_.check);
        if (store_) {
            if (auto hit = store_->load_verdict(js.fingerprint)) {
                ++stats_.store_skips;
                decide(i, driver::job_result_from_verdict(
                              js.spec.name, js.fingerprint, std::move(*hit),
                              /*skipped=*/true));
            }
        }
    }

    listener_ = std::make_unique<net::UnixListener>(std::move(*listener));
    started_ = true;
    return true;
}

void Coordinator::request_stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (wake_pipe_[1] >= 0) {
        char b = 'q';
        [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
    }
}

bool Coordinator::decide(size_t idx, driver::JobResult res) {
    JobState& js = jobs_[idx];
    if (js.phase == Phase::Done)
        return false;
    js.result = std::move(res);
    js.phase = Phase::Done;
    ++done_count_;
    for (auto it = leases_.begin(); it != leases_.end();)
        it = it->second.job == idx ? leases_.erase(it) : std::next(it);
    return true;
}

void Coordinator::reclaim_lease(uint64_t id, bool expired) {
    auto it = leases_.find(id);
    if (it == leases_.end())
        return;
    size_t idx = it->second.job;
    leases_.erase(it);
    if (expired)
        ++stats_.leases_expired;
    else
        ++stats_.leases_reclaimed;
    JobState& js = jobs_[idx];
    if (js.phase == Phase::Done)
        return;
    for (const auto& [lid, lease] : leases_)
        if (lease.job == idx)
            return; // another worker still holds this job
    if (js.lease_attempts >= opts_.max_lease_attempts) {
        driver::JobResult res;
        res.name = js.spec.name;
        res.status = driver::JobStatus::Error;
        res.attempts = js.lease_attempts;
        res.diagnostics = "no worker returned a result after " +
                          std::to_string(js.lease_attempts) + " lease(s)";
        decide(idx, std::move(res));
        return;
    }
    js.phase = Phase::Pending;
    js.not_before =
        Clock::now() + std::chrono::milliseconds(
                           opts_.backoff_ms *
                           static_cast<uint64_t>(js.lease_attempts));
}

void Coordinator::check_deadlines() {
    Clock::time_point now = Clock::now();
    std::vector<uint64_t> expired;
    for (const auto& [id, lease] : leases_)
        if (now >= lease.deadline)
            expired.push_back(id);
    for (uint64_t id : expired)
        reclaim_lease(id, /*expired=*/true);
}

void Coordinator::drop_conn_leases(uint64_t conn_id) {
    std::vector<uint64_t> dropped;
    for (const auto& [id, lease] : leases_)
        if (lease.conn_id == conn_id)
            dropped.push_back(id);
    for (uint64_t id : dropped)
        reclaim_lease(id, /*expired=*/false);
}

JsonValue Coordinator::do_register(const JsonValue& params, Conn& conn,
                                   int& err_code, std::string& err_msg) {
    std::string version = params.get_string("version");
    if (version != incr::kToolVersion) {
        // Mixed-version fleets would disagree on fingerprints and store
        // encodings; refusing here beats silently re-verifying (or worse,
        // silently pooling incompatible entries).
        err_code = serve::kErrInvalidParams;
        err_msg = "tool version mismatch: coordinator " +
                  std::string(incr::kToolVersion) + ", worker " +
                  (version.empty() ? "<unknown>" : version);
        return JsonValue();
    }
    uint64_t id = next_worker_id_++;
    WorkerInfo info;
    info.name = params.get_string("worker", "worker-" + std::to_string(id));
    info.index = workers_.size();
    workers_.emplace(id, std::move(info));
    ++stats_.workers_registered;
    (void)conn;

    JsonValue options = JsonValue::object();
    options.set("classic",
                JsonValue(opts_.check.mode ==
                          check::CheckerMode::ClassicSecVerilog));
    options.set("no_hold", JsonValue(!opts_.check.hold_obligations));
    options.set("solver",
                JsonValue(solver::backend_id(opts_.check.solver.backend)));

    JsonValue result = JsonValue::object();
    result.set("schema", JsonValue(kDistSchema));
    result.set("version", JsonValue(incr::kToolVersion));
    result.set("worker_id", JsonValue(id));
    result.set("jobs", JsonValue(static_cast<uint64_t>(jobs_.size())));
    result.set("timeout_ms", JsonValue(opts_.timeout_ms));
    result.set("options", std::move(options));
    return result;
}

JsonValue Coordinator::do_lease(const JsonValue& params, int& err_code,
                                std::string& err_msg) {
    uint64_t worker_id = params.get_uint("worker_id");
    auto wit = workers_.find(worker_id);
    if (wit == workers_.end()) {
        err_code = serve::kErrInvalidParams;
        err_msg = "unknown worker_id (register first)";
        return JsonValue();
    }

    JsonValue result = JsonValue::object();
    result.set("schema", JsonValue(kDistSchema));
    if (all_done()) {
        result.set("state", JsonValue("done"));
        return result;
    }

    Clock::time_point now = Clock::now();
    size_t nworkers = workers_.empty() ? 1 : workers_.size();
    uint64_t shard = wit->second.index % nworkers;

    // Shard affinity first (fingerprint hash mod fleet size), then any
    // pending job: affinity keeps a stable fleet from contending, the
    // fallback is the work stealing that keeps a drained shard busy.
    size_t chosen = jobs_.size();
    for (int pass = 0; pass < 2 && chosen == jobs_.size(); ++pass) {
        for (size_t i = 0; i < jobs_.size(); ++i) {
            const JobState& js = jobs_[i];
            if (js.phase != Phase::Pending || now < js.not_before)
                continue;
            if (pass == 0 &&
                fnv1a64(js.fingerprint) % nworkers != shard)
                continue;
            chosen = i;
            break;
        }
    }

    bool steal = false;
    if (chosen == jobs_.size()) {
        // Backoff-gated pending jobs: tell the worker when to re-ask.
        Clock::time_point earliest{};
        bool have_gated = false;
        for (const JobState& js : jobs_)
            if (js.phase == Phase::Pending &&
                (!have_gated || js.not_before < earliest)) {
                earliest = js.not_before;
                have_gated = true;
            }
        if (have_gated) {
            auto wait_ms = std::chrono::duration_cast<
                               std::chrono::milliseconds>(earliest - now)
                               .count();
            result.set("state", JsonValue("wait"));
            result.set("backoff_ms",
                       JsonValue(static_cast<uint64_t>(
                           std::clamp<long long>(wait_ms, 10, 1000))));
            return result;
        }
        // Nothing pending: steal the longest-in-flight job this worker
        // is not already running. First result wins; the loser's is
        // acknowledged as a duplicate.
        Clock::time_point oldest{};
        for (const auto& [id, lease] : leases_) {
            if (jobs_[lease.job].phase == Phase::Done)
                continue;
            bool mine = false;
            for (const auto& [id2, l2] : leases_)
                if (l2.job == lease.job && l2.worker_id == worker_id)
                    mine = true;
            if (mine)
                continue;
            if (chosen == jobs_.size() || lease.issued < oldest) {
                chosen = lease.job;
                oldest = lease.issued;
            }
        }
        if (chosen == jobs_.size()) {
            result.set("state", JsonValue("wait"));
            result.set("backoff_ms", JsonValue(uint64_t{50}));
            return result;
        }
        steal = true;
        ++stats_.steals;
    }

    JobState& js = jobs_[chosen];
    uint64_t lease_id = next_lease_id_++;
    Lease lease;
    lease.job = chosen;
    lease.worker_id = worker_id;
    lease.conn_id = 0; // filled by caller (handle_payload knows the conn)
    lease.issued = now;
    lease.deadline = now + std::chrono::milliseconds(opts_.lease_ms);
    leases_.emplace(lease_id, lease);
    js.phase = Phase::Leased;
    ++js.lease_attempts;
    ++stats_.leases_issued;
    ++wit->second.leases;
    (void)steal;

    result.set("state", JsonValue("job"));
    result.set("lease", JsonValue(lease_id));
    result.set("name", JsonValue(js.spec.name));
    result.set("source", JsonValue(js.text));
    if (!js.spec.top.empty())
        result.set("top", JsonValue(js.spec.top));
    result.set("timeout_ms", JsonValue(js.spec.timeout_ms
                                           ? js.spec.timeout_ms
                                           : opts_.timeout_ms));
    result.set("fingerprint", JsonValue(js.fingerprint));
    if (js.spec.hunt_depth > 0)
        result.set("hunt", JsonValue(js.spec.hunt_depth));
    return result;
}

JsonValue Coordinator::do_result(const JsonValue& params, Conn& conn) {
    (void)conn;
    uint64_t lease_id = params.get_uint("lease");
    std::string fingerprint = params.get_string("fingerprint");
    std::string name = params.get_string("name");

    size_t idx = jobs_.size();
    auto lit = leases_.find(lease_id);
    if (lit != leases_.end()) {
        idx = lit->second.job;
        leases_.erase(lit);
    } else {
        // The lease may have expired or been reclaimed while the worker
        // was still (honestly) computing; the work is no less valid, so
        // locate the job by fingerprint, then name.
        for (size_t i = 0; i < jobs_.size() && idx == jobs_.size(); ++i)
            if (!fingerprint.empty() &&
                jobs_[i].fingerprint == fingerprint)
                idx = i;
        for (size_t i = 0; i < jobs_.size() && idx == jobs_.size(); ++i)
            if (jobs_[i].spec.name == name)
                idx = i;
    }

    JsonValue result = JsonValue::object();
    if (idx == jobs_.size()) {
        result.set("accepted", JsonValue(false));
        result.set("duplicate", JsonValue(false));
        return result;
    }
    JobState& js = jobs_[idx];
    if (js.phase == Phase::Done) {
        ++stats_.duplicate_results;
        result.set("accepted", JsonValue(false));
        result.set("duplicate", JsonValue(true));
        return result;
    }

    std::string status = params.get_string("status");
    driver::JobResult res;
    if (status == "secure" || status == "rejected") {
        std::string payload;
        incr::StoredVerdict v;
        if (!hex_decode(params.get_string("verdict"), payload) ||
            !incr::decode_stored_verdict(payload, v)) {
            // A result we cannot decode decides nothing: count it, put
            // the job back in the pool, and let another lease retire it.
            ++stats_.corrupt_results;
            js.phase = Phase::Pending;
            js.not_before = Clock::now() + std::chrono::milliseconds(
                                               opts_.backoff_ms);
            result.set("accepted", JsonValue(false));
            result.set("duplicate", JsonValue(false));
            return result;
        }
        res = driver::job_result_from_verdict(js.spec.name, js.fingerprint,
                                              std::move(v),
                                              params.get_bool("skipped"));
        res.solver.queries = params.get_uint("queries");
        res.solver.syntactic_hits = params.get_uint("syntactic");
        res.solver.conflicts = params.get_uint("conflicts");
        res.solver.propagations = params.get_uint("propagations");
        res.solver.learned_clauses = params.get_uint("learned_clauses");
        res.solver.restarts = params.get_uint("restarts");
        if (store_)
            driver::store_job_verdict(*store_, js.fingerprint, res);
    } else {
        res.name = js.spec.name;
        res.fingerprint = js.fingerprint;
        res.status = status == "timeout" ? driver::JobStatus::Timeout
                                         : driver::JobStatus::Error;
        res.diagnostics = params.get_string("diagnostics");
        res.attempts = 1;
    }
    decide(idx, std::move(res));
    ++stats_.results_accepted;
    if (auto wit = workers_.find(params.get_uint("worker_id"));
        wit != workers_.end())
        ++wit->second.results;
    result.set("accepted", JsonValue(true));
    result.set("duplicate", JsonValue(false));
    return result;
}

JsonValue Coordinator::do_sync(const JsonValue& params) {
    JsonValue want_verdicts = JsonValue::array();
    if (const JsonValue* verdicts = params.find("verdicts");
        verdicts && verdicts->is_array() && store_) {
        for (const JsonValue& fp : verdicts->items())
            if (fp.is_string() && !store_->has_verdict(fp.str()))
                want_verdicts.push_back(fp);
    }
    JsonValue want_obligations = JsonValue::array();
    if (const JsonValue* obligations = params.find("obligations");
        obligations && obligations->is_array() && store_) {
        for (const JsonValue& fp : obligations->items())
            if (fp.is_string() && !store_->has_obligation(fp.str()))
                want_obligations.push_back(fp);
    }
    JsonValue result = JsonValue::object();
    result.set("schema", JsonValue(kDistSchema));
    result.set("want_verdicts", std::move(want_verdicts));
    result.set("want_obligations", std::move(want_obligations));
    return result;
}

JsonValue Coordinator::do_push(const JsonValue& params) {
    uint64_t verdicts_merged = 0;
    uint64_t obligations_merged = 0;
    uint64_t corrupt = 0;
    if (const JsonValue* verdicts = params.find("verdicts");
        verdicts && verdicts->is_array()) {
        for (const JsonValue& item : verdicts->items()) {
            std::string fp = item.get_string("fp");
            std::string payload;
            incr::StoredVerdict v;
            if (fp.empty() ||
                !hex_decode(item.get_string("data"), payload) ||
                !incr::decode_stored_verdict(payload, v)) {
                ++corrupt;
                continue;
            }
            if (store_ && !store_->has_verdict(fp) &&
                store_->store_verdict(fp, v))
                ++verdicts_merged;
        }
    }
    if (const JsonValue* obligations = params.find("obligations");
        obligations && obligations->is_array()) {
        for (const JsonValue& item : obligations->items()) {
            std::string fp = item.get_string("fp");
            std::string payload;
            incr::StoredObligation o;
            if (fp.empty() ||
                !hex_decode(item.get_string("data"), payload) ||
                !incr::decode_stored_obligation(payload, o)) {
                ++corrupt;
                continue;
            }
            if (store_ && !store_->has_obligation(fp) &&
                store_->store_obligation(fp, o))
                ++obligations_merged;
        }
    }
    stats_.sync_verdicts_received += verdicts_merged;
    stats_.sync_obligations_received += obligations_merged;
    JsonValue result = JsonValue::object();
    result.set("verdicts_merged", JsonValue(verdicts_merged));
    result.set("obligations_merged", JsonValue(obligations_merged));
    result.set("corrupt_skipped", JsonValue(corrupt));
    return result;
}

JsonValue Coordinator::do_status() {
    size_t pending = 0, leased = 0;
    for (const JobState& js : jobs_) {
        pending += js.phase == Phase::Pending;
        leased += js.phase == Phase::Leased;
    }
    JsonValue result = JsonValue::object();
    result.set("schema", JsonValue(kDistSchema));
    result.set("jobs", JsonValue(static_cast<uint64_t>(jobs_.size())));
    result.set("done", JsonValue(static_cast<uint64_t>(done_count_)));
    result.set("pending", JsonValue(static_cast<uint64_t>(pending)));
    result.set("leased", JsonValue(static_cast<uint64_t>(leased)));
    result.set("workers",
               JsonValue(static_cast<uint64_t>(workers_.size())));
    result.set("outstanding_leases",
               JsonValue(static_cast<uint64_t>(leases_.size())));
    JsonValue counters = JsonValue::object();
    counters.set("leases_issued", JsonValue(stats_.leases_issued));
    counters.set("leases_expired", JsonValue(stats_.leases_expired));
    counters.set("leases_reclaimed", JsonValue(stats_.leases_reclaimed));
    counters.set("steals", JsonValue(stats_.steals));
    counters.set("results_accepted", JsonValue(stats_.results_accepted));
    counters.set("duplicate_results", JsonValue(stats_.duplicate_results));
    counters.set("store_skips", JsonValue(stats_.store_skips));
    result.set("stats", std::move(counters));
    return result;
}

void Coordinator::handle_payload(Conn& conn, const std::string& payload) {
    serve::RpcMessage msg;
    std::string error;
    std::string reply;
    if (!serve::parse_rpc(payload, msg, error)) {
        reply = serve::make_error(JsonValue(), serve::kErrParse, error);
    } else if (msg.is_response) {
        return; // workers do not answer the coordinator
    } else {
        JsonValue id = msg.has_id ? msg.id : JsonValue();
        int code = serve::kErrServer;
        std::string message;
        if (msg.method == "register") {
            JsonValue result = do_register(msg.params, conn, code, message);
            reply = result.is_object()
                        ? serve::make_response(id, result)
                        : serve::make_error(id, code, message);
        } else if (msg.method == "lease") {
            JsonValue result = do_lease(msg.params, code, message);
            if (result.is_object()) {
                // Bind the fresh lease (if any) to this connection so a
                // worker death reclaims exactly its jobs.
                if (const JsonValue* lease = result.find("lease")) {
                    auto it = leases_.find(lease->uint_val());
                    if (it != leases_.end())
                        it->second.conn_id = conn.id;
                }
                reply = serve::make_response(id, result);
            } else {
                reply = serve::make_error(id, code, message);
            }
        } else if (msg.method == "result") {
            reply = serve::make_response(id, do_result(msg.params, conn));
        } else if (msg.method == "sync") {
            reply = serve::make_response(id, do_sync(msg.params));
        } else if (msg.method == "push") {
            reply = serve::make_response(id, do_push(msg.params));
        } else if (msg.method == "status") {
            reply = serve::make_response(id, do_status());
        } else if (msg.method == "shutdown") {
            JsonValue result = JsonValue::object();
            result.set("ok", JsonValue(true));
            reply = serve::make_response(id, result);
            stop_.store(true, std::memory_order_relaxed);
        } else {
            reply = serve::make_error(id, serve::kErrMethodNotFound,
                                      "unknown method '" + msg.method + "'");
        }
        if (!msg.has_id)
            return;
    }
    std::string send_error;
    if (!net::write_frame(conn.stream, reply, send_error))
        conn.dead = true;
}

driver::BatchReport Coordinator::run() {
    driver::BatchReport report;
    report.store_enabled = store_ != nullptr;
    report.timeout_ms = opts_.timeout_ms;
    report.solver_backend = solver::backend_id(opts_.check.solver.backend);
    if (!started_) {
        std::fprintf(stderr, "svlc coordinator: run() before start()\n");
        return report;
    }

    incr::ArtifactStore::Stats store_before;
    if (store_)
        store_before = store_->stats();
    Clock::time_point start = Clock::now();
    Clock::time_point done_since{};
    bool done_seen = false;

    while (!stop_.load(std::memory_order_relaxed)) {
        if (all_done()) {
            // Linger so connected workers can run their final sync/push;
            // exit as soon as the fleet has hung up (or after drain_ms,
            // so one zombie connection cannot pin the batch open).
            if (!done_seen) {
                done_seen = true;
                done_since = Clock::now();
            }
            if (conns_.empty() ||
                ms_since(done_since) >=
                    static_cast<double>(opts_.drain_ms))
                break;
        }

        std::vector<pollfd> fds;
        fds.push_back({listener_->fd(), POLLIN, 0});
        fds.push_back({wake_pipe_[0], POLLIN, 0});
        for (const auto& c : conns_)
            fds.push_back({c->stream.fd(), POLLIN, 0});

        // A fixed tick bounds how stale lease deadlines can get; the
        // coordinator's work per tick is microseconds.
        int rc = ::poll(fds.data(), fds.size(), 100);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            std::fprintf(stderr, "svlc coordinator: poll: %s\n",
                         std::strerror(errno));
            break;
        }

        if (rc > 0 && (fds[1].revents & POLLIN)) {
            char buf[64];
            while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
            }
        }

        size_t i = 0;
        for (auto it = conns_.begin();
             it != conns_.end() && i + 2 < fds.size(); ++it, ++i) {
            Conn& conn = **it;
            short revents = fds[i + 2].revents;
            if (revents & (POLLERR | POLLNVAL)) {
                conn.dead = true;
                continue;
            }
            if (!(revents & (POLLIN | POLLHUP)))
                continue;
            std::string chunk;
            long n = conn.stream.read_some(chunk);
            if (n <= 0) {
                conn.dead = true;
                continue;
            }
            conn.fb.append(chunk);
            for (;;) {
                std::string payload;
                std::string frame_error;
                auto st = conn.fb.next(payload, frame_error);
                if (st == net::FrameBuffer::Status::Need)
                    break;
                if (st == net::FrameBuffer::Status::Error) {
                    std::string send_error;
                    net::write_frame(conn.stream,
                                     serve::make_error(
                                         JsonValue(),
                                         serve::kErrInvalidRequest,
                                         frame_error),
                                     send_error);
                    conn.dead = true;
                    break;
                }
                handle_payload(conn, payload);
                if (conn.dead)
                    break;
            }
        }
        // A dead connection reclaims its leases before removal — this is
        // the worker-death path that re-issues in-flight jobs.
        for (const auto& c : conns_)
            if (c->dead || !c->stream.valid())
                drop_conn_leases(c->id);
        conns_.remove_if([](const std::unique_ptr<Conn>& c) {
            return c->dead || !c->stream.valid();
        });
        check_deadlines();
        if (rc > 0 && (fds[0].revents & POLLIN)) {
            for (;;) {
                std::string accept_error;
                auto stream = listener_->accept(accept_error);
                if (!stream)
                    break;
                conns_.push_back(std::make_unique<Conn>(
                    next_conn_id_++, std::move(*stream)));
            }
        }
    }

    // Whatever ended the loop, undecided jobs report as infrastructure
    // errors (never silently dropped).
    for (size_t idx = 0; idx < jobs_.size(); ++idx) {
        if (jobs_[idx].phase == Phase::Done)
            continue;
        driver::JobResult res;
        res.name = jobs_[idx].spec.name;
        res.status = driver::JobStatus::Error;
        res.diagnostics = "coordinator stopped before the job was decided";
        decide(idx, std::move(res));
    }
    conns_.clear();
    listener_->close_and_unlink();

    report.results.reserve(jobs_.size());
    for (JobState& js : jobs_)
        report.results.push_back(std::move(js.result));
    report.workers = stats_.workers_registered ? stats_.workers_registered
                                               : 1;
    report.wall_ms = ms_since(start);
    if (store_)
        report.store = store_->stats().since(store_before);
    return report;
}

std::vector<WorkerSummary> Coordinator::worker_summaries() const {
    std::vector<WorkerSummary> out(workers_.size());
    for (const auto& [id, info] : workers_)
        out[info.index] = {info.name, info.leases, info.results};
    return out;
}

} // namespace svlc::dist
