#include "serve/client.hpp"

#include "support/fsutil.hpp"

namespace svlc::serve {

std::optional<Client> Client::connect(const std::string& socket_path,
                                      std::string& error) {
    auto stream = net::UnixStream::connect(socket_path, error);
    if (!stream)
        return std::nullopt;
    return Client(std::move(*stream));
}

std::optional<Client> Client::connect(const std::string& socket_path,
                                      const net::RetryOptions& retry,
                                      std::string& error) {
    auto stream = net::connect_with_retry(socket_path, retry, error);
    if (!stream)
        return std::nullopt;
    return Client(std::move(*stream));
}

bool Client::call(const std::string& method, const JsonValue& params,
                  RpcMessage& response, std::string& error,
                  std::vector<RpcMessage>* notifications) {
    uint64_t id = next_id_++;
    if (!net::write_frame(stream_, make_request(id, method, params), error))
        return false;
    for (;;) {
        std::string payload;
        if (!net::read_frame(stream_, fb_, payload, error))
            return false;
        RpcMessage msg;
        if (!parse_rpc(payload, msg, error))
            return false;
        if (!msg.is_response) {
            if (notifications)
                notifications->push_back(std::move(msg));
            continue;
        }
        if (!(msg.id == JsonValue(id))) {
            // Single in-flight request per client; a stray id is a
            // server bug, not something to wait out.
            error = "response id does not match request";
            return false;
        }
        response = std::move(msg);
        return true;
    }
}

bool remote_check(const std::string& socket_path, const std::string& file,
                  const std::string& top, const check::CheckOptions& copts,
                  RemoteCheckResult& out, const net::RetryOptions& retry) {
    std::string source;
    if (!read_file(file, source))
        return false;
    std::string error;
    auto client = Client::connect(socket_path, retry, error);
    if (!client)
        return false;

    JsonValue options = JsonValue::object();
    options.set("classic",
                JsonValue(copts.mode ==
                          check::CheckerMode::ClassicSecVerilog));
    options.set("no_hold", JsonValue(!copts.hold_obligations));

    JsonValue params = JsonValue::object();
    params.set("name", JsonValue(file));
    params.set("source", JsonValue(source));
    if (!top.empty())
        params.set("top", JsonValue(top));
    params.set("options", std::move(options));

    RpcMessage response;
    if (!client->call("verify", params, response, error) ||
        !response.has_result)
        return false;
    const JsonValue& r = response.result;
    out.status = r.get_string("status");
    out.human = r.get_string("human");
    out.diagnostics = r.get_string("diagnostics");
    out.report_json = r.get_string("report");
    out.stats_line = r.get_string("stats_line");
    out.cached = r.get_bool("cached");
    return !out.status.empty();
}

} // namespace svlc::serve
