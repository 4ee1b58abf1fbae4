/**
 * @file
 * Wire protocol of `pibe serve`.
 *
 * Transport: a unix-domain stream socket and/or a localhost TCP
 * socket. Framing: 4-byte big-endian payload length followed by that
 * many bytes of JSON. Frames above kMaxFrameBytes are rejected — a
 * garbage length prefix must not make the daemon allocate gigabytes.
 *
 * Requests:  {"id": <n>, "op": "<name>", "params": {...}}
 * Responses: {"id": <n>, "ok": true,  "result": {...}}
 *            {"id": <n>, "ok": false, "error": "<message>"}
 *
 * One request maps to one response; responses on a connection are
 * sent in request order (sessions are synchronous), so a client may
 * simply alternate write/read. `id` is echoed verbatim for clients
 * that want to pipeline anyway.
 */
#ifndef PIBE_SERVE_PROTOCOL_H_
#define PIBE_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/json.h"

namespace pibe::serve {

/** The protocol's message type; serve code names it serve::Json. */
using pibe::Json;

/** Upper bound on one frame's payload (64 MiB). */
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/**
 * Write one length-prefixed frame. Returns false on any socket error
 * (peer gone, payload oversized). Never raises SIGPIPE.
 */
bool writeFrame(int fd, std::string_view payload);

/**
 * Read one length-prefixed frame. std::nullopt on clean EOF, socket
 * error, or an oversized/garbage length prefix.
 */
std::optional<std::string> readFrame(int fd);

/** writeFrame(json.dump()). */
bool writeMessage(int fd, const Json& message);

/** readFrame + Json::parse; std::nullopt if either fails. */
std::optional<Json> readMessage(int fd);

/** Build a request envelope. */
Json makeRequest(uint64_t id, const std::string& op, Json params);

/** Build a success response echoing `id`. */
Json makeResponse(uint64_t id, Json result);

/** Build an error response echoing `id`. */
Json makeErrorResponse(uint64_t id, const std::string& message);

// ---------------------------------------------------------------------
// Socket setup. All return a file descriptor, or -1 with a warning.

/** Bind + listen on a unix socket, replacing a stale socket file. */
int listenUnix(const std::string& path);

/**
 * Bind + listen on 127.0.0.1:`port` (0 = ephemeral). `*bound_port`
 * receives the actual port when non-null.
 */
int listenTcp(uint16_t port, uint16_t* bound_port = nullptr);

/** Connect to a unix socket. */
int connectUnix(const std::string& path);

/** Connect to `host`:`port` (numeric IPv4 host). */
int connectTcp(const std::string& host, uint16_t port);

} // namespace pibe::serve

#endif // PIBE_SERVE_PROTOCOL_H_
