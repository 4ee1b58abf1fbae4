/**
 * @file
 * Minimal blocking client of the serve protocol.
 *
 * One connection, synchronous call() semantics matching the server's
 * one-request-one-response ordering. Used by `pibe client`, the load
 * generator, and the serve tests.
 */
#ifndef PIBE_SERVE_CLIENT_H_
#define PIBE_SERVE_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "serve/protocol.h"

namespace pibe::serve {

/** Blocking request/response connection to a serve daemon. */
class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    Client(Client&& other) noexcept;
    Client& operator=(Client&& other) noexcept;

    /** Connect over the unix socket at `path`. */
    bool connectUnix(const std::string& path);
    /** Connect over TCP to 127.0.0.1:`port`. */
    bool connectTcp(uint16_t port);

    bool connected() const { return fd_ >= 0; }
    void close();

    /**
     * Send `{"id", "op", "params"}` and wait for the response
     * envelope. std::nullopt on transport failure (the connection is
     * closed; a protocol-level error still returns the envelope with
     * ok = false).
     */
    std::optional<Json> call(const std::string& op, Json params);

    /** Last response's `result` convenience: call + ok check. */
    std::optional<Json> callOk(const std::string& op, Json params,
                               std::string* error = nullptr);

    /**
     * Present the pre-shared token (token-gated TCP listeners refuse
     * every other op first). Harmless on trusted connections: the
     * daemon treats auth there as an idempotent success.
     */
    bool authenticate(const std::string& token,
                      std::string* error = nullptr);

  private:
    int fd_ = -1;
    uint64_t next_id_ = 1;
};

} // namespace pibe::serve

#endif // PIBE_SERVE_CLIENT_H_
