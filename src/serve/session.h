/**
 * @file
 * One client connection of the serve daemon.
 *
 * A session owns a connected socket and runs a synchronous loop: read
 * a frame, parse the request envelope, hand it to the server's
 * dispatcher, write the response frame. Malformed JSON gets an error
 * response (the connection survives); a broken frame or EOF ends the
 * session. Concurrency comes from running many sessions — the heavy
 * lifting inside a request is fanned into the shared ThreadPool by
 * the dispatcher, never done per-connection.
 */
#ifndef PIBE_SERVE_SESSION_H_
#define PIBE_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "support/json.h"

namespace pibe::serve {

/** One connection's read-dispatch-respond loop. */
class Session
{
  public:
    /** Maps a request envelope to a response envelope. */
    using Handler = std::function<Json(const Json& request)>;

    /** Takes ownership of the connected `fd`. */
    Session(int fd, Handler handler);

    /** Closes the socket if still open. */
    ~Session();

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /** Serve requests until EOF, error, or forceClose(). */
    void run();

    /**
     * Unblock run() from another thread (daemon shutdown): shuts the
     * socket down for reading and writing, making the blocked read
     * return EOF. Idempotent.
     */
    void forceClose();

    uint64_t requestsServed() const { return requests_served_; }

  private:
    int fd_;
    Handler handler_;
    std::atomic<bool> closing_{false};
    std::atomic<uint64_t> requests_served_{0};
};

} // namespace pibe::serve

#endif // PIBE_SERVE_SESSION_H_
