/**
 * @file
 * Status and error reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (library bugs), fatal() is for unrecoverable user errors
 * (bad configuration, malformed input), warn()/inform() are advisory.
 */
#ifndef PIBE_SUPPORT_LOGGING_H_
#define PIBE_SUPPORT_LOGGING_H_

#include <sstream>
#include <string>

namespace pibe {

namespace detail {

/** Print a tagged message to stderr. */
void logMessage(const char* tag, const std::string& msg);

/** Print a fatal error and exit(1). Used for user-caused conditions. */
[[noreturn]] void fatalImpl(const char* file, int line, const std::string& msg);

/** Print a panic message and abort(). Used for internal bugs. */
[[noreturn]] void panicImpl(const char* file, int line, const std::string& msg);

/** Variadic stream-style string building. */
template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/** Informative message the user should see but not worry about. */
template <typename... Args>
void
inform(Args&&... args)
{
    detail::logMessage("info", detail::concat(std::forward<Args>(args)...));
}

/** Warning: something may not behave as well as it should. */
template <typename... Args>
void
warn(Args&&... args)
{
    detail::logMessage("warn", detail::concat(std::forward<Args>(args)...));
}

} // namespace pibe

/** Unrecoverable user error: print message and exit(1). */
#define PIBE_FATAL(...)                                                       \
    ::pibe::detail::fatalImpl(__FILE__, __LINE__,                             \
                              ::pibe::detail::concat(__VA_ARGS__))

/** Internal invariant violation: print message and abort(). */
#define PIBE_PANIC(...)                                                       \
    ::pibe::detail::panicImpl(__FILE__, __LINE__,                             \
                              ::pibe::detail::concat(__VA_ARGS__))

/** Check an internal invariant; panics with the condition text on failure. */
#define PIBE_ASSERT(cond, ...)                                                \
    do {                                                                      \
        if (!(cond)) {                                                        \
            ::pibe::detail::panicImpl(                                        \
                __FILE__, __LINE__,                                           \
                ::pibe::detail::concat("assertion failed: " #cond " ",        \
                                       ##__VA_ARGS__));                       \
        }                                                                     \
    } while (false)

#endif // PIBE_SUPPORT_LOGGING_H_
