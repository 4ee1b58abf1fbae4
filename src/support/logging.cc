#include "support/logging.h"

#include <cstdio>
#include <cstdlib>

namespace pibe {

namespace detail {

void
logMessage(const char* tag, const std::string& msg)
{
    std::fprintf(stderr, "[%s] %s\n", tag, msg.c_str());
}

void
fatalImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "[fatal] %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "[panic] %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

} // namespace detail
} // namespace pibe
