/**
 * @file
 * The one wall clock of the library, the tools and the benchmarks:
 * every reported duration is read from a Stopwatch, so stage times
 * come off one monotonic clock and can be summed against the whole.
 */
#ifndef PIBE_SUPPORT_TIMER_H_
#define PIBE_SUPPORT_TIMER_H_

#include <chrono>

namespace pibe {

/** Monotonic wall-clock stopwatch; starts when constructed. */
class Stopwatch
{
  public:
    Stopwatch() : start_(Clock::now()) {}

    /** Milliseconds since construction or the last lapMs(). */
    double
    ms() const
    {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         start_)
            .count();
    }

    /** Milliseconds since construction or the last lapMs(); then
     *  restarts, so consecutive laps tile the elapsed time. */
    double
    lapMs()
    {
        const Clock::time_point now = Clock::now();
        const double elapsed =
            std::chrono::duration<double, std::milli>(now - start_)
                .count();
        start_ = now;
        return elapsed;
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

} // namespace pibe

#endif // PIBE_SUPPORT_TIMER_H_
