#include "support/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "support/logging.h"

namespace pibe {

double
median(std::vector<double> values)
{
    PIBE_ASSERT(!values.empty(), "median of empty sample");
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    if (n % 2 == 1)
        return values[n / 2];
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t rank = std::min(
        values.size() - 1,
        static_cast<size_t>(p * static_cast<double>(values.size())));
    return values[rank];
}

double
mean(const std::vector<double>& values)
{
    PIBE_ASSERT(!values.empty(), "mean of empty sample");
    double sum = 0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
stddev(const std::vector<double>& values)
{
    if (values.size() < 2)
        return 0.0;
    const double m = mean(values);
    double acc = 0;
    for (double v : values)
        acc += (v - m) * (v - m);
    return std::sqrt(acc / static_cast<double>(values.size() - 1));
}

double
geomeanOverhead(const std::vector<double>& overheads)
{
    PIBE_ASSERT(!overheads.empty(), "geomean of empty sample");
    double log_sum = 0;
    for (double o : overheads) {
        const double ratio = 1.0 + o;
        PIBE_ASSERT(ratio > 0, "overhead ratio must be positive, got ", ratio);
        log_sum += std::log(ratio);
    }
    return std::exp(log_sum / static_cast<double>(overheads.size())) - 1.0;
}

double
overhead(double value, double baseline)
{
    PIBE_ASSERT(baseline > 0, "overhead baseline must be positive");
    return value / baseline - 1.0;
}

std::string
percent(double fraction, int decimals)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
    return buf;
}

std::string
fixedStr(double value, int decimals)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

} // namespace pibe
