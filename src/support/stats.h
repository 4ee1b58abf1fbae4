/**
 * @file
 * Small statistics helpers used throughout the evaluation harness:
 * medians (the paper reports medians of >= 11 runs), geometric means
 * (the paper's aggregate metric), and overhead formatting.
 */
#ifndef PIBE_SUPPORT_STATS_H_
#define PIBE_SUPPORT_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pibe {

/** Median of a sample; averages the two middle values for even sizes. */
double median(std::vector<double> values);

/** Arithmetic mean. @pre values non-empty. */
double mean(const std::vector<double>& values);

/**
 * Nearest-rank percentile, `p` in [0, 1]: the value at sorted index
 * min(n - 1, floor(p * n)). 0 for an empty sample.
 */
double percentile(std::vector<double> values, double p);

/** Sample standard deviation (n-1 denominator); 0 for size < 2. */
double stddev(const std::vector<double>& values);

/**
 * Geometric mean of overhead ratios.
 *
 * Inputs are overheads as fractions (0.10 == +10%); the geomean is
 * computed over the ratios (1 + overhead) and converted back, matching
 * how the paper aggregates LMBench overheads (negative overheads, i.e.
 * speedups, are well-defined).
 */
double geomeanOverhead(const std::vector<double>& overheads);

/** Relative overhead of `value` versus `baseline` as a fraction. */
double overhead(double value, double baseline);

/** Format a fraction as a signed percentage string, e.g. "-6.6%". */
std::string percent(double fraction, int decimals = 1);

/** Format a double with fixed decimals, e.g. fixedStr(3.14159, 2). */
std::string fixedStr(double value, int decimals);

} // namespace pibe

#endif // PIBE_SUPPORT_STATS_H_
