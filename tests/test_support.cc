/** @file Unit tests for src/support (stats, rng, table). */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <optional>

#include "support/json.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"

namespace pibe {
namespace {

TEST(Stats, MedianOddSample)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({5}), 5.0);
}

TEST(Stats, MedianEvenSampleAveragesMiddle)
{
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, MedianDoesNotMutateCallerVisibleOrder)
{
    std::vector<double> v{9, 1, 5};
    EXPECT_DOUBLE_EQ(median(v), 5.0);
}

TEST(Stats, PercentileIsNearestRank)
{
    // Index min(n - 1, floor(p * n)) of the sorted sample.
    const std::vector<double> v{40, 10, 30, 20};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.50), 30.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.99), 40.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Stats, Mean)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
}

TEST(Stats, StddevOfConstantIsZero)
{
    EXPECT_DOUBLE_EQ(stddev({5, 5, 5}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({42}), 0.0);
}

TEST(Stats, StddevSimpleSample)
{
    EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 1e-3);
}

TEST(Stats, GeomeanOfIdenticalOverheads)
{
    EXPECT_NEAR(geomeanOverhead({0.5, 0.5, 0.5}), 0.5, 1e-12);
}

TEST(Stats, GeomeanHandlesSpeedups)
{
    // (0.9 * 1.1)^(1/2) - 1 < 0.0 -- slight net speedup.
    double g = geomeanOverhead({-0.1, 0.1});
    EXPECT_LT(g, 0.0);
    EXPECT_NEAR(g, std::sqrt(0.9 * 1.1) - 1.0, 1e-12);
}

TEST(Stats, GeomeanZeroOverheadsIsZero)
{
    EXPECT_DOUBLE_EQ(geomeanOverhead({0.0, 0.0}), 0.0);
}

TEST(Stats, OverheadFraction)
{
    EXPECT_DOUBLE_EQ(overhead(150.0, 100.0), 0.5);
    EXPECT_DOUBLE_EQ(overhead(90.0, 100.0), -0.1);
}

TEST(Stats, PercentFormatting)
{
    EXPECT_EQ(percent(0.066), "6.6%");
    EXPECT_EQ(percent(-0.066), "-6.6%");
    EXPECT_EQ(percent(1.491), "149.1%");
    EXPECT_EQ(percent(0.12345, 2), "12.35%");
}

TEST(Stats, FixedStr)
{
    EXPECT_EQ(fixedStr(3.14159, 2), "3.14");
    EXPECT_EQ(fixedStr(0.5, 0), "0");
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        uint64_t v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(11);
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 9000; ++i)
        ++counts[rng.weightedIndex({1.0, 2.0, 6.0})];
    EXPECT_GT(counts[2], counts[1]);
    EXPECT_GT(counts[1], counts[0]);
    EXPECT_NEAR(counts[2] / 9000.0, 6.0 / 9.0, 0.05);
}

TEST(Rng, ZipfSkewsTowardLowIndices)
{
    Rng rng(13);
    int counts[8] = {};
    for (int i = 0; i < 8000; ++i)
        ++counts[rng.zipf(8, 1.0)];
    EXPECT_GT(counts[0], counts[3]);
    EXPECT_GT(counts[0], counts[7]);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"Test", "Value"});
    t.addRow({"null", "0.14"});
    t.addRow({"select_tcp", "9.38"});
    std::string out = t.render();
    EXPECT_NE(out.find("| Test"), std::string::npos);
    EXPECT_NE(out.find("| select_tcp | 9.38"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, SeparatorRows)
{
    Table t({"A"});
    t.addRow({"x"});
    t.addSeparator();
    t.addRow({"y"});
    std::string out = t.render();
    // Header sep + top + bottom + explicit = 4 separator lines.
    size_t seps = 0;
    for (size_t pos = 0; (pos = out.find("|-", pos)) != std::string::npos;
         ++pos)
        ++seps;
    EXPECT_EQ(seps, 4u);
}


TEST(Json, ParseDumpRoundTrip)
{
    const std::string text =
        R"({"a":[1,2.5,"x",true,null],"b":{"nested":"\"quoted\""},"n":-7})";
    std::optional<Json> parsed = Json::parse(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ((*parsed)["n"].asInt(), -7);
    EXPECT_EQ((*parsed)["a"].at(1).asDouble(), 2.5);
    EXPECT_EQ((*parsed)["a"].at(2).asString(), "x");
    EXPECT_TRUE((*parsed)["a"].at(3).asBool());
    EXPECT_TRUE((*parsed)["a"].at(4).isNull());
    EXPECT_EQ((*parsed)["b"]["nested"].asString(), "\"quoted\"");
    // Dump is canonical: re-parsing the dump dumps identically.
    std::optional<Json> again = Json::parse(parsed->dump());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->dump(), parsed->dump());
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_FALSE(Json::parse("").has_value());
    EXPECT_FALSE(Json::parse("{").has_value());
    EXPECT_FALSE(Json::parse("{\"a\":1} trailing").has_value());
    EXPECT_FALSE(Json::parse("{'single':1}").has_value());
    EXPECT_FALSE(Json::parse("nul").has_value());
    // Depth bomb must be rejected, not crash the parser.
    std::string deep(1000, '[');
    deep += std::string(1000, ']');
    EXPECT_FALSE(Json::parse(deep).has_value());
}

TEST(Json, DoublesAndIntegersRoundTripExactly)
{
    const double awkward = 0.56423000000000001;
    Json obj = Json::object();
    obj.set("d", awkward);
    obj.set("i", static_cast<int64_t>(1772326887));
    std::optional<Json> parsed = Json::parse(obj.dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(std::bit_cast<uint64_t>((*parsed)["d"].asDouble()),
              std::bit_cast<uint64_t>(awkward));
    // Integers stay integers (no exponent, no fraction).
    EXPECT_NE(obj.dump().find("1772326887"), std::string::npos);
    EXPECT_EQ((*parsed)["i"].asInt(), 1772326887);
}

// JSON has no NaN or infinity: dump() writes them as null, so a
// non-finite measurement cannot make a whole document unparsable.
TEST(Json, NonFiniteNumbersDumpAsNull)
{
    Json obj = Json::object();
    obj.set("x", std::nan(""));
    obj.set("y", HUGE_VAL);
    obj.set("z", -HUGE_VAL);
    EXPECT_EQ(obj.dump(), R"({"x":null,"y":null,"z":null})");
    const std::optional<Json> parsed = Json::parse(obj.dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE((*parsed)["x"].isNull());
}

// Doubles print as the shortest text that parses back to the same
// bits, not as 17 significant digits.
TEST(Json, DoublesPrintShortestRoundTrip)
{
    EXPECT_EQ(Json(0.1).dump(), "0.1");
    EXPECT_EQ(Json(2.5).dump(), "2.5");
    EXPECT_EQ(Json(1.0 / 3.0).dump(), "0.3333333333333333");
    for (const double d : {0.1, 1.0 / 3.0, 5e-324, 1.7976931348623157e308,
                           -123.456, 1e21}) {
        const std::optional<Json> parsed = Json::parse(Json(d).dump());
        ASSERT_TRUE(parsed.has_value()) << Json(d).dump();
        EXPECT_EQ(std::bit_cast<uint64_t>(parsed->asDouble()),
                  std::bit_cast<uint64_t>(d))
            << Json(d).dump();
    }
}

TEST(TableDeath, ArityMismatchPanics)
{
    Table t({"A", "B"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row arity");
}

} // namespace
} // namespace pibe
