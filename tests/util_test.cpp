// Tests for the utility foundation: strong ids, units, discretization.
#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

#include "util/error.hpp"
#include "util/ids.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace etcs {
namespace {

TEST(Ids, DefaultConstructedIsInvalid) {
    NodeId id;
    EXPECT_FALSE(id.valid());
}

TEST(Ids, ValueRoundTrip) {
    NodeId id(7u);
    EXPECT_TRUE(id.valid());
    EXPECT_EQ(id.get(), 7u);
}

TEST(Ids, Ordering) {
    EXPECT_LT(NodeId(1u), NodeId(2u));
    EXPECT_EQ(NodeId(3u), NodeId(3u));
    EXPECT_NE(NodeId(3u), NodeId(4u));
}

TEST(Ids, DistinctTagsAreDistinctTypes) {
    static_assert(!std::is_same_v<NodeId, TrackId>);
    static_assert(!std::is_same_v<SegmentId, SegNodeId>);
}

TEST(Ids, Hashable) {
    std::unordered_set<TrainId> set;
    set.insert(TrainId(1u));
    set.insert(TrainId(2u));
    set.insert(TrainId(1u));
    EXPECT_EQ(set.size(), 2u);
}

TEST(Ids, Increment) {
    SegmentId id(0u);
    ++id;
    EXPECT_EQ(id.get(), 1u);
}

TEST(Ids, StreamOutput) {
    std::ostringstream os;
    os << NodeId(5u) << " " << NodeId();
    EXPECT_EQ(os.str(), "5 <invalid>");
}

TEST(Units, MetersFromKilometers) {
    EXPECT_EQ(Meters::fromKilometers(1.5).count(), 1500);
    EXPECT_EQ(Meters::fromKilometers(0.5).kilometers(), 0.5);
}

TEST(Units, MetersArithmetic) {
    EXPECT_EQ((Meters(200) + Meters(300)).count(), 500);
    EXPECT_EQ((Meters(500) - Meters(200)).count(), 300);
    EXPECT_LT(Meters(100), Meters(200));
}

TEST(Units, SecondsFromMinutes) {
    EXPECT_EQ(Seconds::fromMinutes(0.5).count(), 30);
    EXPECT_EQ(Seconds::fromMinutes(5).count(), 300);
}

TEST(Units, ClockParseHoursMinutes) {
    EXPECT_EQ(Seconds::parse("0:01").count(), 60);
    EXPECT_EQ(Seconds::parse("0:04:30").count(), 270);
    EXPECT_EQ(Seconds::parse("1:00").count(), 3600);
    EXPECT_EQ(Seconds::parse("3:25").count(), 3 * 3600 + 25 * 60);
    EXPECT_EQ(Seconds::parse("5").count(), 300);  // bare minutes
}

TEST(Units, ClockParseRejectsGarbage) {
    EXPECT_THROW((void)Seconds::parse(""), InputError);
    EXPECT_THROW((void)Seconds::parse("abc"), InputError);
    EXPECT_THROW((void)Seconds::parse("1:2:3:4"), InputError);
    EXPECT_THROW((void)Seconds::parse("1::2"), InputError);
}

TEST(Units, ClockFormatRoundTrips) {
    for (const char* clock : {"0:00", "0:01", "0:04:30", "1:00", "3:25", "12:59:59"}) {
        const Seconds parsed = Seconds::parse(clock);
        EXPECT_EQ(Seconds::parse(parsed.clock()), parsed) << clock;
    }
    EXPECT_EQ(Seconds::parse("0:04:30").clock(), "0:04:30");
    EXPECT_EQ(Seconds::parse("0:01").clock(), "0:01");
}

TEST(Units, SpeedDistance) {
    const Speed s = Speed::fromKmPerHour(120);
    EXPECT_EQ(s.metresPerHour(), 120000);
    EXPECT_EQ(s.distanceIn(Seconds(30)).count(), 1000);
    EXPECT_EQ(s.distanceIn(Seconds(3600)).count(), 120000);
}

TEST(Resolution, SegmentsOfRoundsUp) {
    const Resolution r{Meters(500), Seconds(30)};
    EXPECT_EQ(r.segmentsOf(Meters(500)), 1);
    EXPECT_EQ(r.segmentsOf(Meters(501)), 2);
    EXPECT_EQ(r.segmentsOf(Meters(1500)), 3);
    EXPECT_EQ(r.segmentsOf(Meters(1)), 1);
}

TEST(Resolution, TrainLengthCeil) {
    const Resolution r{Meters(500), Seconds(30)};
    EXPECT_EQ(r.trainLengthSegments(Meters(400)), 1);
    EXPECT_EQ(r.trainLengthSegments(Meters(700)), 2);
    EXPECT_EQ(r.trainLengthSegments(Meters(100)), 1);
}

TEST(Resolution, SegmentsPerStepFloors) {
    const Resolution r{Meters(500), Seconds(30)};
    // 180 km/h = 1500 m per 30 s = 3 segments.
    EXPECT_EQ(r.segmentsPerStep(Speed::fromKmPerHour(180)), 3);
    // 120 km/h = 1000 m per 30 s = 2 segments.
    EXPECT_EQ(r.segmentsPerStep(Speed::fromKmPerHour(120)), 2);
    // 110 km/h = 916 m per 30 s -> floors to 1 segment.
    EXPECT_EQ(r.segmentsPerStep(Speed::fromKmPerHour(110)), 1);
}

TEST(Resolution, StepConversions) {
    const Resolution r{Meters(500), Seconds(30)};
    EXPECT_EQ(r.stepOf(Seconds(0)), 0);
    EXPECT_EQ(r.stepOf(Seconds(30)), 1);
    EXPECT_EQ(r.stepOf(Seconds(270)), 9);
    EXPECT_EQ(r.timeOf(9).count(), 270);
}

TEST(Resolution, RejectsNonPositiveInputs) {
    const Resolution r{Meters(500), Seconds(30)};
    EXPECT_THROW((void)r.segmentsOf(Meters(0)), PreconditionError);
    EXPECT_THROW((void)r.trainLengthSegments(Meters(-5)), PreconditionError);
    const Resolution bad{Meters(0), Seconds(30)};
    EXPECT_THROW((void)bad.segmentsOf(Meters(100)), PreconditionError);
}

TEST(Error, RequireMacroThrowsWithContext) {
    try {
        ETCS_REQUIRE_MSG(1 == 2, "math is broken");
        FAIL() << "expected a PreconditionError";
    } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("math is broken"), std::string::npos);
    }
}

TEST(Json, NestingDepthIsCapped) {
    const auto nested = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[') +
               std::string(static_cast<std::size_t>(depth), ']');
    };
    const int limit = util::detail::JsonParser::kMaxDepth;
    EXPECT_TRUE(util::parseJson(nested(limit)).isArray());
    EXPECT_THROW((void)util::parseJson(nested(limit + 1)), InputError);
    EXPECT_THROW((void)util::parseJson(std::string(100000, '[')), InputError);
}

}  // namespace
}  // namespace etcs
