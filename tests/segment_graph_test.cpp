// Discretization and graph-algorithm tests on hand-built networks,
// including the running example's Fig. 3 graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "railway/segment_graph.hpp"
#include "studies/studies.hpp"

namespace etcs::rail {
namespace {

/// Line: A --1500m-- B --1000m-- C, two TTDs.
Network lineNetwork() {
    Network n("line");
    const auto a = n.addNode("A");
    const auto b = n.addNode("B");
    const auto c = n.addNode("C");
    const auto t1 = n.addTrack("t1", a, b, Meters(1500));
    const auto t2 = n.addTrack("t2", b, c, Meters(1000));
    n.addTtd("T1", {t1});
    n.addTtd("T2", {t2});
    n.addStation("StA", t1, Meters(0));
    n.addStation("StMid", t1, Meters(800));
    n.addStation("StC", t2, Meters(1000));
    return n;
}

/// The running example's network (Fig. 1/3): 11 segments at r_s = 0.5 km.
const studies::CaseStudy& runningStudy() {
    static const studies::CaseStudy study = studies::runningExample();
    return study;
}

constexpr Resolution kHalfKm{Meters(500), Seconds(30)};

TEST(SegmentGraph, LineDiscretization) {
    const Network n = lineNetwork();
    const SegmentGraph g(n, kHalfKm);
    EXPECT_EQ(g.numSegments(), 5u);  // 3 + 2
    EXPECT_EQ(g.numNodes(), 6u);     // A, 2 joints, B, 1 joint, C
}

TEST(SegmentGraph, FixedBordersAtEndpointsAndTtdJoints) {
    const Network n = lineNetwork();
    const SegmentGraph g(n, kHalfKm);
    int fixed = 0;
    for (std::size_t i = 0; i < g.numNodes(); ++i) {
        if (g.node(SegNodeId(i)).fixedBorder) {
            ++fixed;
        }
    }
    // A, B (TTD joint), C are fixed; the 3 split joints are not.
    EXPECT_EQ(fixed, 3);
}

TEST(SegmentGraph, PartialTrailingSegmentRoundsUp) {
    Network n("odd");
    const auto a = n.addNode("A");
    const auto b = n.addNode("B");
    const auto t = n.addTrack("t", a, b, Meters(1200));
    n.addTtd("T", {t});
    const SegmentGraph g(n, kHalfKm);
    EXPECT_EQ(g.numSegments(), 3u);  // ceil(1200/500)
}

TEST(SegmentGraph, StationSegmentLookup) {
    const Network n = lineNetwork();
    const SegmentGraph g(n, kHalfKm);
    // StA at offset 0 -> first segment of t1.
    const Segment& sa = g.segment(g.segmentOfStation(*n.findStation("StA")));
    EXPECT_EQ(sa.indexInTrack, 0);
    // StMid at 800 m -> second segment (index 1).
    const Segment& sm = g.segment(g.segmentOfStation(*n.findStation("StMid")));
    EXPECT_EQ(sm.indexInTrack, 1);
    // StC at the very end of t2 -> clamped to the last segment.
    const Segment& sc = g.segment(g.segmentOfStation(*n.findStation("StC")));
    EXPECT_EQ(sc.indexInTrack, 1);
}

TEST(SegmentGraph, RunningExampleMatchesFig3) {
    const auto& study = runningStudy();
    const SegmentGraph g(study.network, study.resolution);
    // Fig. 3: 11 edges, 11 nodes.
    EXPECT_EQ(g.numSegments(), 11u);
    EXPECT_EQ(g.numNodes(), 11u);
}

TEST(SegmentGraph, SharedNode) {
    const Network n = lineNetwork();
    const SegmentGraph g(n, kHalfKm);
    EXPECT_TRUE(g.sharedNode(SegmentId(0u), SegmentId(1u)).valid());
    EXPECT_FALSE(g.sharedNode(SegmentId(0u), SegmentId(2u)).valid());
}

TEST(SegmentGraph, ChainsOfLengthOneAreSegments) {
    const Network n = lineNetwork();
    const SegmentGraph g(n, kHalfKm);
    EXPECT_EQ(g.chains(1).size(), g.numSegments());
}

TEST(SegmentGraph, ChainsOfLengthTwoOnALine) {
    const Network n = lineNetwork();
    const SegmentGraph g(n, kHalfKm);
    // On a 5-segment line there are exactly 4 adjacent pairs.
    const auto chains = g.chains(2);
    EXPECT_EQ(chains.size(), 4u);
    for (const Chain& c : chains) {
        EXPECT_EQ(c.size(), 2u);
        EXPECT_TRUE(g.sharedNode(c[0], c[1]).valid());
    }
}

TEST(SegmentGraph, ChainsAreReportedOncePerDirection) {
    const auto& study = runningStudy();
    const SegmentGraph g(study.network, study.resolution);
    const auto chains = g.chains(3);
    std::set<std::set<SegmentId>> unique;
    for (const Chain& c : chains) {
        EXPECT_TRUE(unique.insert(std::set<SegmentId>(c.begin(), c.end())).second)
            << "duplicate chain";
    }
}

TEST(SegmentGraph, ChainsRespectNodeSimplicity) {
    // In the running example, a chain may not pass through the same switch
    // twice (e.g. main + side both connect S1 and S2).
    const auto& study = runningStudy();
    const SegmentGraph g(study.network, study.resolution);
    for (int length : {2, 3, 4}) {
        for (const Chain& chain : g.chains(length)) {
            std::set<SegNodeId> nodes;
            for (SegmentId s : chain) {
                nodes.insert(g.segment(s).a);
                nodes.insert(g.segment(s).b);
            }
            EXPECT_EQ(nodes.size(), chain.size() + 1) << "chain is not node-simple";
        }
    }
}

TEST(SegmentGraph, DistanceMatchesBfs) {
    const Network n = lineNetwork();
    const SegmentGraph g(n, kHalfKm);
    EXPECT_EQ(g.distance(SegmentId(0u), SegmentId(0u)), 0);
    EXPECT_EQ(g.distance(SegmentId(0u), SegmentId(4u)), 4);
    EXPECT_EQ(g.distance(SegmentId(4u), SegmentId(0u)), 4);
}

TEST(SegmentGraph, DistanceIsSymmetricAndTriangular) {
    const auto& study = runningStudy();
    const SegmentGraph g(study.network, study.resolution);
    const auto n = g.numSegments();
    for (std::size_t a = 0; a < n; ++a) {
        EXPECT_EQ(g.distance(SegmentId(a), SegmentId(a)), 0);
        for (std::size_t b = 0; b < n; ++b) {
            EXPECT_EQ(g.distance(SegmentId(a), SegmentId(b)),
                      g.distance(SegmentId(b), SegmentId(a)));
            for (std::size_t c = 0; c < n; ++c) {
                EXPECT_LE(g.distance(SegmentId(a), SegmentId(c)),
                          g.distance(SegmentId(a), SegmentId(b)) +
                              g.distance(SegmentId(b), SegmentId(c)));
            }
        }
    }
}

TEST(SegmentGraph, DistancesFromRowsEqualDistance) {
    const Network line = lineNetwork();
    const SegmentGraph lineGraph(line, kHalfKm);
    const SegmentGraph running(runningStudy().network, runningStudy().resolution);
    for (const SegmentGraph* g : {&lineGraph, &running}) {
        std::vector<int> row(g->numSegments(), 42);
        for (std::size_t from = 0; from < g->numSegments(); ++from) {
            g->distancesFrom(SegmentId(from), row);
            for (std::size_t to = 0; to < g->numSegments(); ++to) {
                EXPECT_EQ(row[to], g->distance(SegmentId(from), SegmentId(to)))
                    << "from " << from << " to " << to;
            }
        }
    }
    std::vector<int> tooShort(lineGraph.numSegments() - 1);
    EXPECT_THROW(lineGraph.distancesFrom(SegmentId(0u), tooShort), PreconditionError);
}

/// The bounded BFS is the full BFS row cut at the radius, in ascending id
/// order, from every segment of the four paper graphs and at every radius up
/// to the graph's diameter.
TEST(SegmentGraph, NeighbourhoodIsTheDistanceRowCutAtTheRadius) {
    for (const auto make : {&studies::runningExample, &studies::simpleLayout,
                            &studies::complexLayout, &studies::nordlandsbanen}) {
        const studies::CaseStudy study = make();
        const SegmentGraph g(study.network, study.resolution);
        SCOPED_TRACE(study.network.name());
        std::vector<int> row(g.numSegments());
        std::vector<std::vector<int>> rows;
        int diameter = 0;
        for (std::size_t from = 0; from < g.numSegments(); ++from) {
            g.distancesFrom(SegmentId(from), row);
            diameter = std::max(diameter, *std::max_element(row.begin(), row.end()));
            rows.push_back(row);
        }
        for (int radius = 0; radius <= diameter; ++radius) {
            for (std::size_t from = 0; from < g.numSegments(); ++from) {
                std::vector<SegmentId> expected;
                for (std::size_t to = 0; to < g.numSegments(); ++to) {
                    if (rows[from][to] >= 0 && rows[from][to] <= radius) {
                        expected.push_back(SegmentId(to));
                    }
                }
                ASSERT_EQ(g.neighbourhood(SegmentId(from), radius), expected)
                    << "from " << from << " within " << radius;
            }
        }
    }
    const Network line = lineNetwork();
    EXPECT_THROW((void)SegmentGraph(line, kHalfKm).neighbourhood(SegmentId(0u), -1),
                 PreconditionError);
}

TEST(SegmentGraph, ShortestPathEndpoints) {
    const Network n = lineNetwork();
    const SegmentGraph g(n, kHalfKm);
    const auto path = g.shortestPath(SegmentId(0u), SegmentId(3u));
    ASSERT_EQ(path.size(), 4u);
    EXPECT_EQ(path.front(), SegmentId(0u));
    EXPECT_EQ(path.back(), SegmentId(3u));
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_TRUE(g.sharedNode(path[i], path[i + 1]).valid());
    }
}

TEST(SegmentGraph, SimplePathsOnParallelTracks) {
    // Running example: between entry-side and exit-side segments there are
    // two routes (via main and via side).
    const auto& study = runningStudy();
    const SegmentGraph g(study.network, study.resolution);
    const SegmentId entryLast(2u);  // entry[2], adjacent to S1
    const SegmentId exitFirst(7u);  // exit[0], adjacent to S2
    const auto paths = g.simplePaths(entryLast, exitFirst, 4);
    EXPECT_EQ(paths.size(), 2u);  // main route and side route
    for (const auto& p : paths) {
        EXPECT_EQ(p.front(), entryLast);
        EXPECT_EQ(p.back(), exitFirst);
        EXPECT_EQ(p.size(), 4u);
    }
}

TEST(SegmentGraph, SimplePathsRespectLengthBound) {
    const auto& study = runningStudy();
    const SegmentGraph g(study.network, study.resolution);
    EXPECT_TRUE(g.simplePaths(SegmentId(0u), SegmentId(10u), 3).empty());
    EXPECT_FALSE(g.simplePaths(SegmentId(0u), SegmentId(10u), 11).empty());
}

TEST(SegmentGraph, SimplePathsSameSegment) {
    const auto& study = runningStudy();
    const SegmentGraph g(study.network, study.resolution);
    const auto paths = g.simplePaths(SegmentId(3u), SegmentId(3u), 5);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0], SegmentPath{SegmentId(3u)});
}

TEST(SegmentGraph, BetweenNodeSetsAdjacentSegments) {
    const Network n = lineNetwork();
    const SegmentGraph g(n, kHalfKm);
    const auto sets = g.betweenNodeSets(SegmentId(0u), SegmentId(1u));
    ASSERT_EQ(sets.size(), 1u);
    ASSERT_EQ(sets[0].size(), 1u);
    EXPECT_EQ(sets[0][0], g.sharedNode(SegmentId(0u), SegmentId(1u)));
}

TEST(SegmentGraph, BetweenNodeSetsSpanningTtd) {
    const Network n = lineNetwork();
    const SegmentGraph g(n, kHalfKm);
    const auto sets = g.betweenNodeSets(SegmentId(0u), SegmentId(2u));
    ASSERT_EQ(sets.size(), 1u);
    EXPECT_EQ(sets[0].size(), 2u);  // the two interior joints
}

TEST(SegmentGraph, BetweenNodeSetsRejectsCrossTtd) {
    const Network n = lineNetwork();
    const SegmentGraph g(n, kHalfKm);
    EXPECT_THROW(g.betweenNodeSets(SegmentId(0u), SegmentId(4u)), PreconditionError);
    EXPECT_THROW(g.betweenNodeSets(SegmentId(0u), SegmentId(0u)), PreconditionError);
}

TEST(SegmentGraph, SectionsPureTtd) {
    const auto& study = runningStudy();
    const SegmentGraph g(study.network, study.resolution);
    const std::vector<bool> noBorders(g.numNodes(), false);
    EXPECT_EQ(g.countSections(noBorders), 4);  // the four TTDs of Fig. 1
}

TEST(SegmentGraph, SectionsFinest) {
    const auto& study = runningStudy();
    const SegmentGraph g(study.network, study.resolution);
    const std::vector<bool> allBorders(g.numNodes(), true);
    EXPECT_EQ(g.countSections(allBorders), static_cast<int>(g.numSegments()));
}

TEST(SegmentGraph, SectionsSingleExtraBorder) {
    const auto& study = runningStudy();
    const SegmentGraph g(study.network, study.resolution);
    std::vector<bool> borders(g.numNodes(), false);
    // Find the joint between the two side-track segments and raise it.
    const SegNodeId joint = g.sharedNode(SegmentId(5u), SegmentId(6u));
    ASSERT_TRUE(joint.valid());
    borders[joint.get()] = true;
    EXPECT_EQ(g.countSections(borders), 5);
}

TEST(SegmentGraph, SectionsPartitionAllSegments) {
    const auto& study = runningStudy();
    const SegmentGraph g(study.network, study.resolution);
    std::vector<bool> borders(g.numNodes(), false);
    borders[3] = true;
    borders[7] = true;
    const auto sections = g.sections(borders);
    std::size_t total = 0;
    for (const auto& section : sections) {
        total += section.size();
    }
    EXPECT_EQ(total, g.numSegments());
}

TEST(SegmentGraph, SegmentLabel) {
    const Network n = lineNetwork();
    const SegmentGraph g(n, kHalfKm);
    EXPECT_EQ(g.segmentLabel(SegmentId(0u)), "t1[0]");
    EXPECT_EQ(g.segmentLabel(SegmentId(4u)), "t2[1]");
}

}  // namespace
}  // namespace etcs::rail
