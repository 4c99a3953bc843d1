/// \file segment_graph.hpp
/// The discretized segment graph G=(V,E) of paper Sec. III-A and the graph
/// algorithms the encoding needs: chains(l), paths(e,f,tr), between(e,f),
/// hop distances and neighbourhoods (reachable(e,tr) is the neighbourhood of
/// radius speed), and VSS section decomposition.
///
/// Every track of the physical network is partitioned into segments of (at
/// most) the spatial resolution r_s.  Segment-graph nodes are the candidate
/// VSS borders; nodes at TTD boundaries, switches and network endpoints are
/// *fixed* borders (they carry physical axle counters).
#pragma once

#include <span>
#include <vector>

#include "railway/network.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace etcs::rail {

/// An edge of the discretized graph: one r_s-sized piece of a track.
struct Segment {
    SegNodeId a;      ///< one end (towards the track's from-node)
    SegNodeId b;      ///< other end (towards the track's to-node)
    TrackId track;    ///< physical track this segment belongs to
    int indexInTrack; ///< 0-based position along the track
    TtdId ttd;        ///< TTD section of the track
};

/// A node of the discretized graph: a candidate VSS border.
struct SegNode {
    NodeId source;     ///< originating network node; invalid for split joints
    bool fixedBorder;  ///< true: always a VSS border (axle counter present)
};

/// A connected sequence of segments (the paper's chains(l)); node-simple.
using Chain = std::vector<SegmentId>;

/// A node-simple segment path including both end segments.
using SegmentPath = std::vector<SegmentId>;

class SegmentGraph {
public:
    /// Discretize a validated network at spatial resolution `resolution.spatial`.
    SegmentGraph(const Network& network, Resolution resolution);

    [[nodiscard]] const Network& network() const noexcept { return *network_; }
    [[nodiscard]] Resolution resolution() const noexcept { return resolution_; }

    [[nodiscard]] std::size_t numSegments() const noexcept { return segments_.size(); }
    [[nodiscard]] std::size_t numNodes() const noexcept { return nodes_.size(); }

    [[nodiscard]] const Segment& segment(SegmentId id) const { return segments_.at(id.get()); }
    [[nodiscard]] const SegNode& node(SegNodeId id) const { return nodes_.at(id.get()); }
    [[nodiscard]] std::span<const Segment> segments() const noexcept { return segments_; }
    [[nodiscard]] std::span<const SegNode> nodes() const noexcept { return nodes_; }

    /// Segments incident to a node.
    [[nodiscard]] std::span<const SegmentId> segmentsAt(SegNodeId id) const {
        return incidence_.at(id.get());
    }
    /// Segments of a TTD section.
    [[nodiscard]] std::span<const SegmentId> segmentsOfTtd(TtdId id) const {
        return ttdSegments_.at(id.get());
    }
    /// The segment containing a station's point position.
    [[nodiscard]] SegmentId segmentOfStation(StationId id) const {
        return stationSegment_.at(id.get());
    }

    /// Node shared by two adjacent segments (invalid id if not adjacent).
    [[nodiscard]] SegNodeId sharedNode(SegmentId x, SegmentId y) const;

    /// Human-readable segment label, e.g. "main[2]".
    [[nodiscard]] std::string segmentLabel(SegmentId id) const;

    // ----- algorithms used by the encoder --------------------------------

    /// All node-simple chains of exactly `length` segments (the paper's
    /// chains(l)). Each chain is reported once (direction-canonical).
    [[nodiscard]] std::vector<Chain> chains(int length) const;

    /// All node-simple paths from `from` to `to` with at most `maxLength`
    /// segments, both endpoints included (the paper's paths(e, f, tr)).
    [[nodiscard]] std::vector<SegmentPath> simplePaths(SegmentId from, SegmentId to,
                                                       int maxLength) const;

    /// For two distinct segments of the same TTD: for every node-simple path
    /// between them inside that TTD, the set of nodes separating consecutive
    /// path segments (the paper's between(e, f), one set per path).
    [[nodiscard]] std::vector<std::vector<SegNodeId>> betweenNodeSets(SegmentId e,
                                                                      SegmentId f) const;

    /// Decompose the graph into VSS sections for a given border assignment
    /// (indexed by SegNodeId). Fixed borders are borders regardless of the
    /// flag vector. Returns the list of sections as segment sets.
    [[nodiscard]] std::vector<std::vector<SegmentId>> sections(
        const std::vector<bool>& borderByNode) const;

    /// Number of sections (TTD/VSS column of Table I) for a border assignment.
    [[nodiscard]] int countSections(const std::vector<bool>& borderByNode) const {
        return static_cast<int>(sections(borderByNode).size());
    }

    /// Shortest hop distance between two segments (-1 if disconnected).
    [[nodiscard]] int distance(SegmentId from, SegmentId to) const;

    /// Hop distances from `source` to every segment (-1 if disconnected),
    /// written into `out` (one entry per segment): one row of the distance
    /// table, without holding the table. Each row equals `distance`.
    void distancesFrom(SegmentId source, std::span<int> out) const;

    /// The segments at most `radius` hops from `source` (itself included), in
    /// ascending id order: distancesFrom's row cut at `radius`, found by a BFS
    /// that stops there. Its cost grows with the square of the result's size
    /// and not with the graph's.
    [[nodiscard]] std::vector<SegmentId> neighbourhood(SegmentId source, int radius) const;

    /// A shortest segment path between two segments (empty if disconnected);
    /// used by the simulator for route construction.
    [[nodiscard]] SegmentPath shortestPath(SegmentId from, SegmentId to) const;

private:
    void pathsDfs(SegNodeId head, SegmentId target, int maxLength, std::vector<SegmentId>& path,
                  std::vector<char>& nodeUsed, std::vector<SegmentPath>& out,
                  const std::vector<char>* allowedSegments) const;

    const Network* network_;
    Resolution resolution_;
    std::vector<Segment> segments_;
    std::vector<SegNode> nodes_;
    std::vector<std::vector<SegmentId>> incidence_;
    std::vector<std::vector<SegmentId>> ttdSegments_;
    std::vector<SegmentId> stationSegment_;
};

}  // namespace etcs::rail
