#include "railway/segment_graph.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

namespace etcs::rail {

SegmentGraph::SegmentGraph(const Network& network, Resolution resolution)
    : network_(&network), resolution_(resolution) {
    network.validate();

    // Determine which physical nodes are fixed borders: endpoints, switches,
    // and joints between tracks of different TTDs (axle-counter positions).
    std::vector<std::vector<TrackId>> tracksAtNode(network.numNodes());
    for (std::size_t t = 0; t < network.numTracks(); ++t) {
        const Track& track = network.track(TrackId(t));
        tracksAtNode[track.from.get()].push_back(TrackId(t));
        tracksAtNode[track.to.get()].push_back(TrackId(t));
    }

    std::vector<SegNodeId> segNodeOfNode(network.numNodes());
    for (std::size_t n = 0; n < network.numNodes(); ++n) {
        const auto& incident = tracksAtNode[n];
        bool fixed = incident.size() != 2;
        if (!fixed) {
            fixed = network.ttdOfTrack(incident[0]) != network.ttdOfTrack(incident[1]);
        }
        segNodeOfNode[n] = SegNodeId(nodes_.size());
        nodes_.push_back(SegNode{NodeId(n), fixed});
    }

    // Split each track into segments joined by (non-fixed) joint nodes.
    ttdSegments_.resize(network.numTtds());
    std::vector<std::vector<SegmentId>> trackSegments(network.numTracks());
    for (std::size_t t = 0; t < network.numTracks(); ++t) {
        const Track& track = network.track(TrackId(t));
        const int pieces = resolution.segmentsOf(track.length);
        SegNodeId previous = segNodeOfNode[track.from.get()];
        for (int i = 0; i < pieces; ++i) {
            SegNodeId next;
            if (i + 1 == pieces) {
                next = segNodeOfNode[track.to.get()];
            } else {
                next = SegNodeId(nodes_.size());
                nodes_.push_back(SegNode{NodeId{}, false});
            }
            const SegmentId seg(segments_.size());
            const TtdId ttd = network.ttdOfTrack(TrackId(t));
            segments_.push_back(Segment{previous, next, TrackId(t), i, ttd});
            ttdSegments_[ttd.get()].push_back(seg);
            trackSegments[t].push_back(seg);
            previous = next;
        }
    }

    incidence_.resize(nodes_.size());
    for (std::size_t s = 0; s < segments_.size(); ++s) {
        incidence_[segments_[s].a.get()].push_back(SegmentId(s));
        incidence_[segments_[s].b.get()].push_back(SegmentId(s));
    }

    // Locate stations: the segment containing the station's point.
    stationSegment_.reserve(network.numStations());
    for (std::size_t st = 0; st < network.numStations(); ++st) {
        const Station& station = network.station(StationId(st));
        const auto& segs = trackSegments[station.track.get()];
        auto index = static_cast<std::size_t>(station.offset.count() /
                                              resolution.spatial.count());
        index = std::min(index, segs.size() - 1);
        stationSegment_.push_back(segs[index]);
    }
}

SegNodeId SegmentGraph::sharedNode(SegmentId x, SegmentId y) const {
    const Segment& sx = segment(x);
    const Segment& sy = segment(y);
    if (sx.a == sy.a || sx.a == sy.b) {
        return sx.a;
    }
    if (sx.b == sy.a || sx.b == sy.b) {
        return sx.b;
    }
    return SegNodeId{};
}

std::string SegmentGraph::segmentLabel(SegmentId id) const {
    const Segment& s = segment(id);
    return network_->track(s.track).name + "[" + std::to_string(s.indexInTrack) + "]";
}

std::vector<Chain> SegmentGraph::chains(int length) const {
    ETCS_REQUIRE_MSG(length >= 1, "chain length must be at least 1");
    std::vector<Chain> result;
    if (length == 1) {
        result.reserve(segments_.size());
        for (std::size_t s = 0; s < segments_.size(); ++s) {
            result.push_back({SegmentId(s)});
        }
        return result;
    }
    // Depth-first extension of directed walks; a chain of k segments visits
    // k+1 pairwise distinct nodes. Each undirected chain is found once per
    // direction; keep the canonical one (front id < back id).
    std::vector<char> nodeUsed(nodes_.size(), 0);
    std::vector<SegmentId> current;
    auto extend = [&](auto&& self, SegNodeId head) -> void {
        if (static_cast<int>(current.size()) == length) {
            if (current.front().get() < current.back().get()) {
                result.push_back(current);
            }
            return;
        }
        for (SegmentId next : incidence_[head.get()]) {
            const Segment& ns = segment(next);
            const SegNodeId tail = (ns.a == head) ? ns.b : ns.a;
            if (nodeUsed[tail.get()] != 0) {
                continue;
            }
            nodeUsed[tail.get()] = 1;
            current.push_back(next);
            self(self, tail);
            current.pop_back();
            nodeUsed[tail.get()] = 0;
        }
    };
    for (std::size_t s = 0; s < segments_.size(); ++s) {
        const Segment& seg = segments_[s];
        for (const auto& [first, second] : {std::pair{seg.a, seg.b}, std::pair{seg.b, seg.a}}) {
            nodeUsed[first.get()] = 1;
            nodeUsed[second.get()] = 1;
            current.assign(1, SegmentId(s));
            extend(extend, second);
            nodeUsed[first.get()] = 0;
            nodeUsed[second.get()] = 0;
        }
    }
    return result;
}

void SegmentGraph::pathsDfs(SegNodeId head, SegmentId target, int maxLength,
                            std::vector<SegmentId>& path, std::vector<char>& nodeUsed,
                            std::vector<SegmentPath>& out,
                            const std::vector<char>* allowedSegments) const {
    // Invariant: all endpoints of all path segments are marked in nodeUsed;
    // `head` is the free end of the last segment, from which we extend.
    if (path.back() == target) {
        out.push_back(path);
        return;
    }
    if (static_cast<int>(path.size()) >= maxLength) {
        return;
    }
    for (SegmentId next : incidence_[head.get()]) {
        if (next == path.back()) {
            continue;
        }
        if (allowedSegments != nullptr && (*allowedSegments)[next.get()] == 0) {
            continue;
        }
        const Segment& ns = segment(next);
        const SegNodeId far = (ns.a == head) ? ns.b : ns.a;
        if (nodeUsed[far.get()] != 0) {
            continue;  // strict node-simplicity, including the tail node
        }
        nodeUsed[far.get()] = 1;
        path.push_back(next);
        pathsDfs(far, target, maxLength, path, nodeUsed, out, allowedSegments);
        path.pop_back();
        nodeUsed[far.get()] = 0;
    }
}

std::vector<SegmentPath> SegmentGraph::simplePaths(SegmentId from, SegmentId to,
                                                   int maxLength) const {
    std::vector<SegmentPath> result;
    if (from == to) {
        result.push_back({from});
        return result;
    }
    std::vector<char> nodeUsed(nodes_.size(), 0);
    const Segment& fs = segment(from);
    nodeUsed[fs.a.get()] = 1;
    nodeUsed[fs.b.get()] = 1;
    std::vector<SegmentId> path{from};
    // Two direction choices: extend from either end of the start segment.
    pathsDfs(fs.a, to, maxLength, path, nodeUsed, result, nullptr);
    pathsDfs(fs.b, to, maxLength, path, nodeUsed, result, nullptr);
    return result;
}

std::vector<std::vector<SegNodeId>> SegmentGraph::betweenNodeSets(SegmentId e,
                                                                  SegmentId f) const {
    ETCS_REQUIRE_MSG(e != f, "between(e, f) requires distinct segments");
    const TtdId ttd = segment(e).ttd;
    ETCS_REQUIRE_MSG(segment(f).ttd == ttd, "between(e, f) requires segments of one TTD");

    std::vector<char> allowed(segments_.size(), 0);
    for (SegmentId s : ttdSegments_[ttd.get()]) {
        allowed[s.get()] = 1;
    }
    std::vector<SegmentPath> paths;
    std::vector<char> nodeUsed(nodes_.size(), 0);
    const Segment& es = segment(e);
    nodeUsed[es.a.get()] = 1;
    nodeUsed[es.b.get()] = 1;
    std::vector<SegmentId> path{e};
    const int maxLength = static_cast<int>(ttdSegments_[ttd.get()].size());
    pathsDfs(es.a, f, maxLength, path, nodeUsed, paths, &allowed);
    pathsDfs(es.b, f, maxLength, path, nodeUsed, paths, &allowed);

    std::vector<std::vector<SegNodeId>> result;
    result.reserve(paths.size());
    for (const SegmentPath& p : paths) {
        std::vector<SegNodeId> between;
        between.reserve(p.size() - 1);
        for (std::size_t i = 0; i + 1 < p.size(); ++i) {
            between.push_back(sharedNode(p[i], p[i + 1]));
        }
        result.push_back(std::move(between));
    }
    return result;
}

std::vector<std::vector<SegmentId>> SegmentGraph::sections(
    const std::vector<bool>& borderByNode) const {
    ETCS_REQUIRE_MSG(borderByNode.size() == nodes_.size(),
                     "border vector must have one entry per segment-graph node");
    // Union-find over segments; merge across every non-border node.
    std::vector<std::size_t> parent(segments_.size());
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&](std::size_t x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        if (nodes_[n].fixedBorder || borderByNode[n]) {
            continue;
        }
        const auto& incident = incidence_[n];
        for (std::size_t i = 1; i < incident.size(); ++i) {
            parent[find(incident[i].get())] = find(incident[0].get());
        }
    }
    std::vector<std::vector<SegmentId>> result;
    std::vector<int> sectionOf(segments_.size(), -1);
    for (std::size_t s = 0; s < segments_.size(); ++s) {
        const std::size_t root = find(s);
        if (sectionOf[root] < 0) {
            sectionOf[root] = static_cast<int>(result.size());
            result.emplace_back();
        }
        result[sectionOf[root]].push_back(SegmentId(s));
    }
    return result;
}

int SegmentGraph::distance(SegmentId from, SegmentId to) const {
    if (from == to) {
        return 0;
    }
    std::vector<int> dist(segments_.size(), -1);
    std::deque<SegmentId> queue{from};
    dist[from.get()] = 0;
    while (!queue.empty()) {
        const SegmentId current = queue.front();
        queue.pop_front();
        const Segment& cs = segment(current);
        for (SegNodeId end : {cs.a, cs.b}) {
            for (SegmentId next : incidence_[end.get()]) {
                if (dist[next.get()] >= 0) {
                    continue;
                }
                dist[next.get()] = dist[current.get()] + 1;
                if (next == to) {
                    return dist[next.get()];
                }
                queue.push_back(next);
            }
        }
    }
    return -1;
}

void SegmentGraph::distancesFrom(SegmentId source, std::span<int> out) const {
    ETCS_REQUIRE_MSG(out.size() == segments_.size(), "one distance per segment expected");
    std::fill(out.begin(), out.end(), -1);
    std::vector<SegmentId> queue;
    queue.reserve(segments_.size());
    queue.push_back(source);
    out[source.get()] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const Segment& cs = segments_[queue[head].get()];
        const int next = out[queue[head].get()] + 1;
        for (SegNodeId end : {cs.a, cs.b}) {
            for (SegmentId neighbour : incidence_[end.get()]) {
                if (out[neighbour.get()] < 0) {
                    out[neighbour.get()] = next;
                    queue.push_back(neighbour);
                }
            }
        }
    }
}

std::vector<SegmentId> SegmentGraph::neighbourhood(SegmentId source, int radius) const {
    ETCS_REQUIRE_MSG(radius >= 0, "neighbourhood radius must be non-negative");
    // BFS whose queue is the result: found[levelBegin, levelEnd) are the
    // segments exactly `hop` hops away. A neighbourhood holds a handful of
    // segments, so a scan of it beats a per-call array over the whole graph.
    std::vector<SegmentId> found{source};
    std::size_t levelBegin = 0;
    for (int hop = 0; hop < radius && levelBegin < found.size(); ++hop) {
        const std::size_t levelEnd = found.size();
        for (std::size_t i = levelBegin; i < levelEnd; ++i) {
            const Segment& cs = segments_[found[i].get()];
            for (SegNodeId end : {cs.a, cs.b}) {
                for (SegmentId neighbour : incidence_[end.get()]) {
                    if (std::find(found.begin(), found.end(), neighbour) == found.end()) {
                        found.push_back(neighbour);
                    }
                }
            }
        }
        levelBegin = levelEnd;
    }
    std::sort(found.begin(), found.end());
    return found;
}

SegmentPath SegmentGraph::shortestPath(SegmentId from, SegmentId to) const {
    if (from == to) {
        return {from};
    }
    std::vector<SegmentId> previous(segments_.size());
    std::vector<char> seen(segments_.size(), 0);
    std::deque<SegmentId> queue{from};
    seen[from.get()] = 1;
    while (!queue.empty()) {
        const SegmentId current = queue.front();
        queue.pop_front();
        const Segment& cs = segment(current);
        for (SegNodeId end : {cs.a, cs.b}) {
            for (SegmentId next : incidence_[end.get()]) {
                if (seen[next.get()] != 0) {
                    continue;
                }
                seen[next.get()] = 1;
                previous[next.get()] = current;
                if (next == to) {
                    SegmentPath path{next};
                    SegmentId back = next;
                    while (back != from) {
                        back = previous[back.get()];
                        path.push_back(back);
                    }
                    std::reverse(path.begin(), path.end());
                    return path;
                }
                queue.push_back(next);
            }
        }
    }
    return {};
}

}  // namespace etcs::rail
