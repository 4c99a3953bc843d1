/// \file check.hpp
/// Claim-based acceptance checker for occupancy timelines — the tests'
/// independent acceptance checker beside core::validateSolution.
///
/// `checkTimeline` replays a candidate execution step by step the way the
/// movement-authority simulator does: every train claims the VSS sections it
/// stands on, and a moving train additionally claims the corridor of
/// segments its head may have swept between two consecutive steps. A claim
/// that lands on another train's position is a violation. On top of the
/// claim rules it checks the per-train schedule discipline (presence window,
/// origin, stop dwells, chain shape, speed) so a clean report means the
/// timeline is a genuine execution of the scenario.
///
/// The rules are formulated to accept exactly the executions the SAT
/// encoding's constraint families C1-C4 admit (core/encoder.hpp); in
/// particular the pass-through corridor is the segment-level path union the
/// encoder's sweep variables range over, NOT the simulator's coarser
/// section-level claim. So every SAT witness of the encoding must pass it,
/// and every timeline it accepts must also pass core::validateSolution.
/// Like the simulator, this file shares no code with the encoder or
/// validator (it links only railway + util), which is what makes it an
/// independent differential oracle in tests (tests/dwell_test.cpp,
/// tests/gen_fuzz_test.cpp).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "railway/segment_graph.hpp"
#include "util/ids.hpp"

namespace etcs::sim {

/// A scheduled stop the checked train must honour.
struct CheckStop {
    SegmentId segment;
    std::optional<int> arrivalStep;  ///< pinned arrival step, if timed
    int dwellSteps = 1;              ///< consecutive steps the stop is held
};

/// A train's discrete parameters for timeline checking.
struct CheckTrain {
    std::string name;          ///< for violation messages
    SegmentId originSegment;
    int departureStep = 0;
    int lengthSegments = 1;
    int speedSegments = 1;
    std::vector<CheckStop> stops;  ///< back() is the destination
};

enum class ViolationKind {
    Presence,     ///< absent/early/reappearing, or wrong departure position
    Shape,        ///< occupancy is not a chain of lengthSegments segments
    Movement,     ///< a segment cannot reach any next-step segment in time
    Stop,         ///< a pinned or open stop (incl. dwell) is missed
    Release,      ///< sections released (train left) away from the destination
    Exclusivity,  ///< two trains claim the same VSS section at one step
    PassThrough,  ///< a movement corridor sweeps over another train
};

/// One violated rule. For PassThrough, (train, step) names the movement cell
/// between `step` and `step + 1`; `other`/`segment` pin down the collision
/// for diagnostics.
struct TimelineViolation {
    ViolationKind kind = ViolationKind::Presence;
    int train = -1;        ///< offending (for PassThrough: moving) train
    int other = -1;        ///< second train involved, -1 when none
    int step = -1;         ///< step, or movement step t of a t -> t+1 sweep
    SegmentId segment{};   ///< offending segment when meaningful
    std::string message;   ///< human-readable description
};

/// timeline[train][step] -> occupied segments (empty = absent).
using Timeline = std::vector<std::vector<std::vector<SegmentId>>>;

/// Check `timeline` against the claim rules on the VSS layout selected by
/// `borderByNode` (fixed borders implied). All trains must cover the same
/// number of steps. Returns every violated rule (empty = accepted).
[[nodiscard]] std::vector<TimelineViolation> checkTimeline(
    const rail::SegmentGraph& graph, const std::vector<bool>& borderByNode,
    std::span<const CheckTrain> trains, const Timeline& timeline);

}  // namespace etcs::sim
