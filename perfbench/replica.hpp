/// \file replica.hpp
/// A call-by-call replica of the default path of core/tasks.cpp (lint and
/// reach gates, monolithic encode, one incremental backend), made of the
/// same public functions with a span around each call. Its counts are
/// compared with the library's TaskStats (trace.replica_match), so a later
/// change to core/tasks.cpp shows up as a stale replica, not as a failure.
#pragma once

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ReplicaOutcome {
    Answer answer;
    bool scheduleRejected = false;  ///< lint::lintSchedule found an error
    bool reachRejected = false;     ///< core::PruneTable proved infeasibility
};

/// Run `task` as the replica. Spans: lint.schedule, lint.reach, core.encode,
/// core.done_all, opt.index_search, opt.minimize, core.decode, and
/// sat.solve (from the BoundaryBackend, which also fills `counts`).
[[nodiscard]] ReplicaOutcome runReplica(const TaskSpec& task, const LoadedInput& input,
                                        Recorder& recorder, BoundaryCounts& counts);

}  // namespace perfbench
