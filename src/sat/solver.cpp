#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "sat/proof.hpp"

namespace etcs::sat {

namespace {

/// Finite Luby sequence value for index i (1-based): 1,1,2,1,1,2,4,...
double luby(double base, int i) {
    int size = 1;
    int seq = 0;
    while (size < i + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) >> 1;
        --seq;
        i = i % size;
    }
    return std::pow(2.0, seq) * base;
}

}  // namespace

// ---------------------------------------------------------------- heap ----

void Solver::VarOrderHeap::insert(Var v) {
    grow(v);
    if (index_[v] >= 0) {
        return;
    }
    index_[v] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    percolateUp(index_[v]);
}

void Solver::VarOrderHeap::increased(Var v) {
    if (contains(v)) {
        percolateUp(index_[v]);
    }
}

Var Solver::VarOrderHeap::removeMax() {
    const Var top = heap_.front();
    heap_.front() = heap_.back();
    index_[heap_.front()] = 0;
    heap_.pop_back();
    index_[top] = -1;
    if (!heap_.empty()) {
        percolateDown(0);
    }
    return top;
}

void Solver::VarOrderHeap::percolateUp(int pos) {
    const Var v = heap_[pos];
    while (pos > 0) {
        const int parent = (pos - 1) >> 1;
        if (!less(heap_[parent], v)) {
            break;
        }
        heap_[pos] = heap_[parent];
        index_[heap_[pos]] = pos;
        pos = parent;
    }
    heap_[pos] = v;
    index_[v] = pos;
}

void Solver::VarOrderHeap::percolateDown(int pos) {
    const Var v = heap_[pos];
    const int n = static_cast<int>(heap_.size());
    while (true) {
        int child = 2 * pos + 1;
        if (child >= n) {
            break;
        }
        if (child + 1 < n && less(heap_[child], heap_[child + 1])) {
            ++child;
        }
        if (!less(v, heap_[child])) {
            break;
        }
        heap_[pos] = heap_[child];
        index_[heap_[pos]] = pos;
        pos = child;
    }
    heap_[pos] = v;
    index_[v] = pos;
}

// -------------------------------------------------------------- solver ----

Var Solver::addVariable() {
    const Var v = numVariables();
    values_.push_back(Value::Undef);  // positive literal
    values_.push_back(Value::Undef);  // negative literal
    level_.push_back(0);
    reason_.push_back(kInvalidClause);
    activity_.push_back(0.0);
    polarity_.push_back(0);
    seen_.push_back(kSeenNone);
    watches_.emplace_back();  // positive literal
    watches_.emplace_back();  // negative literal
    order_.insert(v);
    return v;
}

bool Solver::addClause(std::span<const Literal> literals) {
    ETCS_REQUIRE_MSG(decisionLevel() == 0, "clauses may only be added at the root level");
    if (!ok_) {
        return false;
    }

    // Normalize: sort, deduplicate, drop root-false literals, detect
    // tautologies and root-satisfied clauses.
    std::vector<Literal> lits(literals.begin(), literals.end());
    std::sort(lits.begin(), lits.end());
    Literal previous = kUndefLiteral;
    std::size_t out = 0;
    for (Literal l : lits) {
        ETCS_REQUIRE_MSG(l.valid() && l.var() < numVariables(), "literal references unknown variable");
        if (value(l) == Value::True || l == ~previous) {
            return true;  // satisfied at root / tautology
        }
        if (value(l) == Value::False || l == previous) {
            continue;  // falsified at root / duplicate
        }
        lits[out++] = l;
        previous = l;
    }
    lits.resize(out);

    // The normalized clause is propagation-derivable from the input plus
    // the root-level facts, so logging it keeps the proof checkable.
    if (proof_ != nullptr && lits.size() != literals.size()) {
        proof_->addClause(lits);
    }

    if (lits.empty()) {
        ok_ = false;
        return false;
    }
    if (lits.size() == 1) {
        uncheckedEnqueue(lits[0], kInvalidClause);
        ok_ = (propagate() == kInvalidClause);
        if (!ok_ && proof_ != nullptr) {
            proof_->addEmptyClause();
        }
        return ok_;
    }
    const ClauseRef ref = arena_.allocate(lits, /*learnt=*/false);
    clauses_.push_back(ref);
    attachClause(ref);
    return true;
}

void Solver::attachClause(ClauseRef ref) {
    const Clause c = arena_.view(ref);
    const ClauseRef tagged = c.size() == 2 ? ref | kBinaryClauseTag : ref;
    watches_[(~c[0]).code()].push_back(Watcher{tagged, c[1]});
    watches_[(~c[1]).code()].push_back(Watcher{tagged, c[0]});
}

void Solver::detachClause(ClauseRef ref) {
    const Clause c = arena_.view(ref);
    for (Literal w : {~c[0], ~c[1]}) {
        auto& list = watches_[w.code()];
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (list[i].clause() == ref) {
                list[i] = list.back();
                list.pop_back();
                break;
            }
        }
    }
}

bool Solver::locked(ClauseRef ref) const {
    // Long clauses only: a binary reason may hold its implied literal at
    // either position (see firstAntecedent).
    const Clause c = arena_.view(ref);
    const Literal first = c[0];
    return value(first) == Value::True && reason_[first.var()] == ref &&
           level_[first.var()] > 0;
}

void Solver::uncheckedEnqueue(Literal p, ClauseRef from) {
    values_[static_cast<std::size_t>(p.code())] = Value::True;
    values_[static_cast<std::size_t>((~p).code())] = Value::False;
    level_[p.var()] = decisionLevel();
    reason_[p.var()] = from;
    trail_.push_back(p);
}

ClauseRef Solver::propagate() {
    ClauseRef conflict = kInvalidClause;
    while (propagationHead_ < static_cast<int>(trail_.size())) {
        const Literal p = trail_[propagationHead_++];
        const Literal notP = ~p;
        ++stats_.propagations;
        auto& ws = watches_[p.code()];
        std::size_t keep = 0;
        std::size_t i = 0;
        const std::size_t n = ws.size();
        for (; i < n; ++i) {
            const Watcher w = ws[i];
            const Value blockerValue = value(w.blocker);
            if (blockerValue == Value::True) {
                ws[keep++] = w;
                continue;
            }
            if (w.binary()) {
                // The blocker is the other literal: no arena access needed.
                ws[keep++] = w;
                if (blockerValue == Value::False) {
                    // Store the order (blocker, ~p) that a long clause's
                    // conflict leaves, which conflict analysis walks.
                    conflict = w.clause();
                    Clause c = arena_.view(conflict);
                    c.setLiteral(0, w.blocker);
                    c.setLiteral(1, notP);
                    break;
                }
                uncheckedEnqueue(w.blocker, w.clause());
                continue;
            }
            const ClauseRef ref = w.clause();
            Clause c = arena_.view(ref);
            // Ensure the falsified literal ~p sits at position 1.
            if (c[0] == notP) {
                c.setLiteral(0, c[1]);
                c.setLiteral(1, notP);
            }
            const Literal first = c[0];
            if (first != w.blocker && value(first) == Value::True) {
                ws[keep++] = Watcher{ref, first};
                continue;
            }
            // Look for a replacement watch.
            bool foundWatch = false;
            const std::uint32_t size = c.size();
            for (std::uint32_t k = 2; k < size; ++k) {
                if (value(c[k]) != Value::False) {
                    c.setLiteral(1, c[k]);
                    c.setLiteral(k, notP);
                    watches_[(~c[1]).code()].push_back(Watcher{ref, first});
                    foundWatch = true;
                    break;
                }
            }
            if (foundWatch) {
                continue;
            }
            // Clause is unit or conflicting.
            ws[keep++] = Watcher{ref, first};
            if (value(first) == Value::False) {
                conflict = ref;
                break;
            }
            uncheckedEnqueue(first, ref);
        }
        if (conflict != kInvalidClause) {
            // Copy the remaining watchers back and stop propagating.
            for (std::size_t r = i + 1; r < n; ++r) {
                ws[keep++] = ws[r];
            }
            propagationHead_ = static_cast<int>(trail_.size());
        }
        ws.resize(keep);
    }
    return conflict;
}

void Solver::cancelUntil(int level) {
    if (decisionLevel() <= level) {
        return;
    }
    for (int i = static_cast<int>(trail_.size()) - 1; i >= trailLim_[level]; --i) {
        const Var v = trail_[i].var();
        values_[static_cast<std::size_t>(trail_[i].code())] = Value::Undef;
        values_[static_cast<std::size_t>((~trail_[i]).code())] = Value::Undef;
        reason_[v] = kInvalidClause;
        polarity_[v] = trail_[i].sign() ? 1 : 0;
        order_.insert(v);
    }
    trail_.resize(trailLim_[level]);
    trailLim_.resize(level);
    propagationHead_ = static_cast<int>(trail_.size());
}

Literal Solver::pickBranchLiteral() {
    while (!order_.empty()) {
        // Peek via removeMax; skip assigned variables.
        const Var v = order_.removeMax();
        if (value(v) == Value::Undef) {
            return Literal(v, polarity_[v] != 0);
        }
    }
    return kUndefLiteral;
}

void Solver::bumpVariable(Var v) {
    activity_[v] += variableIncrement_;
    if (activity_[v] > 1e100) {
        rescaleVariableActivity();
    }
    order_.increased(v);
}

void Solver::rescaleVariableActivity() {
    for (double& a : activity_) {
        a *= 1e-100;
    }
    variableIncrement_ *= 1e-100;
}

void Solver::bumpClause(Clause c) {
    c.setActivity(static_cast<float>(c.activity() + clauseIncrement_));
    if (c.activity() > 1e20f) {
        rescaleClauseActivity();
    }
}

void Solver::rescaleClauseActivity() {
    for (ClauseRef ref : learnts_) {
        Clause c = arena_.view(ref);
        c.setActivity(c.activity() * 1e-20f);
    }
    clauseIncrement_ *= 1e-20;
}

void Solver::analyze(ClauseRef conflict, std::vector<Literal>& outLearnt,
                     int& outBacktrackLevel) {
    int counter = 0;
    Literal p = kUndefLiteral;
    outLearnt.clear();
    outLearnt.push_back(kUndefLiteral);  // placeholder for the asserting literal
    int index = static_cast<int>(trail_.size()) - 1;

    ClauseRef reasonRef = conflict;
    do {
        Clause c = arena_.view(reasonRef);
        if (c.learnt()) {
            bumpClause(c);
        }
        // The conflict contributes every literal, a reason all but p.
        std::uint32_t j = 0;
        std::uint32_t end = c.size();
        if (p != kUndefLiteral) {
            j = firstAntecedent(c, p.var());
            end = j + c.size() - 1;
        }
        for (; j < end; ++j) {
            const Literal q = c[j];
            const Var v = q.var();
            if (seen_[v] == kSeenNone && level_[v] > 0) {
                bumpVariable(v);
                seen_[v] = kSeenSource;
                if (level_[v] >= decisionLevel()) {
                    ++counter;
                } else {
                    outLearnt.push_back(q);
                }
            }
        }
        // Select the next literal on the current level to resolve on.
        while (seen_[trail_[index--].var()] == kSeenNone) {
        }
        p = trail_[index + 1];
        reasonRef = reason_[p.var()];
        seen_[p.var()] = kSeenNone;
        --counter;
    } while (counter > 0);
    outLearnt[0] = ~p;

    // Conflict-clause minimization: drop literals implied by the rest.
    analyzeToClear_.assign(outLearnt.begin(), outLearnt.end());
    std::uint32_t abstractLevels = 0;
    for (std::size_t i = 1; i < outLearnt.size(); ++i) {
        abstractLevels |= abstractLevel(outLearnt[i].var());
    }
    std::size_t kept = 1;
    for (std::size_t i = 1; i < outLearnt.size(); ++i) {
        const Literal q = outLearnt[i];
        if (reason_[q.var()] == kInvalidClause || !literalRedundant(q, abstractLevels)) {
            outLearnt[kept++] = q;
        } else {
            ++stats_.minimizedLiterals;
        }
    }
    outLearnt.resize(kept);

    // Find the backtrack level: the highest level among the non-asserting
    // literals, which must be placed at position 1 (second watch).
    if (outLearnt.size() == 1) {
        outBacktrackLevel = 0;
    } else {
        std::size_t maxIndex = 1;
        for (std::size_t i = 2; i < outLearnt.size(); ++i) {
            if (level_[outLearnt[i].var()] > level_[outLearnt[maxIndex].var()]) {
                maxIndex = i;
            }
        }
        std::swap(outLearnt[1], outLearnt[maxIndex]);
        outBacktrackLevel = level_[outLearnt[1].var()];
    }

    for (Literal l : analyzeToClear_) {
        if (l.valid()) {
            seen_[l.var()] = kSeenNone;
        }
    }
    stats_.learnedLiterals += outLearnt.size();
}

bool Solver::literalRedundant(Literal p, std::uint32_t abstractLevels) {
    // Depth-first walk back from p through reason clauses. A literal is
    // removable once all its antecedents are kept literals, level-0 facts or
    // removable; it fails when one antecedent is a decision, lies on a level
    // the learnt clause does not touch, or failed before. Both verdicts stay
    // in seen_ until analyze() clears them: a failed literal's path to the
    // culprit consists of literals that can never turn removable, so it
    // keeps failing, and the kept literals equal those of walking every
    // subgraph afresh.
    analyzeStack_.clear();
    Clause c = arena_.view(reason_[p.var()]);
    std::uint32_t j = firstAntecedent(c, p.var());
    std::uint32_t end = j + c.size() - 1;
    while (true) {
        if (j < end) {
            const Literal r = c[j];
            const Var v = r.var();
            const SeenMark mark = seen_[v];
            if (level_[v] == 0 || mark == kSeenSource || mark == kSeenRemovable) {
                ++j;
                continue;
            }
            if (mark == kSeenFailed || reason_[v] == kInvalidClause ||
                (abstractLevel(v) & abstractLevels) == 0) {
                // p and every literal suspended on the stack reach r.
                analyzeStack_.push_back(RedundancyFrame{j, p});
                for (const RedundancyFrame& frame : analyzeStack_) {
                    if (seen_[frame.literal.var()] == kSeenNone) {
                        seen_[frame.literal.var()] = kSeenFailed;
                        analyzeToClear_.push_back(frame.literal);
                    }
                }
                return false;
            }
            analyzeStack_.push_back(RedundancyFrame{j + 1, p});
            p = r;
            c = arena_.view(reason_[v]);
            j = firstAntecedent(c, v);
            end = j + c.size() - 1;
            continue;
        }
        // Every antecedent of p is implied by the learnt clause.
        if (seen_[p.var()] == kSeenNone) {
            seen_[p.var()] = kSeenRemovable;
            analyzeToClear_.push_back(p);
        }
        if (analyzeStack_.empty()) {
            return true;
        }
        const RedundancyFrame frame = analyzeStack_.back();
        analyzeStack_.pop_back();
        p = frame.literal;
        c = arena_.view(reason_[p.var()]);
        j = frame.position;
        end = firstAntecedent(c, p.var()) + c.size() - 1;
    }
}

void Solver::analyzeFinal(Literal failedAssumption) {
    conflictCore_.clear();
    conflictCore_.push_back(failedAssumption);
    if (decisionLevel() == 0) {
        return;
    }
    const Var failedVar = failedAssumption.var();
    seen_[failedVar] = kSeenSource;
    for (int i = static_cast<int>(trail_.size()) - 1; i >= trailLim_[0]; --i) {
        const Var v = trail_[i].var();
        if (seen_[v] == kSeenNone) {
            continue;
        }
        if (reason_[v] == kInvalidClause) {
            // A decision inside the assumption prefix is an assumption. Note
            // that this can be ~failedAssumption itself when the assumption
            // set contains a complementary pair.
            conflictCore_.push_back(trail_[i]);
        } else {
            const Clause c = arena_.view(reason_[v]);
            const std::uint32_t first = firstAntecedent(c, v);
            for (std::uint32_t j = first; j < first + c.size() - 1; ++j) {
                if (level_[c[j].var()] > 0) {
                    seen_[c[j].var()] = kSeenSource;
                }
            }
        }
        seen_[v] = kSeenNone;
    }
    seen_[failedVar] = kSeenNone;
}

void Solver::reduceLearnedDb() {
    // Keep binary and high-activity clauses; drop the low-activity half.
    std::sort(learnts_.begin(), learnts_.end(), [this](ClauseRef a, ClauseRef b) {
        const Clause ca = arena_.view(a);
        const Clause cb = arena_.view(b);
        if ((ca.size() > 2) != (cb.size() > 2)) {
            return ca.size() > 2;  // long clauses first (removal candidates)
        }
        return ca.activity() < cb.activity();
    });
    const double threshold = clauseIncrement_ / std::max<std::size_t>(learnts_.size(), 1);
    std::size_t kept = 0;
    std::vector<Literal> scratch;
    for (std::size_t i = 0; i < learnts_.size(); ++i) {
        const ClauseRef ref = learnts_[i];
        const Clause c = arena_.view(ref);
        const bool removable = c.size() > 2 && !locked(ref) &&
                               (i < learnts_.size() / 2 || c.activity() < threshold);
        if (removable) {
            if (proof_ != nullptr) {
                // A clause justifying a root-level implication must leave
                // that fact derivable: emit the unit before deleting.
                const Literal first = c[0];
                if (value(first) == Value::True && level_[first.var()] == 0 &&
                    reason_[first.var()] == ref) {
                    proof_->addClause({first});
                    reason_[first.var()] = kInvalidClause;
                }
                scratch.clear();
                for (std::uint32_t j = 0; j < c.size(); ++j) {
                    scratch.push_back(c[j]);
                }
                proof_->deleteClause(scratch);
            }
            detachClause(ref);
            arena_.markFreed(ref);
            ++stats_.removedClauses;
        } else {
            learnts_[kept++] = ref;
        }
    }
    learnts_.resize(kept);
}

void Solver::compactClauseDatabase() {
    ++stats_.garbageCollections;
    ClauseArena fresh;
    std::unordered_map<ClauseRef, ClauseRef> relocated;
    std::vector<Literal> scratch;
    auto move = [&](ClauseRef& ref) {
        const auto it = relocated.find(ref);
        if (it != relocated.end()) {
            ref = it->second;
            return;
        }
        const Clause c = arena_.view(ref);
        scratch.clear();
        for (std::uint32_t i = 0; i < c.size(); ++i) {
            scratch.push_back(c[i]);
        }
        const ClauseRef moved = fresh.allocate(scratch, c.learnt());
        if (c.learnt()) {
            fresh.view(moved).setActivity(c.activity());
        }
        relocated.emplace(ref, moved);
        ref = moved;
    };

    for (ClauseRef& ref : clauses_) {
        move(ref);
    }
    for (ClauseRef& ref : learnts_) {
        move(ref);
    }
    // Watch lists only reference attached (live) clauses.
    for (auto& watchers : watches_) {
        for (Watcher& w : watchers) {
            ClauseRef ref = w.clause();
            move(ref);
            w.taggedRef = ref | (w.taggedRef & kBinaryClauseTag);
        }
    }
    // Reasons of assignments above level 0 are locked (live). Root-level
    // implications never have their reasons inspected again, so drop them
    // rather than keeping possibly-freed clauses alive.
    for (Var v = 0; v < numVariables(); ++v) {
        if (value(v) == Value::Undef || reason_[v] == kInvalidClause) {
            continue;
        }
        if (level_[v] == 0) {
            reason_[v] = kInvalidClause;
        } else {
            move(reason_[v]);
        }
    }
    arena_ = std::move(fresh);
}

SolveStatus Solver::search(std::int64_t conflictBudget) {
    std::int64_t conflictsThisRestart = 0;
    std::vector<Literal> learntClause;
    while (true) {
        const ClauseRef conflict = propagate();
        if (conflict != kInvalidClause) {
            ++stats_.conflicts;
            ++conflictsThisRestart;
            if (options_.onProgress && stats_.conflicts >= nextProgressAt_) {
                nextProgressAt_ = stats_.conflicts + std::max<std::uint64_t>(
                                                         options_.progressInterval, 1);
                const SolverProgress progress{stats_.conflicts, stats_.decisions,
                                              stats_.propagations, stats_.restarts,
                                              learnts_.size()};
                if (!options_.onProgress(progress)) {
                    cancelled_ = true;
                    cancelUntil(0);
                    return SolveStatus::Unknown;
                }
            }
            if (decisionLevel() == 0) {
                ok_ = false;
                if (proof_ != nullptr) {
                    proof_->addEmptyClause();
                }
                return SolveStatus::Unsat;
            }
            int backtrackLevel = 0;
            analyze(conflict, learntClause, backtrackLevel);
            if (proof_ != nullptr) {
                proof_->addClause(learntClause);
            }
            cancelUntil(backtrackLevel);
            if (learntClause.size() == 1) {
                uncheckedEnqueue(learntClause[0], kInvalidClause);
            } else {
                const ClauseRef ref = arena_.allocate(learntClause, /*learnt=*/true);
                learnts_.push_back(ref);
                attachClause(ref);
                bumpClause(arena_.view(ref));
                uncheckedEnqueue(learntClause[0], ref);
                stats_.peakLearnts = std::max<std::uint64_t>(stats_.peakLearnts,
                                                             learnts_.size());
            }
            ++stats_.learnedClauses;
            decayVariableActivity();
            decayClauseActivity();
            if (options_.conflictLimit >= 0 &&
                stats_.conflicts >= static_cast<std::uint64_t>(options_.conflictLimit)) {
                cancelUntil(0);
                return SolveStatus::Unknown;
            }
            continue;
        }

        if (conflictsThisRestart >= conflictBudget) {
            cancelUntil(0);
            ++stats_.restarts;
            return SolveStatus::Unknown;  // restart
        }
        if (static_cast<double>(learnts_.size()) - static_cast<double>(trail_.size()) >=
            maxLearnts_) {
            reduceLearnedDb();
            maxLearnts_ *= kLearntSizeIncrement;
            if (arena_.wastedWords() * 3 > arena_.totalWords()) {
                compactClauseDatabase();
            }
        }

        // Assumption decisions come first, in order.
        Literal next = kUndefLiteral;
        while (decisionLevel() < static_cast<int>(assumptions_.size())) {
            const Literal p = assumptions_[decisionLevel()];
            if (value(p) == Value::True) {
                newDecisionLevel();  // already implied; keep levels aligned
            } else if (value(p) == Value::False) {
                analyzeFinal(p);
                return SolveStatus::Unsat;
            } else {
                next = p;
                break;
            }
        }
        if (next == kUndefLiteral) {
            next = pickBranchLiteral();
            if (next == kUndefLiteral) {
                storeModel();
                return SolveStatus::Sat;
            }
            ++stats_.decisions;
        }
        newDecisionLevel();
        stats_.maxDecisionLevel =
            std::max<std::uint64_t>(stats_.maxDecisionLevel, decisionLevel());
        uncheckedEnqueue(next, kInvalidClause);
    }
}

SolveStatus Solver::solve(std::span<const Literal> assumptions) {
    conflictCore_.clear();
    if (!ok_) {
        return SolveStatus::Unsat;
    }
    cancelled_ = false;
    nextProgressAt_ =
        stats_.conflicts + std::max<std::uint64_t>(options_.progressInterval, 1);
    assumptions_.assign(assumptions.begin(), assumptions.end());
    for (Literal l : assumptions_) {
        ETCS_REQUIRE_MSG(l.valid() && l.var() < numVariables(),
                         "assumption references unknown variable");
    }
    if (maxLearnts_ <= 0.0) {
        maxLearnts_ = std::max(options_.learntSizeFloor,
                               static_cast<double>(clauses_.size()) * options_.learntSizeFactor);
    }

    SolveStatus status = SolveStatus::Unknown;
    for (int restart = 0; status == SolveStatus::Unknown; ++restart) {
        status = search(static_cast<std::int64_t>(luby(kRestartBase, restart)));
        if (cancelled_) {
            break;  // progress callback requested cancellation
        }
        if (options_.conflictLimit >= 0 &&
            stats_.conflicts >= static_cast<std::uint64_t>(options_.conflictLimit) &&
            status == SolveStatus::Unknown) {
            break;
        }
    }
    cancelUntil(0);
    return status;
}

void Solver::storeModel() {
    model_.resize(static_cast<std::size_t>(numVariables()));
    for (Var v = 0; v < numVariables(); ++v) {
        // Unassigned variables (none reachable from any clause) default to false.
        const Value assigned = value(v);
        model_[static_cast<std::size_t>(v)] = assigned == Value::Undef ? Value::False : assigned;
    }
}

Value Solver::modelValue(Var v) const {
    ETCS_REQUIRE_MSG(v >= 0 && static_cast<std::size_t>(v) < model_.size(),
                     "no model available for this variable");
    return model_[v];
}

Value Solver::modelValue(Literal l) const {
    const Value v = modelValue(l.var());
    return l.sign() ? negate(v) : v;
}

}  // namespace etcs::sat
