#include "trace.hpp"

#include <cstdio>

namespace perfbench {

int Recorder::open(const char* name) {
    SpanRecord span;
    span.name = name;
    span.start = secondsSince(epoch_);
    span.parent = current_;
    span.task = task_;
    span.pass = pass_;
    spans_.push_back(span);
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void Recorder::close(int index, SpanStatus status) {
    SpanRecord& span = spans_[static_cast<std::size_t>(index)];
    span.end = secondsSince(epoch_);
    span.status = status;
    current_ = span.parent;
}

bool Recorder::writeChromeTrace(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        return false;
    }
    std::fputs("{\"traceEvents\":[\n", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        const char* status = s.status == SpanStatus::Sat     ? "sat"
                             : s.status == SpanStatus::Unsat ? "unsat"
                             : s.status == SpanStatus::Unknown ? "unknown"
                                                               : "";
        std::fprintf(out,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                     "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"task\":%d,\"pass\":%d,"
                     "\"status\":\"%s\"}}\n",
                     i == 0 ? "" : ",", s.name, s.start * 1e6, (s.end - s.start) * 1e6, i,
                     s.parent, s.task, s.pass, status);
    }
    std::fputs("]}\n", out);
    return std::fclose(out) == 0;
}

BoundaryBackend::BoundaryBackend(std::unique_ptr<cnf::SatBackend> inner, Recorder* recorder,
                                 BoundaryCounts& counts, sat::CnfFormula* formula,
                                 sat::ProofWriter* proof)
    : inner_(std::move(inner)), recorder_(recorder), counts_(&counts), formula_(formula) {
    if (proof != nullptr) {
        inner_->setProofWriter(proof);
    }
}

void BoundaryBackend::addClause(std::span<const cnf::Literal> literals) {
    ++counts_->clauses;
    counts_->literals += literals.size();
    if (formula_ != nullptr) {
        formula_->clauses.emplace_back(literals.begin(), literals.end());
    }
    inner_->addClause(literals);
}

cnf::SolveStatus BoundaryBackend::solve(std::span<const cnf::Literal> assumptions) {
    Scope span(recorder_, "sat.solve");
    const auto start = Clock::now();
    const cnf::SolveStatus status = inner_->solve(assumptions);
    counts_->solveSeconds += secondsSince(start);
    ++counts_->solveCalls;
    if (status == cnf::SolveStatus::Sat) {
        ++counts_->satCalls;
        span.setStatus(SpanStatus::Sat);
    } else if (status == cnf::SolveStatus::Unsat) {
        ++counts_->unsatCalls;
        span.setStatus(SpanStatus::Unsat);
    } else {
        span.setStatus(SpanStatus::Unknown);
    }
    if (formula_ != nullptr) {
        formula_->numVariables = inner_->numVariables();
    }
    return status;
}

}  // namespace perfbench
