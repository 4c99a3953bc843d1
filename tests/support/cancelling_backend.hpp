/// \file cancelling_backend.hpp
/// A SatBackend decorator for cancellation tests (tasks_test, minimize_test):
/// it forwards to the internal backend, but from its `cancelFrom`-th solve()
/// on (counting from 1) answers Unknown without solving — what a backend
/// returns once a progress hook has cancelled the search.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cnf/backend.hpp"

namespace etcs::test {

class CancellingBackend final : public cnf::SatBackend {
public:
    /// `solves` counts every solve() call, cancelled or not.
    CancellingBackend(std::uint64_t cancelFrom, std::uint64_t& solves)
        : cancelFrom_(cancelFrom), solves_(&solves) {}

    using cnf::SatBackend::addClause;
    using cnf::SatBackend::solve;

    cnf::Var addVariable() override { return inner_->addVariable(); }
    [[nodiscard]] int numVariables() const override { return inner_->numVariables(); }
    [[nodiscard]] std::size_t numClauses() const override { return inner_->numClauses(); }
    void addClause(std::span<const cnf::Literal> literals) override {
        inner_->addClause(literals);
    }
    cnf::SolveStatus solve(std::span<const cnf::Literal> assumptions) override {
        return ++*solves_ >= cancelFrom_ ? cnf::SolveStatus::Unknown
                                         : inner_->solve(assumptions);
    }
    [[nodiscard]] bool modelValue(cnf::Literal l) const override {
        return inner_->modelValue(l);
    }
    [[nodiscard]] std::vector<cnf::Literal> conflictCore() const override {
        return inner_->conflictCore();
    }
    [[nodiscard]] const sat::SolverStats& stats() const override { return inner_->stats(); }
    [[nodiscard]] std::string name() const override { return "cancelling"; }

private:
    std::unique_ptr<cnf::SatBackend> inner_ = cnf::makeInternalBackend();
    std::uint64_t cancelFrom_;
    std::uint64_t* solves_;
};

}  // namespace etcs::test
