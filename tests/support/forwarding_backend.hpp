/// \file forwarding_backend.hpp
/// Base of the tests' SatBackend decorators: every call goes to an internal
/// backend, and a subclass overrides what it observes or changes — solve(),
/// typically (CancellingBackend, minimize_test's probe recorder).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cnf/backend.hpp"

namespace etcs::test {

class ForwardingBackend : public cnf::SatBackend {
public:
    using cnf::SatBackend::addClause;
    using cnf::SatBackend::solve;

    cnf::Var addVariable() override { return inner_->addVariable(); }
    [[nodiscard]] int numVariables() const override { return inner_->numVariables(); }
    [[nodiscard]] std::size_t numClauses() const override { return inner_->numClauses(); }
    void addClause(std::span<const cnf::Literal> literals) override {
        inner_->addClause(literals);
    }
    cnf::SolveStatus solve(std::span<const cnf::Literal> assumptions) override {
        return inner_->solve(assumptions);
    }
    [[nodiscard]] bool modelValue(cnf::Literal l) const override {
        return inner_->modelValue(l);
    }
    [[nodiscard]] std::vector<cnf::Literal> conflictCore() const override {
        return inner_->conflictCore();
    }
    [[nodiscard]] const sat::SolverStats& stats() const override { return inner_->stats(); }
    [[nodiscard]] std::string name() const override { return inner_->name(); }

private:
    std::unique_ptr<cnf::SatBackend> inner_ = cnf::makeInternalBackend();
};

}  // namespace etcs::test
