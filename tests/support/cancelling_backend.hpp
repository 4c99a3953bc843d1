/// \file cancelling_backend.hpp
/// A SatBackend decorator for cancellation tests (tasks_test, minimize_test):
/// it forwards to the internal backend, but from its `cancelFrom`-th solve()
/// on (counting from 1) answers Unknown without solving — what a backend
/// returns once a progress hook has cancelled the search.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "forwarding_backend.hpp"

namespace etcs::test {

class CancellingBackend final : public ForwardingBackend {
public:
    /// `solves` counts every solve() call, cancelled or not.
    CancellingBackend(std::uint64_t cancelFrom, std::uint64_t& solves)
        : cancelFrom_(cancelFrom), solves_(&solves) {}

    using ForwardingBackend::solve;

    cnf::SolveStatus solve(std::span<const cnf::Literal> assumptions) override {
        return ++*solves_ >= cancelFrom_ ? cnf::SolveStatus::Unknown
                                         : ForwardingBackend::solve(assumptions);
    }
    [[nodiscard]] std::string name() const override { return "cancelling"; }

private:
    std::uint64_t cancelFrom_;
    std::uint64_t* solves_;
};

}  // namespace etcs::test
