/// \file clause.hpp
/// Arena-allocated clause storage.
///
/// Clauses live in one contiguous std::uint32_t arena and are addressed by
/// ClauseRef offsets, which keeps watcher lists compact and makes garbage
/// collection a linear copy.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "sat/types.hpp"
#include "util/error.hpp"

namespace etcs::sat {

/// Offset of a clause's header word inside the ClauseArena.
using ClauseRef = std::uint32_t;
inline constexpr ClauseRef kInvalidClause = 0xFFFFFFFFu;

/// The top bit of a ClauseRef, which the arena never hands out: Solver's
/// watchers use it to tag binary clauses.
inline constexpr ClauseRef kBinaryClauseTag = 0x80000000u;

/// A non-owning view of a clause stored in a ClauseArena.
///
/// Layout in the arena, around the header word a ClauseRef addresses:
///   word -1: activity as float bits (learnt clauses only)
///   word 0:  (size << 1) | learnt
///   word 1...: literal codes
/// Literals sit at a fixed offset from the header, so reading one does not
/// depend on whether the clause is learnt.
class Clause {
public:
    Clause(std::uint32_t* base) noexcept : base_(base) {}

    [[nodiscard]] std::uint32_t size() const noexcept { return base_[0] >> 1; }
    [[nodiscard]] bool learnt() const noexcept { return (base_[0] & 1) != 0; }

    [[nodiscard]] Literal operator[](std::uint32_t i) const noexcept {
        return Literal::fromCode(static_cast<std::int32_t>(base_[1 + i]));
    }
    void setLiteral(std::uint32_t i, Literal l) noexcept {
        base_[1 + i] = static_cast<std::uint32_t>(l.code());
    }

    /// Learnt clauses only.
    [[nodiscard]] float activity() const noexcept {
        return std::bit_cast<float>(base_[-1]);
    }
    void setActivity(float a) noexcept { base_[-1] = std::bit_cast<std::uint32_t>(a); }

    /// Words needed to store a clause of `size` literals.
    [[nodiscard]] static std::uint32_t words(std::uint32_t size, bool learnt) noexcept {
        return 1 + (learnt ? 1 : 0) + size;
    }

private:
    std::uint32_t* base_;
};

/// Bump allocator for clauses with mark-and-copy garbage collection support.
class ClauseArena {
public:
    /// Allocate a clause; returns its reference. Learnt clauses start with
    /// activity 0.
    ClauseRef allocate(std::span<const Literal> lits, bool learnt) {
        ETCS_REQUIRE(lits.size() >= 2);
        const auto need = Clause::words(static_cast<std::uint32_t>(lits.size()), learnt);
        ETCS_REQUIRE_MSG(storage_.size() + need <= kBinaryClauseTag,
                         "clause arena would reach the binary-clause tag bit");
        const std::size_t at = storage_.size();
        storage_.resize(at + need);
        if (learnt) {
            storage_[at] = std::bit_cast<std::uint32_t>(0.0f);
        }
        const ClauseRef ref = static_cast<ClauseRef>(at + (learnt ? 1 : 0));
        std::uint32_t* out = storage_.data() + ref;
        *out++ = (static_cast<std::uint32_t>(lits.size()) << 1) | (learnt ? 1u : 0u);
        for (Literal l : lits) {
            *out++ = static_cast<std::uint32_t>(l.code());
        }
        ++liveClauses_;
        return ref;
    }

    [[nodiscard]] Clause view(ClauseRef ref) noexcept { return Clause(storage_.data() + ref); }
    [[nodiscard]] Clause view(ClauseRef ref) const noexcept {
        // Clause only mutates through non-const methods; this const overload
        // is used for read-only inspection.
        return Clause(const_cast<std::uint32_t*>(storage_.data() + ref));
    }

    void markFreed(ClauseRef ref) noexcept {
        wasted_ += Clause::words(view(ref).size(), view(ref).learnt());
        --liveClauses_;
    }

    [[nodiscard]] std::size_t wastedWords() const noexcept { return wasted_; }
    [[nodiscard]] std::size_t totalWords() const noexcept { return storage_.size(); }
    [[nodiscard]] std::size_t liveClauses() const noexcept { return liveClauses_; }

private:
    std::vector<std::uint32_t> storage_;
    std::size_t wasted_ = 0;
    std::size_t liveClauses_ = 0;
};

}  // namespace etcs::sat
