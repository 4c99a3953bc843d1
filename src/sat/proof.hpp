/// \file proof.hpp
/// DRAT proof logging for the SAT subsystem.
///
/// A ProofWriter is a sink for clause additions and deletions in the DRAT
/// clausal proof format. The solver logs every clause it derives
/// (normalized inputs, learnt clauses, propagated units) and every learnt
/// clause it discards (learnt-DB reduction), so an UNSAT answer can be
/// certified by an independent checker (see drat_check.hpp) against the
/// original formula.
///
/// Logging is strictly opt-in: components hold a `ProofWriter*` that is
/// null by default, and every logging site is guarded by a single pointer
/// test, so the cost when disabled is one predictable branch.
///
/// Supported encodings:
///  * text DRAT  — one step per line, "1 -2 0" adds, "d 1 -2 0" deletes;
///  * binary DRAT — 'a'/'d' tag byte followed by variable-length-encoded
///    literals (the format accepted by drat-trim's -i switch).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <vector>

#include "sat/types.hpp"

namespace etcs::sat {

/// One parsed or recorded DRAT proof step.
struct DratStep {
    bool isDeletion = false;
    std::vector<Literal> literals;

    friend bool operator==(const DratStep&, const DratStep&) = default;
};

/// A whole DRAT proof, in emission order.
struct DratProof {
    std::vector<DratStep> steps;
};

/// Sink for DRAT proof steps. Implementations choose the on-the-wire format.
class ProofWriter {
public:
    virtual ~ProofWriter() = default;

    void addClause(std::span<const Literal> literals) {
        ++additions_;
        writeStep(/*isDeletion=*/false, literals);
    }
    void addClause(std::initializer_list<Literal> literals) {
        addClause(std::span<const Literal>(literals.begin(), literals.size()));
    }
    /// Log the empty clause: the formula has been refuted.
    void addEmptyClause() { addClause(std::span<const Literal>{}); }

    void deleteClause(std::span<const Literal> literals) {
        ++deletions_;
        writeStep(/*isDeletion=*/true, literals);
    }
    void deleteClause(std::initializer_list<Literal> literals) {
        deleteClause(std::span<const Literal>(literals.begin(), literals.size()));
    }

    /// Push buffered output to the underlying sink (no-op by default).
    virtual void flush() {}

    [[nodiscard]] std::uint64_t additions() const noexcept { return additions_; }
    [[nodiscard]] std::uint64_t deletions() const noexcept { return deletions_; }

protected:
    virtual void writeStep(bool isDeletion, std::span<const Literal> literals) = 0;

private:
    std::uint64_t additions_ = 0;
    std::uint64_t deletions_ = 0;
};

/// Writes text DRAT ("d " prefix for deletions, DIMACS literal numbering).
class TextDratWriter final : public ProofWriter {
public:
    explicit TextDratWriter(std::ostream& out) : out_(&out) {}
    void flush() override;

protected:
    void writeStep(bool isDeletion, std::span<const Literal> literals) override;

private:
    std::ostream* out_;
};

/// Writes binary DRAT: 'a'/'d' tag, then each literal as a 7-bit
/// variable-length unsigned integer (lit > 0 -> 2*lit, lit < 0 -> 2*|lit|+1),
/// each step terminated by a zero byte.
class BinaryDratWriter final : public ProofWriter {
public:
    explicit BinaryDratWriter(std::ostream& out) : out_(&out) {}
    void flush() override;

protected:
    void writeStep(bool isDeletion, std::span<const Literal> literals) override;

private:
    std::ostream* out_;
};

/// Records steps in memory (tests and in-process certification).
class MemoryProofWriter final : public ProofWriter {
public:
    [[nodiscard]] const DratProof& proof() const noexcept { return proof_; }
    [[nodiscard]] DratProof takeProof() noexcept { return std::move(proof_); }
    void clear() { proof_.steps.clear(); }

protected:
    void writeStep(bool isDeletion, std::span<const Literal> literals) override {
        proof_.steps.push_back(
            DratStep{isDeletion, std::vector<Literal>(literals.begin(), literals.end())});
    }

private:
    DratProof proof_;
};

/// Parse a text DRAT stream. Accepts "c ..." comment lines; throws
/// etcs::InputError on malformed input.
[[nodiscard]] DratProof readDratText(std::istream& in);

/// Parse a binary DRAT stream; throws etcs::InputError on malformed input.
[[nodiscard]] DratProof readDratBinary(std::istream& in);

/// Parse a DRAT stream, sniffing the encoding: a prefix made entirely of
/// text-DRAT characters selects the text parser, anything else the binary
/// parser.
[[nodiscard]] DratProof readDrat(std::istream& in);

/// Serialize a proof through the given writer (format conversion helper).
void writeDrat(ProofWriter& writer, const DratProof& proof);

}  // namespace etcs::sat
