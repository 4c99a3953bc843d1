#include "sat/proof.hpp"

#include <cctype>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string>

#include "sat/dimacs.hpp"
#include "util/error.hpp"

namespace etcs::sat {

namespace {

/// DIMACS integer of a literal (variable numbering starts at 1).
long long dimacsLiteral(Literal l) {
    const long long magnitude = static_cast<long long>(l.var()) + 1;
    return l.sign() ? -magnitude : magnitude;
}

/// Binary-DRAT unsigned mapping: lit > 0 -> 2*lit, lit < 0 -> 2*|lit|+1.
std::uint64_t binaryCode(Literal l) {
    const std::uint64_t magnitude = static_cast<std::uint64_t>(l.var()) + 1;
    return 2 * magnitude + (l.sign() ? 1 : 0);
}

void writeVarint(std::ostream& out, std::uint64_t value) {
    while (value >= 0x80) {
        out.put(static_cast<char>((value & 0x7F) | 0x80));
        value >>= 7;
    }
    out.put(static_cast<char>(value));
}

}  // namespace

void TextDratWriter::writeStep(bool isDeletion, std::span<const Literal> literals) {
    if (isDeletion) {
        *out_ << "d ";
    }
    for (Literal l : literals) {
        *out_ << dimacsLiteral(l) << ' ';
    }
    *out_ << "0\n";
}

void TextDratWriter::flush() { out_->flush(); }

void BinaryDratWriter::writeStep(bool isDeletion, std::span<const Literal> literals) {
    out_->put(isDeletion ? 'd' : 'a');
    for (Literal l : literals) {
        writeVarint(*out_, binaryCode(l));
    }
    out_->put('\0');
}

void BinaryDratWriter::flush() { out_->flush(); }

DratProof readDratText(std::istream& in) {
    DratProof proof;
    DratStep current;
    bool inStep = false;
    std::string token;
    while (in >> token) {
        if (token == "c") {
            // Comment: skip to end of line.
            std::string rest;
            std::getline(in, rest);
            continue;
        }
        if (token == "d") {
            if (inStep) {
                throw InputError("DRAT 'd' marker inside a clause");
            }
            current.isDeletion = true;
            inStep = true;
            continue;
        }
        long long value = 0;
        try {
            std::size_t consumed = 0;
            value = std::stoll(token, &consumed);
            if (consumed != token.size()) {
                throw InputError("malformed DRAT literal: " + token);
            }
        } catch (const std::logic_error&) {
            throw InputError("malformed DRAT literal: " + token);
        }
        if (value == 0) {
            proof.steps.push_back(std::move(current));
            current = DratStep{};
            inStep = false;
            continue;
        }
        current.literals.push_back(literalFromDimacs(value));
        inStep = true;
    }
    if (inStep) {
        throw InputError("DRAT input ends inside a step (missing trailing 0)");
    }
    return proof;
}

DratProof readDratBinary(std::istream& in) {
    DratProof proof;
    int tag = 0;
    while ((tag = in.get()) != std::istream::traits_type::eof()) {
        DratStep step;
        if (tag == 'd') {
            step.isDeletion = true;
        } else if (tag != 'a') {
            throw InputError("binary DRAT step must start with 'a' or 'd'");
        }
        while (true) {
            std::uint64_t value = 0;
            int shift = 0;
            int byte = 0;
            do {
                byte = in.get();
                if (byte == std::istream::traits_type::eof()) {
                    throw InputError("binary DRAT input ends inside a step");
                }
                if (shift >= 63) {
                    throw InputError("binary DRAT literal overflows");
                }
                value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
                shift += 7;
            } while ((byte & 0x80) != 0);
            if (value == 0) {
                break;
            }
            step.literals.push_back(literalFromDimacs(value / 2, (value & 1) != 0));
        }
        proof.steps.push_back(std::move(step));
    }
    return proof;
}

DratProof readDrat(std::istream& in) {
    // Sniff: text DRAT uses only digits, signs, 'd', 'c' comments, and
    // whitespace. A binary proof almost always contains something else in
    // its first few bytes ('a' tags, high bytes, or NUL terminators).
    std::string prefix;
    for (int i = 0; i < 256; ++i) {
        const int byte = in.get();
        if (byte == std::istream::traits_type::eof()) {
            break;
        }
        prefix.push_back(static_cast<char>(byte));
    }
    bool looksText = true;
    bool commented = false;
    for (char c : prefix) {
        if (c == '\n') {
            commented = false;
            continue;
        }
        if (commented) {
            continue;  // anything goes inside a comment line
        }
        if (c == 'c') {
            commented = true;
            continue;
        }
        const bool textByte = (std::isdigit(static_cast<unsigned char>(c)) != 0) ||
                              c == '-' || c == 'd' || c == ' ' || c == '\t' || c == '\r';
        if (!textByte) {
            looksText = false;
            break;
        }
    }
    // Re-assemble the full stream from the sniffed prefix plus the rest.
    std::string contents = prefix;
    contents.append(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    std::istringstream whole(contents);
    return looksText ? readDratText(whole) : readDratBinary(whole);
}

void writeDrat(ProofWriter& writer, const DratProof& proof) {
    for (const DratStep& step : proof.steps) {
        if (step.isDeletion) {
            writer.deleteClause(step.literals);
        } else {
            writer.addClause(step.literals);
        }
    }
    writer.flush();
}

}  // namespace etcs::sat
