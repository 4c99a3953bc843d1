#include "sat/dimacs.hpp"

#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "util/error.hpp"

namespace etcs::sat {

Literal literalFromDimacs(std::uint64_t variable, bool negative) {
    if (variable == 0 || variable > kMaxDimacsVariable) {
        throw InputError("variable number out of range (1.." +
                         std::to_string(kMaxDimacsVariable) + "): " +
                         (negative ? "-" : "") + std::to_string(variable));
    }
    return Literal(static_cast<Var>(variable - 1), negative);
}

Literal literalFromDimacs(long long value) {
    // Negate in unsigned arithmetic: -LLONG_MIN does not fit a long long.
    const auto magnitude = static_cast<std::uint64_t>(value);
    return literalFromDimacs(value < 0 ? 0 - magnitude : magnitude, value < 0);
}

CnfFormula readDimacs(std::istream& in) {
    CnfFormula formula;
    bool sawHeader = false;
    std::size_t declaredClauses = 0;
    std::vector<Literal> current;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == 'c') {
            continue;
        }
        std::istringstream ls(line);
        if (line[0] == 'p') {
            std::string p;
            std::string fmt;
            long long vars = 0;
            if (!(ls >> p >> fmt >> vars >> declaredClauses) || fmt != "cnf") {
                throw InputError("malformed DIMACS header: " + line);
            }
            if (vars < 0 || static_cast<std::uint64_t>(vars) > kMaxDimacsVariable) {
                throw InputError("DIMACS variable count out of range: " + line);
            }
            formula.numVariables = static_cast<int>(vars);
            sawHeader = true;
            continue;
        }
        if (!sawHeader) {
            throw InputError("DIMACS clause before 'p cnf' header");
        }
        long long value = 0;
        while (true) {
            if (!(ls >> value)) {
                if (!ls.eof()) {
                    throw InputError("non-numeric token in DIMACS clause line: " + line);
                }
                break;
            }
            if (value == 0) {
                formula.clauses.push_back(current);
                current.clear();
                continue;
            }
            const Literal literal = literalFromDimacs(value);
            if (literal.var() >= formula.numVariables) {
                throw InputError("DIMACS literal exceeds declared variable count: " +
                                 std::to_string(value));
            }
            current.push_back(literal);
        }
    }
    if (!sawHeader) {
        throw InputError("missing DIMACS 'p cnf' header");
    }
    if (!current.empty()) {
        throw InputError("DIMACS input ends inside a clause (missing trailing 0)");
    }
    if (declaredClauses != formula.clauses.size()) {
        throw InputError("DIMACS clause count mismatch: declared " +
                         std::to_string(declaredClauses) + ", found " +
                         std::to_string(formula.clauses.size()));
    }
    return formula;
}

void writeDimacs(std::ostream& out, const CnfFormula& formula) {
    out << "p cnf " << formula.numVariables << ' ' << formula.clauses.size() << '\n';
    for (const auto& clause : formula.clauses) {
        for (Literal l : clause) {
            out << (l.sign() ? -(l.var() + 1) : (l.var() + 1)) << ' ';
        }
        out << "0\n";
    }
}

bool writeDimacsFile(const std::string& path, const CnfFormula& formula) {
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    writeDimacs(out, formula);
    out.flush();
    if (!out) {
        out.close();
        std::remove(path.c_str());  // never leave a truncated instance behind
        return false;
    }
    return true;
}

}  // namespace etcs::sat
