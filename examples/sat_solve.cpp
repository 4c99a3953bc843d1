/// \file sat_solve.cpp
/// Standalone DIMACS front end for the built-in CDCL solver — useful for
/// exercising the SAT substrate on standard benchmark files.
///
///   sat_solve [--stats] [--explain] [--proof FILE [--binary-proof]] [file.cnf]
///
/// Reads DIMACS CNF from the file (or stdin), prints the SAT-competition
/// style result ("s SATISFIABLE" + "v ..." model lines, or
/// "s UNSATISFIABLE"). Exit code: 10 = SAT, 20 = UNSAT (competition
/// convention), 2 = usage or input error.
///
/// With --proof FILE, every solver inference is logged as a DRAT proof
/// (text by default, binary with --binary-proof); on UNSAT the file can be
/// validated with `dratcheck file.cnf FILE`.
///
/// With --explain, the proof is captured in memory, an UNSAT verdict is
/// certified in-process with the independent DRAT checker, and the indices
/// of the original clauses in the certified core are printed as "c core"
/// comments (the CNF-level half of the provenance pipeline in
/// docs/EXPLAIN.md). Combines with --proof: the captured proof is then also
/// serialized to the file.
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>

#include "sat/dimacs.hpp"
#include "sat/drat_check.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"

using namespace etcs::sat;

namespace {

int usage() {
    std::cerr << "usage: sat_solve [--stats] [--explain] [--proof FILE [--binary-proof]] "
                 "[file.cnf]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    bool printStats = false;
    bool binaryProof = false;
    bool explain = false;
    const char* proofPath = nullptr;
    const char* path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stats") == 0) {
            printStats = true;
        } else if (std::strcmp(argv[i], "--binary-proof") == 0) {
            binaryProof = true;
        } else if (std::strcmp(argv[i], "--explain") == 0) {
            explain = true;
        } else if (std::strcmp(argv[i], "--proof") == 0 && i + 1 < argc) {
            proofPath = argv[++i];
        } else if (argv[i][0] == '-') {
            return usage();
        } else {
            path = argv[i];
        }
    }

    try {
        CnfFormula formula;
        if (path != nullptr) {
            std::ifstream in(path);
            if (!in) {
                std::cerr << "c cannot open " << path << "\n";
                return 2;
            }
            formula = readDimacs(in);
        } else {
            formula = readDimacs(std::cin);
        }
        std::cout << "c parsed " << formula.numVariables << " variables, "
                  << formula.clauses.size() << " clauses\n";

        std::ofstream proofFile;
        std::unique_ptr<ProofWriter> fileProof;
        if (proofPath != nullptr) {
            proofFile.open(proofPath,
                           binaryProof ? std::ios::out | std::ios::binary : std::ios::out);
            if (!proofFile) {
                std::cerr << "c cannot open " << proofPath << "\n";
                return 2;
            }
            if (binaryProof) {
                fileProof = std::make_unique<BinaryDratWriter>(proofFile);
            } else {
                fileProof = std::make_unique<TextDratWriter>(proofFile);
            }
        }

        // --explain captures the proof in memory so it can be checked
        // in-process against the formula; the file writer, when present,
        // gets the same proof replayed afterwards.
        MemoryProofWriter memoryProof;
        ProofWriter* proof =
            explain ? static_cast<ProofWriter*>(&memoryProof) : fileProof.get();

        const auto finishProof = [&] {
            if (explain && fileProof) {
                writeDrat(*fileProof, memoryProof.proof());
            }
            if (fileProof) {
                fileProof->flush();
            }
        };
        const auto certifyCore = [&] {
            const DratCheckResult check = checkDrat(formula, memoryProof.proof());
            if (!check.verified) {
                std::cout << "c explain: DRAT certification FAILED: " << check.error
                          << "\n";
                return;
            }
            std::cout << "c explain: certified UNSAT core: "
                      << check.coreClauseIndices.size() << " of "
                      << formula.clauses.size() << " original clauses ("
                      << check.stats.verifiedLemmas << " verified lemmas)\n";
            std::cout << "c core";
            for (const std::size_t index : check.coreClauseIndices) {
                std::cout << ' ' << index;
            }
            std::cout << "\n";
        };

        Solver solver;
        solver.setProofWriter(proof);
        for (int v = 0; v < formula.numVariables; ++v) {
            solver.addVariable();
        }
        for (const auto& clause : formula.clauses) {
            solver.addClause(clause);
        }
        const SolveStatus status = solver.solve();
        finishProof();
        if (printStats) {
            const auto& stats = solver.stats();
            std::cout << "c decisions " << stats.decisions << ", conflicts "
                      << stats.conflicts << ", propagations " << stats.propagations
                      << ", restarts " << stats.restarts << ", learned "
                      << stats.learnedClauses << "\n";
        }
        if (status == SolveStatus::Unsat) {
            if (explain) {
                certifyCore();
            }
            std::cout << "s UNSATISFIABLE\n";
            return 20;
        }
        std::cout << "s SATISFIABLE\nv";
        for (Var v = 0; v < formula.numVariables; ++v) {
            const Value value = solver.modelValue(v);
            std::cout << ' ' << (value == Value::True ? v + 1 : -(v + 1));
        }
        std::cout << " 0\n";
        return 10;
    } catch (const std::exception& e) {
        std::cerr << "c error: " << e.what() << "\n";
        return 2;
    }
}
