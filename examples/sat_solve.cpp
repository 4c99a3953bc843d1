/// \file sat_solve.cpp
/// Standalone DIMACS front end for the built-in CDCL solver — useful for
/// exercising the SAT substrate on standard benchmark files.
///
///   sat_solve [--stats] [--explain] [--threads N [--deterministic]]
///             [--proof FILE [--binary-proof]] [file.cnf]
///
/// Reads DIMACS CNF from the file (or stdin), prints the SAT-competition
/// style result ("s SATISFIABLE" + "v ..." model lines, or
/// "s UNSATISFIABLE"). Exit code: 10 = SAT, 20 = UNSAT (competition
/// convention), 2 = usage or input error.
///
/// With --threads N (N != 1), the parallel portfolio solver races N
/// diversified CDCL workers with clause sharing (N = 0 picks the hardware
/// concurrency); --deterministic selects its reproducible lock-step mode.
/// See docs/PARALLEL.md.
///
/// With --proof FILE, every solver inference is logged as a DRAT proof
/// (text by default, binary with --binary-proof); on UNSAT the file can be
/// validated with `dratcheck file.cnf FILE`.
/// Portfolio proofs are winner-only (clause sharing is disabled while a
/// proof is attached).
///
/// With --explain, the proof is captured in memory, an UNSAT verdict is
/// certified in-process with the independent DRAT checker, and the indices
/// of the original clauses in the certified core are printed as "c core"
/// comments (the CNF-level half of the provenance pipeline in
/// docs/EXPLAIN.md). Combines with --proof: the captured proof is then also
/// serialized to the file.
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>

#include "sat/dimacs.hpp"
#include "sat/drat_check.hpp"
#include "sat/portfolio.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "util/parse.hpp"

using namespace etcs::sat;

namespace {

int usage() {
    std::cerr << "usage: sat_solve [--stats] [--explain] [--threads N [--deterministic]] "
                 "[--proof FILE [--binary-proof]] [file.cnf]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    bool printStats = false;
    bool binaryProof = false;
    bool deterministic = false;
    bool explain = false;
    int threads = 1;
    const char* proofPath = nullptr;
    const char* path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stats") == 0) {
            printStats = true;
        } else if (std::strcmp(argv[i], "--binary-proof") == 0) {
            binaryProof = true;
        } else if (std::strcmp(argv[i], "--deterministic") == 0) {
            deterministic = true;
        } else if (std::strcmp(argv[i], "--explain") == 0) {
            explain = true;
        } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            const auto count = etcs::util::parseNumber<int>(argv[++i]);
            if (!count || *count < 0) {
                std::cerr << "c --threads expects a count >= 0\n";
                return usage();
            }
            threads = *count;
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

        std::unique_ptr<PortfolioSolver> portfolio;
        Solver solver;
        SolveStatus status = SolveStatus::Unknown;
        if (threads != 1) {
            PortfolioOptions popts;
            popts.numThreads = threads;
            popts.deterministic = deterministic;
            portfolio = std::make_unique<PortfolioSolver>(popts);
            portfolio->setProofWriter(proof);
            for (int v = 0; v < formula.numVariables; ++v) {
                portfolio->addVariable();
            }
            for (const auto& clause : formula.clauses) {
                portfolio->addClause(clause);
            }
            std::cout << "c portfolio: " << portfolio->numThreads() << " workers"
                      << (deterministic ? ", deterministic" : "") << "\n";
            status = portfolio->solve();
            std::cout << "c portfolio winner: worker " << portfolio->lastWinner()
                      << "\n";
        } else {
            solver.setProofWriter(proof);
            for (int v = 0; v < formula.numVariables; ++v) {
                solver.addVariable();
            }
            for (const auto& clause : formula.clauses) {
                solver.addClause(clause);
            }
            status = solver.solve();
        }
        finishProof();
        if (printStats) {
            const auto& stats = portfolio ? portfolio->solverStats() : solver.stats();
            std::cout << "c decisions " << stats.decisions << ", conflicts "
                      << stats.conflicts << ", propagations " << stats.propagations
                      << ", restarts " << stats.restarts << ", learned "
                      << stats.learnedClauses << "\n";
            if (portfolio) {
                const auto& shared = portfolio->stats();
                std::cout << "c sharing: exported " << shared.exportedClauses
                          << ", imported " << shared.importedClauses << ", dropped "
                          << shared.droppedClauses << "\n";
            }
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
            const Value value = portfolio ? portfolio->modelValue(v) : solver.modelValue(v);
            std::cout << ' ' << (value == Value::True ? v + 1 : -(v + 1));
        }
        std::cout << " 0\n";
        return 10;
    } catch (const etcs::Error& e) {
        std::cerr << "c error: " << e.what() << "\n";
        return 2;
    }
}
