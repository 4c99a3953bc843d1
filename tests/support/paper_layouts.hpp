/// \file paper_layouts.hpp
/// The paper's two small case studies as a value parameter for TEST_P suites
/// (differential_test). The parameter prints as the study's name, and
/// gtest_discover_tests builds each CTest name from that printed value, so
/// the names stay the same from one build to the next. A bare function
/// pointer would print as its load address, which changes per run.
#pragma once

#include <array>
#include <ostream>

#include "studies/studies.hpp"

namespace etcs::test {

struct PaperLayout {
    const char* name;
    studies::CaseStudy (*make)();
};

inline void PrintTo(const PaperLayout& layout, std::ostream* os) {
    *os << layout.name;
}

inline const std::array<PaperLayout, 2> kPaperLayouts{{
    {"running_example", &studies::runningExample},
    {"simple_layout", &studies::simpleLayout},
}};

}  // namespace etcs::test
