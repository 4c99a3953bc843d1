// The encoder's exact output, pinned: an FNV-1a digest (as in
// lint/cnf_lint.cpp) of the variable count and of every clause's literals in
// emitted order, with reachability pruning on and off, for
//  * the four paper studies: verify on the pure layout, generate, and
//    optimize on the open schedule;
//  * the five hard corridors perfbench's `frontier` verifies;
//  * one etcsgen scenario per family, verified on its finest layout.
//
// The same clauses in the same order keep the solver's search identical, so
// a change that only makes encoding faster leaves every digest untouched. A
// change to the formula or to its variable numbering moves them, and updates
// the pins here in the same change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>

#include "cnf/collect.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "gen/generator.hpp"
#include "studies/studies.hpp"

namespace etcs {
namespace {

enum class Layout { Free, Pure, Finest };

/// FNV-1a over the variable count, then each clause's size and literal codes.
std::uint64_t formulaDigest(const cnf::CollectingBackend& backend) {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t value) {
        h ^= value;
        h *= 1099511628211ULL;
    };
    mix(static_cast<std::uint32_t>(backend.numVariables()));
    for (const auto& clause : backend.clauses()) {
        mix(clause.size());
        for (const cnf::Literal l : clause) {
            mix(static_cast<std::uint32_t>(l.code()));
        }
    }
    return h;
}

std::string hex(std::uint64_t value) {
    char text[24];
    std::snprintf(text, sizeof(text), "0x%016llx", static_cast<unsigned long long>(value));
    return text;
}

/// The pinned digests of one input: with pruning on, then off.
struct Pin {
    const char* name;
    std::uint64_t pruned;
    std::uint64_t unpruned;
};

/// Encode `instance` both ways and compare against `pin`.
void expectDigests(const core::Instance& instance, Layout layout, const Pin& pin) {
    SCOPED_TRACE(pin.name);
    std::optional<core::VssLayout> fixed;
    if (layout == Layout::Pure) {
        fixed.emplace(instance.graph());
    } else if (layout == Layout::Finest) {
        fixed = core::VssLayout::finest(instance.graph());
    }
    for (const bool prune : {true, false}) {
        cnf::CollectingBackend backend;
        core::Encoder encoder(backend, instance,
                              core::EncoderOptions{.pruneUnreachable = prune});
        encoder.encode(fixed ? &*fixed : nullptr);
        const std::uint64_t digest = formulaDigest(backend);
        EXPECT_EQ(hex(digest), hex(prune ? pin.pruned : pin.unpruned))
            << (prune ? "pruned" : "unpruned") << ": " << backend.numVariables()
            << " variables, " << backend.numClauses() << " clauses";
    }
}

TEST(ClauseDigest, PaperStudies) {
    struct Study {
        studies::CaseStudy (*make)();
        Pin verify;
        Pin generate;
        Pin optimize;
    };
    const Study kStudies[] = {
        {&studies::runningExample,
         {"running_example/verify", 0x3e1130936f9ef498ULL, 0xb972fdde2e409068ULL},
         {"running_example/generate", 0xfdae286510fce993ULL, 0xe17c95b23a10bdf3ULL},
         {"running_example/optimize", 0x31747c743a0e738aULL, 0x56480a4525c294c1ULL}},
        {&studies::simpleLayout,
         {"simple_layout/verify", 0xcb7245d89bb7ab39ULL, 0xfb204daa6d83bad9ULL},
         {"simple_layout/generate", 0xb00c53f2d264068dULL, 0x19f684b42b7baba5ULL},
         {"simple_layout/optimize", 0x0e8633f2a7a27996ULL, 0x6cf7f321287ebeecULL}},
        {&studies::complexLayout,
         {"complex_layout/verify", 0x83a05d545ee06897ULL, 0x8d688baa1c8c7bcaULL},
         {"complex_layout/generate", 0xef08ec938a5071c7ULL, 0xe6da794700ad3314ULL},
         {"complex_layout/optimize", 0xcc641d9964f10555ULL, 0xa9fc510933942559ULL}},
        {&studies::nordlandsbanen,
         {"nordlandsbanen/verify", 0xcd6b82589e58e71eULL, 0x3759d22e0c4cc0a8ULL},
         {"nordlandsbanen/generate", 0xe39db422ccca6a0cULL, 0xf0f98a2108307672ULL},
         {"nordlandsbanen/optimize", 0x4208a796f4e3303aULL, 0x0fbbebc6503a147dULL}},
    };
    for (const Study& s : kStudies) {
        const studies::CaseStudy study = s.make();
        const core::Instance timed(study.network, study.trains, study.timedSchedule,
                                   study.resolution);
        const core::Instance open(study.network, study.trains, study.openSchedule,
                                  study.resolution);
        expectDigests(timed, Layout::Pure, s.verify);
        expectDigests(timed, Layout::Free, s.generate);
        expectDigests(open, Layout::Free, s.optimize);
    }
}

TEST(ClauseDigest, FrontierCorridors) {
    struct Corridor {
        int stations;
        int trains;
        int spacingMeters;
        Layout layout;
        Pin pin;
    };
    const Corridor kCorridors[] = {
        {4, 6, 2000, Layout::Pure,
         {"corridor_s4_t6_2000m_pure", 0x2168759cd110f75bULL, 0xe699fe061f007691ULL}},
        {2, 7, 1500, Layout::Finest,
         {"corridor_s2_t7_1500m_finest", 0xf78c92296846b28eULL, 0x65a7e544fdf40d94ULL}},
        {3, 6, 2250, Layout::Finest,
         {"corridor_s3_t6_2250m_finest", 0x8d7ba45632d986d7ULL, 0x823a098f6c172f0bULL}},
        {2, 6, 1500, Layout::Finest,
         {"corridor_s2_t6_1500m_finest", 0x0921d55a4d53ccafULL, 0xb82caf8c48de8e7fULL}},
        {4, 6, 2250, Layout::Pure,
         {"corridor_s4_t6_2250m_pure", 0x5575451b2393dd25ULL, 0xc53682b28297e76fULL}},
    };
    for (const Corridor& c : kCorridors) {
        const studies::CaseStudy study =
            studies::corridor(c.stations, c.trains, Meters(c.spacingMeters),
                              Resolution{Meters(500), Seconds(60)});
        const core::Instance instance(study.network, study.trains, study.timedSchedule,
                                      study.resolution);
        expectDigests(instance, c.layout, c.pin);
    }
}

TEST(ClauseDigest, GeneratedFamilies) {
    const Pin kPins[] = {
        {"corridor", 0x7ec0bd35bc9b9be5ULL, 0x56a09ad6a34a37ceULL},
        {"station", 0x171536401e58a7b2ULL, 0x4ea9ffb0f41d283cULL},
        {"junction", 0xd16e450eb376647dULL, 0xbd80f969d157af0fULL},
        {"ring", 0xb57a5309d2e87a03ULL, 0xe105d41be0844625ULL},
        {"single_track", 0x7beb999fda666412ULL, 0xe21663773ced0020ULL},
        {"network", 0x380a9fb7e6caf704ULL, 0x80c90e26eec8879cULL},
    };
    const auto families = gen::allFamilies();
    ASSERT_EQ(families.size(), std::size(kPins));
    for (std::size_t i = 0; i < families.size(); ++i) {
        gen::GenParams params;
        params.family = families[i];
        params.seed = 7;
        params.size = 8;
        params.trains = 6;
        const gen::GeneratedScenario g = gen::generate(params);
        ASSERT_EQ(gen::familyName(families[i]), kPins[i].name);
        const core::Instance instance(g.network, g.trains, g.schedule, params.resolution);
        expectDigests(instance, Layout::Finest, kPins[i]);
    }
}

}  // namespace
}  // namespace etcs
