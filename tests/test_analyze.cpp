// Tests for tools/analyze: every whole-program rule is pinned by a
// must-fire and a near-miss fixture under tests/analyze/<case>/ (each case
// is a miniature repo root that load_closure walks), every per-file rule by
// a must-fire and a near-miss fixture under tests/lint/, plus in-memory
// cases for scoping, suppressions, the lexer, drift, rule filtering, and
// the golden report format.
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyze_core.hpp"

namespace {

using redist::analyze::AnalysisResult;
using redist::analyze::Finding;
using redist::analyze::Options;
using redist::analyze::SourceFile;

const std::vector<std::string> kPerFileRules = {
    "no-nondeterminism", "float-eq", "telemetry-guard", "mutex-guard",
    "wallclock"};

// The tests/analyze/ fixtures pin the whole-program rules; the per-file
// rules have their own fixtures under tests/lint/ (det.cpp's rand() would
// trip no-nondeterminism as well).
Options whole_program_rules() {
  Options options;
  for (const auto& id : redist::analyze::rule_ids()) {
    if (std::find(kPerFileRules.begin(), kPerFileRules.end(), id) ==
        kPerFileRules.end()) {
      options.rules.push_back(id);
    }
  }
  return options;
}

std::string fixture_root(const std::string& name) {
  return std::string(REDIST_ANALYZE_FIXTURE_DIR) + "/" + name;
}

AnalysisResult analyze_fixture(
    const std::string& name, const std::vector<std::string>& tus,
    const Options& options = whole_program_rules()) {
  const auto sources =
      redist::analyze::load_closure(fixture_root(name), tus);
  EXPECT_FALSE(sources.empty()) << "fixture " << name << " loaded nothing";
  return redist::analyze::run_analysis(sources, options);
}

std::vector<Finding> by_rule(const AnalysisResult& r,
                             const std::string& rule) {
  std::vector<Finding> out;
  for (const auto& f : r.findings)
    if (f.rule == rule) out.push_back(f);
  return out;
}

bool mentions(const Finding& f, const std::string& needle) {
  return f.message.find(needle) != std::string::npos;
}

TEST(Analyze, DeterminismReachabilityFiresThroughCallChain) {
  const auto r = analyze_fixture("det", {"src/kpbs/det.cpp"});
  const auto det = by_rule(r, "determinism");
  ASSERT_EQ(det.size(), 3u) << redist::analyze::format_report(r.findings);
  // All three sinks live in the .cpp; messages attribute root and chain.
  for (const auto& f : det) EXPECT_EQ(f.file, "src/kpbs/det.cpp");

  const auto rng = std::find_if(det.begin(), det.end(), [](const Finding& f) {
    return f.message.find("'rand'") != std::string::npos;
  });
  ASSERT_NE(rng, det.end());
  EXPECT_TRUE(mentions(*rng, "noisy_helper"));
  EXPECT_TRUE(mentions(*rng, "deterministic_entry"));

  EXPECT_TRUE(std::any_of(det.begin(), det.end(), [](const Finding& f) {
    return f.message.find("unordered-container iteration") !=
           std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(det.begin(), det.end(), [](const Finding& f) {
    return f.message.find("float comparator") != std::string::npos;
  }));

  // Near misses: the ALLOW_NONDET boundary, the unannotated helper, the
  // std::map loop, stable_sort, and the integer comparator stay silent —
  // so determinism is the only rule with findings at all.
  EXPECT_EQ(r.findings.size(), det.size())
      << redist::analyze::format_report(r.findings);
}

TEST(Analyze, PurityAddsIoSinksDeterminismDoesNot) {
  const auto r = analyze_fixture("purity", {"src/common/pure.cpp"});
  ASSERT_EQ(r.findings.size(), 1u)
      << redist::analyze::format_report(r.findings);
  EXPECT_EQ(r.findings[0].rule, "purity");
  EXPECT_TRUE(mentions(r.findings[0], "'printf'"));
  EXPECT_TRUE(mentions(r.findings[0], "pure_value"));
}

TEST(Analyze, LayeringRejectsUpwardIncludeButNotConditionalSeam) {
  const auto r = analyze_fixture(
      "layering",
      {"src/matching/up.hpp", "src/matching/guarded.hpp",
       "src/kpbs/sched.hpp"});
  ASSERT_EQ(r.findings.size(), 1u)
      << redist::analyze::format_report(r.findings);
  EXPECT_EQ(r.findings[0].rule, "layering");
  EXPECT_EQ(r.findings[0].file, "src/matching/up.hpp");
  EXPECT_TRUE(mentions(r.findings[0], "kpbs"));
  // The module graph export still records the edge (solid, because up.hpp
  // makes it unconditional).
  EXPECT_NE(r.include_dot.find("\"matching\" -> \"kpbs\""),
            std::string::npos);
}

TEST(Analyze, LayeringFiresOnEveryUpwardEdge) {
  // No upward edge is sanctioned: obs reaching into net fires exactly like
  // graph reaching into net.
  const std::vector<SourceFile> sources = {
      {"src/obs/endpoint.hpp",
       "#pragma once\n#include \"net/sock.hpp\"\nREDIST_LAYER(\"obs\");\n"},
      {"src/graph/leak.hpp",
       "#pragma once\n#include \"net/sock.hpp\"\nREDIST_LAYER(\"graph\");\n"},
      {"src/net/sock.hpp", "#pragma once\nREDIST_LAYER(\"net\");\n"}};
  Options layering_only;
  layering_only.rules = {"layering"};
  const auto r = redist::analyze::run_analysis(sources, layering_only);
  ASSERT_EQ(r.findings.size(), 2u)
      << redist::analyze::format_report(r.findings);
  std::set<std::string> files;
  for (const auto& f : r.findings) {
    EXPECT_EQ(f.rule, "layering");
    EXPECT_TRUE(mentions(f, "net"));
    files.insert(f.file);
  }
  EXPECT_EQ(files, (std::set<std::string>{"src/graph/leak.hpp",
                                          "src/obs/endpoint.hpp"}));
}

TEST(Analyze, IncludeCycleDetected) {
  const auto r =
      analyze_fixture("cycle", {"src/graph/a.hpp", "src/graph/b.hpp"});
  const auto cycles = by_rule(r, "include-cycle");
  ASSERT_EQ(cycles.size(), 1u)
      << redist::analyze::format_report(r.findings);
  EXPECT_TRUE(mentions(cycles[0], "src/graph/a.hpp"));
  EXPECT_TRUE(mentions(cycles[0], "src/graph/b.hpp"));
  EXPECT_EQ(r.findings.size(), cycles.size());
}

TEST(Analyze, LayerTagMissingAndMismatchedBothFire) {
  const auto r = analyze_fixture(
      "layer_tag",
      {"src/obs/untagged.hpp", "src/obs/mistagged.hpp",
       "src/obs/tagged.hpp", "src/obs/impl.cpp"});
  const auto tags = by_rule(r, "layer-tag");
  ASSERT_EQ(tags.size(), 2u) << redist::analyze::format_report(r.findings);
  EXPECT_EQ(tags[0].file, "src/obs/mistagged.hpp");
  EXPECT_TRUE(mentions(tags[0], "REDIST_LAYER(\"obs\")"));
  EXPECT_EQ(tags[1].file, "src/obs/untagged.hpp");
  EXPECT_EQ(tags[1].line, 1);
  EXPECT_EQ(r.findings.size(), tags.size());
}

TEST(Analyze, DeprecatedPositionalSolveKpbsCallAndRedeclaration) {
  const auto r = analyze_fixture("deprecated", {"src/kpbs/calls.cpp"});
  const auto dep = by_rule(r, "deprecated-api");
  ASSERT_EQ(dep.size(), 2u) << redist::analyze::format_report(r.findings);
  for (const auto& f : dep) {
    EXPECT_EQ(f.file, "src/kpbs/calls.cpp");
    EXPECT_TRUE(mentions(f, "SolverOptions"));
  }
  // The braced-options and two-argument calls stay silent.
  EXPECT_EQ(r.findings.size(), dep.size());
}

TEST(Analyze, LockTransitionScopedToNetAndRobustWithSuppression) {
  const auto r = analyze_fixture(
      "lock", {"src/net/chan.cpp", "src/runtime/pool.cpp"});
  const auto locks = by_rule(r, "lock-transition");
  ASSERT_EQ(locks.size(), 2u) << redist::analyze::format_report(r.findings);
  // Both findings are the manual pair in src/net; the runtime file is out
  // of the rule's scope and the try_lock carries an allow() suppression.
  for (const auto& f : locks) EXPECT_EQ(f.file, "src/net/chan.cpp");
  EXPECT_TRUE(mentions(locks[0], ".lock()"));
  EXPECT_TRUE(mentions(locks[1], ".unlock()"));
  EXPECT_EQ(r.findings.size(), locks.size());
}

TEST(Analyze, LockRankInversionsDirectAndInterprocedural) {
  const auto r = analyze_fixture("lockrank", {"src/runtime/ranks.cpp"});
  const auto ranks = by_rule(r, "lock-rank");
  // Expected: the unranked lock, the direct inversion, the derived
  // (call-graph) inversion, and the cycle those two inversions close with
  // the correctly-ordered chain. The suppressed unranked lock and both
  // ordered chains stay silent.
  EXPECT_EQ(r.findings.size(), ranks.size())
      << redist::analyze::format_report(r.findings);
  ASSERT_EQ(ranks.size(), 4u) << redist::analyze::format_report(r.findings);

  EXPECT_TRUE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("'naked_mu' has no REDIST_LOCK_RANK") !=
           std::string::npos;
  }));
  EXPECT_FALSE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("hushed_mu") != std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("acquired directly in 'fixture_inverted'") !=
           std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("via call to 'fixture_take_a' in "
                          "'fixture_interprocedural_inversion'") !=
           std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("lock acquisition cycle") != std::string::npos;
  }));
}

TEST(Analyze, LockRankDeclaredCycleAndUnknownTarget) {
  const auto r = analyze_fixture("lockrank", {"src/runtime/cycle.cpp"});
  const auto ranks = by_rule(r, "lock-rank");
  EXPECT_EQ(r.findings.size(), ranks.size())
      << redist::analyze::format_report(r.findings);
  // The d_mu -> c_mu edge inverts the ranks, the pair forms a declared
  // cycle, and e_mu points at a lock that does not exist.
  ASSERT_EQ(ranks.size(), 3u) << redist::analyze::format_report(r.findings);
  EXPECT_TRUE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("declared by REDIST_ACQUIRED_BEFORE") !=
           std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("lock acquisition cycle") != std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("unknown lock 'ghost_mu'") != std::string::npos;
  }));
}

TEST(Analyze, NoblockUnderLockAndReachabilityWithEscapes) {
  const auto r = analyze_fixture("noblock", {"src/runtime/blocky.cpp"});
  const auto blocks = by_rule(r, "noblock");
  EXPECT_EQ(r.findings.size(), blocks.size())
      << redist::analyze::format_report(r.findings);
  // Expected: the sleep under q_mu, the foreign condvar wait, the pool
  // enqueue, the interprocedural chain into the sleeping helper, and the
  // usleep reachable from the REDIST_NOBLOCK hot path. The unlock-then-
  // sleep, own-mutex wait, ALLOW_BLOCK boundary, and clean hot path stay
  // silent.
  ASSERT_EQ(blocks.size(), 5u) << redist::analyze::format_report(r.findings);

  EXPECT_TRUE(std::any_of(blocks.begin(), blocks.end(), [](const Finding& f) {
    return f.message.find("'sleep_for' in 'fixture_sleep_under_lock'") !=
           std::string::npos;
  }));
  EXPECT_FALSE(std::any_of(blocks.begin(), blocks.end(), [](const Finding& f) {
    return f.message.find("fixture_unlock_then_sleep") != std::string::npos ||
           f.message.find("fixture_own_wait") != std::string::npos ||
           f.message.find("fixture_sanctioned") != std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(blocks.begin(), blocks.end(), [](const Finding& f) {
    return f.message.find("condvar wait under a different lock") !=
           std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(blocks.begin(), blocks.end(), [](const Finding& f) {
    return f.message.find("'submit' in 'fixture_enqueue_under_lock'") !=
           std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(blocks.begin(), blocks.end(), [](const Finding& f) {
    return f.message.find("call to 'fixture_slow_helper'") !=
               std::string::npos &&
           f.message.find("blocking 'sleep_for'") != std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(blocks.begin(), blocks.end(), [](const Finding& f) {
    return f.message.find("reachable from REDIST_NOBLOCK "
                          "'fixture_hot_path'") != std::string::npos;
  }));
}

TEST(Analyze, NoallocDirectChainEscapeAndSuppression) {
  const auto r = analyze_fixture("noalloc", {"src/matching/hot.cpp"});
  const auto allocs = by_rule(r, "noalloc");
  EXPECT_EQ(r.findings.size(), allocs.size())
      << redist::analyze::format_report(r.findings);
  // Expected: the bare new and the push_back reached through the call
  // chain. The clean probe, the ALLOW_ALLOC boundary, and the suppressed
  // growth stay silent.
  ASSERT_EQ(allocs.size(), 2u) << redist::analyze::format_report(r.findings);
  EXPECT_TRUE(std::any_of(allocs.begin(), allocs.end(), [](const Finding& f) {
    return f.message.find("allocation 'new' in 'fixture_direct_new'") !=
           std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(allocs.begin(), allocs.end(), [](const Finding& f) {
    return f.message.find("'push_back' in 'fixture_grow' (reached via "
                          "'fixture_probe')") != std::string::npos;
  }));
  EXPECT_FALSE(std::any_of(allocs.begin(), allocs.end(), [](const Finding& f) {
    return f.message.find("fixture_buffered") != std::string::npos ||
           f.message.find("fixture_hushed") != std::string::npos;
  }));
}

TEST(Analyze, ContractDriftRemovalAdditionAndMissingBaseline) {
  const std::vector<SourceFile> sources = {
      {"src/kpbs/contract.hpp",
       "#pragma once\nREDIST_LAYER(\"kpbs\");\nREDIST_DETERMINISTIC\n"
       "int foo(int n);\n"}};

  Options in_sync;
  in_sync.baseline = "deterministic foo\n";
  auto r = redist::analyze::run_analysis(sources, in_sync);
  EXPECT_TRUE(r.findings.empty())
      << redist::analyze::format_report(r.findings);
  EXPECT_EQ(r.contracts, "deterministic foo\n");

  Options removed;
  removed.baseline = "deterministic foo\ndeterministic gone\n";
  r = redist::analyze::run_analysis(sources, removed);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "contract-drift");
  EXPECT_TRUE(mentions(r.findings[0], "'deterministic gone'"));
  EXPECT_TRUE(mentions(r.findings[0], "no longer declared"));

  Options added;
  added.baseline = "# comment lines are ignored\n";
  r = redist::analyze::run_analysis(sources, added);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "contract-drift");
  EXPECT_EQ(r.findings[0].file, "src/kpbs/contract.hpp");
  EXPECT_TRUE(mentions(r.findings[0], "'deterministic foo'"));
  EXPECT_TRUE(mentions(r.findings[0], "not recorded"));

  Options missing;
  missing.require_baseline = true;
  r = redist::analyze::run_analysis(sources, missing);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "contract-drift");
  EXPECT_TRUE(mentions(r.findings[0], "--write-baseline"));
}

TEST(Analyze, RuleFilteringRunsOnlyRequestedRules) {
  Options only_tags;
  only_tags.rules = {"layer-tag"};
  const auto r = analyze_fixture(
      "layering",
      {"src/matching/up.hpp", "src/matching/guarded.hpp",
       "src/kpbs/sched.hpp"},
      only_tags);
  // The upward include would fire under `layering`, but that rule is off
  // and every fixture header carries a correct tag.
  EXPECT_TRUE(r.findings.empty())
      << redist::analyze::format_report(r.findings);
}

TEST(Analyze, UnknownRuleIsAnError) {
  Options options;
  options.rules = {"no-such-rule"};
  EXPECT_THROW(redist::analyze::run_analysis({}, options),
               std::runtime_error);
}

TEST(Analyze, RuleListingCoversEveryRule) {
  for (const auto& id : redist::analyze::rule_ids()) {
    EXPECT_FALSE(redist::analyze::rule_description(id).empty()) << id;
  }
  EXPECT_EQ(redist::analyze::rule_ids().size(), 16u);
}

TEST(Analyze, TusFromCompileCommandsStripsRootAndForeignEntries) {
  const auto tus = redist::analyze::tus_from_compile_commands(
      fixture_root("compile_commands.json"), "/repo");
  const std::vector<std::string> expected = {"src/kpbs/det.cpp",
                                             "tools/analyze/core.cpp"};
  EXPECT_EQ(tus, expected);
}

TEST(Analyze, LoadClosureChasesQuotedIncludes) {
  const auto sources = redist::analyze::load_closure(
      fixture_root("det"), {"src/kpbs/det.cpp"});
  std::vector<std::string> paths;
  for (const auto& s : sources) paths.push_back(s.path);
  const std::vector<std::string> expected = {"src/kpbs/det.cpp",
                                             "src/kpbs/det.hpp"};
  EXPECT_EQ(paths, expected);  // system + unresolvable includes dropped
}

TEST(Analyze, GoldenReportFormat) {
  const std::vector<SourceFile> sources = {
      {"src/kpbs/fixture.cpp",
       "namespace redist {\n"
       "void fixture_fn(G& g) {\n"
       "  solve_kpbs(g, 1, 2, 3);\n"
       "}\n"
       "}\n"}};
  const auto r = redist::analyze::run_analysis(sources, {});
  EXPECT_EQ(
      redist::analyze::format_report(r.findings),
      "src/kpbs/fixture.cpp:3: [deprecated-api] positional "
      "solve_kpbs(graph, k, beta, ...) was removed in favor of "
      "solve_kpbs(graph, SolverOptions{...}); the old overload must not "
      "be reintroduced\n");
}

// ---------------------------------------------------------------------------
// Per-file rules: fixtures under tests/lint/ and in-memory sources
// ---------------------------------------------------------------------------

std::string rule_file_stem(const std::string& rule) {
  std::string stem = rule;
  std::replace(stem.begin(), stem.end(), '-', '_');
  return stem;
}

Options only(const std::vector<std::string>& rules) {
  Options options;
  options.rules = rules;
  return options;
}

std::vector<Finding> analyze_source(const std::string& path,
                                    const std::string& content,
                                    const Options& options) {
  return redist::analyze::run_analysis({{path, content}}, options).findings;
}

// A tests/lint/ fixture, analyzed at a path inside every rule's scope
// (src/net/ is also where lock-transition applies).
std::vector<Finding> lint_fixture(const std::string& name,
                                  const Options& options) {
  std::ifstream in(std::string(REDIST_LINT_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in) << "missing fixture " << name;
  std::stringstream content;
  content << in.rdbuf();
  return analyze_source("src/net/" + name, content.str(), options);
}

class LintFixtures : public ::testing::TestWithParam<std::string> {};

TEST_P(LintFixtures, MustFireFixtureFires) {
  const std::string rule = GetParam();
  const auto findings =
      lint_fixture("fail_" + rule_file_stem(rule) + ".cpp", only({rule}));
  ASSERT_FALSE(findings.empty()) << "fixture for " << rule << " is silent";
  for (const Finding& f : findings) EXPECT_EQ(f.rule, rule);
}

TEST_P(LintFixtures, NearMissFixtureStaysClean) {
  const std::string rule = GetParam();
  const auto findings =
      lint_fixture("pass_" + rule_file_stem(rule) + ".cpp", only({rule}));
  for (const Finding& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRules, LintFixtures,
                         ::testing::ValuesIn(kPerFileRules),
                         [](const auto& info) {
                           return rule_file_stem(info.param);
                         });

TEST(LintRules, RegistryIsComplete) {
  EXPECT_EQ(kPerFileRules.size(), 5u);
  const auto& ids = redist::analyze::rule_ids();
  for (const std::string& id : kPerFileRules) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
    EXPECT_FALSE(redist::analyze::rule_description(id).empty()) << id;
  }
}

TEST(LintSuppression, DirectivesNeutralizeFindings) {
  EXPECT_TRUE(lint_fixture("suppressed.cpp", only({"wallclock"})).empty());
}

TEST(LintSuppression, DirectiveOnlyCoversAdjacentLine) {
  const char* src =
      "// redist-analyze: allow(wallclock) covers next line only\n"
      "long a() { return time(nullptr); }\n"
      "long b() { return time(nullptr); }\n";
  const auto findings =
      analyze_source("src/kpbs/f.cpp", src, only({"wallclock"}));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintSuppression, TrailingDirectiveDoesNotBlanketTheNextLine) {
  // Regression: a trailing allow on one member must not swallow a finding
  // on the member declared directly below it.
  const char* src =
      "class C {\n"
      "  Mutex mu_;\n"
      "  Engine eng_;  // redist-analyze: allow(mutex-guard) ctor-only\n"
      "  int active_ = 0;\n"
      "};\n";
  const auto findings =
      analyze_source("src/runtime/x.hpp", src, only(kPerFileRules));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintSuppression, WrongRuleIdDoesNotSuppress) {
  const char* src =
      "// redist-analyze: allow(float-eq) wrong rule\n"
      "long a() { return time(nullptr); }\n";
  EXPECT_EQ(
      analyze_source("src/kpbs/f.cpp", src, only({"wallclock"})).size(), 1u);
}

// The same coverage rule holds for whole-program rules: a trailing allow
// on one manual transition does not hide the one on the next line.
TEST(AnalyzeSuppression, TrailingDirectiveCoversOnlyItsOwnLine) {
  const char* src =
      "void f(Mutex& m) {\n"
      "  m.lock();  // redist-analyze: allow(lock-transition) paired below\n"
      "  m.unlock();\n"
      "}\n";
  const auto findings =
      analyze_source("src/net/f.cpp", src, only({"lock-transition"}));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
}

// One directive, one comma list, both kinds of rule.
TEST(AnalyzeSuppression, CommaListCoversWholeProgramAndPerFileRules) {
  const std::string code =
      "long f(Mutex& m) { m.lock(); return time(nullptr); }\n";
  const auto unsuppressed = analyze_source("src/net/f.cpp", code, {});
  ASSERT_EQ(unsuppressed.size(), 2u)
      << redist::analyze::format_report(unsuppressed);
  EXPECT_EQ(unsuppressed[0].rule, "lock-transition");
  EXPECT_EQ(unsuppressed[1].rule, "wallclock");
  const std::string suppressed =
      "// redist-analyze: allow(lock-transition, wallclock) audited\n" + code;
  EXPECT_TRUE(analyze_source("src/net/f.cpp", suppressed, {}).empty());
}

// Acceptance scenario 1: seeding rand() into the solver must fail the run.
TEST(LintScoping, RandInSolverFires) {
  const char* src = "int jitter() { return rand(); }\n";
  const auto findings =
      analyze_source("src/kpbs/solver.cpp", src, only(kPerFileRules));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-nondeterminism");
}

TEST(LintScoping, TestsAreOutsideNondeterminismScope) {
  const char* src = "int jitter() { return rand(); }\n";
  EXPECT_TRUE(
      analyze_source("tests/test_foo.cpp", src, only(kPerFileRules)).empty());
}

TEST(LintScoping, RngImplementationIsExempt) {
  const char* src = "struct S { int x = mt19937_size; };\nint mt19937;\n";
  EXPECT_TRUE(
      analyze_source("src/common/rng.hpp", src, only(kPerFileRules)).empty());
}

TEST(LintScoping, StopwatchOwnsTheWallClock) {
  const char* src = "long f() { return time(nullptr); }\n";
  EXPECT_TRUE(analyze_source("src/common/stopwatch.hpp", src,
                             only(kPerFileRules))
                  .empty());
  EXPECT_EQ(analyze_source("src/common/stopwatch.cpp", src,
                           only(kPerFileRules))
                .size(),
            1u);
}

// Acceptance scenario 2: deleting a GUARDED_BY from an annotated class
// must fail the run.
TEST(LintMutexGuard, RemovingGuardedByFires) {
  const char* annotated =
      "class C {\n"
      "  Mutex mu_;\n"
      "  long total_ REDIST_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  const char* stripped =
      "class C {\n"
      "  Mutex mu_;\n"
      "  long total_ = 0;\n"
      "};\n";
  EXPECT_TRUE(
      analyze_source("src/runtime/x.hpp", annotated, only(kPerFileRules))
          .empty());
  const auto findings =
      analyze_source("src/runtime/x.hpp", stripped, only(kPerFileRules));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "mutex-guard");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintMutexGuard, ConstAtomicAndReferencesAreExemptByDefault) {
  const char* src =
      "class C {\n"
      "  Mutex mu_;\n"
      "  const int capacity_ = 4;\n"
      "  std::atomic<bool> done_{false};\n"
      "  Engine& engine_;\n"
      "  static int instances;\n"
      "};\n";
  EXPECT_TRUE(
      analyze_source("src/runtime/x.hpp", src, only(kPerFileRules)).empty());
}

// String literals keep their quotes in the token stream, so a "}" in a
// member initializer cannot close the class body early.
TEST(LintMutexGuard, BracesInsideStringsDoNotEndTheClass) {
  const char* src =
      "class C {\n"
      "  Mutex mu_;\n"
      "  std::string close_ REDIST_GUARDED_BY(mu_) = \"}\";\n"
      "  int count_ = 0;\n"
      "};\n";
  const auto findings =
      analyze_source("src/runtime/x.hpp", src, only(kPerFileRules));
  ASSERT_EQ(findings.size(), 1u) << redist::analyze::format_report(findings);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintFloatEq, NullptrComparisonIsNotAFloatCompare) {
  const char* src =
      "bool f(double* solve_ms) { return solve_ms != nullptr; }\n";
  EXPECT_TRUE(
      analyze_source("src/kpbs/x.cpp", src, only(kPerFileRules)).empty());
}

// A signed exponent belongs to its number: `1e-9` must reach float-eq as
// one float literal, not as `1e`, `-`, `9`.
TEST(LintFloatEq, SignedExponentLiteralIsOneToken) {
  const char* src = "bool f(double x) { return x == 1e-9 || x != 2E+3; }\n";
  const auto findings = analyze_source("src/kpbs/x.cpp", src, {});
  ASSERT_EQ(findings.size(), 2u) << redist::analyze::format_report(findings);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "float-eq");
  const std::string report = redist::analyze::format_report(findings);
  EXPECT_NE(report.find("against '1e-9'"), std::string::npos) << report;
  EXPECT_NE(report.find("against '2E+3'"), std::string::npos) << report;
}

TEST(LintTokenizer, StringsCommentsAndPreprocessorAreInvisible) {
  const char* src =
      "#include <random>  // mt19937 lives here\n"
      "const char* kName = \"mt19937\";\n"
      "/* rand() in a block comment */\n"
      "int f() { return 0; }\n";
  EXPECT_TRUE(analyze_source("src/kpbs/x.cpp", src, {}).empty());
}

// Regression: a line comment with a trailing backslash splices the next
// source line into the comment; trigger tokens there are comment text.
TEST(LintTokenizer, CommentLineContinuationStaysComment) {
  const char* src =
      "// continues onto the next line \\\n"
      "   rand() mt19937 system_clock\n"
      "int f() { return 0; }\n";
  EXPECT_TRUE(analyze_source("src/kpbs/x.cpp", src, {}).empty());
}

// Regression: a block comment opened on a preprocessor line swallows its
// continuation lines instead of leaking them into the token stream.
TEST(LintTokenizer, BlockCommentOpenedOnPreprocessorLine) {
  const char* src =
      "#define BANNER /* spans lines\n"
      "  rand() mt19937 gettimeofday\n"
      "*/ 1\n"
      "int g() { return BANNER; }\n";
  EXPECT_TRUE(analyze_source("src/kpbs/x.cpp", src, {}).empty());
}

// ...while a quoted "/*" on a preprocessor line must NOT open a comment:
// the code after it is still analyzed (the rand() below has to fire).
TEST(LintTokenizer, QuotedCommentOpenerOnPreprocessorLineIsInert) {
  const char* src =
      "#define P \"/*\"\n"
      "int h() { return rand(); }\n";
  const auto findings = analyze_source("src/kpbs/x.cpp", src, {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-nondeterminism");
  EXPECT_EQ(findings[0].line, 2);
}

// Regression: an encoding prefix (u8R, LR, uR, UR) still opens a raw
// string, so nothing quoted inside it reaches a rule.
TEST(LintTokenizer, EncodingPrefixedRawStringsAreInert) {
  for (const std::string prefix : {"R", "u8R", "LR", "uR", "UR"}) {
    const std::string src =
        "REDIST_DETERMINISTIC int f() { const auto* s = " + prefix +
        "\"x(\" rand() \")x\"; return 0; }\n";
    const auto findings = analyze_source("src/kpbs/x.cpp", src, {});
    EXPECT_TRUE(findings.empty())
        << prefix << ": " << redist::analyze::format_report(findings);
  }
}

// The full trap corpus (strings + comments stuffed with trigger tokens)
// must stay clean under every rule.
TEST(LintTokenizer, TrapFixtureStaysCleanUnderAllRules) {
  for (const Finding& f : lint_fixture("pass_tokenizer_traps.cpp", {})) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
}

TEST(LintCli, MissingFileThrows) {
  EXPECT_THROW(redist::analyze::tus_from_compile_commands(
                   "/nonexistent/compile_commands.json", "/"),
               std::runtime_error);
}

}  // namespace
