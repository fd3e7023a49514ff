/**
 * @file
 * Tests for the annealed planning engine and the PlannerSpec API:
 * closed-form schedule-space sizing, annealed-vs-exact cross-validation
 * on every enumerable instance, seed determinism (including autotuner
 * thread-count invariance), fingerprint coverage of the annealing
 * knobs, the exact engines' large-instance refusal, and bt::Service's
 * annealed fallback for large tenants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "bench/common/bench_util.hpp"
#include "core/autotuner.hpp"
#include "core/optimizer.hpp"
#include "core/profiler.hpp"
#include "core/schedule.hpp"
#include "core/sim_executor.hpp"
#include "platform/devices.hpp"
#include "service/schedule_cache.hpp"
#include "service/service.hpp"

namespace bt::core {
namespace {

// ---------------------------------------------------------------------
// scheduleSpaceSize: the exact engines' refusal predicate.

TEST(ScheduleSpaceSize, MatchesEnumerationOnSmallSpaces)
{
    for (int n = 1; n <= 9; ++n)
        for (int m = 1; m <= 4; ++m)
            EXPECT_EQ(scheduleSpaceSize(n, m), countSchedules(n, m))
                << n << " stages, " << m << " PUs";
    EXPECT_EQ(scheduleSpaceSize(5, 5), countSchedules(5, 5));
    EXPECT_EQ(scheduleSpaceSize(6, 6), countSchedules(6, 6));
}

TEST(ScheduleSpaceSize, KnownValues)
{
    EXPECT_EQ(scheduleSpaceSize(9, 4), 2116u);
    // The large-instance tier: 14 stages on 8 PU classes.
    EXPECT_EQ(scheduleSpaceSize(14, 8), 169636384u);
}

TEST(ScheduleSpaceSize, SaturatesInsteadOfOverflowing)
{
    const auto sat = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(scheduleSpaceSize(64, 16), sat);
    EXPECT_EQ(scheduleSpaceSize(200, 16), sat);
}

TEST(PlannerEngineNames, RoundTrip)
{
    EXPECT_STREQ(plannerEngineName(PlannerEngine::Solver), "solver");
    EXPECT_STREQ(plannerEngineName(PlannerEngine::Exhaustive),
                 "exhaustive");
    EXPECT_STREQ(plannerEngineName(PlannerEngine::Annealed),
                 "annealed");
    EXPECT_EQ(plannerEngineFromName("solver"), PlannerEngine::Solver);
    EXPECT_EQ(plannerEngineFromName("exhaustive"),
              PlannerEngine::Exhaustive);
    EXPECT_EQ(plannerEngineFromName("annealed"),
              PlannerEngine::Annealed);
    EXPECT_EQ(PlannerSpec{}.engine, PlannerEngine::Exhaustive);
}

// ---------------------------------------------------------------------
// Cross-validation: annealed vs exact on enumerable instances.

/** Front-candidate cost under the configured ranking objective. */
double
frontCost(const Candidate& c, const PlannerSpec& spec)
{
    switch (spec.objective) {
      case PlannerSpec::Objective::Latency:
        return c.predictedLatency;
      case PlannerSpec::Objective::EnergyDelay:
        return c.predictedEdp();
      case PlannerSpec::Objective::EnergyKDelay:
        return std::pow(c.predictedEnergyJ, spec.energyExponent)
            * c.predictedLatency;
    }
    return c.predictedLatency;
}

/**
 * The acceptance check: on an instance the exact engines can
 * enumerate, the annealed engine's front candidate must be cost-equal
 * to the exact optimum (identical evaluator arithmetic on both sides,
 * so the comparison is bit-exact, not approximate), and the level-1
 * feasibility class must agree.
 */
void
expectAnnealedMatchesExact(
    const platform::SocDescription& soc, const ProfilingTable& table,
    PlannerSpec spec,
    const platform::ContentionProfile* contention = nullptr)
{
    spec.contentionProfile = contention;
    PlannerSpec exact_spec = spec;
    exact_spec.engine = PlannerEngine::Solver;
    PlannerSpec annealed_spec = spec;
    annealed_spec.engine = PlannerEngine::Annealed;

    Optimizer exact_opt(soc, table, exact_spec);
    const auto exact_cands = exact_opt.optimize();
    Optimizer annealed_opt(soc, table, annealed_spec);
    const auto annealed_cands = annealed_opt.optimize();

    ASSERT_FALSE(exact_cands.empty());
    ASSERT_FALSE(annealed_cands.empty());
    EXPECT_EQ(annealed_opt.stats().engine, PlannerEngine::Annealed);
    EXPECT_EQ(annealed_opt.stats().spaceSize,
              exact_opt.stats().spaceSize);
    EXPECT_GT(annealed_opt.stats().annealDistinct, 0);

    // Level-1 agreement: the walk found the same unrestricted optimum
    // and the same utilization class as the exact levels.
    EXPECT_DOUBLE_EQ(annealed_opt.stats().unrestrictedLatency,
                     exact_opt.stats().unrestrictedLatency);
    EXPECT_EQ(annealed_opt.stats().requiredPus,
              exact_opt.stats().requiredPus);

    EXPECT_DOUBLE_EQ(frontCost(annealed_cands.front(), spec),
                     frontCost(exact_cands.front(), spec))
        << "annealed " << annealed_cands.front().schedule.compactString()
        << " vs exact " << exact_cands.front().schedule.compactString();
}

TEST(AnnealedCrossValidation, PixelAlexNetSparse)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);
    expectAnnealedMatchesExact(soc, profile.interference, {});
}

TEST(AnnealedCrossValidation, PixelAlexNetSparseNoFilter)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);
    PlannerSpec spec;
    spec.utilizationFilter = false;
    expectAnnealedMatchesExact(soc, profile.interference, spec);
}

TEST(AnnealedCrossValidation, PixelAlexNetSparseEnergyObjectives)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);
    PlannerSpec edp;
    edp.objective = PlannerSpec::Objective::EnergyDelay;
    expectAnnealedMatchesExact(soc, profile.interference, edp);

    PlannerSpec ekd;
    ekd.objective = PlannerSpec::Objective::EnergyKDelay;
    ekd.energyExponent = 2.0;
    expectAnnealedMatchesExact(soc, profile.interference, ekd);
}

TEST(AnnealedCrossValidation, PixelOctree)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const auto profile = Profiler(model).profile(app);
    expectAnnealedMatchesExact(soc, profile.interference, {});
}

TEST(AnnealedCrossValidation, JetsonAlexNetSparse)
{
    const auto soc = platform::jetsonOrinNano();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);
    expectAnnealedMatchesExact(soc, profile.interference, {});
}

TEST(AnnealedCrossValidation, ContentionRigWithC6Budget)
{
    const auto soc = platform::contentionRig();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);

    PlannerSpec spec;
    spec.contention.budgetGbps = 5.0;
    expectAnnealedMatchesExact(soc, profile.interference, spec,
                               &profile.contention);

    // And the annealed candidates all honor the budget.
    spec.engine = PlannerEngine::Annealed;
    spec.contentionProfile = &profile.contention;
    Optimizer opt(soc, profile.interference, spec);
    for (const auto& c : opt.optimize())
        EXPECT_LE(c.predictedDemandGbps, 5.0 + 1e-9)
            << c.schedule.compactString();
    EXPECT_FALSE(opt.stats().c6Relaxed);
    EXPECT_GT(opt.stats().annealFiltered, 0);
}

TEST(AnnealedCrossValidation, RestrictedPuSet)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);

    PlannerSpec spec;
    spec.allowedPus = {0, 1, 2};
    expectAnnealedMatchesExact(soc, profile.interference, spec);

    spec.engine = PlannerEngine::Annealed;
    Optimizer opt(soc, profile.interference, spec);
    for (const auto& c : opt.optimize())
        for (const auto& chunk : c.schedule.chunks())
            EXPECT_LE(chunk.pu, 2);
}

// ---------------------------------------------------------------------
// Determinism.

TEST(AnnealedDeterminism, SameSeedSameSchedulesByteForByte)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);

    PlannerSpec spec;
    spec.engine = PlannerEngine::Annealed;

    Optimizer first(soc, profile.interference, spec);
    const auto a = first.optimize();
    Optimizer second(soc, profile.interference, spec);
    const auto b = second.optimize();

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].schedule.toAssignment(),
                  b[i].schedule.toAssignment())
            << "rank " << i;
        EXPECT_EQ(a[i].predictedLatency, b[i].predictedLatency);
        EXPECT_EQ(a[i].predictedGapness, b[i].predictedGapness);
        EXPECT_EQ(a[i].predictedEnergyJ, b[i].predictedEnergyJ);
    }
    EXPECT_EQ(first.stats().annealProposed,
              second.stats().annealProposed);
    EXPECT_EQ(first.stats().annealAccepted,
              second.stats().annealAccepted);
    EXPECT_EQ(first.stats().annealDistinct,
              second.stats().annealDistinct);
}

TEST(AnnealedDeterminism, AutotunerReportInvariantAcrossThreadCounts)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);
    const SimExecutor executor(model);

    PlannerSpec spec;
    AnnealCampaign campaign; // default: 4 seeds, 1 temperature

    std::vector<TuningReport> reports;
    for (const int threads : {1, 2, 8}) {
        const AutoTuner tuner(executor, 10.0, threads);
        reports.push_back(tuner.tuneAnnealed(
            app, soc, profile.interference, spec, campaign));
    }
    const TuningReport& serial = reports.front();
    ASSERT_FALSE(serial.all.empty());
    for (const TuningReport& r : reports) {
        ASSERT_EQ(r.all.size(), serial.all.size());
        for (std::size_t i = 0; i < r.all.size(); ++i) {
            // Byte-identical: same schedule, same bits of every
            // measured number, same predicted rank.
            EXPECT_EQ(r.all[i].candidate.schedule.toAssignment(),
                      serial.all[i].candidate.schedule.toAssignment());
            EXPECT_EQ(r.all[i].measuredLatency,
                      serial.all[i].measuredLatency);
            EXPECT_EQ(r.all[i].rankPredicted,
                      serial.all[i].rankPredicted);
        }
        EXPECT_EQ(r.bestIndex, serial.bestIndex);
        EXPECT_EQ(r.campaignCostSeconds, serial.campaignCostSeconds);
        EXPECT_NO_THROW((void)r.autotuningGain());
    }
}

// ---------------------------------------------------------------------
// Fingerprint coverage.

TEST(PlannerFingerprint, ExactEnginesFoldTogether)
{
    PlannerSpec exhaustive;
    PlannerSpec solver = exhaustive;
    solver.engine = PlannerEngine::Solver;

    // Exact engines are bit-identical by contract, so flipping between
    // them must keep the same cache entries.
    EXPECT_EQ(solver.fingerprint(), exhaustive.fingerprint());
}

TEST(PlannerFingerprint, AnnealedEngineAndKnobsAreCovered)
{
    PlannerSpec exact;
    PlannerSpec annealed = exact;
    annealed.engine = PlannerEngine::Annealed;
    EXPECT_NE(exact.fingerprint(), annealed.fingerprint());

    // Every annealing knob matters once the engine is Annealed...
    PlannerSpec seed = annealed;
    seed.anneal.seed ^= 1;
    EXPECT_NE(annealed.fingerprint(), seed.fingerprint());
    PlannerSpec budget = annealed;
    budget.anneal.moveBudget += 1;
    EXPECT_NE(annealed.fingerprint(), budget.fingerprint());
    PlannerSpec restarts = annealed;
    restarts.anneal.restarts += 1;
    EXPECT_NE(annealed.fingerprint(), restarts.fingerprint());
    PlannerSpec temp = annealed;
    temp.anneal.initialTemperature = 0.5;
    EXPECT_NE(annealed.fingerprint(), temp.fingerprint());

    // ...and none of them matter under an exactness-preserving engine.
    PlannerSpec exact_seed = exact;
    exact_seed.anneal.seed ^= 1;
    EXPECT_EQ(exact.fingerprint(), exact_seed.fingerprint());
}

TEST(PlannerFingerprint, SharedPointersAreExcluded)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);
    ScheduleEvaluator eval(soc, profile.interference, model);

    PlannerSpec base;
    PlannerSpec shared = base;
    shared.sharedEvaluator = &eval;
    shared.contentionProfile = &profile.contention;
    // Sharing never changes results, only cache temperature.
    EXPECT_EQ(base.fingerprint(), shared.fingerprint());
}

TEST(PlannerFingerprint, CacheKeysAnnealedAndExactPlansApart)
{
    // The schedule-cache contract: a key minted for an exact plan can
    // never serve an annealed one, because the fingerprint differs.
    PlannerSpec exact;
    PlannerSpec annealed = exact;
    annealed.engine = PlannerEngine::Annealed;

    service::ScheduleKey exact_key;
    exact_key.app = "tenant";
    exact_key.platform = "rig";
    exact_key.plannerFingerprint = exact.fingerprint();
    service::ScheduleKey annealed_key = exact_key;
    annealed_key.plannerFingerprint = annealed.fingerprint();
    EXPECT_FALSE(exact_key == annealed_key);

    service::ScheduleCache cache(service::ScheduleCacheConfig{});
    service::CachedPlan plan;
    plan.schedule = Schedule::fromAssignment({0, 0, 0});
    cache.insert(exact_key, plan);
    EXPECT_TRUE(cache.lookup(exact_key).has_value());
    EXPECT_FALSE(cache.lookup(annealed_key).has_value());

    // Same seed, same knobs: the annealed key is stable...
    PlannerSpec again = annealed;
    EXPECT_EQ(annealed_key.plannerFingerprint, again.fingerprint());
    // ...and a different seed is a different plan, hence a miss.
    again.anneal.seed ^= 1;
    service::ScheduleKey reseeded = annealed_key;
    reseeded.plannerFingerprint = again.fingerprint();
    cache.insert(annealed_key, plan);
    EXPECT_FALSE(cache.lookup(reseeded).has_value());
}

// ---------------------------------------------------------------------
// Large instances: exact refusal, annealed feasibility.

class LargeInstance : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        soc = platform::manycoreRig();
        table = bench::deepPipelineTable(soc);
        contention = bench::deepPipelineContention(soc, *table);
    }

    platform::SocDescription soc;
    std::optional<ProfilingTable> table;
    platform::ContentionProfile contention;
};

TEST_F(LargeInstance, ExactEnginesRefuse)
{
    EXPECT_GT(scheduleSpaceSize(table->numStages(), soc.numPus()),
              PlannerSpec{}.exactSpaceLimit);
    for (const auto engine :
         {PlannerEngine::Solver, PlannerEngine::Exhaustive}) {
        PlannerSpec spec;
        spec.engine = engine;
        Optimizer opt(soc, *table, spec);
        EXPECT_DEATH_IF_SUPPORTED((void)opt.optimize(),
                                  "exceeds exactSpaceLimit");
    }
}

TEST_F(LargeInstance, AnnealedPlansFeasiblyUnderC6)
{
    PlannerSpec spec;
    spec.engine = PlannerEngine::Annealed;
    spec.contention.budgetGbps = soc.mem.dramBwGbps;
    spec.contentionProfile = &contention;

    Optimizer opt(soc, *table, spec);
    const auto cands = opt.optimize();
    ASSERT_FALSE(cands.empty());
    EXPECT_FALSE(opt.stats().c6Relaxed);
    // The walk stayed inside its move budget and the space is recorded.
    EXPECT_GT(opt.stats().annealProposed, 0);
    EXPECT_LE(opt.stats().annealProposed, spec.anneal.moveBudget);
    EXPECT_EQ(opt.stats().spaceSize, 169636384u);
    for (const auto& c : cands) {
        EXPECT_TRUE(c.schedule.valid(table->numStages(), soc.numPus()));
        EXPECT_LE(c.predictedDemandGbps,
                  spec.contention.budgetGbps + 1e-9)
            << c.schedule.compactString();
    }

    // Determinism holds at this scale too.
    Optimizer again(soc, *table, spec);
    const auto b = again.optimize();
    ASSERT_EQ(cands.size(), b.size());
    for (std::size_t i = 0; i < cands.size(); ++i)
        EXPECT_EQ(cands[i].schedule.toAssignment(),
                  b[i].schedule.toAssignment());
}

/** The walk scores each distinct feasible schedule exactly once, into
 *  its own pool: revisits are answered there, C6-filtered proposals
 *  are never scored, and the fresh evaluator's memo is never read. */
void
expectEachDistinctScheduleScoredOnce(const Optimizer& opt)
{
    const OptimizeStats& st = opt.stats();
    EXPECT_GT(st.annealDistinct, 0);
    EXPECT_EQ(st.evalMisses, static_cast<std::uint64_t>(st.annealDistinct));
    EXPECT_EQ(st.evalHits, 0u);
}

TEST_F(LargeInstance, ScoresEachDistinctScheduleOnce)
{
    PlannerSpec spec;
    spec.engine = PlannerEngine::Annealed;
    spec.contention.budgetGbps = soc.mem.dramBwGbps;
    spec.contentionProfile = &contention;
    Optimizer opt(soc, *table, spec);
    (void)opt.optimize();
    EXPECT_GT(opt.stats().annealFiltered, 0);
    expectEachDistinctScheduleScoredOnce(opt);
}

TEST(AnnealedEvaluation, ManycoreScoresEachDistinctScheduleOnce)
{
    const auto soc = platform::manycoreRig();
    const platform::PerfModel model(soc);
    const auto profile = Profiler(model).profile(apps::alexnetDense());
    PlannerSpec spec;
    spec.engine = PlannerEngine::Annealed;
    Optimizer opt(soc, profile.interference, spec);
    (void)opt.optimize();
    EXPECT_EQ(opt.stats().annealProposed, spec.anneal.moveBudget);
    expectEachDistinctScheduleScoredOnce(opt);
}

// ---------------------------------------------------------------------
// Ranking ties: equal class and score fall back to lexicographic
// stage-to-PU order, in every engine.

TEST(RankingTies, EqualScoresComeOutInLexicographicAssignmentOrder)
{
    // Four equal stages on two PUs: every two-chunk schedule has a
    // mirror image with the same latency, so the latency objective
    // ties in pairs and only the assignment order separates them.
    const platform::SocDescription soc = [] {
        auto s = platform::pixel7a();
        s.pus.resize(2);
        return s;
    }();
    ProfilingTable table({"a", "b", "c", "d"}, {soc.pus[0].label,
                                               soc.pus[1].label});
    for (int st = 0; st < 4; ++st)
        for (int p = 0; p < 2; ++p)
            table.set(st, p, 1e-3);
    const std::vector<std::string> expected{
        "0011", "1100", // latency 2 ms
        "0001", "0111", "1000", "1110", // 3 ms
        "0000", "1111", // 4 ms
    };

    for (const auto engine :
         {PlannerEngine::Solver, PlannerEngine::Exhaustive,
          PlannerEngine::Annealed}) {
        PlannerSpec spec;
        spec.engine = engine;
        spec.utilizationFilter = false;
        spec.maxPerTier = 0;
        spec.numCandidates = 8;
        Optimizer opt(soc, table, spec);
        std::vector<std::string> got;
        for (const auto& c : opt.optimize())
            got.push_back(c.schedule.compactString());
        EXPECT_EQ(got, expected) << plannerEngineName(engine);
    }
}

// ---------------------------------------------------------------------
// Golden plans: the annealed engine's output, pinned bit for bit. Any
// change to the move loop, the pool or the harvest that alters the RNG
// draw sequence, the pool contents or the selection shows up here.

/** One pinned candidate: the compact schedule plus its predicted costs
 *  as hex-float literals, so the comparison is bit-exact. */
struct GoldenCandidate
{
    const char* schedule;
    double latency;
    double energyJ;
};

struct GoldenPlan
{
    std::int64_t proposed;
    std::int64_t accepted;
    std::int64_t filtered;
    std::int64_t distinct;
    std::vector<GoldenCandidate> candidates;
};

/** @p cands and the anneal counters in GoldenPlan initializer syntax:
 *  printed on a mismatch, so an intended change can be re-recorded. */
std::string
goldenLiteral(const OptimizeStats& st, const std::vector<Candidate>& cands)
{
    std::string out = "{" + std::to_string(st.annealProposed) + ", "
        + std::to_string(st.annealAccepted) + ", "
        + std::to_string(st.annealFiltered) + ", "
        + std::to_string(st.annealDistinct) + ",\n {\n";
    char buf[128];
    for (const auto& c : cands) {
        std::snprintf(buf, sizeof buf, "  {\"%s\", %a, %a},\n",
                      c.schedule.compactString().c_str(),
                      c.predictedLatency, c.predictedEnergyJ);
        out += buf;
    }
    return out + " }}";
}

void
expectGoldenPlan(const Optimizer& opt, const std::vector<Candidate>& cands,
                 const GoldenPlan& golden)
{
    const OptimizeStats& st = opt.stats();
    EXPECT_EQ(st.annealProposed, golden.proposed);
    EXPECT_EQ(st.annealAccepted, golden.accepted);
    EXPECT_EQ(st.annealFiltered, golden.filtered);
    EXPECT_EQ(st.annealDistinct, golden.distinct);
    EXPECT_EQ(cands.size(), golden.candidates.size());
    for (std::size_t i = 0;
         i < std::min(cands.size(), golden.candidates.size()); ++i) {
        const GoldenCandidate& g = golden.candidates[i];
        EXPECT_EQ(cands[i].schedule.compactString(), g.schedule)
            << "rank " << i;
        EXPECT_EQ(cands[i].predictedLatency, g.latency) << "rank " << i;
        EXPECT_EQ(cands[i].predictedEnergyJ, g.energyJ) << "rank " << i;
    }
    if (::testing::Test::HasFailure())
        ADD_FAILURE() << "actual plan:\n" << goldenLiteral(st, cands);
}

/** Annealed plan of @p app on the manycore rig under a fixed seed. */
void
expectGoldenManycorePlan(const Application& app, const GoldenPlan& golden)
{
    const auto soc = platform::manycoreRig();
    const platform::PerfModel model(soc);
    const auto profile = Profiler(model).profile(app);
    PlannerSpec spec;
    spec.engine = PlannerEngine::Annealed;
    spec.anneal.seed = 0x601d;
    Optimizer opt(soc, profile.interference, spec);
    const auto cands = opt.optimize();
    expectGoldenPlan(opt, cands, golden);
}

TEST(GoldenAnnealedPlan, ManycoreAlexNetDense)
{
    expectGoldenManycorePlan(apps::alexnetDense(),
        {200000, 29313, 0, 32907,
         {
            {"106274533", 0x1.7fbfd0e30418bp-8, 0x1.dca5a78097e0ep-5},
            {"106277534", 0x1.7fbfd0e30418bp-8, 0x1.dcc1314474e23p-5},
            {"106277543", 0x1.7fbfd0e30418bp-8, 0x1.dcbbd37064cd1p-5},
            {"006571423", 0x1.f21dd64e1a562p-8, 0x1.05f37050c7f04p-4},
            {"007365412", 0x1.f21dd64e1a562p-8, 0x1.05ec514bb3af2p-4},
            {"016275433", 0x1.f21dd64e1a562p-8, 0x1.05f576a0bea72p-4},
            {"106277734", 0x1.723e2e93c7401p-8, 0x1.936ade99a33ecp-5},
            {"106277735", 0x1.723e2e93c7401p-8, 0x1.937055679118p-5},
            {"106277743", 0x1.723e2e93c7401p-8, 0x1.936580c59329ap-5},
            {"007766644", 0x1.eeafeaf450fa9p-8, 0x1.c7a369e7137d6p-5},
            {"177766655", 0x1.eeafeaf450fa9p-8, 0x1.c5f817d10b9cp-5},
            {"227766650", 0x1.eeafeaf450fa9p-8, 0x1.c3567147eb73p-5},
            {"057776666", 0x1.0a0924d623ff9p-7, 0x1.c1a8ea0b7aaa1p-5},
            {"117770624", 0x1.0a0924d623ff9p-7, 0x1.bf0e36c134da9p-5},
            {"227776666", 0x1.0a0924d623ff9p-7, 0x1.bd1d436ec56b1p-5},
            {"007566341", 0x1.506100209a2e3p-7, 0x1.2649f39e3be2p-4},
            {"017765342", 0x1.506100209a2e3p-7, 0x1.265156b9103c2p-4},
            {"047661352", 0x1.506100209a2e3p-7, 0x1.2669da2f7e34dp-4},
            {"005173624", 0x1.1fc7792e72b7dp-6, 0x1.b3c673c0e56edp-4},
            {"005376664", 0x1.1fc7792e72b7dp-6, 0x1.b3ec0bb047127p-4},
         }});
}

TEST(GoldenAnnealedPlan, ManycoreAlexNetSparse)
{
    expectGoldenManycorePlan(apps::alexnetSparse(),
        {200000, 9865, 0, 21007,
         {
            {"467350211", 0x1.9664132396009p-8, 0x1.50a281ee2ce0cp-4},
            {"467351200", 0x1.9664132396009p-8, 0x1.51e646d945efep-4},
            {"467350221", 0x1.b6f4c28ad043bp-8, 0x1.5699cf1c80d99p-4},
            {"467351220", 0x1.b6f4c28ad043bp-8, 0x1.5838486d417f2p-4},
            {"647350211", 0x1.c48a53c386036p-8, 0x1.58d02fc7a8747p-4},
            {"647350221", 0x1.c48a53c386036p-8, 0x1.591491771f07dp-4},
            {"647351200", 0x1.c48a53c386036p-8, 0x1.5a13f4b2c1837p-4},
            {"365470211", 0x1.c5ccf1c17aa4bp-8, 0x1.58939389cd374p-4},
            {"365470221", 0x1.c5ccf1c17aa4bp-8, 0x1.58d7f53943cabp-4},
            {"367450211", 0x1.c5ccf1c17aa4bp-8, 0x1.58939389cd374p-4},
            {"467355201", 0x1.d3801a2679b2ep-8, 0x1.60b658a108906p-4},
            {"456370211", 0x1.dc3a6069cc2e9p-8, 0x1.7a353d5fb7bc6p-4},
            {"456370221", 0x1.dc3a6069cc2e9p-8, 0x1.7a799f0f2e4fep-4},
            {"456377210", 0x1.dc3a6069cc2e9p-8, 0x1.7dd58f50ca95ep-4},
            {"457360211", 0x1.dc3a6069cc2e9p-8, 0x1.7a353d5fb7bc6p-4},
            {"457360221", 0x1.dc3a6069cc2e9p-8, 0x1.7a799f0f2e4fep-4},
            {"457361200", 0x1.dc3a6069cc2e9p-8, 0x1.7b79024ad0cb8p-4},
            {"564370211", 0x1.e09ba73f549a1p-8, 0x1.628e1c0252ce5p-4},
            {"564370221", 0x1.e09ba73f549a1p-8, 0x1.62d27db1c961cp-4},
            {"567341220", 0x1.e09ba73f549a1p-8, 0x1.6470f7028a074p-4},
         }});
}

TEST(GoldenAnnealedPlan, ManycoreOctree)
{
    expectGoldenManycorePlan(apps::octreeApp(),
        {200000, 28802, 0, 26779,
         {
            {"1734056", 0x1.05f014eea41f3p-8, 0x1.96c731773f193p-5},
            {"1734256", 0x1.05f014eea41f3p-8, 0x1.9c725b213d3fbp-5},
            {"1735046", 0x1.05f014eea41f3p-8, 0x1.92d07a0b35d58p-5},
            {"0613245", 0x1.5ac8f6ad06f4cp-8, 0x1.c40a2d7360d88p-5},
            {"0613247", 0x1.5ac8f6ad06f4cp-8, 0x1.b4d2f32e7ae9ep-5},
            {"0613257", 0x1.5ac8f6ad06f4cp-8, 0x1.b759108e9001fp-5},
            {"0512347", 0x1.bba1abbabb296p-8, 0x1.ea8895f9a0a2ap-5},
            {"0512364", 0x1.bba1abbabb296p-8, 0x1.f47e3c0705317p-5},
            {"0512367", 0x1.bba1abbabb296p-8, 0x1.ea0fddb5b0b68p-5},
            {"0412356", 0x1.0234f99915f4fp-7, 0x1.04a85edfb0e6cp-4},
            {"0412357", 0x1.0234f99915f4fp-7, 0x1.ffd0dfc38efe7p-5},
            {"0412365", 0x1.0234f99915f4fp-7, 0x1.0604a23237f47p-4},
            {"0312456", 0x1.352792064b484p-7, 0x1.1304b3857a729p-4},
            {"0312467", 0x1.352792064b484p-7, 0x1.0cc559b58e89p-4},
            {"0312475", 0x1.352792064b484p-7, 0x1.11dedc5a2896dp-4},
            {"0213446", 0x1.819376aa1b461p-7, 0x1.217f2836b9e18p-4},
            {"0213456", 0x1.819376aa1b461p-7, 0x1.22c236e6c46d8p-4},
            {"0213457", 0x1.819376aa1b461p-7, 0x1.1e0247e8db061p-4},
            {"0122446", 0x1.b829ac43afd67p-7, 0x1.35b6784b628b7p-4},
            {"0122466", 0x1.b829ac43afd67p-7, 0x1.357a1c296a956p-4},
         }});
}

TEST_F(LargeInstance, GoldenPlanUnderC6)
{
    // The C6 filter rejects proposals on this instance, so the pinned
    // filtered count guards the filter's place in the move loop.
    PlannerSpec spec;
    spec.engine = PlannerEngine::Annealed;
    spec.contention.budgetGbps = soc.mem.dramBwGbps;
    spec.contentionProfile = &contention;
    Optimizer opt(soc, *table, spec);
    const auto cands = opt.optimize();
    expectGoldenPlan(
        opt, cands,
        {200000, 41230, 121996, 20650,
         {
            {"44600015333222", 0x1.3cb06baa91b36p-8, 0x1.4e4b0c217309cp-5},
            {"44600015332222", 0x1.8e4c118de5ab2p-8, 0x1.6e0925869edd6p-5},
            {"44405311162222", 0x1.a70d82d82d82ep-8, 0x1.8f545b17aa1b3p-5},
            {"11100044333222", 0x1.3cb06baa91b36p-8, 0x1.21a853c0e1f19p-5},
            {"11100044433222", 0x1.3cb06baa91b36p-8, 0x1.1c940a63b8aa4p-5},
            {"11122244333000", 0x1.556875cf0b052p-8, 0x1.29188d7eceea1p-5},
            {"11122244433000", 0x1.556875cf0b052p-8, 0x1.24044421a5a2cp-5},
            {"11122254333000", 0x1.556875cf0b052p-8, 0x1.47b280f92960ap-5},
            {"11110002333344", 0x1.56b121b5f2696p-8, 0x1.250f6c2aba7a7p-5},
            {"11110005333322", 0x1.56b121b5f2696p-8, 0x1.2d5201b0bee2fp-5},
            {"11110005333344", 0x1.56b121b5f2696p-8, 0x1.5032141a582cap-5},
            {"11100002333344", 0x1.601d3daae4ebcp-8, 0x1.2ae03ef9709d2p-5},
            {"44555511333300", 0x1.71f1b24e5818ap-8, 0x1.5c5bc43773639p-5},
            {"22555444433001", 0x1.72ac48b0101fbp-8, 0x1.82189e7ae745ap-5},
            {"11122224433005", 0x1.7cd8b20a1a7ccp-8, 0x1.48991f7f620c4p-5},
            {"11122224433300", 0x1.7cd8b20a1a7ccp-8, 0x1.2a3006ae580ep-5},
            {"11122225333300", 0x1.7cd8b20a1a7ccp-8, 0x1.4913f44b671e7p-5},
            {"11155552333300", 0x1.9002149c2b0a6p-8, 0x1.62ce59d6c455bp-5},
            {"11155554330022", 0x1.9002149c2b0a6p-8, 0x1.789c8f26e624ap-5},
            {"11155554332200", 0x1.9002149c2b0a6p-8, 0x1.7a6d512574a52p-5},
         }});
}

// ---------------------------------------------------------------------
// Wide instances: more than 16 stages do not pack into 64-bit keys, so
// the pool falls back to stored assignments.

TEST(WideAnnealedPool, SweptPoolEqualsExhaustiveOnRestrictedPus)
{
    // 17 stages on 4 allowed classes is 16,516 schedules: the annealer
    // sweeps them into its wide pool, so the whole candidate list must
    // equal the exhaustive engine's, not only the front's cost. The
    // rig keeps 5 classes because the exhaustive engine enumerates
    // every class before it filters.
    auto soc = platform::manycoreRig();
    soc.pus.resize(5);
    const auto table = bench::deepPipelineTable(soc, 17);
    PlannerSpec spec;
    spec.allowedPus = {0, 2, 3, 4};
    PlannerSpec exact_spec = spec;
    exact_spec.engine = PlannerEngine::Exhaustive;
    PlannerSpec annealed_spec = spec;
    annealed_spec.engine = PlannerEngine::Annealed;

    Optimizer exact_opt(soc, table, exact_spec);
    const auto exact = exact_opt.optimize();
    Optimizer annealed_opt(soc, table, annealed_spec);
    const auto annealed = annealed_opt.optimize();
    EXPECT_EQ(annealed_opt.stats().annealDistinct, 16516);
    ASSERT_EQ(annealed.size(), exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
        EXPECT_EQ(annealed[i].schedule.toAssignment(),
                  exact[i].schedule.toAssignment())
            << "rank " << i;
        EXPECT_EQ(annealed[i].predictedLatency, exact[i].predictedLatency);
        EXPECT_EQ(annealed[i].predictedEnergyJ, exact[i].predictedEnergyJ);
    }
}

TEST(WideAnnealedPool, GoldenWalk)
{
    // 17 stages on all 8 classes is far past the sweep threshold, so
    // this runs the phase walk over the wide pool.
    const auto soc = platform::manycoreRig();
    const auto table = bench::deepPipelineTable(soc, 17);
    PlannerSpec spec;
    spec.engine = PlannerEngine::Annealed;
    spec.anneal.moveBudget = 60'000;
    Optimizer opt(soc, table, spec);
    const auto cands = opt.optimize();
    expectGoldenPlan(
        opt, cands,
        {60000, 10677, 0, 15145,
         {
            {"66633114455772200", 0x1.ca2e978d4fdf4p-9, 0x1.933ca00907872p-5},
            {"66633114477552200", 0x1.ca2e978d4fdf4p-9, 0x1.9bea69dbdd3acp-5},
            {"66655443111772200", 0x1.ca2e978d4fdf4p-9, 0x1.8d3919d6af07ep-5},
            {"77660001155522334", 0x1.1118b8e7b7713p-8, 0x1.d713a65282a5dp-5},
            {"77660005111223344", 0x1.12fc504816fp-8, 0x1.e27db75c96252p-5},
            {"55660004111772233", 0x1.e9e4773d3662cp-9, 0x1.a0b4cf669002ap-5},
            {"55660004411772233", 0x1.e9e4773d3662cp-9, 0x1.a5901afe9d7b4p-5},
            {"66550004111772233", 0x1.0026b78a30f4fp-8, 0x1.8ca1d6ba5936fp-5},
            {"66550004411772233", 0x1.0026b78a30f4fp-8, 0x1.917d225266af9p-5},
            {"55660044111772233", 0x1.026ef52cc3701p-8, 0x1.b70a8f76ca5e6p-5},
            {"66550044111772233", 0x1.026ef52cc3701p-8, 0x1.9f0b9e9e858e2p-5},
            {"11335522667774400", 0x1.0ad5d867c3ecep-8, 0x1.8f43e9ef013dep-5},
            {"11335522667774440", 0x1.0ad5d867c3ecep-8, 0x1.913a87db6f60fp-5},
            {"11355522667774400", 0x1.0ad5d867c3ecep-8, 0x1.98d69a0fc5d98p-5},
            {"77660005111224433", 0x1.10681b4e81b4ep-8, 0x1.c50cd09f788f1p-5},
            {"77660005111224443", 0x1.10681b4e81b4ep-8, 0x1.c209755f871f5p-5},
            {"77660001155224433", 0x1.1118b8e7b7713p-8, 0x1.bb7816359cb1dp-5},
            {"77660001155224443", 0x1.1118b8e7b7713p-8, 0x1.b874baf5ab422p-5},
            {"55660004111773322", 0x1.12fc504816fp-8, 0x1.be61633482be8p-5},
            {"55660004411773322", 0x1.12fc504816fp-8, 0x1.c33caecc90373p-5},
         }});
}

// ---------------------------------------------------------------------
// bt::Service: large tenants fall back to the annealed engine.

TEST(ServiceAnnealedFallback, LargeTenantAnnealsInsteadOfFailing)
{
    // AlexNet-sparse (9 stages) on the 8-class rig is ~3.16M schedules
    // - beyond the exact limit, so the service must flip the plan to
    // the annealed engine rather than panic or relax C6.
    const auto soc = platform::manycoreRig();
    service::ServiceConfig cfg;
    cfg.workers = 1;
    service::Service service(soc, cfg);
    service.registerApp(apps::alexnetSparse());

    const auto key = service.keyFor("AlexNet-Sparse", 0, 0, 1);
    EXPECT_NE(key.plannerFingerprint, cfg.optimizer.fingerprint());

    const auto plan = service.freshPlan("AlexNet-Sparse", 0, 0, 1);
    EXPECT_TRUE(plan.schedule.valid(9, soc.numPus()));
    const auto report = service.report();
    EXPECT_EQ(report.plannerEngine, "exhaustive"); // the configured one
    EXPECT_GE(report.annealedFallbacks, 1);

    // Disabling the refusal threshold keeps the exact engine, so the
    // two configurations mint different cache keys: an annealed plan
    // can never be served where an exact one was requested.
    service::ServiceConfig unlimited = cfg;
    unlimited.optimizer.exactSpaceLimit = 0;
    service::Service exact_service(soc, unlimited);
    exact_service.registerApp(apps::alexnetSparse());
    const auto exact_key = exact_service.keyFor("AlexNet-Sparse", 0, 0, 1);
    EXPECT_NE(exact_key.plannerFingerprint, key.plannerFingerprint);
}

TEST(ServiceAnnealedFallback, SmallTenantKeepsTheExactEngine)
{
    const auto soc = platform::pixel7a();
    service::ServiceConfig cfg;
    cfg.workers = 1;
    service::Service service(soc, cfg);
    service.registerApp(apps::alexnetSparse());

    const auto plan = service.freshPlan("AlexNet-Sparse", 0, 0, 1);
    EXPECT_TRUE(plan.schedule.valid(9, soc.numPus()));
    const auto report = service.report();
    EXPECT_EQ(report.plannerEngine, "exhaustive");
    EXPECT_EQ(report.annealedFallbacks, 0);
}

} // namespace
} // namespace bt::core
