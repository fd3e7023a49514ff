/**
 * @file
 * Tests for BT-Profiler and BT-Optimizer: profiling-table structure and
 * interference signatures, solver-vs-exhaustive cross-validation
 * (identical candidate rankings), gapness filtering, blocking-clause
 * diversity, and the latency-only comparison configurations of
 * Fig. 5b/5c.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "core/optimizer.hpp"
#include "core/schedule_eval.hpp"
#include "core/profiler.hpp"
#include "platform/devices.hpp"
#include "solver/solver.hpp"

namespace bt::core {
namespace {

/** Fixture giving each test a profiled AlexNet-sparse on the Pixel. */
class ProfiledPixel : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        soc = platform::pixel7a();
        model = std::make_unique<platform::PerfModel>(soc);
        app = std::make_unique<Application>(apps::alexnetSparse());
        Profiler profiler(*model);
        result = profiler.profile(*app);
    }

    platform::SocDescription soc;
    std::unique_ptr<platform::PerfModel> model;
    std::unique_ptr<Application> app;
    ProfileResult result;
};

TEST_F(ProfiledPixel, TableShapeMatchesAppAndDevice)
{
    EXPECT_EQ(result.isolated.numStages(), app->numStages());
    EXPECT_EQ(result.isolated.numPus(), soc.numPus());
    EXPECT_EQ(result.interference.numStages(), app->numStages());
    EXPECT_EQ(result.isolated.stages()[0], "conv1");
    EXPECT_EQ(result.isolated.pus()[3], "gpu");
}

TEST_F(ProfiledPixel, AllEntriesPositiveWithNoiseStddev)
{
    for (int s = 0; s < result.isolated.numStages(); ++s) {
        for (int p = 0; p < result.isolated.numPus(); ++p) {
            EXPECT_GT(result.isolated.at(s, p), 0.0);
            EXPECT_GT(result.interference.at(s, p), 0.0);
            EXPECT_GT(result.isolated.stddevAt(s, p), 0.0);
        }
    }
}

TEST_F(ProfiledPixel, GpuBoostShowsInInterferenceTable)
{
    // The Mali governor boosts under CPU load: the interference-heavy
    // entries on the GPU must be faster than isolated ones for
    // compute-bound stages (conv2 is compute bound on the GPU; conv1
    // is launch/memory dominated).
    const int gpu = soc.findPu("gpu");
    EXPECT_LT(result.interference.at(2, gpu),
              result.isolated.at(2, gpu));
}

TEST_F(ProfiledPixel, CpuSlowdownShowsInInterferenceTable)
{
    const int big = soc.findPu("big");
    EXPECT_GT(result.interference.at(0, big),
              result.isolated.at(0, big));
}

TEST_F(ProfiledPixel, ProfilingIsDeterministic)
{
    Profiler profiler(*model);
    const ProfileResult again = profiler.profile(*app);
    for (int s = 0; s < result.isolated.numStages(); ++s)
        for (int p = 0; p < result.isolated.numPus(); ++p)
            EXPECT_DOUBLE_EQ(again.isolated.at(s, p),
                             result.isolated.at(s, p));
}

TEST_F(ProfiledPixel, ProfilingCostAccumulates)
{
    EXPECT_GT(result.profilingCostSeconds, 0.0);
}

TEST_F(ProfiledPixel, MoreRepsTightenNothingButStillPositive)
{
    Profiler profiler(*model, ProfilerConfig{.repetitions = 5});
    const ProfileResult quick = profiler.profile(*app);
    for (int s = 0; s < quick.isolated.numStages(); ++s)
        for (int p = 0; p < quick.isolated.numPus(); ++p)
            EXPECT_GT(quick.isolated.at(s, p), 0.0);
}

TEST_F(ProfiledPixel, SolverAndExhaustiveAgreeOnRanking)
{
    PlannerSpec solver_cfg;
    solver_cfg.engine = PlannerEngine::Solver;
    PlannerSpec brute_cfg = solver_cfg;
    brute_cfg.engine = PlannerEngine::Exhaustive;

    Optimizer with_solver(soc, result.interference, solver_cfg);
    Optimizer with_brute(soc, result.interference, brute_cfg);
    const auto a = with_solver.optimize();
    const auto b = with_brute.optimize();

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i].predictedLatency, b[i].predictedLatency,
                    1e-12)
            << "rank " << i;
    }
    EXPECT_NEAR(with_solver.stats().minimalGapness,
                with_brute.stats().minimalGapness, 1e-12);
}

TEST_F(ProfiledPixel, CandidatesAreDistinctSchedules)
{
    Optimizer opt(soc, result.interference);
    const auto cands = opt.optimize();
    EXPECT_EQ(cands.size(), 20u);
    std::set<std::string> seen;
    for (const auto& c : cands)
        EXPECT_TRUE(seen.insert(c.schedule.compactString()).second);
}

TEST_F(ProfiledPixel, CandidatesSortedByLatencyWithinFeasibleClass)
{
    Optimizer opt(soc, result.interference);
    const auto cands = opt.optimize();
    const auto& st = opt.stats();
    auto fully_feasible = [&](const Candidate& c) {
        return c.predictedLatency <= st.latencyBound + 1e-12
            && c.schedule.numChunks() >= st.requiredPus
            && c.predictedGapness <= st.gapnessBound + 1e-12;
    };
    // Within the fully feasible prefix, latency is non-decreasing, and
    // no infeasible candidate precedes a feasible one.
    bool left_class = false;
    double prev = -1.0;
    for (const auto& c : cands) {
        if (fully_feasible(c)) {
            EXPECT_FALSE(left_class)
                << "feasible candidate after infeasible one";
            EXPECT_GE(c.predictedLatency, prev);
            prev = c.predictedLatency;
        } else {
            left_class = true;
        }
    }
    EXPECT_GT(st.candidatesWithinBound, 0);
}

TEST_F(ProfiledPixel, UtilizationFilterMaximizesPuCountUnderBound)
{
    Optimizer opt(soc, result.interference);
    const auto cands = opt.optimize();
    const auto& st = opt.stats();

    // The feasibility class: within the latency bound and using the
    // highest attainable PU-class count.
    EXPECT_GE(st.requiredPus, 1);
    EXPECT_LE(st.requiredPus, soc.numPus());
    EXPECT_GE(st.latencyBound, st.unrestrictedLatency);

    // The top candidate must sit inside the class.
    EXPECT_LE(cands.front().predictedLatency,
              st.latencyBound + 1e-12);
    EXPECT_GE(cands.front().schedule.numChunks(), st.requiredPus);

    // No schedule with MORE distinct PUs fits the latency bound
    // (otherwise requiredPus was not maximal).
    for (const auto& s :
         enumerateSchedules(result.interference.numStages(),
                            soc.numPus())) {
        if (s.numChunks() > st.requiredPus)
            EXPECT_GT(s.bottleneckTime(result.interference),
                      st.latencyBound - 1e-12);
    }
}

TEST_F(ProfiledPixel, LatencyOnlyModeFindsGlobalLatencyOptimum)
{
    PlannerSpec cfg;
    cfg.utilizationFilter = false;
    cfg.engine = PlannerEngine::Exhaustive;
    Optimizer opt(soc, result.interference, cfg);
    const auto cands = opt.optimize();

    // The first candidate must equal the brute-force latency optimum
    // over the whole schedule space.
    const auto all = enumerateSchedules(app->numStages(), soc.numPus());
    double best = 1e300;
    for (const auto& s : all)
        best = std::min(best, s.bottleneckTime(result.interference));
    EXPECT_NEAR(cands.front().predictedLatency, best, 1e-12);
}

TEST_F(ProfiledPixel, GapnessFilterNeverWorsensBeyondSlack)
{
    Optimizer opt(soc, result.interference);
    const auto cands = opt.optimize();
    const auto& st = opt.stats();
    EXPECT_GT(st.candidatesWithinBound, 0);
    EXPECT_GE(st.gapnessBound, st.minimalGapness);
    // The level-1 optimum must itself be attainable.
    bool found_min = false;
    for (const auto& c : cands)
        found_min = found_min
            || c.predictedGapness <= st.gapnessBound + 1e-12;
    EXPECT_TRUE(found_min);
}

TEST_F(ProfiledPixel, PipelineSchedulesBeatHomogeneousPrediction)
{
    Optimizer opt(soc, result.interference);
    const auto cands = opt.optimize();
    // Predicted bottleneck of the best pipeline must beat every
    // homogeneous schedule's predicted latency (this is the whole
    // point of pipelining).
    for (int p = 0; p < soc.numPus(); ++p) {
        const auto homog
            = Schedule::homogeneous(app->numStages(), p);
        EXPECT_LT(cands.front().predictedLatency,
                  homog.bottleneckTime(result.interference));
    }
}

TEST_F(ProfiledPixel, SolverStatsPopulated)
{
    Optimizer opt(soc, result.interference);
    opt.optimize();
    EXPECT_GT(opt.stats().solverNodes, 0u);
}

class ScheduleModelCounts
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(ScheduleModelCounts, SolverEncodingCountsMatchEnumeration)
{
    // The C1+C2 solver encoding must admit exactly the schedules the
    // combinatorial enumerator produces.
    const auto [stages, pus] = GetParam();
    solver::Model model;
    std::vector<std::vector<solver::Var>> x(
        static_cast<std::size_t>(stages));
    for (int i = 0; i < stages; ++i) {
        for (int c = 0; c < pus; ++c)
            x[static_cast<std::size_t>(i)].push_back(model.newVar());
        model.addExactlyOne(x[static_cast<std::size_t>(i)]);
    }
    for (int c = 0; c < pus; ++c)
        for (int i = 0; i < stages; ++i)
            for (int k = i + 2; k < stages; ++k)
                for (int j = i + 1; j < k; ++j)
                    model.addImplication(
                        {solver::pos(x[static_cast<std::size_t>(i)]
                                      [static_cast<std::size_t>(c)]),
                         solver::pos(x[static_cast<std::size_t>(k)]
                                      [static_cast<std::size_t>(c)])},
                        solver::pos(x[static_cast<std::size_t>(j)]
                                     [static_cast<std::size_t>(c)]));
    solver::Solver s(model);
    EXPECT_EQ(s.countSolutions(), countSchedules(stages, pus));
}

INSTANTIATE_TEST_SUITE_P(Spaces, ScheduleModelCounts,
                         ::testing::Values(std::pair{1, 1},
                                           std::pair{3, 2},
                                           std::pair{5, 3},
                                           std::pair{7, 4},
                                           std::pair{9, 4}));

TEST(Optimizer, FewerStagesThanPusStillSolves)
{
    const auto soc = platform::pixel7a(); // 4 PUs
    ProfilingTable table({"a", "b"}, {"little", "mid", "big", "gpu"});
    for (int s = 0; s < 2; ++s)
        for (int p = 0; p < 4; ++p)
            table.set(s, p, 1.0 + s + p);
    Optimizer opt(soc, table);
    const auto cands = opt.optimize();
    EXPECT_FALSE(cands.empty());
    for (const auto& c : cands)
        EXPECT_TRUE(c.schedule.valid(2, 4));
}

TEST(Optimizer, SingleStageSinglePu)
{
    platform::SocDescription soc = platform::jetsonOrinNano();
    ProfilingTable table({"only"}, {"cpu", "gpu"});
    table.set(0, 0, 2.0);
    table.set(0, 1, 1.0);
    Optimizer opt(soc, table);
    const auto cands = opt.optimize();
    ASSERT_FALSE(cands.empty());
    // Best single-stage schedule picks the faster PU.
    EXPECT_EQ(cands.front().schedule.puOfStage(0), 1);
}

TEST(Optimizer, CandidateCountRespectsK)
{
    const auto soc = platform::jetsonOrinNano();
    ProfilingTable table({"a", "b", "c"}, {"cpu", "gpu"});
    for (int s = 0; s < 3; ++s)
        for (int p = 0; p < 2; ++p)
            table.set(s, p, 1.0 + s * 0.5 + p * 0.25);
    PlannerSpec cfg;
    cfg.numCandidates = 5;
    Optimizer opt(soc, table, cfg);
    EXPECT_LE(opt.optimize().size(), 5u);
}

TEST(Optimizer, ExhaustsSpaceWhenKExceedsIt)
{
    const auto soc = platform::jetsonOrinNano(); // 2 PUs
    ProfilingTable table({"a", "b"}, {"cpu", "gpu"});
    for (int s = 0; s < 2; ++s)
        for (int p = 0; p < 2; ++p)
            table.set(s, p, 1.0 + s + p);
    PlannerSpec cfg;
    cfg.numCandidates = 50;
    cfg.utilizationFilter = false;
    Optimizer opt(soc, table, cfg);
    // 2 stages, 2 PUs: 2 single-chunk + 2 two-chunk = 4 schedules.
    EXPECT_EQ(opt.optimize().size(), 4u);
}

TEST_F(ProfiledPixel, EvaluatorChunkTimesBitIdenticalToRangeTime)
{
    const auto& table = result.interference;
    ScheduleEvaluator eval(soc, table, *model);
    for (int first = 0; first < table.numStages(); ++first)
        for (int last = first; last < table.numStages(); ++last)
            for (int p = 0; p < table.numPus(); ++p)
                EXPECT_EQ(eval.chunkTime(first, last, p),
                          table.rangeTime(first, last, p))
                    << "chunk [" << first << ", " << last << "] on "
                    << p;
}

TEST_F(ProfiledPixel, EvaluatorBitIdenticalOverAllSchedules)
{
    const auto& table = result.interference;
    ScheduleEvaluator eval(soc, table, *model);
    const auto all
        = enumerateSchedules(app->numStages(), soc.numPus());
    for (const auto& s : all) {
        const Prediction& p = eval.predict(s);
        EXPECT_EQ(p.latency, s.bottleneckTime(table));
        EXPECT_EQ(p.gapness, s.gapness(table));
        EXPECT_EQ(p.numChunks, s.numChunks());
    }
    // Every schedule again: all hits this time.
    const auto misses = eval.stats().misses;
    for (const auto& s : all)
        eval.predict(s);
    EXPECT_EQ(eval.stats().misses, misses);
    EXPECT_GE(eval.stats().hits, all.size());
}

/** Memoized and from-scratch planning must agree bit-for-bit: same
 *  candidates, same predicted numbers, same stats. */
void
expectSamePlan(const platform::SocDescription& soc,
               const ProfilingTable& table, PlannerSpec cfg)
{
    cfg.memoize = true;
    Optimizer memo(soc, table, cfg);
    cfg.memoize = false;
    Optimizer scratch(soc, table, cfg);

    const auto a = memo.optimize();
    const auto b = scratch.optimize();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].schedule.toAssignment(),
                  b[i].schedule.toAssignment());
        EXPECT_EQ(a[i].predictedLatency, b[i].predictedLatency);
        EXPECT_EQ(a[i].predictedGapness, b[i].predictedGapness);
        EXPECT_EQ(a[i].predictedEnergyJ, b[i].predictedEnergyJ);
    }
    EXPECT_EQ(memo.stats().unrestrictedLatency,
              scratch.stats().unrestrictedLatency);
    EXPECT_EQ(memo.stats().latencyBound, scratch.stats().latencyBound);
    EXPECT_EQ(memo.stats().requiredPus, scratch.stats().requiredPus);
    EXPECT_EQ(memo.stats().minimalGapness,
              scratch.stats().minimalGapness);
    EXPECT_EQ(memo.stats().gapnessBound, scratch.stats().gapnessBound);
    // The memoized solver path harvests the space in a single DPLL
    // sweep and replays the level logic over the harvested array, so
    // it can only explore fewer nodes than the multi-pass path.
    EXPECT_LE(memo.stats().solverNodes, scratch.stats().solverNodes);
    EXPECT_EQ(memo.stats().candidatesWithinBound,
              scratch.stats().candidatesWithinBound);
    // The memoized run went through the evaluator (each enumerated
    // schedule predicted once - a miss; candidate construction then
    // re-reads the winners - hits).
    EXPECT_GT(memo.stats().evalHits + memo.stats().evalMisses, 0u);
    EXPECT_EQ(scratch.stats().evalHits + scratch.stats().evalMisses,
              0u);
}

TEST_F(ProfiledPixel, MemoizedExhaustivePlanBitIdentical)
{
    PlannerSpec cfg;
    cfg.engine = PlannerEngine::Exhaustive;
    expectSamePlan(soc, result.interference, cfg);
}

TEST_F(ProfiledPixel, MemoizedSolverPlanBitIdentical)
{
    PlannerSpec cfg;
    cfg.engine = PlannerEngine::Solver;
    expectSamePlan(soc, result.interference, cfg);

    // The solver's minimize calls revisit assignments, so the keyed
    // cache must be doing real work on this path.
    Optimizer memo(soc, result.interference, cfg);
    memo.optimize();
    EXPECT_GT(memo.stats().evalHits, 0u);
}

TEST_F(ProfiledPixel, MemoizedEnergyDelayPlanBitIdentical)
{
    PlannerSpec cfg;
    cfg.engine = PlannerEngine::Exhaustive;
    cfg.objective = PlannerSpec::Objective::EnergyDelay;
    expectSamePlan(soc, result.interference, cfg);
}

TEST_F(ProfiledPixel, MemoizedReplanShapeBitIdentical)
{
    // The graceful-degradation configuration: one candidate on a
    // restricted PU set.
    PlannerSpec cfg;
    cfg.engine = PlannerEngine::Exhaustive;
    cfg.numCandidates = 1;
    cfg.allowedPus = {0, 1, 2};
    expectSamePlan(soc, result.interference, cfg);
}

TEST_F(ProfiledPixel, SharedEvaluatorServesSecondOptimizerFromCache)
{
    const auto& table = result.interference;
    ScheduleEvaluator eval(soc, table, *model);
    PlannerSpec cfg;
    cfg.engine = PlannerEngine::Exhaustive;
    cfg.numCandidates = 1;
    cfg.sharedEvaluator = &eval;

    Optimizer first(soc, table, cfg);
    const auto plan_a = first.optimize();
    const auto misses_after_first = eval.stats().misses;

    cfg.allowedPus = {0, 1, 2}; // a replan against the same table
    Optimizer second(soc, table, cfg);
    const auto plan_b = second.optimize();
    // Nothing new to predict: the first pass scored the full space.
    EXPECT_EQ(eval.stats().misses, misses_after_first);
    ASSERT_FALSE(plan_b.empty());
    for (const auto& chunk : plan_b.front().schedule.chunks())
        EXPECT_LE(chunk.pu, 2);
    (void)plan_a;
}

TEST(PackedAssignmentKey, IntegerOrderIsLexicographicOrder)
{
    // Stage 0 sits in the high nibble, so sorting packed keys sorts the
    // assignments lexicographically (Schedule::toAssignment order) -
    // the planner's ranking tie-break depends on exactly this.
    std::vector<std::vector<int>> assigns;
    for (const auto& s : enumerateSchedules(6, 5))
        assigns.push_back(s.toAssignment());
    std::sort(assigns.begin(), assigns.end());
    for (std::size_t i = 0; i + 1 < assigns.size(); ++i)
        EXPECT_LT(packAssignment(assigns[i]),
                  packAssignment(assigns[i + 1]));

    std::vector<int> back(6);
    for (const auto& a : assigns) {
        unpackAssignment(packAssignment(a), back);
        EXPECT_EQ(back, a);
    }
    // The widest packable assignment fills all 64 bits.
    const std::vector<int> widest(kMaxPackedStages, 15);
    EXPECT_EQ(packAssignment(widest), ~std::uint64_t{0});
    EXPECT_EQ(packAssignment(std::vector<int>{1, 0}), 0x10u);
}

/** Insert @p assigns into @p pool (prediction latency = position) and
 *  check dedup, first-insert order, lookup and decode. */
void
expectPoolRoundTrip(SchedulePool& pool,
                    const std::vector<std::vector<int>>& assigns)
{
    for (std::size_t i = 0; i < assigns.size(); ++i) {
        Prediction p;
        p.latency = static_cast<double>(i);
        EXPECT_TRUE(pool.add(assigns[i], p));
        EXPECT_FALSE(pool.add(assigns[i], p)) << "duplicate pooled";
    }
    ASSERT_EQ(pool.size(), assigns.size());
    std::vector<int> back(assigns.front().size());
    for (std::size_t i = 0; i < assigns.size(); ++i) {
        const auto probe = pool.find(assigns[i]);
        ASSERT_EQ(probe.entry, i);
        EXPECT_EQ(pool.prediction(i).latency, static_cast<double>(i));
        pool.assignment(i, back);
        EXPECT_EQ(back, assigns[i]);
        if (i > 0) {
            EXPECT_EQ(pool.assignmentLess(i - 1, i),
                      assigns[i - 1] < assigns[i]);
        }
    }
}

TEST(SchedulePool, KeyedPoolDedupsAndKeepsInsertOrder)
{
    // 2,116 schedules: past the initial table size, so growth rehashes.
    std::vector<std::vector<int>> assigns;
    for (const auto& s : enumerateSchedules(9, 4))
        assigns.push_back(s.toAssignment());
    std::reverse(assigns.begin(), assigns.end());
    SchedulePool pool(9, 4);
    EXPECT_TRUE(pool.keyed());
    expectPoolRoundTrip(pool, assigns);
    for (std::size_t i = 0; i < assigns.size(); ++i)
        EXPECT_EQ(pool.key(i), packAssignment(assigns[i]));
}

TEST(SchedulePool, WidePoolStoresAssignments)
{
    // 17 stages do not pack into 64 bits.
    std::vector<std::vector<int>> assigns;
    for (const auto& s : enumerateSchedules(17, 3))
        assigns.push_back(s.toAssignment());
    SchedulePool pool(17, 3);
    EXPECT_FALSE(pool.keyed());
    expectPoolRoundTrip(pool, assigns);
    // PU 0 in two separate runs violates C2, so it was never added.
    std::vector<int> never_added(17, 0);
    never_added[8] = 1;
    EXPECT_EQ(pool.find(never_added).entry, SchedulePool::kAbsent);
}

} // namespace
} // namespace bt::core
