/**
 * @file
 * Tests for BT-Profiler and BT-Optimizer: profiling-table structure and
 * interference signatures, solver-vs-exhaustive cross-validation (bit
 * for bit, on every PU lease of the paper's app/rig pairs), golden
 * exact plans, gapness filtering, blocking-clause diversity, and the
 * latency-only comparison configurations of Fig. 5b/5c.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
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
    PlannerSpec cfg;
    cfg.engine = PlannerEngine::Solver;
    Optimizer opt(soc, result.interference, cfg);
    opt.optimize();
    EXPECT_EQ(opt.stats().engine, PlannerEngine::Solver);
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

        // Per-task energy from scratch: each used PU is active for its
        // chunk time and idle for the rest of the bottleneck interval,
        // unused PUs idle throughout, plus the uncore floor.
        const double interval = s.bottleneckTime(table);
        double energy = soc.basePowerW * interval;
        std::vector<bool> used(static_cast<std::size_t>(soc.numPus()));
        for (int ch = 0; ch < s.numChunks(); ++ch) {
            const int pu = s.chunks()[static_cast<std::size_t>(ch)].pu;
            used[static_cast<std::size_t>(pu)] = true;
            const double active = s.chunkTime(table, ch);
            energy += active * model->activePowerW(pu, s.numChunks() - 1)
                + std::max(0.0, interval - active)
                    * soc.pu(pu).idlePowerW;
        }
        for (int pu = 0; pu < soc.numPus(); ++pu)
            if (!used[static_cast<std::size_t>(pu)])
                energy += interval * soc.pu(pu).idlePowerW;
        EXPECT_EQ(p.energyJ, energy) << s.compactString();
    }
    // Every schedule again: all hits this time.
    const auto misses = eval.stats().misses;
    for (const auto& s : all)
        eval.predict(s);
    EXPECT_EQ(eval.stats().misses, misses);
    EXPECT_GE(eval.stats().hits, all.size());
}

/** Both exact engines, bit for bit: same candidates, same predicted
 *  numbers, same level-1 stats. */
void
expectSamePlan(const platform::SocDescription& soc,
               const ProfilingTable& table, PlannerSpec cfg)
{
    cfg.engine = PlannerEngine::Exhaustive;
    Optimizer exhaustive(soc, table, cfg);
    cfg.engine = PlannerEngine::Solver;
    Optimizer solver(soc, table, cfg);

    const auto a = exhaustive.optimize();
    const auto b = solver.optimize();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].schedule.toAssignment(),
                  b[i].schedule.toAssignment())
            << "rank " << i;
        EXPECT_EQ(a[i].predictedLatency, b[i].predictedLatency);
        EXPECT_EQ(a[i].predictedGapness, b[i].predictedGapness);
        EXPECT_EQ(a[i].predictedEnergyJ, b[i].predictedEnergyJ);
        EXPECT_EQ(a[i].predictedDemandGbps, b[i].predictedDemandGbps);
    }
    const OptimizeStats& x = exhaustive.stats();
    const OptimizeStats& y = solver.stats();
    EXPECT_EQ(x.spaceSize, y.spaceSize);
    EXPECT_EQ(x.unrestrictedLatency, y.unrestrictedLatency);
    EXPECT_EQ(x.latencyBound, y.latencyBound);
    EXPECT_EQ(x.requiredPus, y.requiredPus);
    EXPECT_EQ(x.minimalGapness, y.minimalGapness);
    EXPECT_EQ(x.gapnessBound, y.gapnessBound);
    EXPECT_EQ(x.candidatesWithinBound, y.candidatesWithinBound);
    EXPECT_EQ(x.demandBudgetGbps, y.demandBudgetGbps);
    EXPECT_EQ(x.c6Relaxed, y.c6Relaxed);
}

// Every plan goes through the caching evaluator; these compare the
// exhaustive engine against the solver, which reaches the same plan
// through the DPLL encoding of C1-C6.

TEST_F(ProfiledPixel, MemoizedExhaustivePlanBitIdentical)
{
    expectSamePlan(soc, result.interference, PlannerSpec{});
}

TEST_F(ProfiledPixel, MemoizedSolverPlanBitIdentical)
{
    // Both engines score each schedule of the space exactly once; only
    // the solver walks DPLL nodes.
    PlannerSpec cfg;
    cfg.engine = PlannerEngine::Solver;
    Optimizer solver(soc, result.interference, cfg);
    solver.optimize();
    Optimizer exhaustive(soc, result.interference);
    exhaustive.optimize();
    for (const Optimizer* opt : {&solver, &exhaustive}) {
        EXPECT_EQ(opt->stats().evalMisses, opt->stats().spaceSize);
        EXPECT_EQ(opt->stats().evalHits, 0u);
    }
    EXPECT_GT(solver.stats().solverNodes, 0u);
    EXPECT_EQ(exhaustive.stats().solverNodes, 0u);
}

TEST_F(ProfiledPixel, MemoizedEnergyDelayPlanBitIdentical)
{
    PlannerSpec cfg;
    cfg.objective = PlannerSpec::Objective::EnergyDelay;
    expectSamePlan(soc, result.interference, cfg);
}

TEST_F(ProfiledPixel, MemoizedReplanShapeBitIdentical)
{
    // The graceful-degradation configuration: one candidate on a
    // restricted PU set.
    PlannerSpec cfg;
    cfg.numCandidates = 1;
    cfg.allowedPus = {0, 1, 2};
    expectSamePlan(soc, result.interference, cfg);
}

TEST(ExactEngines, AgreeOnEveryLeaseOfThePaperPairs)
{
    // All 12 app/rig pairs of the paper, every non-empty PU lease, both
    // ranking objectives.
    const std::vector<platform::SocDescription> socs
        = {platform::pixel7a(), platform::oneplus11(),
           platform::jetsonOrinNano(), platform::jetsonOrinNanoLp()};
    const std::vector<Application> apps
        = {apps::alexnetDense(), apps::alexnetSparse(), apps::octreeApp()};
    for (const auto& soc : socs) {
        const platform::PerfModel model(soc);
        for (const auto& app : apps) {
            const auto table = Profiler(model).profile(app).interference;
            for (int mask = 1; mask < (1 << soc.numPus()); ++mask) {
                PlannerSpec cfg;
                for (int p = 0; p < soc.numPus(); ++p)
                    if ((mask & (1 << p)) != 0)
                        cfg.allowedPus.push_back(p);
                for (const auto objective :
                     {PlannerSpec::Objective::Latency,
                      PlannerSpec::Objective::EnergyDelay}) {
                    SCOPED_TRACE(soc.name + " / " + app.name()
                                 + " / lease mask "
                                 + std::to_string(mask));
                    cfg.objective = objective;
                    expectSamePlan(soc, table, cfg);
                }
            }
        }
    }
}

TEST(ExactEngines, ExhaustiveEnumeratesOnlyAllowedPus)
{
    // A three-class lease of the eight-class manycore rig: 219
    // schedules, against 3,154,824 over the whole device.
    const auto soc = platform::manycoreRig();
    const platform::PerfModel model(soc);
    const auto table
        = Profiler(model).profile(apps::alexnetSparse()).interference;
    PlannerSpec cfg;
    cfg.allowedPus = {0, 1, 2};
    expectSamePlan(soc, table, cfg);

    Optimizer opt(soc, table, cfg);
    const auto cands = opt.optimize();
    ASSERT_EQ(scheduleSpaceSize(9, 3), 219u);
    EXPECT_EQ(opt.stats().spaceSize, 219u);
    EXPECT_EQ(opt.stats().evalMisses, 219u);
    EXPECT_EQ(opt.stats().evalHits, 0u);
    for (const auto& c : cands)
        for (const auto& chunk : c.schedule.chunks())
            EXPECT_LE(chunk.pu, 2);
}

// ---------------------------------------------------------------------
// Golden exact plans of AlexNet-sparse on the Pixel, recorded before
// the multi-pass solver path was removed and pinned bit for bit for
// both exact engines.

/** One pinned candidate: compact schedule and hex-float costs. */
struct GoldenCandidate
{
    const char* schedule;
    double latency;
    double gapness;
    double energyJ;
};

struct GoldenPlan
{
    double unrestrictedLatency;
    double latencyBound;
    int requiredPus;
    double minimalGapness;
    double gapnessBound;
    int candidatesWithinBound;
    std::vector<GoldenCandidate> candidates;
};

/** @p cands and the level-1 stats in GoldenPlan initializer syntax:
 *  printed on a mismatch, so an intended change can be re-recorded. */
std::string
goldenLiteral(const OptimizeStats& st, const std::vector<Candidate>& cands)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "{%a, %a, %d,\n %a, %a, %d,\n {\n",
                  st.unrestrictedLatency, st.latencyBound, st.requiredPus,
                  st.minimalGapness, st.gapnessBound,
                  st.candidatesWithinBound);
    std::string out = buf;
    for (const auto& c : cands) {
        std::snprintf(buf, sizeof buf, "  {\"%s\", %a, %a,\n   %a},\n",
                      c.schedule.compactString().c_str(),
                      c.predictedLatency, c.predictedGapness,
                      c.predictedEnergyJ);
        out += buf;
    }
    return out + " }}";
}

void
expectGoldenPlan(const platform::SocDescription& soc,
                 const ProfilingTable& table, PlannerSpec cfg,
                 const GoldenPlan& golden)
{
    for (const auto engine :
         {PlannerEngine::Exhaustive, PlannerEngine::Solver}) {
        SCOPED_TRACE(plannerEngineName(engine));
        cfg.engine = engine;
        Optimizer opt(soc, table, cfg);
        const auto cands = opt.optimize();
        const OptimizeStats& st = opt.stats();
        EXPECT_EQ(st.unrestrictedLatency, golden.unrestrictedLatency);
        EXPECT_EQ(st.latencyBound, golden.latencyBound);
        EXPECT_EQ(st.requiredPus, golden.requiredPus);
        EXPECT_EQ(st.minimalGapness, golden.minimalGapness);
        EXPECT_EQ(st.gapnessBound, golden.gapnessBound);
        EXPECT_EQ(st.candidatesWithinBound, golden.candidatesWithinBound);
        EXPECT_EQ(cands.size(), golden.candidates.size());
        for (std::size_t i = 0;
             i < std::min(cands.size(), golden.candidates.size()); ++i) {
            const GoldenCandidate& g = golden.candidates[i];
            EXPECT_EQ(cands[i].schedule.compactString(), g.schedule)
                << "rank " << i;
            EXPECT_EQ(cands[i].predictedLatency, g.latency) << "rank " << i;
            EXPECT_EQ(cands[i].predictedGapness, g.gapness) << "rank " << i;
            EXPECT_EQ(cands[i].predictedEnergyJ, g.energyJ) << "rank " << i;
        }
        if (::testing::Test::HasFailure())
            ADD_FAILURE() << "actual plan:\n" << goldenLiteral(st, cands);
    }
}

TEST_F(ProfiledPixel, GoldenExactPlanLatency)
{
    expectGoldenPlan(soc, result.interference, PlannerSpec{},
        {0x1.ddbcc5a83f45dp-9, 0x1.5a5c0f4e4759p-8, 4,
         0x1.3e3ab627623fcp-10, 0x1.3e3abebe6833dp-9, 6,
         {
          {"012333333", 0x1.ddbcc5a83f45dp-9, 0x1.1c7615a43677bp-9,
           0x1.57dc7928ef1fep-5},
          {"112033333", 0x1.ddbcc5a83f45dp-9, 0x1.56999cff6972ep-10,
           0x1.398164380d681p-5},
          {"033321111", 0x1.e09008ff2d147p-9, 0x1.deee8dc6da092p-10,
           0x1.48c7d333107a2p-5},
          {"333021111", 0x1.e09008ff2d147p-9, 0x1.3e3ab627623fcp-10,
           0x1.5b8a413728beep-5},
          {"033322111", 0x1.05bf270bad4b8p-8, 0x1.1a658bfb9a872p-9,
           0x1.4db27931cb91cp-5},
          {"333022111", 0x1.05bf270bad4b8p-8, 0x1.f5728d8d044c6p-10,
           0x1.6074e735e3d68p-5},
          {"112333300", 0x1.ddbcc5a83f45dp-9, 0x1.4fc3f3b03cf81p-9,
           0x1.4af5350564ff3p-5},
          {"333320111", 0x1.ee97503b29407p-9, 0x1.664831bb4acdcp-9,
           0x1.7d1e177ab1fe1p-5},
          {"333321100", 0x1.ee97503b29407p-9, 0x1.609e7e4326f2bp-9,
           0x1.7dcf2b5f8ff23p-5},
          {"333321110", 0x1.ee97503b29407p-9, 0x1.82a8ee8f6a688p-9,
           0x1.7dd32bdbce45bp-5},
          {"013332222", 0x1.000273e1d8e05p-8, 0x1.3ebe37bfa8f28p-9,
           0x1.71c73522603dbp-5},
          {"023331111", 0x1.000273e1d8e05p-8, 0x1.5330314144d72p-9,
           0x1.751db5d8867f6p-5},
          {"113330222", 0x1.000273e1d8e05p-8, 0x1.77b5c943d34dfp-9,
           0x1.73277508e51e9p-5},
          {"033221111", 0x1.30bfdc3de7a7dp-8, 0x1.7066f6600f3fcp-9,
           0x1.378a49e87203fp-5},
          {"333220111", 0x1.30bfdc3de7a7dp-8, 0x1.d93099fbf0dcfp-9,
           0x1.6a62fb6b4d89ap-5},
          {"333221100", 0x1.30bfdc3de7a7dp-8, 0x1.d386e683cd01ep-9,
           0x1.6b140f502b7ddp-5},
          {"033322211", 0x1.55d9e923bc7adp-8, 0x1.41ea4559a9237p-8,
           0x1.5cc56f3b00ef3p-5},
          {"113322200", 0x1.55d9e923bc7adp-8, 0x1.0edd8027bb53fp-8,
           0x1.36420e3221dcap-5},
          {"133322200", 0x1.55d9e923bc7adp-8, 0x1.1d4545917b9bbp-8,
           0x1.5f31b1adc06c6p-5},
          {"033312222", 0x1.5cf935eebd47ap-8, 0x1.d1048094b2dd8p-9,
           0x1.63f19f09cf726p-5},
         }});
}

TEST_F(ProfiledPixel, GoldenExactPlanEnergyDelay)
{
    PlannerSpec cfg;
    cfg.objective = PlannerSpec::Objective::EnergyDelay;
    expectGoldenPlan(soc, result.interference, cfg,
        {0x1.ddbcc5a83f45dp-9, 0x1.5a5c0f4e4759p-8, 4,
         0x1.3e3ab627623fcp-10, 0x1.3e3abebe6833dp-9, 6,
         {
          {"112033333", 0x1.ddbcc5a83f45dp-9, 0x1.56999cff6972ep-10,
           0x1.398164380d681p-5},
          {"033321111", 0x1.e09008ff2d147p-9, 0x1.deee8dc6da092p-10,
           0x1.48c7d333107a2p-5},
          {"012333333", 0x1.ddbcc5a83f45dp-9, 0x1.1c7615a43677bp-9,
           0x1.57dc7928ef1fep-5},
          {"333021111", 0x1.e09008ff2d147p-9, 0x1.3e3ab627623fcp-10,
           0x1.5b8a413728beep-5},
          {"033322111", 0x1.05bf270bad4b8p-8, 0x1.1a658bfb9a872p-9,
           0x1.4db27931cb91cp-5},
          {"333022111", 0x1.05bf270bad4b8p-8, 0x1.f5728d8d044c6p-10,
           0x1.6074e735e3d68p-5},
          {"112333300", 0x1.ddbcc5a83f45dp-9, 0x1.4fc3f3b03cf81p-9,
           0x1.4af5350564ff3p-5},
          {"333320111", 0x1.ee97503b29407p-9, 0x1.664831bb4acdcp-9,
           0x1.7d1e177ab1fe1p-5},
          {"333321100", 0x1.ee97503b29407p-9, 0x1.609e7e4326f2bp-9,
           0x1.7dcf2b5f8ff23p-5},
          {"333321110", 0x1.ee97503b29407p-9, 0x1.82a8ee8f6a688p-9,
           0x1.7dd32bdbce45bp-5},
          {"013332222", 0x1.000273e1d8e05p-8, 0x1.3ebe37bfa8f28p-9,
           0x1.71c73522603dbp-5},
          {"033221111", 0x1.30bfdc3de7a7dp-8, 0x1.7066f6600f3fcp-9,
           0x1.378a49e87203fp-5},
          {"113330222", 0x1.000273e1d8e05p-8, 0x1.77b5c943d34dfp-9,
           0x1.73277508e51e9p-5},
          {"113332200", 0x1.000273e1d8e05p-8, 0x1.720c15cbaf72ep-9,
           0x1.74580c3f0f9ddp-5},
          {"033222111", 0x1.4636fec9fe692p-8, 0x1.9b553b783cc26p-9,
           0x1.3c74efe72d1bap-5},
          {"113322200", 0x1.55d9e923bc7adp-8, 0x1.0edd8027bb53fp-8,
           0x1.36420e3221dcap-5},
          {"333220111", 0x1.30bfdc3de7a7dp-8, 0x1.d93099fbf0dcfp-9,
           0x1.6a62fb6b4d89ap-5},
          {"333221100", 0x1.30bfdc3de7a7dp-8, 0x1.d386e683cd01ep-9,
           0x1.6b140f502b7ddp-5},
          {"033322211", 0x1.55d9e923bc7adp-8, 0x1.41ea4559a9237p-8,
           0x1.5cc56f3b00ef3p-5},
          {"133322200", 0x1.55d9e923bc7adp-8, 0x1.1d4545917b9bbp-8,
           0x1.5f31b1adc06c6p-5},
         }});
}

TEST_F(ProfiledPixel, GoldenExactPlanReplanShape)
{
    PlannerSpec cfg;
    cfg.numCandidates = 1;
    cfg.allowedPus = {0, 1, 2};
    expectGoldenPlan(soc, result.interference, cfg,
        {0x1.a536d1e24b80ap-8, 0x1.3161582b037a1p-7, 3,
         0x1.07b7f6655de64p-10, 0x1.07b7fefc63da5p-9, 1,
         {
          {"001222222", 0x1.a536d1e24b80ap-8, 0x1.1dfa9343705dp-10,
           0x1.b829a24149ad5p-6},
         }});
}

TEST_F(ProfiledPixel, SharedEvaluatorServesSecondOptimizerFromCache)
{
    const auto& table = result.interference;
    ScheduleEvaluator eval(soc, table, *model);
    PlannerSpec cfg;
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

TEST_F(ProfiledPixel, ExhaustiveScoresInPlaceUnlessTheEvaluatorIsShared)
{
    const auto& table = result.interference;
    for (const std::vector<int>& lease :
         {std::vector<int>{}, std::vector<int>{0, 2, 3}}) {
        PlannerSpec cfg;
        cfg.allowedPus = lease;
        // An owned evaluator is never asked twice about one schedule:
        // each is scored once and none goes through the memo.
        Optimizer owned(soc, table, cfg);
        const auto plan = owned.optimize();
        EXPECT_EQ(owned.stats().evalMisses, owned.stats().spaceSize);
        EXPECT_EQ(owned.stats().evalHits, 0u);

        // A shared evaluator is memoized, so a second optimizer over it
        // is served entirely from the memo, with the same plan.
        ScheduleEvaluator eval(soc, table, *model);
        cfg.sharedEvaluator = &eval;
        Optimizer first(soc, table, cfg);
        first.optimize();
        EXPECT_EQ(eval.stats().misses, owned.stats().spaceSize);
        Optimizer second(soc, table, cfg);
        const auto again = second.optimize();
        EXPECT_EQ(eval.stats().misses, owned.stats().spaceSize);
        EXPECT_EQ(eval.stats().hits, owned.stats().spaceSize);
        ASSERT_EQ(plan.size(), again.size());
        for (std::size_t i = 0; i < plan.size(); ++i) {
            EXPECT_EQ(plan[i].schedule.toAssignment(),
                      again[i].schedule.toAssignment());
            EXPECT_EQ(plan[i].predictedLatency, again[i].predictedLatency);
            EXPECT_EQ(plan[i].predictedEnergyJ, again[i].predictedEnergyJ);
        }
    }
}

/** score() equals predict() bit for bit on every schedule over @p pus,
 *  uncontended and under one contended bucket, and never touches the
 *  memo. */
void
expectScoreMatchesPredict(const platform::SocDescription& soc,
                          const Application& app,
                          const std::vector<int>& pus)
{
    const platform::PerfModel model(soc);
    const ProfileResult profile = Profiler(model).profile(app);
    const ProfilingTable& table = profile.interference;
    ScheduleEvaluator memoized(soc, table, model, &profile.contention);
    ScheduleEvaluator bare(soc, table, model, &profile.contention);
    const auto all = enumerateSchedulesOver(app.numStages(), pus);
    bool stretched = false; // bucket 3 really is contended
    for (const int bucket : {0, 3}) {
        for (const auto& s : all) {
            const std::vector<int> assign = s.toAssignment();
            const Prediction p = memoized.predict(assign, bucket);
            const Prediction q = bare.score(assign, bucket);
            if (bucket != 0)
                stretched = stretched
                    || q.latency > memoized.predict(assign, 0).latency;
            EXPECT_EQ(q.latency, p.latency) << s.compactString();
            EXPECT_EQ(q.gapness, p.gapness) << s.compactString();
            EXPECT_EQ(q.energyJ, p.energyJ) << s.compactString();
            EXPECT_EQ(q.numChunks, p.numChunks) << s.compactString();
            EXPECT_EQ(q.demandMilli, p.demandMilli) << s.compactString();
            EXPECT_EQ(q.demandGbps, p.demandGbps) << s.compactString();
        }
    }
    EXPECT_TRUE(stretched);
    // Every score() counts as a scored schedule; none was memoized.
    EXPECT_EQ(bare.stats().misses, 2 * all.size());
    EXPECT_EQ(bare.stats().hits, 0u);
    EXPECT_EQ(memoized.stats().misses, bare.stats().misses);
}

TEST(EvaluatorScore, MatchesPredictOnPixelAlexNetSparse)
{
    const auto soc = platform::pixel7a();
    std::vector<int> pus;
    for (int p = 0; p < soc.numPus(); ++p)
        pus.push_back(p);
    expectScoreMatchesPredict(soc, apps::alexnetSparse(), pus);
}

TEST(EvaluatorScore, MatchesPredictOnManycoreLease)
{
    expectScoreMatchesPredict(platform::manycoreRig(),
                              apps::alexnetSparse(), {0, 1, 2});
}

TEST_F(ProfiledPixel, ScoreLeavesTheMemoUntouched)
{
    ScheduleEvaluator eval(soc, result.interference, *model);
    const std::vector<int> assign{0, 0, 1, 1, 2, 2, 3, 3, 3};
    ASSERT_EQ(assign.size(), static_cast<std::size_t>(app->numStages()));
    const Prediction scored = eval.score(assign);
    EXPECT_EQ(eval.stats().misses, 1u);
    // The scored assignment was not stored: predict() scores it again.
    const Prediction predicted = eval.predict(assign);
    EXPECT_EQ(eval.stats().misses, 2u);
    EXPECT_EQ(eval.stats().hits, 0u);
    EXPECT_EQ(predicted.latency, scored.latency);
    EXPECT_EQ(predicted.energyJ, scored.energyJ);
    // Now it is memoized.
    (void)eval.predict(assign);
    EXPECT_EQ(eval.stats().misses, 2u);
    EXPECT_EQ(eval.stats().hits, 1u);
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
