#include "core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <span>
#include <tuple>

#include "common/logging.hpp"
#include "core/anneal.hpp"
#include "solver/solver.hpp"

namespace bt::core {

const char*
plannerEngineName(PlannerEngine engine)
{
    switch (engine) {
      case PlannerEngine::Solver:
        return "solver";
      case PlannerEngine::Annealed:
        return "annealed";
      default:
        return "exhaustive";
    }
}

PlannerEngine
plannerEngineFromName(const std::string& name)
{
    if (name == "solver")
        return PlannerEngine::Solver;
    if (name == "exhaustive")
        return PlannerEngine::Exhaustive;
    if (name == "annealed")
        return PlannerEngine::Annealed;
    bt::fatal("unknown planner engine '", name,
              "' (expected solver|exhaustive|annealed)");
}

std::uint64_t
PlannerSpec::fingerprint() const
{
    // FNV-1a over the semantic knobs, field by field.
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    const auto mixDouble = [&mix](double d) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        mix(bits);
    };
    mix(static_cast<std::uint64_t>(numCandidates));
    mix(utilizationFilter ? 1 : 0);
    mixDouble(gapnessSlack);
    mixDouble(latencySlack);
    mix(static_cast<std::uint64_t>(maxPerTier));
    // Latency/EnergyDelay keep their pre-PlannerSpec encodings (0/1)
    // so existing cached plans stay addressable.
    mix(static_cast<std::uint64_t>(objective));
    if (objective == Objective::EnergyKDelay)
        mixDouble(energyExponent);
    mix(allowedPus.size());
    for (const int pu : allowedPus)
        mix(static_cast<std::uint64_t>(pu));
    mixDouble(contention.ambientGbps);
    mixDouble(contention.budgetGbps);
    mix(contention.realTime ? 1 : 0);
    // Exact engines are bit-identical by contract and stay out of the
    // hash; a non-exactness-preserving engine's result depends on its
    // identity and every annealing knob, so mix them in.
    if (!exactnessPreserving()) {
        mix(0xA22EA1EDull); // annealed-engine marker
        mix(anneal.seed);
        mix(static_cast<std::uint64_t>(anneal.moveBudget));
        mix(static_cast<std::uint64_t>(anneal.restarts));
        mixDouble(anneal.initialTemperature);
        mixDouble(anneal.finalTemperature);
    }
    return h;
}

namespace {

/// Penalty offsets folding the rank class into one cost, for the
/// solver's level-1 minimizations and the annealer's guides: schedules
/// violating the latency/utilization feasibility class sort after those
/// merely exceeding the gapness budget, which sort after fully feasible
/// ones. Latencies are in seconds (~1e-3), so the offsets dominate. The
/// final selections compare (class, score) exactly instead.
constexpr double kGapnessPenalty = 1e6;
constexpr double kFeasibilityPenalty = 2e6;

/**
 * Plain-data ranking record of one schedule: what the planner's total
 * order compares, computed once per schedule instead of once per
 * comparison.
 */
struct RankRecord
{
    int cls;             ///< rank class (0 feasible, 1, 2)
    double score;        ///< objective score within the class
    std::uint64_t key;   ///< packAssignment key; 0 on wide instances
    std::uint32_t index; ///< position in the ranked set
};

/**
 * The planner's ranking order as a "comes before" predicate: class,
 * then score, then the lexicographically smallest stage-to-PU vector -
 * exactly the order the DPLL solver (true-first, row-major variables)
 * prefers, keeping every engine's output identical. Packed keys order
 * like their assignments (packAssignment); on wide instances, where
 * every key is 0, @p wide_less(i, j) compares the assignments. Equal
 * assignments fall back to input order, so the order is total and
 * matches a stable sort.
 */
template <typename WideLess>
auto
rankBefore(WideLess wide_less)
{
    return [wide_less](const RankRecord& a, const RankRecord& b) {
        if (a.cls != b.cls)
            return a.cls < b.cls;
        if (a.score != b.score)
            return a.score < b.score;
        if (a.key != b.key)
            return a.key < b.key;
        if (wide_less(a.index, b.index))
            return true;
        if (wide_less(b.index, a.index))
            return false;
        return a.index < b.index;
    };
}

/** Variable layout helper: x(i, c) is true iff stage i runs on PU c. */
struct VarGrid
{
    int numStages;
    int numPus;
    std::vector<solver::Var> vars;

    solver::Var
    at(int i, int c) const
    {
        return vars[static_cast<std::size_t>(i)
                    * static_cast<std::size_t>(numPus)
                    + static_cast<std::size_t>(c)];
    }
};

VarGrid
buildScheduleModel(solver::Model& model, int num_stages, int num_pus)
{
    VarGrid grid{num_stages, num_pus, {}};
    grid.vars.reserve(static_cast<std::size_t>(num_stages)
                      * static_cast<std::size_t>(num_pus));
    for (int i = 0; i < num_stages; ++i)
        for (int c = 0; c < num_pus; ++c)
            grid.vars.push_back(model.newVar(
                "x_" + std::to_string(i) + "_" + std::to_string(c)));

    // C1: exactly one PU per stage.
    for (int i = 0; i < num_stages; ++i) {
        std::vector<solver::Var> row;
        for (int c = 0; c < num_pus; ++c)
            row.push_back(grid.at(i, c));
        model.addExactlyOne(std::move(row));
    }

    // C2: contiguity - (x_{i,c} & x_{k,c}) -> x_{j,c} for i < j < k.
    for (int c = 0; c < num_pus; ++c)
        for (int i = 0; i < num_stages; ++i)
            for (int k = i + 2; k < num_stages; ++k)
                for (int j = i + 1; j < k; ++j)
                    model.addImplication(
                        {solver::pos(grid.at(i, c)),
                         solver::pos(grid.at(k, c))},
                        solver::pos(grid.at(j, c)));
    return grid;
}

/** (first stage, last stage, pu) identity of one chunk assignment. */
using ChunkKey = std::tuple<int, int, int>;

ChunkKey
keyOf(const Chunk& c)
{
    return {c.firstStage, c.lastStage, c.pu};
}

/** The chunk that determines the schedule's bottleneck latency. */
ChunkKey
bottleneckKey(const Schedule& s, const ProfilingTable& table)
{
    int best = 0;
    double worst = -1.0;
    for (int c = 0; c < s.numChunks(); ++c) {
        const double t = s.chunkTime(table, c);
        if (t > worst) {
            worst = t;
            best = c;
        }
    }
    return keyOf(s.chunks()[static_cast<std::size_t>(best)]);
}

/** Stretched copy of @p base: each cell scaled by the contention
 *  profile's slowdown under @p bucket. Empty for bucket 0 (unused;
 *  predictions bind to the base table directly). */
ProfilingTable
makeStretchedTable(const ProfilingTable& base,
                   const platform::ContentionProfile* profile,
                   int bucket)
{
    if (bucket == 0)
        return {};
    ProfilingTable t(base.stages(), base.pus());
    for (int s = 0; s < base.numStages(); ++s) {
        for (int p = 0; p < base.numPus(); ++p) {
            t.set(s, p, base.at(s, p) * profile->stretch(s, p, bucket));
            t.setStddev(s, p, base.stddevAt(s, p));
        }
    }
    return t;
}

/// Transversal-count ceiling before C6 falls back to the pairwise
/// over-approximation (the exact predicate still filters downstream).
constexpr std::int64_t kMaxC6Transversals = 20000;

/**
 * C6: cap the schedule's aggregate DRAM demand - the sum over used PUs
 * of the hungriest stage placed there - at the budget, so co-scheduled
 * tenants cannot oversubscribe the shared roofline.
 *
 * Exact pseudo-boolean encoding: for every transversal sigma picking
 * one stage per allowed PU, add
 *
 *     sum_c  d(sigma(c), c) * x(sigma(c), c)  <=  budget.
 *
 * Under any assignment each such sum counts at most one placed stage
 * per PU, so it never exceeds the schedule's aggregate demand; the
 * transversal picking each PU's hungriest placed stage attains it.
 * The family is therefore equivalent to the aggregate cap. Constraint
 * count is numStages^|allowedPus|; past kMaxC6Transversals we emit
 * only the single- and pairwise-placement bans (a sound relaxation -
 * every clause bans a provably infeasible placement) and rely on the
 * callers' exact demandOk predicate for the rest.
 */
void
addC6(solver::Model& model, const VarGrid& grid,
      const platform::ContentionProfile& profile,
      std::int64_t budget_milli, const std::vector<int>& allowed_pus)
{
    const int n = grid.numStages;
    std::int64_t count = 1;
    for (std::size_t k = 0;
         k < allowed_pus.size() && count <= kMaxC6Transversals; ++k)
        count *= n;
    if (count <= kMaxC6Transversals) {
        std::vector<int> sigma(allowed_pus.size(), 0);
        while (true) {
            std::int64_t total = 0;
            for (std::size_t k = 0; k < sigma.size(); ++k)
                total += profile.demandMilli(
                    sigma[k], allowed_pus[k]);
            if (total > budget_milli) { // non-vacuous only
                std::vector<solver::PbTerm> terms;
                for (std::size_t k = 0; k < sigma.size(); ++k) {
                    const std::int64_t d = profile.demandMilli(
                        sigma[k], allowed_pus[k]);
                    if (d > 0)
                        terms.push_back(
                            {solver::pos(grid.at(sigma[k],
                                                 allowed_pus[k])),
                             d});
                }
                model.addLinearLe(std::move(terms), budget_milli);
            }
            std::size_t k = 0;
            for (; k < sigma.size(); ++k) {
                if (++sigma[k] < n)
                    break;
                sigma[k] = 0;
            }
            if (k == sigma.size())
                break;
        }
        return;
    }

    for (std::size_t a = 0; a < allowed_pus.size(); ++a) {
        const int ca = allowed_pus[a];
        for (int i = 0; i < n; ++i) {
            const std::int64_t di = profile.demandMilli(i, ca);
            if (di > budget_milli) {
                model.addClause({solver::neg(grid.at(i, ca))});
                continue;
            }
            for (std::size_t b = a + 1; b < allowed_pus.size(); ++b) {
                const int cb = allowed_pus[b];
                for (int j = 0; j < n; ++j)
                    if (di + profile.demandMilli(j, cb) > budget_milli)
                        model.addClause(
                            {solver::neg(grid.at(i, ca)),
                             solver::neg(grid.at(j, cb))});
            }
        }
    }
}

} // namespace

Optimizer::Optimizer(const platform::SocDescription& soc_,
                     const ProfilingTable& table_, PlannerSpec spec)
    : soc(soc_), baseTable_(table_), config(std::move(spec)),
      contention_(config.contentionProfile),
      bucket_(contention_ != nullptr && !config.contention.realTime
                  ? contention_->bucketOf(config.contention.ambientGbps)
                  : 0),
      stretchedStorage_(
          makeStretchedTable(baseTable_, contention_, bucket_)),
      table(bucket_ > 0 ? stretchedStorage_ : baseTable_),
      powerModel(soc_)
{
    BT_ASSERT(baseTable_.numPus() == soc.numPus(),
              "profiling table PU count does not match device");
    BT_ASSERT(config.numCandidates > 0);
    BT_ASSERT(config.gapnessSlack >= 0.0);
    BT_ASSERT(config.latencySlack >= 0.0);
    for (const int p : config.allowedPus)
        BT_ASSERT(p >= 0 && p < soc.numPus(),
                  "allowedPus names unknown PU ", p);
    if (contention_ != nullptr)
        BT_ASSERT(contention_->numStages == baseTable_.numStages()
                      && contention_->numPus == baseTable_.numPus(),
                  "contention profile grid does not match table");

    if (contention_ != nullptr && config.contention.budgetGbps > 0.0) {
        budgetMilli_ = platform::ContentionModel::milliGbps(
            config.contention.budgetGbps);
        // Feasibility pre-check: the frugalest schedule is the single
        // chunk on the allowed PU with the smallest worst-stage
        // demand. A budget below that admits nothing - relax C6 and
        // report it instead of returning an empty candidate list.
        std::int64_t min_demand
            = std::numeric_limits<std::int64_t>::max();
        for (int c = 0; c < soc.numPus(); ++c) {
            if (!puAllowed(c))
                continue;
            std::int64_t d = 0;
            for (int i = 0; i < baseTable_.numStages(); ++i)
                d = std::max(d, contention_->demandMilli(i, c));
            min_demand = std::min(min_demand, d);
        }
        if (budgetMilli_ >= min_demand)
            c6Active_ = true;
        else
            c6Relaxed_ = true;
    }

    if (config.sharedEvaluator != nullptr) {
        BT_ASSERT(&config.sharedEvaluator->table() == &baseTable_,
                  "shared evaluator built over a different table");
        eval_ = config.sharedEvaluator;
    } else {
        ownedEval_ = std::make_unique<ScheduleEvaluator>(
            soc, baseTable_, powerModel, contention_);
        eval_ = ownedEval_.get();
    }
}

bool
Optimizer::puAllowed(int pu) const
{
    if (config.allowedPus.empty())
        return true;
    return std::find(config.allowedPus.begin(),
                     config.allowedPus.end(), pu)
        != config.allowedPus.end();
}

std::vector<int>
Optimizer::allowedPus() const
{
    std::vector<int> allowed;
    for (int c = 0; c < soc.numPus(); ++c)
        if (puAllowed(c))
            allowed.push_back(c);
    return allowed;
}

bool
Optimizer::demandOk(std::span<const int> stage_to_pu) const
{
    if (!c6Active_)
        return true;
    return contention_->aggregateDemandMilli(stage_to_pu)
        <= budgetMilli_;
}

Candidate
Optimizer::makeCandidate(Schedule s, const Prediction& p)
{
    Candidate c;
    c.schedule = std::move(s);
    c.predictedLatency = p.latency;
    c.predictedGapness = p.gapness;
    c.predictedEnergyJ = p.energyJ;
    c.predictedDemandGbps = p.demandGbps;
    return c;
}

double
Optimizer::rankScoreOf(double latency, double energy_j) const
{
    switch (config.objective) {
      case PlannerSpec::Objective::EnergyDelay:
        return energy_j * latency;
      case PlannerSpec::Objective::EnergyKDelay:
        // The e^k * d family; k = 1 coincides with EnergyDelay.
        return std::pow(energy_j, config.energyExponent) * latency;
      default:
        return latency;
    }
}

double
Optimizer::rankScore(const Candidate& c) const
{
    return rankScoreOf(c.predictedLatency, c.predictedEnergyJ);
}

int
Optimizer::rankClassOf(double latency, double gapness,
                       int num_chunks) const
{
    if (!config.utilizationFilter)
        return 0;
    if (latency > stats_.latencyBound + 1e-12
        || num_chunks < stats_.requiredPus)
        return 2; // outside the feasibility class
    if (gapness > stats_.gapnessBound + 1e-12)
        return 1; // feasible but over the gapness budget
    return 0;
}

int
Optimizer::rankClass(const Candidate& c) const
{
    return rankClassOf(c.predictedLatency, c.predictedGapness,
                       c.schedule.numChunks());
}

void
Optimizer::sortCandidates(std::vector<Candidate>& cands) const
{
    // One record per candidate: class, score and assignment key are
    // computed once, not once per comparison.
    const int n = table.numStages();
    const bool keyed = packable(n, soc.numPus());
    std::vector<RankRecord> recs;
    recs.reserve(cands.size());
    std::vector<std::vector<int>> wide; // unkeyed instances only
    for (std::size_t i = 0; i < cands.size(); ++i) {
        const Candidate& c = cands[i];
        std::vector<int> assign = c.schedule.toAssignment();
        recs.push_back({rankClass(c), rankScore(c),
                        keyed ? packAssignment(assign) : 0,
                        static_cast<std::uint32_t>(i)});
        if (!keyed)
            wide.push_back(std::move(assign));
    }
    std::sort(recs.begin(), recs.end(),
              rankBefore([&](std::uint32_t a, std::uint32_t b) {
                  return !keyed && wide[a] < wide[b];
              }));
    std::vector<Candidate> sorted;
    sorted.reserve(cands.size());
    for (const RankRecord& r : recs)
        sorted.push_back(std::move(cands[r.index]));
    cands = std::move(sorted);
}

std::vector<Candidate>
Optimizer::optimize()
{
    stats_ = OptimizeStats{};
    stats_.engine = config.engine;
    stats_.latencyBound = std::numeric_limits<double>::infinity();
    stats_.gapnessBound = std::numeric_limits<double>::infinity();
    stats_.demandBudgetGbps
        = c6Active_ ? config.contention.budgetGbps : 0.0;
    stats_.c6Relaxed = c6Relaxed_;

    const int allowed_count = static_cast<int>(allowedPus().size());
    BT_ASSERT(allowed_count > 0, "allowedPus admits no PU");
    stats_.spaceSize
        = scheduleSpaceSize(table.numStages(), allowed_count);
    if (config.exactnessPreserving() && config.exactSpaceLimit > 0
        && stats_.spaceSize > config.exactSpaceLimit)
        BT_PANIC("planner.exact_space", "schedule space of ",
                 stats_.spaceSize, " schedules exceeds exactSpaceLimit ",
                 config.exactSpaceLimit,
                 "; the exact engines refuse instances this large - "
                 "switch to PlannerEngine::Annealed");

    auto cands = config.engine == PlannerEngine::Exhaustive
        ? optimizeExhaustive()
        : config.engine == PlannerEngine::Annealed
            ? optimizeAnnealed()
            : optimizeWithSolver();
    sortCandidates(cands);
    if (static_cast<int>(cands.size()) > config.numCandidates)
        cands.resize(static_cast<std::size_t>(config.numCandidates));
    stats_.candidatesWithinBound = 0;
    for (const auto& c : cands)
        if (rankClass(c) == 0)
            ++stats_.candidatesWithinBound;
    stats_.evalHits = eval_->stats().hits;
    stats_.evalMisses = eval_->stats().misses;
    return cands;
}

std::vector<Candidate>
Optimizer::optimizeWithSolver()
{
    const int n = table.numStages();
    const int m = soc.numPus();

    solver::Model model;
    const VarGrid grid = buildScheduleModel(model, n, m);

    // Dropped / excluded PU classes: unit clauses banning every stage
    // from the disallowed columns (the degradation re-plan hook).
    for (int c = 0; c < m; ++c)
        if (!puAllowed(c))
            for (int i = 0; i < n; ++i)
                model.addClause({solver::neg(grid.at(i, c))});

    // C6: aggregate-bandwidth cap over the allowed columns. The
    // feasibility pre-check in the constructor guarantees the model
    // stays satisfiable.
    if (c6Active_)
        addC6(model, grid, *contention_, budgetMilli_, allowedPus());

    // Every level minimizes a fixed objective (the bounds each level
    // derives only feed *later* levels), and between levels the model
    // would change only through blocking clauses, which remove known
    // assignments. So one DPLL sweep enumerates the feasible space,
    // every prediction is scored once, and the level logic replays
    // over the harvested arrays. Each selection below is a
    // Solver::minimize over those arrays - strict less-than, first
    // solution in DPLL enumeration order wins ties. The selection code
    // is independent of selectDiverse, so tests cross-check the two.
    std::vector<int> flat; // num_sols * n stage-to-PU assignments
    std::vector<Prediction> preds;
    {
        std::vector<int> assign_scratch(static_cast<std::size_t>(n));
        solver::Solver s(model);
        s.forEachSolution([&](const solver::Assignment& a) {
            for (int i = 0; i < n; ++i) {
                int chosen = -1;
                for (int c = 0; c < m; ++c) {
                    if (a.value(grid.at(i, c))) {
                        chosen = c;
                        break; // C1 guarantees exactly one
                    }
                }
                BT_ASSERT(chosen >= 0, "stage ", i, " unassigned");
                assign_scratch[static_cast<std::size_t>(i)] = chosen;
            }
            // C6's fallback encoding over-admits; apply the exact
            // integer predicate here so every downstream level
            // replays over the feasible space only.
            if (!demandOk(assign_scratch))
                return true;
            flat.insert(flat.end(), assign_scratch.begin(),
                        assign_scratch.end());
            preds.push_back(eval_->predict(
                std::span<const int>(assign_scratch), bucket_));
            return true;
        });
        stats_.solverNodes += s.nodesExplored();
    }
    const std::size_t num_sols = preds.size();
    BT_ASSERT(num_sols > 0, "schedule space is empty");
    auto assignOf = [&](std::size_t i) {
        return std::span<const int>(
            flat.data() + i * static_cast<std::size_t>(n),
            static_cast<std::size_t>(n));
    };

    // Level 1a: unrestricted latency optimum (defines the Tmax
    // bound).
    double unrestricted
        = std::numeric_limits<double>::infinity();
    for (const Prediction& p : preds)
        unrestricted = std::min(unrestricted, p.latency);
    stats_.unrestrictedLatency = unrestricted;

    if (config.utilizationFilter) {
        stats_.latencyBound = stats_.unrestrictedLatency
                * (1.0 + config.latencySlack)
            + 1e-12;

        // Level 1b: the highest PU-class count attainable within
        // the latency bound (maximize utilization subject to C3).
        stats_.requiredPus = 1;
        for (int r = std::min(m, n); r >= 1; --r) {
            double best_score
                = std::numeric_limits<double>::infinity();
            std::size_t best_i = 0;
            for (std::size_t i = 0; i < num_sols; ++i) {
                const Prediction& p = preds[i];
                const double sc = p.numChunks < r
                    ? kFeasibilityPenalty + p.latency
                    : p.latency;
                if (sc < best_score) {
                    best_score = sc;
                    best_i = i;
                }
            }
            const Prediction& best = preds[best_i];
            if (best.numChunks >= r
                && best.latency <= stats_.latencyBound) {
                stats_.requiredPus = r;
                break;
            }
        }

        // Level 1c: minimal gapness within the feasibility class
        // (objective O1 under C3).
        double best_score
            = std::numeric_limits<double>::infinity();
        std::size_t best_i = 0;
        for (std::size_t i = 0; i < num_sols; ++i) {
            const Prediction& p = preds[i];
            const double sc = (p.numChunks < stats_.requiredPus
                               || p.latency > stats_.latencyBound)
                ? kFeasibilityPenalty + p.gapness
                : p.gapness;
            if (sc < best_score) {
                best_score = sc;
                best_i = i;
            }
        }
        stats_.minimalGapness = preds[best_i].gapness;
        stats_.gapnessBound = stats_.minimalGapness
                * (1.0 + config.gapnessSlack)
            + 1e-9;
    }

    // Level 2: K diverse candidates. Picking a winner "blocks" its
    // exact assignment (C5); saturating a performance tier blocks
    // every assignment that maps the tier's stage range onto its
    // PU - the solutions the clause AND(not x(i, pu)) over that range
    // would remove from the model.
    std::vector<Candidate> cands;
    std::vector<char> taken(num_sols, 0);
    std::vector<ChunkKey> blocked_chunks;
    std::map<ChunkKey, int> tier_count;
    auto inBlockedChunk = [&](std::size_t i) {
        const auto a = assignOf(i);
        for (const auto& [first, last, pu] : blocked_chunks) {
            bool covered = true;
            for (int s = first; s <= last && covered; ++s)
                covered = (a[static_cast<std::size_t>(s)] == pu);
            if (covered)
                return true;
        }
        return false;
    };
    for (int k = 0; k < config.numCandidates; ++k) {
        // Minimize (class, score) lexicographically. Folding the class
        // into the score as a penalty offset would round off the low
        // bits of small scores (energy-delay products are ~1e-5 next
        // to a 1e6 offset) and turn distinct scores into ties.
        int best_cls = 3;
        double best_score
            = std::numeric_limits<double>::infinity();
        std::size_t best_i = num_sols;
        for (std::size_t i = 0; i < num_sols; ++i) {
            if (taken[i] != 0 || inBlockedChunk(i))
                continue;
            const Prediction& p = preds[i];
            const int cls
                = rankClassOf(p.latency, p.gapness, p.numChunks);
            const double score
                = rankScoreOf(p.latency, p.energyJ);
            if (cls < best_cls
                || (cls == best_cls && score < best_score)) {
                best_cls = cls;
                best_score = score;
                best_i = i;
            }
        }
        if (best_i == num_sols)
            break; // space exhausted
        taken[best_i] = 1;
        const auto a = assignOf(best_i);
        const Schedule sched = Schedule::fromAssignment(
            std::vector<int>(a.begin(), a.end()));
        cands.push_back(makeCandidate(sched, preds[best_i]));

        if (config.maxPerTier > 0) {
            const ChunkKey tier = bottleneckKey(sched, table);
            if (++tier_count[tier] >= config.maxPerTier)
                blocked_chunks.push_back(tier);
        }
    }
    return cands;
}

std::vector<Candidate>
Optimizer::optimizeExhaustive()
{
    const int n = table.numStages();
    // Only the allowed classes are enumerated (the lease / degradation
    // re-plan hook), so the cost follows stats_.spaceSize. Each
    // assignment is distinct, so an owned evaluator's memo would never
    // be read: score in place. A shared evaluator outlives this
    // optimizer (ReplanPlanner), and its memo serves the next replan.
    SchedulePool admissible(n, soc.numPus());
    const bool memoize = config.sharedEvaluator != nullptr;
    forEachAssignmentOver(n, allowedPus(),
                          [&](const std::vector<int>& assign) {
                              if (!demandOk(assign))
                                  return; // over the C6 budget
                              admissible.add(
                                  assign,
                                  memoize ? eval_->predict(assign, bucket_)
                                          : eval_->score(assign, bucket_));
                          });
    BT_ASSERT(!admissible.empty(), "allowedPus admits no schedule");
    return selectDiverse(admissible);
}

void
Optimizer::deriveLevelOneBounds(const std::vector<Prediction>& preds)
{
    double best_latency = std::numeric_limits<double>::infinity();
    for (const Prediction& p : preds)
        best_latency = std::min(best_latency, p.latency);
    stats_.unrestrictedLatency = best_latency;
    if (!config.utilizationFilter)
        return;

    stats_.latencyBound
        = best_latency * (1.0 + config.latencySlack) + 1e-12;

    // One pass for the highest PU count within the latency bound and,
    // per chunk count, the minimal gapness within the bound; the
    // feasibility class is every count from that highest one up.
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> gap_by_chunks(
        static_cast<std::size_t>(soc.numPus()) + 1, inf);
    stats_.requiredPus = 1;
    for (const Prediction& p : preds) {
        if (p.latency > stats_.latencyBound)
            continue;
        stats_.requiredPus = std::max(stats_.requiredPus, p.numChunks);
        double& gap = gap_by_chunks[static_cast<std::size_t>(p.numChunks)];
        gap = std::min(gap, p.gapness);
    }
    double min_gap = inf;
    for (std::size_t k = static_cast<std::size_t>(stats_.requiredPus);
         k < gap_by_chunks.size(); ++k)
        min_gap = std::min(min_gap, gap_by_chunks[k]);
    BT_ASSERT(min_gap < inf);
    stats_.minimalGapness = min_gap;
    stats_.gapnessBound = min_gap * (1.0 + config.gapnessSlack) + 1e-9;
}

std::vector<Candidate>
Optimizer::selectDiverse(const SchedulePool& pool)
{
    BT_ASSERT(!pool.empty(), "no admissible schedule to select from");
    deriveLevelOneBounds(pool.predictions());

    // Rank plain-data records; assignments are decoded only while
    // walking, and Candidates built only for the entries picked.
    std::vector<RankRecord> recs;
    recs.reserve(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const Prediction& p = pool.prediction(i);
        recs.push_back({rankClassOf(p.latency, p.gapness, p.numChunks),
                        rankScoreOf(p.latency, p.energyJ),
                        pool.keyed() ? pool.key(i) : 0,
                        static_cast<std::uint32_t>(i)});
    }
    std::sort(recs.begin(), recs.end(),
              rankBefore([&pool](std::uint32_t a, std::uint32_t b) {
                  return !pool.keyed() && pool.assignmentLess(a, b);
              }));

    // Selection with the same tier-diversity rule as the solver path:
    // walk schedules best-first, cap per-tier membership, and treat a
    // saturated tier's chunk assignment as blocked anywhere.
    std::vector<Candidate> picked;
    std::map<ChunkKey, int> tier_count;
    // A blocked (range, pu) bans every schedule assigning that whole
    // stage range to that PU - even inside a larger chunk - exactly
    // like the solver path's tier ban.
    std::vector<ChunkKey> blocked;
    std::vector<int> assign(static_cast<std::size_t>(pool.numStages()));
    for (const RankRecord& r : recs) {
        if (static_cast<int>(picked.size()) >= config.numCandidates)
            break;
        pool.assignment(r.index, assign);
        const bool banned = std::any_of(
            blocked.begin(), blocked.end(), [&assign](const ChunkKey& b) {
                const auto [first, last, pu] = b;
                for (int i = first; i <= last; ++i)
                    if (assign[static_cast<std::size_t>(i)] != pu)
                        return false;
                return true;
            });
        if (banned)
            continue;
        picked.push_back(makeCandidate(Schedule::fromAssignment(assign),
                                       pool.prediction(r.index)));
        if (config.maxPerTier > 0) {
            const ChunkKey tier
                = bottleneckKey(picked.back().schedule, table);
            if (++tier_count[tier] >= config.maxPerTier)
                blocked.push_back(tier);
        }
    }
    return picked;
}

std::vector<Candidate>
Optimizer::optimizeAnnealed()
{
    std::vector<int> allowed = allowedPus();
    const int m_eff = static_cast<int>(allowed.size());

    Annealer annealer(soc, *eval_, config.anneal, bucket_,
                      std::move(allowed), contention_,
                      c6Active_ ? budgetMilli_ : 0);

    // A swept pool is already the full enumeration; phases could only
    // re-visit it, so skip straight to the harvest.
    if (!annealer.exhausted())
        runAnnealPhases(annealer, m_eff);

    const Annealer::Stats as = annealer.stats();
    stats_.annealProposed = as.proposed;
    stats_.annealAccepted = as.accepted;
    stats_.annealFiltered = as.filtered;
    stats_.annealDistinct = as.distinct;
    stats_.annealChains = as.chains;
    // Harvest: the pool is this engine's "enumeration"; the final
    // selection applies the exact engines' level arithmetic over it,
    // which is why annealed results are cost-equal to the exact
    // solver whenever the pool covers the relevant optima.
    return selectDiverse(annealer.pool());
}

void
Optimizer::runAnnealPhases(Annealer& annealer, int m_eff)
{
    const std::int64_t budget
        = std::max<std::int64_t>(config.anneal.moveBudget, 1);
    std::int64_t spent = 0;
    const auto slice = [&](int permille) {
        const std::int64_t s
            = std::min(budget - spent, budget * permille / 1000);
        spent += s;
        return s;
    };
    // Provisional level-1 bounds over the pool visited so far, using
    // the exact engines' arithmetic; later phases guide against them
    // and the final selection re-derives them over the full pool.
    const auto poolBounds = [&] {
        deriveLevelOneBounds(annealer.pool().predictions());
    };

    // The phase sequence mirrors the exact engines' levels: 1a hunt
    // the unrestricted latency optimum, 1b maximize PU-class count
    // within the bound, 1c minimize gapness within the class, then
    // level 2's ranking objective.
    annealer.runPhase([](const Prediction& p) { return p.latency; },
                      slice(config.utilizationFilter ? 350 : 600));
    if (config.utilizationFilter) {
        poolBounds();
        {
            const double bound = stats_.latencyBound;
            annealer.runPhase(
                [bound, m_eff](const Prediction& p) {
                    // One unit per missing PU class dominates any
                    // in-bound latency (seconds); the bound penalty
                    // dominates both.
                    return (p.latency > bound ? kFeasibilityPenalty
                                              : 0.0)
                        + static_cast<double>(m_eff - p.numChunks)
                        + p.latency;
                },
                slice(200));
        }
        poolBounds();
        {
            const double bound = stats_.latencyBound;
            const int req = stats_.requiredPus;
            annealer.runPhase(
                [bound, req](const Prediction& p) {
                    return (p.latency > bound || p.numChunks < req)
                        ? kFeasibilityPenalty + p.gapness
                        : p.gapness;
                },
                slice(150));
        }
        poolBounds();
    }
    annealer.runPhase(
        [this](const Prediction& p) {
            const int cls
                = rankClassOf(p.latency, p.gapness, p.numChunks);
            const double score = rankScoreOf(p.latency, p.energyJ);
            return cls == 2 ? kFeasibilityPenalty + score
                : cls == 1  ? kGapnessPenalty + score
                            : score;
        },
        budget - spent);
}

} // namespace bt::core
