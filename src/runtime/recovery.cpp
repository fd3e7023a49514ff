#include "runtime/recovery.hpp"

#include <limits>
#include <vector>

#include "common/logging.hpp"
#include "core/optimizer.hpp"

namespace bt::runtime {

int
nextBestPu(const platform::PerfModel& model,
           const core::Application& app, int first_stage,
           int last_stage, const std::vector<bool>& alive, int exclude)
{
    const int num_pus = model.soc().numPus();
    BT_ASSERT(alive.size() == static_cast<std::size_t>(num_pus));
    int best = -1;
    double best_time = std::numeric_limits<double>::infinity();
    for (int p = 0; p < num_pus; ++p) {
        if (p == exclude || !alive[static_cast<std::size_t>(p)])
            continue;
        double t = 0.0;
        for (int s = first_stage; s <= last_stage; ++s)
            t += model.interferenceHeavyTime(app.stage(s).work(), p);
        if (t < best_time) {
            best_time = t;
            best = p;
        }
    }
    return best;
}

core::ProfilingTable
modelTable(const platform::PerfModel& model,
           const core::Application& app)
{
    std::vector<std::string> stage_names;
    for (const auto& s : app.stages())
        stage_names.push_back(s.name());
    std::vector<std::string> pu_labels;
    for (const auto& p : model.soc().pus)
        pu_labels.push_back(p.label);

    core::ProfilingTable table(std::move(stage_names),
                               std::move(pu_labels));
    for (int s = 0; s < app.numStages(); ++s)
        for (int p = 0; p < model.soc().numPus(); ++p)
            table.set(s, p,
                      model.interferenceHeavyTime(app.stage(s).work(),
                                                  p));
    return table;
}

namespace {

/** The planner spec every degradation replan uses. */
core::PlannerSpec
replanConfig(const platform::SocDescription& soc,
             const std::vector<bool>& alive)
{
    BT_ASSERT(alive.size() == static_cast<std::size_t>(soc.numPus()));
    core::PlannerSpec cfg;
    cfg.numCandidates = 1;
    cfg.engine = core::PlannerEngine::Exhaustive;
    for (int p = 0; p < soc.numPus(); ++p)
        if (alive[static_cast<std::size_t>(p)])
            cfg.allowedPus.push_back(p);
    BT_ASSERT(!cfg.allowedPus.empty(),
              "cannot re-plan: every PU has dropped out");
    return cfg;
}

} // namespace

core::Schedule
ReplanPlanner::replan(const std::vector<bool>& alive)
{
    const auto& soc = model_.soc();
    if (!table_.has_value()) {
        table_.emplace(modelTable(model_, app_));
        // The power model only reads the SoC description, so the run's
        // own PerfModel serves; predictions are identical to the ones
        // a throwaway Optimizer would compute.
        eval_ = std::make_unique<core::ScheduleEvaluator>(soc, *table_,
                                                          model_);
    }
    core::PlannerSpec spec = replanConfig(soc, alive);
    spec.sharedEvaluator = eval_.get();
    core::Optimizer optimizer(soc, *table_, std::move(spec));
    const auto candidates = optimizer.optimize();
    BT_ASSERT(!candidates.empty(),
              "optimizer found no schedule on surviving PUs");
    return candidates.front().schedule;
}

} // namespace bt::runtime
