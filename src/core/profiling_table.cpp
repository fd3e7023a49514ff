#include "core/profiling_table.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "common/logging.hpp"
#include "common/table.hpp"

namespace bt::core {

ProfilingTable::ProfilingTable(std::vector<std::string> stage_names,
                               std::vector<std::string> pu_labels)
    : stageNames(std::move(stage_names)), puLabels(std::move(pu_labels)),
      mean_(stageNames.size() * puLabels.size(), 0.0),
      stddev_(stageNames.size() * puLabels.size(), 0.0)
{
    BT_ASSERT(!stageNames.empty() && !puLabels.empty(),
              "profiling table needs stages and PUs");
}

std::size_t
ProfilingTable::idx(int s, int p) const
{
    BT_ASSERT(s >= 0 && s < numStages(), "stage ", s, " out of range");
    BT_ASSERT(p >= 0 && p < numPus(), "pu ", p, " out of range");
    return static_cast<std::size_t>(s)
        * static_cast<std::size_t>(numPus())
        + static_cast<std::size_t>(p);
}

double
ProfilingTable::at(int s, int p) const
{
    return mean_[idx(s, p)];
}

void
ProfilingTable::set(int s, int p, double seconds)
{
    BT_ASSERT(seconds >= 0.0);
    mean_[idx(s, p)] = seconds;
}

double
ProfilingTable::stddevAt(int s, int p) const
{
    return stddev_[idx(s, p)];
}

void
ProfilingTable::setStddev(int s, int p, double seconds)
{
    BT_ASSERT(seconds >= 0.0);
    stddev_[idx(s, p)] = seconds;
}

double
ProfilingTable::rangeTime(int first, int last, int p) const
{
    BT_ASSERT(first <= last, "inverted stage range");
    double total = 0.0;
    for (int s = first; s <= last; ++s)
        total += at(s, p);
    return total;
}

void
ProfilingTable::saveCsv(std::ostream& os) const
{
    os << "stage,pu,mean_s,stddev_s\n";
    os.precision(17);
    for (int s = 0; s < numStages(); ++s)
        for (int p = 0; p < numPus(); ++p)
            os << stageNames[static_cast<std::size_t>(s)] << ','
               << puLabels[static_cast<std::size_t>(p)] << ','
               << at(s, p) << ',' << stddevAt(s, p) << '\n';
}

std::optional<ProfilingTable>
ProfilingTable::loadCsv(std::istream& is)
{
    std::string line;
    if (!std::getline(is, line) || line != "stage,pu,mean_s,stddev_s")
        return std::nullopt;

    struct Cell
    {
        std::string stage;
        std::string pu;
        double mean;
        double stddev;
    };
    std::vector<Cell> cells;
    std::vector<std::string> stage_order;
    std::vector<std::string> pu_order;
    auto remember = [](std::vector<std::string>& order,
                       const std::string& name) {
        if (std::find(order.begin(), order.end(), name) == order.end())
            order.push_back(name);
    };

    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream row(line);
        Cell c;
        std::string mean_s, stddev_s;
        if (!std::getline(row, c.stage, ',')
            || !std::getline(row, c.pu, ',')
            || !std::getline(row, mean_s, ',')
            || !std::getline(row, stddev_s))
            return std::nullopt;
        try {
            c.mean = std::stod(mean_s);
            c.stddev = std::stod(stddev_s);
        } catch (const std::exception&) {
            return std::nullopt;
        }
        // stod accepts "nan" and "inf", and NaN slips past a sign
        // check; a non-finite cell would trip set()'s assertion.
        if (!std::isfinite(c.mean) || !std::isfinite(c.stddev)
            || c.mean < 0.0 || c.stddev < 0.0)
            return std::nullopt;
        remember(stage_order, c.stage);
        remember(pu_order, c.pu);
        cells.push_back(std::move(c));
    }
    if (stage_order.empty() || pu_order.empty())
        return std::nullopt;
    if (cells.size() != stage_order.size() * pu_order.size())
        return std::nullopt;

    ProfilingTable table(stage_order, pu_order);
    std::map<std::string, int> stage_idx, pu_idx;
    for (int s = 0; s < table.numStages(); ++s)
        stage_idx[stage_order[static_cast<std::size_t>(s)]] = s;
    for (int p = 0; p < table.numPus(); ++p)
        pu_idx[pu_order[static_cast<std::size_t>(p)]] = p;
    // Every (stage, PU) cell exactly once. The row count already equals
    // stages x PUs, so a duplicated row would otherwise stand in for a
    // missing one and leave that cell at its default.
    std::vector<bool> seen(cells.size(), false);
    for (const auto& c : cells) {
        const int s = stage_idx[c.stage];
        const int p = pu_idx[c.pu];
        const auto cell = static_cast<std::size_t>(s * table.numPus() + p);
        if (seen[cell])
            return std::nullopt;
        seen[cell] = true;
        table.set(s, p, c.mean);
        table.setStddev(s, p, c.stddev);
    }
    return table;
}

void
ProfilingTable::print(std::ostream& os) const
{
    std::vector<std::string> headers{"stage"};
    for (const auto& p : puLabels)
        headers.push_back(p + " (ms)");
    Table table(std::move(headers));
    for (int s = 0; s < numStages(); ++s) {
        std::vector<std::string> row{stageNames[
            static_cast<std::size_t>(s)]};
        for (int p = 0; p < numPus(); ++p)
            row.push_back(Table::num(at(s, p) * 1e3, 3));
        table.addRow(std::move(row));
    }
    table.print(os);
}

} // namespace bt::core
