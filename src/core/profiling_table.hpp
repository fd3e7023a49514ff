/**
 * @file
 * The 2-D profiling table of the BT-Profiler (paper Sec. 3.2): one row
 * per pipeline stage, one column per PU class, each entry the mean
 * measured latency of that stage on that PU.
 */

#ifndef BT_CORE_PROFILING_TABLE_HPP
#define BT_CORE_PROFILING_TABLE_HPP

#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace bt::core {

/** Stage x PU latency matrix (seconds). */
class ProfilingTable
{
  public:
    ProfilingTable() = default;

    /** Construct with row (stage) and column (PU) labels; zero-filled. */
    ProfilingTable(std::vector<std::string> stage_names,
                   std::vector<std::string> pu_labels);

    int numStages() const { return static_cast<int>(stageNames.size()); }
    int numPus() const { return static_cast<int>(puLabels.size()); }

    /** Mean latency (seconds) of stage @p s on PU @p p. */
    double at(int s, int p) const;
    void set(int s, int p, double seconds);

    /** Sample standard deviation recorded next to each mean. */
    double stddevAt(int s, int p) const;
    void setStddev(int s, int p, double seconds);

    const std::vector<std::string>& stages() const { return stageNames; }
    const std::vector<std::string>& pus() const { return puLabels; }

    /** Latency of running stages [first, last] back-to-back on @p p. */
    double rangeTime(int first, int last, int p) const;

    /** Render in milliseconds, paper-style. */
    void print(std::ostream& os) const;

    /**
     * Serialize to a simple CSV (stage,pu,mean_s,stddev_s), so
     * profiling campaigns can be cached across runs - collecting a
     * table costs ~6 minutes on a real device (paper Sec. 3.2).
     */
    void saveCsv(std::ostream& os) const;

    /**
     * Parse a table previously written by saveCsv.
     * @return the table, or std::nullopt on malformed input (bad
     *         header or number, a non-finite or negative cell, a
     *         missing or duplicated (stage, PU) cell).
     */
    static std::optional<ProfilingTable> loadCsv(std::istream& is);

  private:
    std::size_t idx(int s, int p) const;

    std::vector<std::string> stageNames;
    std::vector<std::string> puLabels;
    std::vector<double> mean_;
    std::vector<double> stddev_;
};

} // namespace bt::core

#endif // BT_CORE_PROFILING_TABLE_HPP
