/**
 * @file
 * Measurement plumbing shared by the benchmark's workloads: command-line
 * options, sample statistics (median, the tail rule, geomean), seeded
 * input streams, the span tracer that times calls into the framework's
 * layers, the metric sink that prints the result line, and the host
 * context stamp.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Seconds between two time points (b - a). */
double secondsBetween(Clock::time_point a, Clock::time_point b);

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath; ///< where the traced run writes its spans
};

/** Median of @p v, interpolated (0 for an empty sample). */
double median(std::vector<double> v);

/**
 * The tail of a latency sample: the highest percentile that still has
 * at least ten samples beyond it, i.e. the 11th-largest value, with
 * that percentile and the sample count next to it.
 */
struct Tail
{
    double value = 0.0;
    double pct = 0.0;
    std::size_t n = 0;
};
Tail tailOf(std::vector<double> v);

/** Geometric mean of positive values (0 for an empty sample). */
double geomean(const std::vector<double>& v);

/** Independent 64-bit stream @p stream derived from the run seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/**
 * Host speed probe. A fixed kernel that calls nothing in the framework
 * (sort and sum a fixed array of 2^16 doubles) is timed between ops;
 * its median over a run tracks how fast the shared host ran during that
 * run. Host-time end-to-end metrics are reported at the reference
 * speed: a time t reads t * timeScale(), a rate r reads r / timeScale().
 */
class Calibration
{
  public:
    /** Probe time on the reference host, ms. */
    static constexpr double kReferenceMs = 6.0;

    /** Time the probe, unless the last sample is under @p min_gap_s
     *  seconds old. */
    void sample(double min_gap_s = 0.0);

    double medianMs() const { return median(ms_); }

    /** kReferenceMs / medianMs(). */
    double timeScale() const;

  private:
    std::vector<double> ms_;
    Clock::time_point last_{};
};

/**
 * Moves the calling thread round robin over the CPUs the process may
 * use, and restores its affinity on destruction. On a shared host one
 * core can run slower than the others for seconds at a time (another
 * tenant on its SMT sibling); a single-threaded loop that visits every
 * core puts a slow core under a share of the samples, not all of them.
 * Use only where the calling thread creates no threads meanwhile:
 * they would inherit the one-CPU mask.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    /** Move to the next CPU (best effort; a refused move is ignored). */
    void next();

  private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/**
 * In-memory span recorder, used from the benchmark's main thread only.
 * Each span names the layer whose public call it wraps; nesting comes
 * from the scope stack. Disabled tracers record nothing and cost one
 * branch per scope.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    class Scope
    {
      public:
        Scope(Tracer& tracer, const char* layer, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer& tracer_;
        int index_ = -1;
    };

    bool enabled() const { return enabled_; }

    /** Seconds of each layer's spans not covered by child spans. */
    std::map<std::string, double> selfSeconds() const;

    /** Chrome trace-event JSON of every span (microseconds). */
    void writeChromeJson(const std::string& path) const;

  private:
    struct Span
    {
        const char* layer;
        const char* name;
        int parent;
        Clock::time_point start;
        Clock::time_point end;
    };

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    Clock::time_point epoch_ = Clock::now();
};

/** Name -> (value, unit), printed in insertion-independent order. */
class Metrics
{
  public:
    void set(const std::string& name, double value,
             const std::string& unit);
    bool has(const std::string& name) const;
    double get(const std::string& name) const;
    std::vector<std::string> names() const;
    std::string json() const;

  private:
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** What one workload run reports. */
struct Result
{
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    Metrics metrics;
    /** Human-readable notes printed before the result line. */
    std::vector<std::string> notes;

    /** Record a failed check (the run stays going, correct = false). */
    void fail(const std::string& why);
};

/**
 * The host stamp: build type, SIMD tier, online cores and the
 * throughput ratio of an nproc-thread CPU burn over a 1-thread burn
 * (near nproc on an idle machine, lower when it is shared).
 */
struct Context
{
    std::string buildType;
    std::string simdIsa;
    int simdLanes = 1;
    int nproc = 1;
    double burnRatio = 0.0;
};
Context stampContext();

/** Write the stamp as per-layer metrics (ctx.*). */
void recordContext(const Context& ctx, std::uint64_t seed, Metrics& m);

/** One-line JSON form of the stamp, for the run log. */
std::string contextJson(const Context& ctx, const Options& opt);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
