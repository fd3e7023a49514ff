#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "kernels/simd_ops.hpp"
#include "sched/affinity.hpp"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return secondsBetween(start, Clock::now());
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

Tail
tailOf(std::vector<double> v)
{
    Tail tail;
    tail.n = v.size();
    if (v.empty())
        return tail;
    std::sort(v.begin(), v.end());
    // Ten samples beyond: the 11th largest. Small samples fall back to
    // the maximum (reported with its percentile of 100).
    const std::size_t beyond = std::min<std::size_t>(10, v.size() - 1);
    const std::size_t idx = v.size() - 1 - beyond;
    tail.value = v[idx];
    tail.pct = 100.0 * static_cast<double>(v.size() - beyond)
        / static_cast<double>(v.size());
    return tail;
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    return bt::splitmix64(bt::hashCombine(seed, stream));
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
Calibration::sample(double min_gap_s)
{
    if (!ms_.empty() && secondsSince(last_) < min_gap_s)
        return;
    static const std::vector<double> input = [] {
        std::vector<double> v(1 << 16);
        std::uint64_t x = 1;
        for (double& e : v) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            e = static_cast<double>(x >> 11);
        }
        return v;
    }();
    const auto start = Clock::now();
    std::vector<double> v = input;
    std::sort(v.begin(), v.end());
    double sum = 0.0;
    for (double d : v)
        sum += d * 1e-9;
    last_ = Clock::now();
    if (!(sum > 0.0))
        throw std::runtime_error("calibration kernel lost its input");
    ms_.push_back(secondsBetween(start, last_) * 1e3);
}

double
Calibration::timeScale() const
{
    const double ms = medianMs();
    if (!(ms > 0.0))
        throw std::runtime_error("host speed was never calibrated");
    return kReferenceMs / ms;
}

CpuRotation::CpuRotation()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask) != 0)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &mask))
            cpus_.push_back(cpu);
}

CpuRotation::~CpuRotation()
{
    if (cpus_.empty())
        return;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (int cpu : cpus_)
        CPU_SET(cpu, &mask);
    pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask);
}

void
CpuRotation::next()
{
    if (cpus_.size() < 2)
        return;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cpus_[next_ % cpus_.size()], &mask);
    ++next_;
    pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask);
}

Tracer::Scope::Scope(Tracer& tracer, const char* layer, const char* name)
    : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    index_ = static_cast<int>(tracer_.spans_.size());
    const int parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    tracer_.spans_.push_back({layer, name, parent, Clock::now(), {}});
    tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    tracer_.spans_[static_cast<std::size_t>(index_)].end = Clock::now();
    tracer_.open_.pop_back();
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    // Children of one span run on the same thread inside its interval
    // and never overlap each other, so their durations sum to the part
    // of the parent they cover.
    std::vector<double> child_seconds(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.parent >= 0)
            child_seconds[static_cast<std::size_t>(s.parent)]
                += secondsBetween(s.start, s.end);
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[spans_[i].layer]
            += secondsBetween(spans_[i].start, spans_[i].end)
            - child_seconds[i];
    return self;
}

void
Tracer::writeChromeJson(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":1,"
            << "\"tid\":1,\"ts\":" << secondsBetween(epoch_, s.start) * 1e6
            << ",\"dur\":" << secondsBetween(s.start, s.end) * 1e6
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << "}}";
    }
    out << "\n]}\n";
}

void
Metrics::set(const std::string& name, double value,
             const std::string& unit)
{
    if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
    values_[name] = {value, unit};
}

bool
Metrics::has(const std::string& name) const
{
    return values_.count(name) > 0;
}

double
Metrics::get(const std::string& name) const
{
    return values_.at(name).first;
}

std::vector<std::string>
Metrics::names() const
{
    std::vector<std::string> out;
    for (const auto& entry : values_)
        out.push_back(entry.first);
    return out;
}

std::string
Metrics::json() const
{
    std::ostringstream os;
    os.precision(17);
    os << "{";
    bool first = true;
    for (const auto& [name, vu] : values_) {
        os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
           << vu.first << ", \"unit\": \"" << vu.second << "\"}";
        first = false;
    }
    os << "}";
    return os.str();
}

void
Result::fail(const std::string& why)
{
    if (correct || notes.size() < 20)
        notes.push_back("CHECK FAILED: " + why);
    correct = false;
}

namespace {

/** Spin for @p seconds on @p threads threads; total loop iterations. */
double
burn(int threads, double seconds)
{
    std::atomic<std::uint64_t> total{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&total, seconds] {
            const auto start = Clock::now();
            std::uint64_t iters = 0;
            volatile double sink = 1.0;
            while (secondsSince(start) < seconds) {
                for (int i = 0; i < 1000; ++i)
                    sink = sink * 1.0000001 + 1e-9;
                ++iters;
            }
            total += iters;
        });
    for (auto& th : pool)
        th.join();
    return static_cast<double>(total.load());
}

} // namespace

Context
stampContext()
{
    Context ctx;
    ctx.buildType = PERFBENCH_BUILD_TYPE;
    const bt::kernels::SimdTier tier = bt::kernels::simdTier();
    ctx.simdIsa = bt::simd::isaName(tier.isa);
    if (tier.forced)
        ctx.simdIsa += " (forced)";
    ctx.simdLanes = tier.lanes;
    ctx.nproc = bt::sched::onlineCoreCount();
    const double one = burn(1, 0.1);
    const double all = burn(ctx.nproc, 0.1);
    ctx.burnRatio = one > 0.0 ? all / one : 0.0;
    return ctx;
}

void
recordContext(const Context& ctx, std::uint64_t seed, Metrics& m)
{
    m.set("ctx.seed", static_cast<double>(seed), "count");
    m.set("ctx.nproc", ctx.nproc, "count");
    m.set("ctx.burn_ratio", ctx.burnRatio, "x");
    m.set("ctx.simd_lanes", ctx.simdLanes, "count");
    m.set("ctx.release_build", ctx.buildType == "Release" ? 1.0 : 0.0,
          "bool");
}

std::string
contextJson(const Context& ctx, const Options& opt)
{
    std::ostringstream os;
    os.precision(6);
    os << "{\"context\": {\"workload\": \"" << opt.workload
       << "\", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
       << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"build_type\": \""
       << ctx.buildType << "\", \"simd_isa\": \"" << ctx.simdIsa
       << "\", \"simd_lanes\": " << ctx.simdLanes
       << ", \"nproc\": " << ctx.nproc
       << ", \"burn_ratio\": " << ctx.burnRatio << "}}";
    return os.str();
}

} // namespace perfbench
