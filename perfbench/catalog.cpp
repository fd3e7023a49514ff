#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

namespace {

using Catalog = std::vector<std::pair<std::string, std::string>>;

const std::vector<std::string> kSelfLayers = {
    "bench",         "lint",           "core.profiler", "core.optimizer",
    "core.anneal",   "core.autotuner", "runtime.virtual",
    "runtime.trace", "service",        "runtime.host",  "kernels"};

} // namespace

const Catalog&
endToEndCatalog()
{
    static const Catalog catalog = {
        {"setup_s", "s"},         {"ops_per_s", "1/s"},
        {"op_ms.p50", "ms"},      {"op_ms.tail", "ms"},
        {"ok_frac", "ratio"},
        {"peak_rss_mb", "MiB"},   {"virt_task_ms", "ms"},
        {"virt_speedup", "x"}};
    return catalog;
}

const std::vector<std::string>&
nativeStageNames(const std::string& app)
{
    static const std::map<std::string, std::vector<std::string>> names = {
        {"alexnet_dense",
         {"conv1", "pool1", "conv2", "pool2", "conv3", "pool3", "conv4",
          "pool4", "fc"}},
        {"octree",
         {"morton", "sort", "unique", "radix_tree", "edge_count",
          "prefix_sum", "build_octree"}}};
    return names.at(app);
}

const Catalog&
perLayerCatalog()
{
    static const Catalog catalog = [] {
        Catalog c = {
            {"ctx.seed", "count"},
            {"ctx.nproc", "count"},
            {"ctx.burn_ratio", "x"},
            {"ctx.simd_lanes", "count"},
            {"ctx.release_build", "bool"},
            {"ctx.calib_ms", "ms"},
            {"raw.setup_s", "s"},
            {"raw.ops_per_s", "1/s"},
            {"raw.op_ms.p50", "ms"},
            {"raw.op_ms.tail", "ms"},
            {"max_ok_rps", "1/s"},
            {"op_ms.tail_pct", "%"},
            {"op_ms.n", "count"},
            {"trace.overhead_frac", "ratio"},
            {"trace.op_ms_delta_frac", "ratio"},
            {"apps.alexnet_dense.build_ms", "ms"},
            {"apps.alexnet_sparse.build_ms", "ms"},
            {"apps.octree.build_ms", "ms"},
            {"apps.features.build_ms", "ms"},
            {"lint.preflight_ms", "ms"},
            {"profiler.ms", "ms"},
            {"profiler.virtual_s", "s_virt"},
            {"optimizer.ms", "ms"},
            {"optimizer.evals", "count"},
            {"optimizer.evals_per_s", "1/s"},
            {"optimizer.space", "count"},
            {"optimizer.solver_nodes", "count"},
            {"optimizer.pred_error", "ratio"},
            {"anneal.ms", "ms"},
            {"anneal.moves", "count"},
            {"anneal.moves_per_s", "1/s"},
            {"anneal.accept_ratio", "ratio"},
            {"anneal.filtered_ratio", "ratio"},
            {"autotuner.ms", "ms"},
            {"autotuner.candidates", "count"},
            {"autotuner.ms_per_candidate", "ms"},
            {"autotuner.gain", "x"},
            {"virtual.run_us", "us"},
            {"virtual.stage_execs", "count"},
            {"virtual.ns_per_stage_exec", "ns"},
            {"deploy.ms", "ms"},
            {"baselines.ms", "ms"},
            {"service.submit_us", "us"},
            {"service.queue_ms.p50", "ms"},
            {"service.queue_ms.tail", "ms"},
            {"service.service_ms.p50", "ms"},
            {"service.service_ms.tail", "ms"},
            {"service.cache_hit_ratio", "ratio"},
            {"service.plans", "count"},
            {"service.plan_ms", "ms"},
            {"service.batch_size", "count"},
            {"service.dropped", "count"},
            {"service.backlog", "count"},
            {"service.gen_late_ms", "ms"},
            {"service.saturated_rps", "1/s"},
            {"serve.latency_ms.p50", "ms"},
            {"serve.latency_ms.tail", "ms"},
        };
        for (int k = 1; k <= kServeRungs; ++k) {
            const std::string rung = "serve.r" + std::to_string(k);
            c.push_back({rung + ".offered_rps", "1/s"});
            c.push_back({rung + ".tail_ms", "ms"});
            c.push_back({rung + ".backlog", "count"});
        }
        for (const auto& [name, unit] : Catalog{
                 {"host.queue_wait_ms", "ms"},
                 {"host.bubble_frac", "ratio"},
                 {"host.chunk_busy_frac", "ratio"},
                 {"host.affinity_applied", "ratio"},
                 {"native.validate_ms", "ms"}})
            c.push_back({name, unit});
        for (const std::string app : {"alexnet_dense", "octree"}) {
            for (const auto& stage : nativeStageNames(app)) {
                c.push_back({"kernels." + app + "." + stage + ".cpu_ms",
                             "ms"});
                c.push_back({"kernels." + app + "." + stage + ".simt_ms",
                             "ms"});
            }
            c.push_back({"kernels." + app + ".gflops", "GFLOP/s"});
        }
        for (const auto& layer : kSelfLayers)
            c.push_back({"self_ms." + layer, "ms"});
        return c;
    }();
    return catalog;
}

namespace {

/** Median op time of each member of the mix. */
std::vector<double>
memberMedians(const ClosedLoop& loop)
{
    if (loop.opMs.empty())
        throw std::runtime_error("closed loop completed no op");
    std::vector<std::vector<double>> by_kind(
        static_cast<std::size_t>(loop.kinds));
    for (std::size_t i = 0; i < loop.opMs.size(); ++i)
        by_kind[static_cast<std::size_t>(loop.opKind[i])].push_back(
            loop.opMs[i]);
    std::vector<double> medians;
    for (const auto& ms : by_kind)
        medians.push_back(median(ms));
    return medians;
}

} // namespace

double
passRate(const ClosedLoop& loop)
{
    double pass_ms = 0.0;
    for (double ms : memberMedians(loop))
        pass_ms += ms;
    return 1e3 * loop.kinds / pass_ms;
}

double
typicalOpMs(const ClosedLoop& loop)
{
    return geomean(memberMedians(loop));
}

double
goodput(const ClosedLoop& loop, double limit_ms)
{
    const auto within = std::count_if(
        loop.opMs.begin(), loop.opMs.end(),
        [limit_ms](double ms) { return ms <= limit_ms; });
    return passRate(loop) * static_cast<double>(within)
        / static_cast<double>(loop.opMs.size());
}

HostFigures
closedLoopFigures(const ClosedLoop& loop, double setup_s)
{
    HostFigures host;
    host.setupS = setup_s;
    host.opsPerS = passRate(loop);
    host.p50Ms = typicalOpMs(loop);
    // Windows of whole passes holding at least kWindowOps ops; the tail
    // is the median of their tails, so a few stalls of the shared host
    // move one window, not the figure.
    constexpr std::size_t kWindowOps = 200;
    const auto kinds = static_cast<std::size_t>(loop.kinds);
    const std::size_t window = (kWindowOps + kinds - 1) / kinds * kinds;
    const std::size_t windows
        = std::max<std::size_t>(1, loop.opMs.size() / window);
    std::vector<double> tails;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto lo = loop.opMs.begin()
            + static_cast<std::ptrdiff_t>(loop.opMs.size() * w / windows);
        const auto hi = loop.opMs.begin()
            + static_cast<std::ptrdiff_t>(loop.opMs.size() * (w + 1)
                                          / windows);
        host.tail = tailOf({lo, hi});
        tails.push_back(host.tail.value);
    }
    host.tail.value = median(tails);
    return host;
}

void
setEndToEnd(Result& r, const HostFigures& host, const Calibration& cal,
            double virt_task_ms, double virt_speedup)
{
    const double scale = cal.timeScale();
    r.metrics.set("setup_s", host.setupS * scale, "s");
    r.metrics.set("ops_per_s",
                  host.opsFollowHost ? host.opsPerS / scale : host.opsPerS,
                  "1/s");
    r.metrics.set("op_ms.p50", host.p50Ms * scale, "ms");
    r.metrics.set("op_ms.tail", host.tail.value * scale, "ms");
    r.metrics.set("ok_frac",
                  1.0 - static_cast<double>(r.failed)
                      / static_cast<double>(r.attempted),
                  "ratio");
    r.metrics.set("peak_rss_mb", peakRssMb(), "MiB");
    r.metrics.set("virt_task_ms", virt_task_ms, "ms");
    r.metrics.set("virt_speedup", virt_speedup, "x");
    r.notes.push_back(
        "host probe median " + std::to_string(cal.medianMs())
        + " ms (reference " + std::to_string(Calibration::kReferenceMs)
        + "); as measured: setup_s " + std::to_string(host.setupS)
        + ", ops_per_s " + std::to_string(host.opsPerS) + ", op_ms.p50 "
        + std::to_string(host.p50Ms) + ", op_ms.tail "
        + std::to_string(host.tail.value) + " (p"
        + std::to_string(host.tail.pct) + " of n="
        + std::to_string(host.tail.n) + ")");
}

void
setRawFigures(Result& r, const HostFigures& host, const Calibration& cal)
{
    r.metrics.set("ctx.calib_ms", cal.medianMs(), "ms");
    r.metrics.set("raw.setup_s", host.setupS, "s");
    r.metrics.set("raw.ops_per_s", host.opsPerS, "1/s");
    r.metrics.set("raw.op_ms.p50", host.p50Ms, "ms");
    r.metrics.set("raw.op_ms.tail", host.tail.value, "ms");
    r.metrics.set("op_ms.tail_pct", host.tail.pct, "%");
    r.metrics.set("op_ms.n", static_cast<double>(host.tail.n), "count");
}

void
setTraceDelta(Result& r, double untraced_ms, double traced_ms)
{
    r.metrics.set("trace.op_ms_delta_frac",
                  untraced_ms > 0.0 ? (traced_ms - untraced_ms) / untraced_ms
                                    : 0.0,
                  "ratio");
}

void
setSelfTimes(Result& r, const Tracer& tracer, std::int64_t ops)
{
    const auto self = tracer.selfSeconds();
    for (const auto& layer : kSelfLayers) {
        const auto it = self.find(layer);
        const double seconds = it == self.end() ? 0.0 : it->second;
        r.metrics.set("self_ms." + layer,
                      ops > 0 ? seconds * 1e3 / static_cast<double>(ops)
                              : 0.0,
                      "ms");
    }
}

} // namespace perfbench
