/**
 * @file
 * The four benchmark workloads and the catalogue of metric names they
 * report. Every workload reports every end-to-end metric on an
 * untraced run and every per-layer metric on a traced run; a layer a
 * workload does not exercise reads 0 there (METRICS.md lists which).
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/** (name, unit) of every end-to-end metric, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>>& endToEndCatalog();

/** (name, unit) of every per-layer metric, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>>& perLayerCatalog();

/** Stage names of the two native applications, for kernels.* names. */
const std::vector<std::string>& nativeStageNames(const std::string& app);

/** Rungs on the serve-mix rate ladder (serve.rN.* metrics). */
inline constexpr int kServeRungs = 6;

/** Setups per run; setup_s is their median. */
inline constexpr int kSetups = 5;

/**
 * A closed loop's samples: host wall milliseconds per op, which member
 * of the workload's mix each op ran, and the ops completed in
 * @p seconds of measurement.
 */
struct ClosedLoop
{
    std::vector<double> opMs;
    std::vector<int> opKind;
    int kinds = 1;
    std::int64_t ops = 0;
    double seconds = 0.0;
};

/**
 * Ops per second of a pass over the mix at each member's median op
 * time, so CPU time other tenants of a shared host take moves a few
 * samples, not the figure.
 */
double passRate(const ClosedLoop& loop);

/**
 * The median op of a mix: the geometric mean of each member's median
 * op time. The median of all samples pooled falls in the gap between
 * two members of a 12-member mix and jumps between them from run to
 * run.
 */
double typicalOpMs(const ClosedLoop& loop);

/** A closed loop has no offered rate; its max_ok_rps is its goodput:
 *  passRate times the share of ops within @p limit_ms. */
double goodput(const ClosedLoop& loop, double limit_ms);

/** A run's host-time end-to-end figures, as measured. */
struct HostFigures
{
    double setupS = 0.0;
    double opsPerS = 0.0;
    /** Whether opsPerS is bound by the host's speed (closed loops) or
     *  by an offered rate (open loops), which calibration must not
     *  scale. */
    bool opsFollowHost = true;
    double p50Ms = 0.0;
    Tail tail;
};

/** HostFigures of a closed loop (ops_per_s from passRate). */
HostFigures closedLoopFigures(const ClosedLoop& loop, double setup_s);

/**
 * Every end-to-end metric: the host figures at the reference host
 * speed of @p cal, ok_frac from the result's counts, peak RSS, and the
 * virtual figures.
 */
void setEndToEnd(Result& r, const HostFigures& host, const Calibration& cal,
                 double virt_task_ms, double virt_speedup);

/** Per-layer: the host figures as measured (raw.*), the probe time
 *  (ctx.calib_ms), and the tail's percentile and sample count. */
void setRawFigures(Result& r, const HostFigures& host,
                   const Calibration& cal);

/** trace.op_ms_delta_frac: traced vs untraced median op time. */
void setTraceDelta(Result& r, double untraced_ms, double traced_ms);

/** Self time per op of every traced layer (self_ms.*). */
void setSelfTimes(Result& r, const Tracer& tracer, std::int64_t ops);

Result runFlowPaper(const Options& opt);
Result runFlowManycore(const Options& opt);
Result runServeMix(const Options& opt);
Result runNativeHost(const Options& opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
