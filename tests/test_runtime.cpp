/**
 * @file
 * Tests for the unified pipeline runtime: the shared buffer-resolution
 * rule, the structured TraceTimeline (derived statistics and the Chrome
 * trace-event JSON export, round-tripped through a real JSON parser),
 * cross-backend output equivalence (virtual DES vs host threads) over
 * every enumerable schedule of a small application, deterministic noise
 * plumbing, and the trace carried by the end-to-end flow report.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <map>
#include <mutex>
#include <sstream>

#include "apps/alexnet.hpp"
#include "apps/features.hpp"
#include "apps/octree_app.hpp"
#include "core/dynamic_executor.hpp"
#include "core/native_executor.hpp"
#include "core/pipeline.hpp"
#include "core/profiler.hpp"
#include "core/sim_executor.hpp"
#include "platform/devices.hpp"
#include "runtime/greedy_runtime.hpp"
#include "runtime/run_types.hpp"
#include "runtime/trace.hpp"
#include "runtime/virtual_backend.hpp"

namespace bt::core {
namespace {

// ---------------------------------------------------------------------
// S1: the "0 = one per chunk plus one" multi-buffering default.

TEST(RunConfig, ResolveBuffersDefaultsToSlotsPlusOne)
{
    EXPECT_EQ(runtime::RunConfig::resolveBuffers(0, 1), 2);
    EXPECT_EQ(runtime::RunConfig::resolveBuffers(0, 4), 5);
    EXPECT_EQ(runtime::RunConfig::resolveBuffers(-3, 2), 3);
    EXPECT_EQ(runtime::RunConfig::resolveBuffers(7, 4), 7);

    runtime::RunConfig cfg;
    EXPECT_EQ(cfg.resolveBuffers(3), 4);
    cfg.numBuffers = 2;
    EXPECT_EQ(cfg.resolveBuffers(3), 2);
}

TEST(RunTypes, LegacyResultTypesAreTheUnifiedResult)
{
    // The deprecated ExecutionResult/NativeResult aliases are gone;
    // the config aliases remain the unified RunConfig.
    static_assert(std::is_same_v<SimExecConfig, runtime::RunConfig>);
    static_assert(std::is_same_v<NativeExecConfig, runtime::RunConfig>);
    static_assert(
        std::is_base_of_v<runtime::RunConfig, DynamicExecConfig>);
    SUCCEED();
}

// ---------------------------------------------------------------------
// TraceTimeline statistics on a hand-built timeline.

TEST(TraceTimeline, StatsOnHandBuiltTimeline)
{
    runtime::TraceTimeline tl("test", 2, {"cpu", "gpu"}, {"a", "b"});
    // PU0 busy [0,1) and [2,3); PU1 busy [0.5,2.5).
    using runtime::TraceEventKind;
    tl.record({0, 0, 0, 0, 0.0, 0.0, 1.0, {}, TraceEventKind::Stage, {}});
    tl.record({0, 1, 1, 1, 0.1, 0.5, 2.5, {0}, TraceEventKind::Stage, {}});
    tl.record({1, 0, 0, 0, 0.3, 2.0, 3.0, {1}, TraceEventKind::Stage, {}});
    tl.sortByStart();

    const auto st = tl.stats();
    EXPECT_EQ(st.events, 3);
    EXPECT_DOUBLE_EQ(st.makespanSeconds, 3.0);
    EXPECT_DOUBLE_EQ(st.busySeconds, 4.0);
    EXPECT_DOUBLE_EQ(st.perPu[0].busySeconds, 2.0);
    EXPECT_DOUBLE_EQ(st.perPu[1].busySeconds, 2.0);
    EXPECT_DOUBLE_EQ(st.perPu[0].occupancy, 2.0 / 3.0);
    // Bubble: each used PU idles 1s of the 3s makespan.
    EXPECT_DOUBLE_EQ(st.bubbleSeconds, 2.0);
    EXPECT_DOUBLE_EQ(st.bubbleFraction, 2.0 / 6.0);
    // 3s of the 4s busy time started with a co-runner.
    EXPECT_DOUBLE_EQ(st.interferedFraction, 3.0 / 4.0);
    EXPECT_NEAR(st.meanQueueWaitSeconds, 0.4 / 3.0, 1e-12);
    // Overlap windows: [0.5,1) and [2,2.5) -> 1s of co-residency.
    EXPECT_DOUBLE_EQ(st.coResidency(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(st.coResidency(1, 0), 1.0);
    EXPECT_DOUBLE_EQ(st.coResidency(0, 0), 2.0);
}

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON parser: just enough to genuinely parse
// the Chrome trace export (objects, arrays, strings, numbers, bools).

class MiniJson
{
  public:
    explicit MiniJson(const std::string& text) : s_(text) {}

    /** Parse one full JSON value; false on any syntax error. */
    bool
    parse()
    {
        pos_ = 0;
        if (!value())
            return false;
        ws();
        return pos_ == s_.size();
    }

    int objects() const { return objects_; }
    int arrays() const { return arrays_; }

    /** Occurrences of string @p key used as an object key. */
    int
    keyCount(const std::string& key) const
    {
        const auto it = keys_.find(key);
        return it == keys_.end() ? 0 : it->second;
    }

  private:
    void
    ws()
    {
        while (pos_ < s_.size()
               && std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    lit(const char* word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string(std::string* out)
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        std::string val;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            val += s_[pos_++];
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        if (out)
            *out = val;
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+'))
            ++pos_;
        bool digits = false;
        while (pos_ < s_.size()
               && (std::isdigit(static_cast<unsigned char>(s_[pos_]))
                   || s_[pos_] == '.' || s_[pos_] == 'e'
                   || s_[pos_] == 'E' || s_[pos_] == '-'
                   || s_[pos_] == '+')) {
            if (std::isdigit(static_cast<unsigned char>(s_[pos_])))
                digits = true;
            ++pos_;
        }
        return digits && pos_ > start;
    }

    bool
    value()
    {
        ws();
        if (pos_ >= s_.size())
            return false;
        const char c = s_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string(nullptr);
        if (c == 't')
            return lit("true");
        if (c == 'f')
            return lit("false");
        if (c == 'n')
            return lit("null");
        return number();
    }

    bool
    object()
    {
        ++pos_; // '{'
        ++objects_;
        ws();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            ws();
            std::string key;
            if (!string(&key))
                return false;
            ++keys_[key];
            ws();
            if (pos_ >= s_.size() || s_[pos_++] != ':')
                return false;
            if (!value())
                return false;
            ws();
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        ++arrays_;
        ws();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            ws();
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    std::string s_; ///< by value: callers may pass a temporary
    std::size_t pos_ = 0;
    int objects_ = 0;
    int arrays_ = 0;
    std::map<std::string, int> keys_;
};

TEST(TraceTimeline, ChromeJsonRoundTripsThroughParser)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();

    SimExecConfig cfg;
    cfg.numTasks = 6;
    const SimExecutor exec(model, cfg);
    const auto run = exec.execute(
        app, Schedule::fromAssignment({0, 1, 1, 3, 3, 3, 2}));

    ASSERT_FALSE(run.trace.empty());
    const std::string json = run.trace.chromeJson();
    MiniJson parsed(json);
    ASSERT_TRUE(parsed.parse()) << json.substr(0, 200);

    // One metadata object per PU, one "X" object per stage execution,
    // plus the root and the per-event args objects.
    EXPECT_EQ(parsed.keyCount("ph"),
              soc.numPus() + static_cast<int>(run.trace.size()));
    EXPECT_EQ(parsed.keyCount("dur"),
              static_cast<int>(run.trace.size()));
    EXPECT_EQ(parsed.keyCount("traceEvents"), 1);
    EXPECT_EQ(parsed.keyCount("displayTimeUnit"), 1);
    EXPECT_GT(parsed.objects(),
              soc.numPus() + static_cast<int>(run.trace.size()));
}

// ---------------------------------------------------------------------
// Merging session-tagged timelines (the multi-tenant serving path).

TEST(TraceTimeline, MergeKeepsSessionsDistinguishable)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto octree = apps::octreeApp();
    const auto features = apps::featuresApp();

    // Two tenants, different applications, distinct session ids.
    SimExecConfig cfgA;
    cfgA.numTasks = 4;
    cfgA.sessionId = 7;
    const auto runA = SimExecutor(model, cfgA).execute(
        octree, Schedule::homogeneous(octree.numStages(), 0));

    SimExecConfig cfgB;
    cfgB.numTasks = 3;
    cfgB.sessionId = 12;
    const auto runB = SimExecutor(model, cfgB).execute(
        features, Schedule::homogeneous(features.numStages(), 1));

    ASSERT_FALSE(runA.trace.empty());
    ASSERT_FALSE(runB.trace.empty());
    EXPECT_EQ(runA.trace.sessionId(), 7);
    EXPECT_EQ(runB.trace.sessionId(), 12);

    // Merge into a default-constructed service-wide timeline, with
    // wall-clock offsets like a serving front end applies.
    runtime::TraceTimeline merged;
    merged.merge(runA.trace, 0.5);
    merged.merge(runB.trace, 2.0);
    EXPECT_EQ(merged.size(), runA.trace.size() + runB.trace.size());

    const auto st = merged.stats();
    EXPECT_NEAR(st.makespanSeconds,
                std::max(0.5 + runA.trace.stats().makespanSeconds,
                         2.0 + runB.trace.stats().makespanSeconds),
                1e-12);

    // Round-trip the merged export through the JSON parser: every
    // stage event carries its session id, and names resolve through
    // the per-session stage tables with an "s<id>:" prefix.
    const std::string json = merged.chromeJson();
    MiniJson parsed(json);
    ASSERT_TRUE(parsed.parse()) << json.substr(0, 200);
    EXPECT_EQ(parsed.keyCount("session"),
              static_cast<int>(merged.size()));
    EXPECT_NE(json.find("\"s7:" + octree.stage(0).name()),
              std::string::npos);
    EXPECT_NE(json.find("\"s12:" + features.stage(0).name()),
              std::string::npos);
    // No cross-tenant leakage: session 12 never shows octree names.
    EXPECT_EQ(json.find("\"s12:" + octree.stage(0).name()),
              std::string::npos);

    // Merging is associative over already-merged timelines.
    runtime::TraceTimeline outer;
    outer.merge(merged, 0.0);
    EXPECT_EQ(outer.size(), merged.size());
    MiniJson outerParsed(outer.chromeJson());
    EXPECT_TRUE(outerParsed.parse());

    // Untagged runs keep the legacy export: no session args at all.
    SimExecConfig plain;
    plain.numTasks = 2;
    const auto runPlain = SimExecutor(model, plain).execute(
        octree, Schedule::homogeneous(octree.numStages(), 0));
    MiniJson plainParsed(runPlain.trace.chromeJson());
    ASSERT_TRUE(plainParsed.parse());
    EXPECT_EQ(plainParsed.keyCount("session"), 0);
}

TEST(TraceTimeline, MergeResolvesNamesPerRunWithinOneSession)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto octree = apps::octreeApp();
    const auto features = apps::featuresApp();

    // One tenant session running two different applications: each
    // merged run must keep resolving against the stage names it ran
    // with (name tables travel per run, not per session).
    SimExecConfig cfg;
    cfg.numTasks = 2;
    cfg.sessionId = 3;
    const auto runA = SimExecutor(model, cfg).execute(
        octree, Schedule::homogeneous(octree.numStages(), 0));
    const auto runB = SimExecutor(model, cfg).execute(
        features, Schedule::homogeneous(features.numStages(), 0));

    runtime::TraceTimeline merged;
    merged.merge(runA.trace, 0.0);
    merged.merge(runB.trace, 1.0);
    const std::string json = merged.chromeJson();
    MiniJson parsed(json);
    ASSERT_TRUE(parsed.parse());
    EXPECT_NE(json.find("\"s3:" + octree.stage(0).name()),
              std::string::npos);
    EXPECT_NE(json.find("\"s3:" + features.stage(0).name()),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Trace agrees with the unified result.

TEST(VirtualBackendTrace, AgreesWithRunResult)
{
    auto soc = platform::jetsonOrinNano();
    soc.noiseSigma = 0.0;
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();

    SimExecConfig cfg;
    cfg.numTasks = 8;
    const SimExecutor exec(model, cfg);
    const auto schedule = Schedule::fromAssignment({0, 0, 0, 1, 1, 1, 1});
    const auto run = exec.execute(app, schedule);

    // Every (task, stage) pair appears exactly once.
    EXPECT_EQ(run.trace.size(),
              static_cast<std::size_t>(cfg.numTasks * app.numStages()));

    const auto st = run.trace.stats();
    EXPECT_NEAR(st.makespanSeconds, run.makespanSeconds,
                1e-9 * run.makespanSeconds);
    // Chunk busy fractions and trace occupancy describe the same run
    // (chunk c of this schedule is alone on its PU).
    for (int c = 0; c < schedule.numChunks(); ++c) {
        const int pu = schedule.chunks()[static_cast<std::size_t>(c)].pu;
        EXPECT_NEAR(
            st.perPu[static_cast<std::size_t>(pu)].occupancy,
            run.chunkBusyFraction[static_cast<std::size_t>(c)],
            1e-9);
    }
    // Pipelined chunks must overlap at least once.
    EXPECT_GT(st.interferedFraction, 0.0);
    EXPECT_GT(st.coResidency(0, 1), 0.0);
    // Disabling recording yields an identical measurement, no trace.
    SimExecConfig quiet = cfg;
    quiet.recordTrace = false;
    const auto bare = SimExecutor(model, quiet).execute(app, schedule);
    EXPECT_DOUBLE_EQ(bare.makespanSeconds, run.makespanSeconds);
    EXPECT_TRUE(bare.trace.empty());
}

TEST(GreedyRuntimeTrace, AgreesWithRunResult)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const Profiler profiler(model);
    const auto profile = profiler.profile(app);

    DynamicExecConfig cfg;
    cfg.numTasks = 10;
    const DynamicExecutor dyn(model, profile.interference, cfg);
    const auto run = dyn.execute(app);

    EXPECT_EQ(run.trace.size(),
              static_cast<std::size_t>(cfg.numTasks * app.numStages()));
    const auto st = run.trace.stats();
    EXPECT_NEAR(st.makespanSeconds, run.makespanSeconds,
                1e-9 * run.makespanSeconds);
    EXPECT_GT(run.energyJoules, 0.0);
    MiniJson parsed(run.trace.chromeJson());
    EXPECT_TRUE(parsed.parse());
}

// ---------------------------------------------------------------------
// S2: cross-backend equivalence. A small integer pipeline whose outputs
// are bit-exactly checkable, run under EVERY enumerable schedule of the
// native host, on both time backends.

constexpr int kEquivElems = 256;

std::uint32_t
mixInput(std::uint64_t seed, std::int64_t task, int i)
{
    std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ull
                              * static_cast<std::uint64_t>(task + 1));
    x ^= static_cast<std::uint64_t>(i) * 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    return static_cast<std::uint32_t>(x * 0x94d049bb133111ebull >> 32);
}

void
stage0(std::uint32_t& x)
{
    x = x * 2654435761u + 0x9e37u;
}

void
stage1(std::uint32_t& x)
{
    x ^= x >> 13;
    x *= 0x85ebca6bu;
}

void
stage2(std::uint32_t& x)
{
    x += (x << 7 | x >> 25) ^ 0xc2b2ae35u;
}

struct Fingerprints
{
    std::mutex mutex;
    std::map<std::int64_t, std::uint64_t> byTask;
};

/** 3-stage elementwise integer pipeline with exact validation. */
Application
equivalenceApp(std::uint64_t device_seed,
               std::shared_ptr<Fingerprints> fp)
{
    Application app("Equivalence", "token", "test");
    auto add = [&](const char* name, void (*fn)(std::uint32_t&)) {
        platform::WorkProfile w;
        w.flops = 1e5;
        w.bytes = 1e3;
        w.parallelFraction = 1.0;
        w.pattern = platform::Pattern::Dense;
        app.addStage(Stage(name, w,
                           [fn](KernelCtx& ctx) {
                               for (auto& x :
                                    ctx.task.view<std::uint32_t>(
                                        "data"))
                                   fn(x);
                           },
                           nullptr));
    };
    add("s0", stage0);
    add("s1", stage1);
    add("s2", stage2);

    app.setTaskFactory([](std::int64_t task, std::uint64_t seed) {
        auto obj = std::make_unique<TaskObject>();
        obj->addBuffer("data", kEquivElems * sizeof(std::uint32_t));
        auto data = obj->view<std::uint32_t>("data");
        for (int i = 0; i < kEquivElems; ++i)
            data[static_cast<std::size_t>(i)] = mixInput(seed, task, i);
        return obj;
    });
    app.setTaskRefresher(
        [](TaskObject& obj, std::int64_t task, std::uint64_t seed) {
            obj.setTaskIndex(task);
            auto data = obj.view<std::uint32_t>("data");
            for (int i = 0; i < kEquivElems; ++i)
                data[static_cast<std::size_t>(i)]
                    = mixInput(seed, task, i);
        });
    app.setValidator([device_seed, fp](const TaskObject& obj) {
        const std::int64_t task = obj.taskIndex();
        const auto data = obj.view<const std::uint32_t>("data");
        std::uint64_t hash = 1469598103934665603ull;
        for (int i = 0; i < kEquivElems; ++i) {
            std::uint32_t expect = mixInput(device_seed, task, i);
            stage0(expect);
            stage1(expect);
            stage2(expect);
            if (data[static_cast<std::size_t>(i)] != expect)
                return std::string("element ") + std::to_string(i)
                    + " mismatch";
            hash = (hash ^ expect) * 1099511628211ull;
        }
        std::lock_guard<std::mutex> lock(fp->mutex);
        fp->byTask[task] = hash;
        return std::string();
    });
    return app;
}

TEST(CrossBackendEquivalence, AllSchedulesAllBackendsBitIdentical)
{
    const auto soc = platform::nativeHost();
    const platform::PerfModel model(soc);
    auto fp = std::make_shared<Fingerprints>();
    const auto app = equivalenceApp(soc.seed, fp);

    const int num_tasks = 8;
    const auto schedules
        = enumerateSchedules(app.numStages(), soc.numPus());
    ASSERT_GT(schedules.size(), 1u);

    // Reference: every backend and schedule must reproduce these.
    std::map<std::int64_t, std::uint64_t> reference;

    for (const auto& schedule : schedules) {
        for (const bool host : {false, true}) {
            fp->byTask.clear();
            runtime::RunResult run;
            if (host) {
                NativeExecConfig cfg;
                cfg.numTasks = num_tasks;
                run = NativeExecutor(soc, cfg).execute(app, schedule);
            } else {
                SimExecConfig cfg;
                cfg.numTasks = num_tasks;
                cfg.runKernels = true;
                run = SimExecutor(model, cfg).execute(app, schedule);
            }
            const std::string label = (host ? "host " : "virtual ")
                + schedule.compactString();
            EXPECT_TRUE(run.validationErrors.empty())
                << label << ": " << run.validationErrors.front();
            EXPECT_EQ(run.tasks, num_tasks) << label;
            EXPECT_EQ(fp->byTask.size(),
                      static_cast<std::size_t>(num_tasks))
                << label;
            EXPECT_EQ(run.trace.size(),
                      static_cast<std::size_t>(num_tasks
                                               * app.numStages()))
                << label;
            if (reference.empty())
                reference = fp->byTask;
            else
                EXPECT_EQ(fp->byTask, reference) << label;
        }
    }
}

// ---------------------------------------------------------------------
// S3: deterministic noise plumbing, uniform across executors.

TEST(NoiseSalt, SameSaltReproducesStaticPipelineExactly)
{
    const auto soc = platform::pixel7a(); // noisy device
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const auto schedule = Schedule::fromAssignment({0, 1, 1, 3, 3, 3, 2});

    SimExecConfig cfg;
    cfg.noiseSalt = 0xfeedface;
    const auto a = SimExecutor(model, cfg).execute(app, schedule);
    const auto b = SimExecutor(model, cfg).execute(app, schedule);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_DOUBLE_EQ(a.taskIntervalSeconds, b.taskIntervalSeconds);
    EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);

    SimExecConfig other = cfg;
    other.noiseSalt = 0xdeadbeef;
    const auto c = SimExecutor(model, other).execute(app, schedule);
    EXPECT_NE(a.makespanSeconds, c.makespanSeconds);
}

TEST(NoiseSalt, SameSaltReproducesDynamicRunExactly)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const Profiler profiler(model);
    const auto profile = profiler.profile(app);

    DynamicExecConfig cfg;
    cfg.noiseSalt = 0xfeedface;
    const DynamicExecutor dyn(model, profile.interference, cfg);
    const auto a = dyn.execute(app);
    const auto b = dyn.execute(app);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_DOUBLE_EQ(a.meanLatencySeconds, b.meanLatencySeconds);

    DynamicExecConfig other = cfg;
    other.noiseSalt = 0xdeadbeef;
    const DynamicExecutor dyn2(model, profile.interference, other);
    EXPECT_NE(dyn2.execute(app).makespanSeconds, a.makespanSeconds);
}

// ---------------------------------------------------------------------
// The end-to-end flow surfaces the deployed run's timeline.

TEST(PipelineFlow, ReportCarriesDeployedTrace)
{
    const auto soc = platform::pixel7a();
    BetterTogetherConfig cfg;
    cfg.autotune = false;
    const BetterTogether flow(soc, cfg);
    const auto report = flow.run(apps::octreeApp());

    ASSERT_FALSE(report.deployedRun.trace.empty());
    EXPECT_EQ(report.deployedRun.trace.size(),
              static_cast<std::size_t>(report.deployedRun.tasks * 7));
    const auto st = report.deployedRun.trace.stats();
    EXPECT_NEAR(st.makespanSeconds,
                report.deployedRun.makespanSeconds,
                1e-9 * st.makespanSeconds);
    MiniJson parsed(report.deployedRun.trace.chromeJson());
    EXPECT_TRUE(parsed.parse());
}

// ---------------------------------------------------------------------
// Chrome-trace JSON escaping of hostile names.

/** Decode one JSON string body (no surrounding quotes), RFC 8259. */
std::string
jsonUnescape(const std::string& s)
{
    std::string out;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out += s[i];
            continue;
        }
        ++i;
        EXPECT_LT(i, s.size()) << "dangling backslash";
        switch (s[i]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            EXPECT_LE(i + 4, s.size() - 1) << "truncated \\u escape";
            const unsigned code = static_cast<unsigned>(
                std::stoul(s.substr(i + 1, 4), nullptr, 16));
            EXPECT_LT(code, 0x80u) << "test only decodes ASCII";
            out += static_cast<char>(code);
            i += 4;
            break;
          }
          default:
            ADD_FAILURE() << "unknown escape \\" << s[i];
        }
    }
    return out;
}

TEST(TraceTimeline, ChromeJsonEscapesHostileNames)
{
    // Quotes, backslashes, every shorthand control escape, and a raw
    // C0 byte that only \u00XX can represent.
    const std::string stage = "st\"age\\one\n\twith\rctl\x01end";
    const std::string pu = "pu\"zero\\\x02";
    const std::string backend = "back\bend\f";
    const std::string note = "no\"te\\\x1f";

    runtime::TraceTimeline tl(backend, 1, {pu}, {stage});
    using runtime::TraceEventKind;
    tl.record({0, 0, 0, 0, 0.0, 0.0, 1.0, {}, TraceEventKind::Stage,
               {}});
    tl.record(runtime::makeFaultEvent(TraceEventKind::Retry, 0, 0, 0,
                                      0, 1.0, 1.1, note));
    const std::string json = tl.chromeJson();

    // Structurally valid JSON with no raw control characters.
    MiniJson parsed(json);
    ASSERT_TRUE(parsed.parse()) << json.substr(0, 400);
    for (const char c : json)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20)
            << "raw control character leaked into the trace JSON";

    // Every hostile string round-trips bit-exactly through a real
    // unescape of its emitted form.
    auto roundTrips = [&](const std::string& original) {
        const std::string expected = [&] {
            std::string e;
            for (const char c : original) {
                switch (c) {
                  case '"': e += "\\\""; break;
                  case '\\': e += "\\\\"; break;
                  case '\b': e += "\\b"; break;
                  case '\f': e += "\\f"; break;
                  case '\n': e += "\\n"; break;
                  case '\r': e += "\\r"; break;
                  case '\t': e += "\\t"; break;
                  default:
                    if (static_cast<unsigned char>(c) < 0x20) {
                        char buf[8];
                        std::snprintf(buf, sizeof buf, "\\u%04x",
                                      static_cast<unsigned>(
                                          static_cast<unsigned char>(
                                              c)));
                        e += buf;
                    } else {
                        e += c;
                    }
                }
            }
            return e;
        }();
        EXPECT_NE(json.find(expected), std::string::npos)
            << "escaped form of \"" << expected << "\" not in JSON";
        EXPECT_EQ(jsonUnescape(expected), original);
    };
    roundTrips(stage);
    roundTrips(pu);
    roundTrips(backend);
    roundTrips(note);
}

// ---------------------------------------------------------------------
// Trace recording is pure observation. The autotuner and the baselines
// measure untraced and only the deployment run records, so every
// virtual-time figure must come out bit-identical with recordTrace on
// and off, and equal to the values the runtime produced before its
// refresh path was rewritten.

/** Every measured field of two runs, compared bit for bit. */
void
expectSameMeasurement(const runtime::RunResult& a,
                      const runtime::RunResult& b, const std::string& label)
{
    EXPECT_EQ(a.tasks, b.tasks) << label;
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds) << label;
    EXPECT_EQ(a.taskIntervalSeconds, b.taskIntervalSeconds) << label;
    EXPECT_EQ(a.meanLatencySeconds, b.meanLatencySeconds) << label;
    EXPECT_EQ(a.energyJoules, b.energyJoules) << label;
    EXPECT_EQ(a.chunkBusyFraction, b.chunkBusyFraction) << label;
    EXPECT_EQ(a.validationErrors, b.validationErrors) << label;
    const runtime::RecoveryStats& x = a.recovery;
    const runtime::RecoveryStats& y = b.recovery;
    EXPECT_EQ(x.transientFaults, y.transientFaults) << label;
    EXPECT_EQ(x.timeouts, y.timeouts) << label;
    EXPECT_EQ(x.stragglers, y.stragglers) << label;
    EXPECT_EQ(x.retries, y.retries) << label;
    EXPECT_EQ(x.remaps, y.remaps) << label;
    EXPECT_EQ(x.dropouts, y.dropouts) << label;
    EXPECT_EQ(x.replans, y.replans) << label;
    EXPECT_EQ(x.unrecovered, y.unrecovered) << label;
    EXPECT_EQ(x.backoffSeconds, y.backoffSeconds) << label;
}

/** Run @p schedule traced and untraced under @p cfg; both must agree
 *  and only the traced run may carry events. */
runtime::RunResult
expectTraceIsObservationOnly(const platform::PerfModel& model,
                             const Application& app,
                             const Schedule& schedule, SimExecConfig cfg)
{
    cfg.recordTrace = true;
    const auto traced = SimExecutor(model, cfg).execute(app, schedule);
    cfg.recordTrace = false;
    const auto bare = SimExecutor(model, cfg).execute(app, schedule);
    const std::string label
        = model.soc().name + " " + schedule.compactString();
    expectSameMeasurement(traced, bare, label);
    EXPECT_GE(traced.trace.size(),
              static_cast<std::size_t>(cfg.numTasks * app.numStages()))
        << label;
    EXPECT_TRUE(bare.trace.empty()) << label;
    return traced;
}

TEST(TraceContract, EveryScheduleBitIdenticalTracedAndUntraced)
{
    struct Pair
    {
        platform::SocDescription soc;
        Application app;
    };
    const Pair pairs[] = {
        {platform::pixel7a(), apps::octreeApp()},
        {platform::jetsonOrinNano(), apps::alexnetDense()},
        {platform::jetsonOrinNanoLp(), apps::alexnetSparse()},
    };
    SimExecConfig cfg;
    cfg.noiseSalt = 0x7ace;
    cfg.numTasks = 10; // warmup 3 plus a steady state, ~2000 schedules
    for (const Pair& p : pairs) {
        const platform::PerfModel model(p.soc);
        for (const auto& schedule : enumerateSchedules(
                 p.app.numStages(), p.soc.numPus()))
            expectTraceIsObservationOnly(model, p.app, schedule, cfg);
    }
}

/** A fault plan that exercises every recovery path of the virtual
 *  backend: transients, straggler timeouts, a throttle window and a
 *  GPU dropout. */
SimExecConfig
faultyConfig()
{
    SimExecConfig cfg;
    cfg.noiseSalt = 0xfeedface;
    cfg.faults.transients.push_back({-1, -1, 0.2});
    cfg.faults.stragglers.push_back({-1, 0.1, 40.0});
    cfg.faults.slowdowns.push_back({0, 0.0, 0.05, 0.4});
    cfg.faults.dropouts.push_back({3, 0.02});
    return cfg;
}

TEST(TraceContract, FaultPlanRunBitIdenticalTracedAndUntraced)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const auto schedule = Schedule::fromAssignment({0, 1, 1, 3, 3, 3, 2});

    SimExecConfig degrade = faultyConfig();
    const auto run
        = expectTraceIsObservationOnly(model, app, schedule, degrade);
    EXPECT_GT(run.recovery.transientFaults, 0);
    EXPECT_GT(run.recovery.timeouts, 0);
    EXPECT_EQ(run.recovery.replans, 1);

    // Per-chunk failover instead of a replan, and no retries: every
    // transient fails over at once.
    SimExecConfig failover = faultyConfig();
    failover.recovery.degrade = false;
    failover.recovery.maxRetries = 0;
    const auto alt
        = expectTraceIsObservationOnly(model, app, schedule, failover);
    EXPECT_GT(alt.recovery.remaps, 1);
}

/** Values of one run pinned as hex floats (bit-exact). */
struct PinnedRun
{
    double makespan;
    double interval;
    double latency;
    double energy;
};

std::string
hexFloat(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** @p run in PinnedRun initializer syntax, printed on a mismatch so an
 *  intended change can be re-recorded. */
std::string
pinnedLiteral(const runtime::RunResult& run)
{
    return "{" + hexFloat(run.makespanSeconds) + ", "
        + hexFloat(run.taskIntervalSeconds) + ", "
        + hexFloat(run.meanLatencySeconds) + ", "
        + hexFloat(run.energyJoules) + "}";
}

void
expectPinned(const runtime::RunResult& run, const PinnedRun& pin,
             const std::string& label)
{
    EXPECT_EQ(run.makespanSeconds, pin.makespan) << label;
    EXPECT_EQ(run.taskIntervalSeconds, pin.interval) << label;
    EXPECT_EQ(run.meanLatencySeconds, pin.latency) << label;
    EXPECT_EQ(run.energyJoules, pin.energy) << label;
    if (::testing::Test::HasFailure())
        ADD_FAILURE() << label << " actual: " << pinnedLiteral(run);
}

TEST(TraceContract, PinnedMeasurements)
{
    struct Case
    {
        const char* label;
        platform::SocDescription soc;
        Application app;
        std::vector<int> assignment;
        PinnedRun pin;
    };
    // The pipeline_micro scenarios under a fixed salt. Every value was
    // recorded from the runtime before its refresh path was rewritten.
    const Case cases[] = {
        {"pixel_dense", platform::pixel7a(), apps::alexnetDense(),
         {0, 0, 0, 0, 1, 1, 1, 1, 1},
         {0x1.e7e1b3335081cp+1, 0x1.000eda42f59d2p-3,
          0x1.8df9d7f889ba6p-3, 0x1.555c622fe572p+3}},
        {"pixel_octree", platform::pixel7a(), apps::octreeApp(),
         {0, 1, 1, 3, 3, 3, 2},
         {0x1.30f2f9658dd7p-3, 0x1.3a653ac85aa1p-8,
          0x1.6cd0a1759dc7ep-7, 0x1.8e5621a37973bp-1}},
        {"jetson_octree", platform::jetsonOrinNano(), apps::octreeApp(),
         {0, 0, 0, 1, 1, 1, 1},
         {0x1.107d6a3d9a202p-5, 0x1.1e1cd8b91eab4p-10,
          0x1.d14d4150e0d7bp-10, 0x1.181d79b095c96p-1}},
    };
    for (const Case& c : cases) {
        const platform::PerfModel model(c.soc);
        SimExecConfig cfg;
        cfg.noiseSalt = 0x7ace;
        for (const bool trace : {true, false}) {
            cfg.recordTrace = trace;
            expectPinned(SimExecutor(model, cfg).execute(
                             c.app, Schedule::fromAssignment(c.assignment)),
                         c.pin, c.label);
        }
    }

    // A faulty run: its recovery decisions are pinned too.
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const auto schedule = Schedule::fromAssignment({0, 1, 1, 3, 3, 3, 2});
    for (const bool trace : {true, false}) {
        SimExecConfig cfg = faultyConfig();
        cfg.recordTrace = trace;
        const auto run = SimExecutor(model, cfg).execute(app, schedule);
        expectPinned(run,
                     {0x1.25be79d112a9fp-1, 0x1.2420c29879df5p-6,
                      0x1.3e2dd4b07d0d3p-4, 0x1.19676393661fep+1},
                     "faulty");
        const runtime::RecoveryStats& r = run.recovery;
        EXPECT_EQ(r.transientFaults, 57);
        EXPECT_EQ(r.timeouts, 24);
        EXPECT_EQ(r.stragglers, 24);
        EXPECT_EQ(r.retries, 80);
        EXPECT_EQ(r.remaps, 2);
        EXPECT_EQ(r.replans, 1);
        EXPECT_EQ(r.unrecovered, 0);
        EXPECT_EQ(r.backoffSeconds, 0x1.6bb98c7e2823ep-7);
        if (::testing::Test::HasFailure())
            ADD_FAILURE() << "recovery: " << r.transientFaults << ' '
                          << r.timeouts << ' ' << r.stragglers << ' '
                          << r.retries << ' ' << r.remaps << ' '
                          << r.replans << ' ' << r.unrecovered << ' '
                          << hexFloat(r.backoffSeconds);
    }

    // The greedy dynamic baseline shares the energy meter and the rate
    // refresh.
    const auto profile = Profiler(model).profile(app);
    for (const bool trace : {true, false}) {
        DynamicExecConfig cfg;
        cfg.noiseSalt = 0x7ace;
        cfg.recordTrace = trace;
        expectPinned(
            DynamicExecutor(model, profile.interference, cfg).execute(app),
            {0x1.41255d930185cp-4, 0x1.3a50348b0d0abp-9,
             0x1.99b682dedda16p-7, 0x1.3bd0785a909b8p-1},
            "greedy");
    }
}


// ---------------------------------------------------------------------
// Digests of whole measurement streams. The backends memoize their rate
// and power queries per run; memoization must not change a bit of any
// virtual-time output, so every schedule of three (app, rig) pairs is
// folded into one digest per backend. The digests were recorded from
// the runtime before it memoized anything.

/** FNV-1a over the bit patterns of a run's measured values. */
class RunDigest
{
  public:
    void
    fold(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i, v >>= 8) {
            digest_ ^= v & 0xff;
            digest_ *= 0x100000001b3ull;
        }
    }

    void fold(double v) { fold(std::bit_cast<std::uint64_t>(v)); }

    /** Makespan, interval, energy, mean latency, and each stage
     *  execution's (task, stage, PU, start, end) from the trace. */
    void
    fold(const runtime::RunResult& run)
    {
        fold(run.makespanSeconds);
        fold(run.taskIntervalSeconds);
        fold(run.energyJoules);
        fold(run.meanLatencySeconds);
        for (const auto& e : run.trace.events()) {
            fold(static_cast<std::uint64_t>(e.task));
            fold(static_cast<std::uint64_t>(e.stage));
            fold(static_cast<std::uint64_t>(e.pu));
            fold(e.startSeconds);
            fold(e.endSeconds);
        }
    }

    std::uint64_t value() const { return digest_; }

  private:
    std::uint64_t digest_ = 0xcbf29ce484222325ull;
};

TEST(RuntimeDigest, EveryScheduleAndGreedyRunMatchRecordedDigests)
{
    struct Pair
    {
        platform::SocDescription soc;
        Application app;
        std::uint64_t virtualDigest;
        std::uint64_t greedyDigest;
    };
    const Pair pairs[] = {
        {platform::pixel7a(), apps::octreeApp(), 0x723561b2afdcb20aull,
         0x166869f496b8a92eull},
        {platform::jetsonOrinNano(), apps::alexnetDense(),
         0x67d1077be26b6db9ull, 0xf2534bea701dd33bull},
        {platform::jetsonOrinNanoLp(), apps::alexnetSparse(),
         0x464b958122101306ull, 0xa4d98408220f25a8ull},
    };
    for (const Pair& p : pairs) {
        const platform::PerfModel model(p.soc);
        const runtime::VirtualTimeBackend backend(model);
        runtime::RunConfig cfg;
        cfg.noiseSalt = 0x7ace;
        cfg.numTasks = 10;
        RunDigest virt;
        for (const auto& schedule : enumerateSchedules(
                 p.app.numStages(), p.soc.numPus()))
            virt.fold(backend.run(p.app, schedule, cfg));
        EXPECT_EQ(virt.value(), p.virtualDigest)
            << p.soc.name << " virtual: 0x" << std::hex << virt.value();

        // The greedy policy under several salts, with and without
        // ambient co-runner demand.
        const auto profile = Profiler(model).profile(p.app);
        const runtime::GreedyRuntime greedy(model, profile.interference);
        RunDigest dyn;
        for (const std::uint64_t salt : {0x7aceull, 1ull, 2ull})
            for (const double ambient : {0.0, 6.0}) {
                runtime::RunConfig g;
                g.noiseSalt = salt;
                g.ambientBandwidthGbps = ambient;
                dyn.fold(greedy.run(p.app, g, runtime::GreedyParams{}));
            }
        EXPECT_EQ(dyn.value(), p.greedyDigest)
            << p.soc.name << " greedy: 0x" << std::hex << dyn.value();
    }
}

TEST(RateMemo, HitsRepeatedSetsInOrderAndStaysBounded)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    using runtime::RateMemo;
    RateMemo memo(model, app, 2.5);

    const auto load = [&](int stage, int pu) {
        return platform::Load{&app.stage(stage).work(), pu};
    };
    const std::vector<platform::Load> loads = {load(0, 0), load(3, 2)};
    const std::vector<std::uint32_t> key
        = {RateMemo::code(0, 0), RateMemo::code(3, 2)};
    std::vector<double> expect(2);
    model.timesOf(loads, {}, 2.5, expect);
    for (double& r : expect)
        r = 1.0 / r;

    std::vector<double> got(2);
    memo.rates(key, {}, got);
    EXPECT_EQ(got, expect);
    memo.rates(key, {}, got);
    EXPECT_EQ(got, expect); // bit for bit from the memo
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.hits(), 1u);

    // The same set in another order is another key.
    memo.rates(std::vector<std::uint32_t>{key[1], key[0]}, {}, got);
    EXPECT_EQ(memo.misses(), 2u);
    EXPECT_EQ(got[0], expect[1]);

    // A flush forgets every set.
    memo.flush();
    memo.rates(key, {}, got);
    EXPECT_EQ(memo.misses(), 3u);
    EXPECT_EQ(got, expect);

    // Past kCapacity sets the memo computes without inserting: the
    // sets stored first still hit, an overflowing one never does. Pairs
    // of (stage, PU) tasks give 28 x 28 distinct keys on this rig.
    const int tasks = app.numStages() * soc.numPus();
    const auto pairKey = [&](std::size_t i) {
        const int a = static_cast<int>(i) % tasks;
        const int b = static_cast<int>(i) / tasks;
        return std::vector<std::uint32_t>{
            RateMemo::code(a % app.numStages(), a / app.numStages()),
            RateMemo::code(b % app.numStages(), b / app.numStages())};
    };
    for (std::size_t i = 0; i < RateMemo::kCapacity + 8; ++i)
        memo.rates(pairKey(i), {}, got);
    const auto misses = memo.misses();
    const auto late = pairKey(RateMemo::kCapacity + 4);
    memo.rates(late, {}, got);
    EXPECT_EQ(memo.misses(), misses + 1);
    memo.rates(key, {}, got);
    EXPECT_EQ(memo.misses(), misses + 1);
    EXPECT_EQ(got, expect);
}

TEST(RuntimeDigest, FaultPlanRunMatchesRecordedDigest)
{
    // Two throttle windows (each boundary changes the clock scales the
    // rates read) and a dropout that replans, then the same plan with
    // per-chunk failover instead of the replan.
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const runtime::VirtualTimeBackend backend(model);
    const auto app = apps::octreeApp();
    const auto schedule = Schedule::fromAssignment({0, 1, 1, 3, 3, 3, 2});
    RunDigest digest;
    for (const bool degrade : {true, false}) {
        SimExecConfig cfg = faultyConfig();
        cfg.faults.slowdowns.push_back({2, 0.1, 0.3, 0.7});
        cfg.recovery.degrade = degrade;
        const auto run = backend.run(app, schedule, cfg);
        EXPECT_GE(run.recovery.replans, degrade ? 1 : 0);
        digest.fold(run);
    }
    EXPECT_EQ(digest.value(), 0x26cd3e561cbb873aull)
        << "faulty: 0x" << std::hex << digest.value();
}

} // namespace
} // namespace bt::core
