/**
 * @file
 * Benchmark entry point:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans <file>]
 *
 * Runs one workload and prints, as its last stdout line, the result
 * object {correct, attempted, failed, metrics}: every end-to-end metric
 * with --trace 0, every per-layer metric with --trace 1. Usage errors
 * exit 1 and errors during a run exit 2, without a result line.
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "<flow-paper|flow-manycore|serve-mix|native-host> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n";
    std::exit(1);
}

Options
parse(int argc, char** argv)
{
    Options opt;
    std::set<std::string> seen;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[i + 1];
        seen.insert(key);
        try {
            if (key == "--workload")
                opt.workload = value;
            else if (key == "--seed")
                opt.seed = std::stoull(value);
            else if (key == "--seconds")
                opt.seconds = std::stod(value);
            else if (key == "--trace")
                opt.trace = std::stoi(value) != 0;
            else if (key == "--spans")
                opt.spansPath = value;
            else
                usage("unknown option " + key);
        } catch (const std::logic_error&) {
            usage("bad value for " + key + ": " + value);
        }
    }
    for (const char* required :
         {"--workload", "--seed", "--seconds", "--trace"})
        if (!seen.count(required))
            usage(std::string("missing ") + required);
    if (!(opt.seconds > 0.0 && opt.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return opt;
}

/** Every catalogued name present, no other; absent layers read 0. */
void
completeMetrics(Result& r, bool trace)
{
    const auto& catalog = trace ? perLayerCatalog() : endToEndCatalog();
    std::set<std::string> known;
    for (const auto& [name, unit] : catalog) {
        known.insert(name);
        if (!r.metrics.has(name)) {
            if (!trace)
                throw std::runtime_error("end-to-end metric " + name
                                         + " was not measured");
            r.metrics.set(name, 0.0, unit);
        }
    }
    for (const auto& name : r.metrics.names())
        if (!known.count(name))
            throw std::runtime_error("metric " + name
                                     + " is not in the catalogue");
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parse(argc, argv);
    Result (*run)(const Options&) = nullptr;
    if (opt.workload == "flow-paper")
        run = runFlowPaper;
    else if (opt.workload == "flow-manycore")
        run = runFlowManycore;
    else if (opt.workload == "serve-mix")
        run = runServeMix;
    else if (opt.workload == "native-host")
        run = runNativeHost;
    else
        usage("unknown workload " + opt.workload);

    try {
        const Context ctx = stampContext();
        std::cout << contextJson(ctx, opt) << std::endl;
        Result r = run(opt);
        if (opt.trace)
            recordContext(ctx, opt.seed, r.metrics);
        completeMetrics(r, opt.trace);
        if (r.attempted < 1)
            throw std::runtime_error("no op was attempted");
        for (const auto& note : r.notes)
            std::cout << note << "\n";
        std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
                  << ", \"attempted\": " << r.attempted
                  << ", \"failed\": " << r.failed
                  << ", \"metrics\": " << r.metrics.json() << "}"
                  << std::endl;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
    return 0;
}
