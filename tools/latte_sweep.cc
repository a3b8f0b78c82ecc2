/**
 * @file
 * latte_sweep: run a SweepSpec JSON file in-process.
 *
 *   latte_sweep --spec spec.json [sweep options]
 *
 * The spec is expanded through Sweep::add(spec), so its cells share
 * RunKeys — and therefore the result cache, the journal and the --json
 * export bytes — with the per-figure bench binaries. Every shared sweep
 * flag (-j, --cache-dir, --resume, --json, --metrics-out, ...) applies.
 */

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "runner/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace latte;

    std::string spec_path;
    runner::SweepCliOptions cli;
    runner::ArgParser parser("latte_sweep");
    parser.registerCommonFlags(cli);
    parser.beginGroup("latte_sweep options");
    parser.add("--spec", "", "FILE", "SweepSpec JSON file to run",
               [&](const std::string &v) { spec_path = v; });
    parser.parse(argc, argv);
    if (argc > 1)
        latte_fatal("latte_sweep: unknown argument '{}' (try --help)",
                    argv[1]);
    if (spec_path.empty())
        latte_fatal("latte_sweep: --spec FILE is required");

    std::ifstream in(spec_path);
    if (!in)
        latte_fatal("latte_sweep: cannot read spec file {}", spec_path);
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    const runner::Json json = runner::Json::parse(text.str(), &error);
    runner::SweepSpec spec;
    if (!error.empty() || !runner::SweepSpec::fromJson(json, spec, &error))
        latte_fatal("latte_sweep: {}: {}", spec_path, error);

    runner::Sweep sweep(cli);
    sweep.add(spec); // latte_fatal()s on an invalid spec
    sweep.run();
    return EXIT_SUCCESS;
}
