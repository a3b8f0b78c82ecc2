/**
 * @file
 * Tests for the resilience subsystem: the RunOutcome error API (no
 * failure escapes as an exception or exit), cycle-budget failures as
 * deterministic values that never sink a sweep, and journal-gated
 * resume producing byte-identical sweeps after an interruption.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/driver.hh"
#include "runner/experiment_runner.hh"
#include "runner/json.hh"
#include "runner/resilience.hh"
#include "runner/result_cache.hh"
#include "runner/sweep.hh"
#include "workloads/zoo.hh"

using namespace latte;
using namespace latte::runner;

namespace
{

/** A cut-down machine so each simulated cell costs milliseconds. */
DriverOptions
tinyOptions()
{
    DriverOptions options;
    options.cfg.numSms = 2;
    options.maxInstructionsPerKernel = 20'000;
    return options;
}

RunRequest
tinyRequest(const char *abbr = "KM",
            PolicyKind kind = PolicyKind::Baseline)
{
    const Workload *workload = findWorkload(abbr);
    EXPECT_NE(workload, nullptr);
    RunRequest request;
    request.workload = workload;
    request.policy = kind;
    request.options = tinyOptions();
    return request;
}

std::vector<std::string>
dumpAll(const std::vector<RunOutcome> &outcomes)
{
    std::vector<std::string> dumps;
    dumps.reserve(outcomes.size());
    for (const auto &outcome : outcomes)
        dumps.push_back(toJson(outcome).dump());
    return dumps;
}

TEST(Resilience, FaultedCellDoesNotSinkTheSweep)
{
    // A sweep mixing healthy cells and a cell that runs out of its
    // cycle budget completes, the healthy cells finish Ok, and the
    // failed cell reports its cause.
    std::vector<RunRequest> requests;
    requests.push_back(tinyRequest("KM"));
    requests.push_back(tinyRequest("KM", PolicyKind::LatteCc));
    requests.back().control.cycleBudget = 2'000;
    requests.push_back(tinyRequest("SS"));

    RunnerOptions options;
    options.threads = 2;
    options.progress = false;
    ExperimentRunner runner(options);
    const auto outcomes = runner.runAll(requests);

    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_EQ(outcomes[1].status, RunStatus::TimedOut);
    EXPECT_EQ(outcomes[1].error.code, RunErrorCode::CycleBudgetExceeded);
    EXPECT_GE(outcomes[1].error.cycle, 2'000u);
    EXPECT_TRUE(outcomes[2].ok());
    EXPECT_EQ(runner.stats().failed, 1u);
}

TEST(Resilience, CycleBudgetTimesOutTheCell)
{
    RunRequest request = tinyRequest();
    request.control.cycleBudget = 5'000;

    const RunOutcome outcome = run(request);
    EXPECT_EQ(outcome.status, RunStatus::TimedOut);
    EXPECT_EQ(outcome.error.code, RunErrorCode::CycleBudgetExceeded);
    EXPECT_GE(outcome.error.cycle, 5'000u);
    EXPECT_FALSE(outcome.result.has_value());
}

TEST(Resilience, CycleBudgetFailureIsDeterministic)
{
    // A cell is a pure function of its request, so a budget trip is
    // too: the same over-budget cell fails with the same code, cycle
    // and message every time. This is why failures are journaled and
    // never retried.
    RunRequest request = tinyRequest("SS", PolicyKind::LatteCc);
    request.control.cycleBudget = 3'000;

    const RunOutcome first = run(request);
    const RunOutcome second = run(request);
    ASSERT_EQ(first.error.code, RunErrorCode::CycleBudgetExceeded);
    EXPECT_FALSE(first.error.message.empty());
    EXPECT_EQ(second.error.code, first.error.code);
    EXPECT_EQ(second.error.cycle, first.error.cycle);
    EXPECT_EQ(second.error.message, first.error.message);
    EXPECT_EQ(toJson(second).dump(), toJson(first).dump());
}

TEST(Resilience, InvalidConfigIsAFailureValueNotAnExit)
{
    RunRequest request = tinyRequest();
    request.options.cfg.l1.assoc = 0; // structurally broken

    const RunOutcome outcome = run(request);
    EXPECT_EQ(outcome.status, RunStatus::Failed);
    EXPECT_EQ(outcome.error.code, RunErrorCode::InvalidConfig);
    EXPECT_NE(outcome.error.message.find("l1Assoc"), std::string::npos)
        << outcome.error.message;
}

TEST(Resilience, NullWorkloadIsInvalidRequest)
{
    RunRequest request;
    const RunOutcome outcome = run(request);
    EXPECT_EQ(outcome.status, RunStatus::Failed);
    EXPECT_EQ(outcome.error.code, RunErrorCode::InvalidRequest);
}

TEST(Resilience, JournalRoundTripsAndSkipsTruncatedTail)
{
    const std::string path = ::testing::TempDir() +
                             "/latte_resilience_journal_test.jsonl";
    std::filesystem::remove(path);

    RunError error;
    error.code = RunErrorCode::CycleBudgetExceeded;
    error.message = "simulated-cycle budget of 100 exhausted";
    error.workload = "KM";
    error.policyLabel = "LATTE-CC";
    error.cycle = 123;
    const RunOutcome failed = RunOutcome::failure(error);

    {
        SweepJournal journal(path);
        journal.record("cell-a", failed);
        EXPECT_EQ(journal.size(), 1u);
    }
    // Simulate a SIGKILL landing mid-append: a truncated JSON line.
    {
        std::ofstream out(path, std::ios::app);
        out << R"({"fingerprint": "cell-b", "outco)";
    }

    SweepJournal reloaded(path);
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_FALSE(reloaded.find("cell-b").has_value());

    const auto entry = reloaded.find("cell-a");
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->status, RunStatus::TimedOut);
    EXPECT_EQ(entry->error.code, RunErrorCode::CycleBudgetExceeded);
    EXPECT_EQ(entry->error.cycle, 123u);
    EXPECT_EQ(entry->error.message, error.message);

    std::filesystem::remove(path);
}

TEST(Resilience, ResumedSweepIsByteIdenticalToUninterrupted)
{
    const std::string dir =
        ::testing::TempDir() + "/latte_resilience_resume_test";
    std::filesystem::remove_all(dir);
    const std::string journal = dir + "/journal.jsonl";

    std::vector<RunRequest> grid;
    for (const char *abbr : {"KM", "PRK", "SS"}) {
        for (const PolicyKind kind :
             {PolicyKind::Baseline, PolicyKind::LatteCc}) {
            grid.push_back(tinyRequest(abbr, kind));
        }
    }

    // The reference: one uninterrupted run, no persistence at all.
    RunnerOptions plain;
    plain.threads = 2;
    plain.progress = false;
    const auto reference = ExperimentRunner(plain).runAll(grid);

    // "Crash" after the first four cells: a partial invocation that
    // journals and caches what it finished.
    RunnerOptions durable = plain;
    durable.cacheDir = dir + "/cache";
    durable.journalPath = journal;
    {
        const std::vector<RunRequest> partial(grid.begin(),
                                              grid.begin() + 4);
        ExperimentRunner(durable).runAll(partial);
    }

    // The resumed invocation runs the whole grid: four cells come back
    // via the journal + cache, two simulate fresh.
    ExperimentRunner resumed(durable);
    const auto outcomes = resumed.runAll(grid);
    EXPECT_EQ(resumed.stats().journalSkips, 4u);
    EXPECT_EQ(resumed.stats().executed, 2u);

    EXPECT_EQ(dumpAll(outcomes), dumpAll(reference));

    // A third invocation serves everything without simulating.
    ExperimentRunner warm(durable);
    const auto warm_outcomes = warm.runAll(grid);
    EXPECT_EQ(warm.stats().executed, 0u);
    EXPECT_EQ(warm.stats().journalSkips, grid.size());
    EXPECT_EQ(dumpAll(warm_outcomes), dumpAll(reference));

    std::filesystem::remove_all(dir);
}

TEST(Resilience, ResumeWithSimThreadsIsByteIdentical)
{
    // Kill-and-resume with the parallel cycle loop enabled: a sweep
    // computed at --sim-threads=4 must journal, resume and replay
    // byte-identically to an uninterrupted run — including the
    // simThreads envelope field, which fromJson restores so
    // cache-served cells report the computing run's value.
    const std::string dir =
        ::testing::TempDir() + "/latte_resilience_simthreads_test";
    std::filesystem::remove_all(dir);
    const std::string journal = dir + "/journal.jsonl";

    std::vector<RunRequest> grid;
    for (const char *abbr : {"KM", "PRK", "SS"}) {
        RunRequest request = tinyRequest(abbr, PolicyKind::LatteCc);
        request.options.cfg.numSms = 8;
        request.options.simThreads = "4";
        grid.push_back(std::move(request));
    }

    RunnerOptions plain;
    plain.threads = 2;
    plain.progress = false;
    const auto reference = ExperimentRunner(plain).runAll(grid);
    for (const RunOutcome &outcome : reference) {
        ASSERT_TRUE(outcome.ok()) << to_string(outcome.error);
        EXPECT_EQ(outcome.simThreads, 4u);
    }

    // "Crash" after the first cell, then resume the whole grid.
    RunnerOptions durable = plain;
    durable.cacheDir = dir + "/cache";
    durable.journalPath = journal;
    {
        const std::vector<RunRequest> partial(grid.begin(),
                                              grid.begin() + 1);
        ExperimentRunner(durable).runAll(partial);
    }
    ExperimentRunner resumed(durable);
    const auto outcomes = resumed.runAll(grid);
    EXPECT_EQ(resumed.stats().journalSkips, 1u);
    EXPECT_EQ(resumed.stats().executed, 2u);
    EXPECT_EQ(dumpAll(outcomes), dumpAll(reference));

    // Warm replay: everything served from the journal + cache, still
    // byte-identical, simThreads envelope value included.
    ExperimentRunner warm(durable);
    const auto warm_outcomes = warm.runAll(grid);
    EXPECT_EQ(warm.stats().executed, 0u);
    EXPECT_EQ(dumpAll(warm_outcomes), dumpAll(reference));

    std::filesystem::remove_all(dir);
}

TEST(Resilience, JournalReplaysFailuresWithoutRerunning)
{
    const std::string dir =
        ::testing::TempDir() + "/latte_resilience_failjournal_test";
    std::filesystem::remove_all(dir);

    // A cycle budget forces a deterministic timeout.
    RunRequest request = tinyRequest();

    RunnerOptions options;
    options.threads = 1;
    options.progress = false;
    options.cacheDir = dir + "/cache";
    options.journalPath = dir + "/journal.jsonl";
    options.cellCycleBudget = 5'000;

    ExperimentRunner first(options);
    const auto cold = first.runAll({request});
    ASSERT_EQ(cold.size(), 1u);
    EXPECT_EQ(cold[0].status, RunStatus::TimedOut);
    EXPECT_EQ(first.stats().executed, 1u);

    ExperimentRunner second(options);
    const auto resumed = second.runAll({request});
    EXPECT_EQ(second.stats().executed, 0u);
    EXPECT_EQ(second.stats().journalSkips, 1u);
    ASSERT_EQ(resumed.size(), 1u);
    EXPECT_EQ(resumed[0].status, RunStatus::TimedOut);
    EXPECT_EQ(resumed[0].error.code,
              RunErrorCode::CycleBudgetExceeded);
    EXPECT_EQ(toJson(resumed[0]).dump(), toJson(cold[0]).dump());

    std::filesystem::remove_all(dir);
}

TEST(Resilience, CustomLabelIsAuthoritativeEverywhere)
{
    // A non-empty RunRequest::label wins over the catalogue name for
    // the result, the cache key and the error context alike.
    RunRequest request = tinyRequest();
    request.label = "My-Baseline";

    const RunKey key = RunKey::of(request);
    EXPECT_EQ(key.policyLabel, "My-Baseline");

    const RunOutcome ok = run(request);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value().policyLabel, "My-Baseline");

    RunRequest budgeted = request;
    budgeted.control.cycleBudget = 500;
    const RunOutcome bad = run(budgeted);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error.policyLabel, "My-Baseline");
}

TEST(Resilience, SweepExportsFailedCellsAsPartialResults)
{
    const std::string path = ::testing::TempDir() +
                             "/latte_resilience_partial_test.json";
    std::filesystem::remove(path);

    {
        SweepCliOptions cli;
        cli.jobs = 2;
        cli.progress = false;
        cli.jsonPath = path;
        Sweep sweep(cli, tinyOptions());

        sweep.add(tinyRequest("KM"));
        RunRequest budgeted = tinyRequest("SS");
        budgeted.control.cycleBudget = 2'000;
        sweep.add(budgeted);

        EXPECT_TRUE(sweep.outcome(tinyRequest("KM")).ok());
        const RunOutcome &bad = sweep.outcome(budgeted);
        EXPECT_EQ(bad.status, RunStatus::TimedOut);
        EXPECT_EQ(bad.error.code, RunErrorCode::CycleBudgetExceeded);
        // Destructor writes the --json export.
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::string error;
    const Json doc = Json::parse(text, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(doc.asArray().size(), 2u);

    bool saw_ok = false, saw_failed = false;
    for (const Json &cell : doc.asArray()) {
        const std::string status = cell.at("status").asString();
        if (status == "ok") {
            saw_ok = true;
            EXPECT_EQ(cell.at("error").type(), Json::Type::Null);
            EXPECT_GT(cell.at("cycles").asUint(), 0u);
        } else {
            saw_failed = true;
            EXPECT_EQ(status, "timed_out");
            EXPECT_EQ(cell.at("error").at("code").asString(),
                      "cycle_budget_exceeded");
            EXPECT_EQ(cell.at("workload").asString(), "SS");
        }
    }
    EXPECT_TRUE(saw_ok);
    EXPECT_TRUE(saw_failed);

    std::filesystem::remove(path);
}

TEST(Resilience, ErrorCodeNamesRoundTrip)
{
    const RunErrorCode codes[] = {
        RunErrorCode::None,
        RunErrorCode::InvalidRequest,
        RunErrorCode::InvalidConfig,
        RunErrorCode::CycleBudgetExceeded,
    };
    for (const RunErrorCode code : codes) {
        const char *name = runErrorCodeName(code);
        ASSERT_NE(name, nullptr);
        const RunErrorCode *back = runErrorCodeFromName(name);
        ASSERT_NE(back, nullptr) << name;
        EXPECT_EQ(*back, code);
    }
    EXPECT_EQ(runErrorCodeFromName("no-such-code"), nullptr);

    const RunStatus statuses[] = {RunStatus::Ok, RunStatus::Failed,
                                  RunStatus::TimedOut};
    for (const RunStatus status : statuses) {
        const RunStatus *back =
            runStatusFromName(runStatusName(status));
        ASSERT_NE(back, nullptr);
        EXPECT_EQ(*back, status);
    }
}

TEST(Resilience, ToStringRunErrorRoundTripsItsCode)
{
    // to_string(RunError) is THE human-facing form ("<code>: <msg>");
    // its leading token must parse back through runErrorCodeFromName
    // so log lines stay machine-greppable by code.
    RunError error;
    error.code = RunErrorCode::CycleBudgetExceeded;
    error.message = "simulated-cycle budget of 5000 exhausted";
    const std::string text = to_string(error);
    const std::string token = text.substr(0, text.find(':'));
    const RunErrorCode *back = runErrorCodeFromName(token);
    ASSERT_NE(back, nullptr) << text;
    EXPECT_EQ(*back, error.code);
    EXPECT_NE(text.find(error.message), std::string::npos) << text;

    // Without a message the whole string IS the code token.
    RunError bare;
    bare.code = RunErrorCode::InvalidRequest;
    EXPECT_EQ(to_string(bare),
              runErrorCodeName(RunErrorCode::InvalidRequest));
    EXPECT_NE(runErrorCodeFromName(to_string(bare)), nullptr);
}

} // namespace
