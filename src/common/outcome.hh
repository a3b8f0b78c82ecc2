/**
 * @file
 * The structured failure vocabulary of the run() boundary and the one
 * control the simulator honours:
 *
 *  - RunStatus / RunErrorCode / RunError: the stable, serializable
 *    error model every supervising layer (sweep runner, journal, CI
 *    gates) acts on. No exception ever crosses the library boundary;
 *    failures travel as values. A cell is a pure function of its
 *    request, so a failure is as deterministic as a result.
 *  - RunControl: the simulated-cycle budget the GPU cycle loop checks.
 *
 * Lives in common/ because the GPU model reads the control from its
 * cycle loop while the driver and runner own the policy.
 */

#ifndef LATTE_COMMON_OUTCOME_HH
#define LATTE_COMMON_OUTCOME_HH

#include <cstdint>
#include <string>

#include "types.hh"

namespace latte
{

/** Terminal state of one run() invocation. */
enum class RunStatus
{
    Ok,      //!< result produced
    Failed,  //!< invalid request or configuration; see RunError::code
    TimedOut //!< the simulated-cycle budget ran out
};

/**
 * Stable error-code enum, serialized by name into result JSON (schema
 * 3) and the sweep journal. Never rename a code — journals and cached
 * results outlive binaries.
 */
enum class RunErrorCode
{
    None = 0,
    InvalidRequest,      //!< request missing a workload
    InvalidConfig,       //!< GpuConfig::validationError rejected it
    CycleBudgetExceeded, //!< per-cell simulated-cycle budget
};

/** Lower-snake-case stable name ("cycle_budget_exceeded", ...). */
const char *runStatusName(RunStatus status);
const char *runErrorCodeName(RunErrorCode code);

/** Reverse lookups; nullptr if @p name is unknown. */
const RunStatus *runStatusFromName(const std::string &name);
const RunErrorCode *runErrorCodeFromName(const std::string &name);

struct RunError;

/**
 * The one human-readable rendering of a RunError, shared by every
 * surface that prints one (sweep fatal diagnostics, driver logs,
 * example CLIs): "<code>: <message>", or just
 * "<code>" when the message is empty. The code prefix is the stable
 * runErrorCodeName() token, so the text round-trips back through
 * runErrorCodeFromName() (pinned by test_resilience).
 */
std::string to_string(const RunError &error);

/**
 * One failure, with enough cell context to be actionable after the
 * sweep moved on: which cell, which code, and where in simulated time
 * it tripped.
 */
struct RunError
{
    RunErrorCode code = RunErrorCode::None;
    std::string message;
    /** Cell context (workload abbr, policy label, request seed). */
    std::string workload;
    std::string policyLabel;
    std::uint64_t seed = 0;
    /** Simulated cycle at the failure point (0 when not applicable). */
    Cycles cycle = 0;

    bool ok() const { return code == RunErrorCode::None; }
};

/**
 * The per-run control the driver threads into the GPU model. The cycle
 * loop checks it and winds down cleanly when it trips, so no state is
 * corrupted and no exception is thrown. Not part of the result-cache
 * key.
 */
struct RunControl
{
    /** Simulated-cycle budget for the whole run (0 = unlimited). */
    Cycles cycleBudget = 0;
};

} // namespace latte

#endif // LATTE_COMMON_OUTCOME_HH
