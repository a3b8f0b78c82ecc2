#include "outcome.hh"

#include "logging.hh"

namespace latte
{

namespace
{

struct StatusEntry
{
    RunStatus status;
    const char *name;
};

constexpr StatusEntry kStatusTable[] = {
    {RunStatus::Ok, "ok"},
    {RunStatus::Failed, "failed"},
    {RunStatus::TimedOut, "timed_out"},
};

struct CodeEntry
{
    RunErrorCode code;
    const char *name;
};

constexpr CodeEntry kCodeTable[] = {
    {RunErrorCode::None, "none"},
    {RunErrorCode::InvalidRequest, "invalid_request"},
    {RunErrorCode::InvalidConfig, "invalid_config"},
    {RunErrorCode::CycleBudgetExceeded, "cycle_budget_exceeded"},
};

} // namespace

const char *
runStatusName(RunStatus status)
{
    for (const StatusEntry &entry : kStatusTable) {
        if (entry.status == status)
            return entry.name;
    }
    latte_panic("unknown RunStatus");
}

const RunStatus *
runStatusFromName(const std::string &name)
{
    for (const StatusEntry &entry : kStatusTable) {
        if (name == entry.name)
            return &entry.status;
    }
    return nullptr;
}

const char *
runErrorCodeName(RunErrorCode code)
{
    for (const CodeEntry &entry : kCodeTable) {
        if (entry.code == code)
            return entry.name;
    }
    latte_panic("unknown RunErrorCode");
}

const RunErrorCode *
runErrorCodeFromName(const std::string &name)
{
    for (const CodeEntry &entry : kCodeTable) {
        if (name == entry.name)
            return &entry.code;
    }
    return nullptr;
}

std::string
to_string(const RunError &error)
{
    std::string text = runErrorCodeName(error.code);
    if (!error.message.empty()) {
        text += ": ";
        text += error.message;
    }
    return text;
}

} // namespace latte
