#include "common/error.hh"

#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace pubs
{

const char *
SimError::kindName(Kind kind)
{
    switch (kind) {
      case Kind::Fatal: return "fatal";
      case Kind::Config: return "config";
      case Kind::Check: return "check";
      case Kind::Audit: return "audit";
      case Kind::Proc: return "proc";
      case Kind::Checkpoint: return "checkpoint";
    }
    return "unknown";
}

const char *
checkPolicyName(CheckPolicy policy)
{
    switch (policy) {
      case CheckPolicy::Off: return "off";
      case CheckPolicy::Warn: return "warn";
      case CheckPolicy::Throw: return "throw";
      case CheckPolicy::Abort: return "abort";
    }
    return "unknown";
}

bool
parseCheckPolicy(const std::string &name, CheckPolicy &out)
{
    if (name == "off") {
        out = CheckPolicy::Off;
    } else if (name == "warn") {
        out = CheckPolicy::Warn;
    } else if (name == "throw") {
        out = CheckPolicy::Throw;
    } else if (name == "abort") {
        out = CheckPolicy::Abort;
    } else {
        return false;
    }
    return true;
}

CheckPolicy
checkPolicyFromEnv(CheckPolicy configured)
{
    const char *value = std::getenv("PUBS_CHECK");
    if (!value || !*value)
        return configured;
    CheckPolicy parsed;
    if (!parseCheckPolicy(value, parsed)) {
        warn("PUBS_CHECK='%s' is not off/warn/throw/abort; using '%s'",
             value, checkPolicyName(configured));
        return configured;
    }
    return parsed;
}

void
reportViolation(CheckPolicy policy, SimError::Kind kind,
                const std::string &message)
{
    switch (policy) {
      case CheckPolicy::Off:
        return;
      case CheckPolicy::Warn:
        warn("%s violation: %s", SimError::kindName(kind), message.c_str());
        return;
      case CheckPolicy::Throw:
        switch (kind) {
          case SimError::Kind::Check:
            throw CheckError(message);
          case SimError::Kind::Audit:
            throw AuditError(message);
          case SimError::Kind::Config:
            throw ConfigError(message);
          default:
            throw SimError(kind, message);
        }
      case CheckPolicy::Abort:
        std::fprintf(stderr, "%s violation (PUBS_CHECK=abort): %s\n",
                     SimError::kindName(kind), message.c_str());
        std::abort();
    }
}

} // namespace pubs
