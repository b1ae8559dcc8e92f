/**
 * @file
 * Recoverable simulation errors and verification policies.
 *
 * Historically every configuration or input problem ended the process via
 * fatal()'s exit(1). A production sweep running thousands of
 * configurations cannot afford that: one corrupt checkpoint or impossible
 * parameter combination must be reported, skipped, and survived. All
 * user-recoverable failures therefore throw SimError (fatal() itself now
 * throws — see logging.hh); panic() still aborts, because it marks a
 * simulator bug whose state cannot be trusted.
 *
 * CheckPolicy selects what the verification subsystem (the lockstep
 * commit checker of sim/checker.hh and the structural auditor of
 * cpu/audit.hh) does when it finds a violation. The PUBS_CHECK
 * environment variable overrides the configured policy at run time.
 */

#ifndef PUBS_COMMON_ERROR_HH
#define PUBS_COMMON_ERROR_HH

#include <stdexcept>
#include <string>

namespace pubs
{

/** A recoverable simulation failure: report, skip the run, continue. */
class SimError : public std::runtime_error
{
  public:
    enum class Kind
    {
        Fatal,  ///< generic fatal() (impossible request)
        Config, ///< rejected by CoreParams::validate()
        Check,  ///< lockstep commit-checker divergence
        Audit,  ///< structural pipeline invariant violated
        Proc,   ///< worker process failed (crash, hang, corrupt frame)
        Checkpoint, ///< corrupt/incompatible checkpoint, or bad save point
    };

    SimError(Kind kind, const std::string &message)
        : std::runtime_error(message), kind_(kind)
    {}

    Kind kind() const { return kind_; }

    static const char *kindName(Kind kind);

  private:
    Kind kind_;
};

/** A configuration the simulator cannot honour. */
class ConfigError : public SimError
{
  public:
    explicit ConfigError(const std::string &message)
        : SimError(Kind::Config, message)
    {}
};

/** The timing pipeline diverged from the reference emulator. */
class CheckError : public SimError
{
  public:
    explicit CheckError(const std::string &message)
        : SimError(Kind::Check, message)
    {}
};

/** A structural invariant of the pipeline no longer holds. */
class AuditError : public SimError
{
  public:
    explicit AuditError(const std::string &message)
        : SimError(Kind::Audit, message)
    {}
};

/**
 * A worker process failed beyond recovery: it crashed, hung past its
 * timeout, or returned a corrupt result frame on every allowed attempt.
 * The run it carried is skipped; the sweep continues.
 */
class ProcError : public SimError
{
  public:
    explicit ProcError(const std::string &message)
        : SimError(Kind::Proc, message)
    {}
};

/**
 * A checkpoint that cannot be trusted (truncated, bit-flipped, produced
 * by another format version or an incompatible machine/workload), or a
 * save/restore request at a point the simulator cannot honour.
 */
class CheckpointError : public SimError
{
  public:
    explicit CheckpointError(const std::string &message)
        : SimError(Kind::Checkpoint, message)
    {}
};

/** What to do when the checker or auditor finds a violation. */
enum class CheckPolicy
{
    Off,   ///< do not run the check at all
    Warn,  ///< report via warn() and continue
    Throw, ///< throw CheckError / AuditError (sweeps skip the config)
    Abort, ///< print and abort() (for debugging under a debugger)
};

const char *checkPolicyName(CheckPolicy policy);

/**
 * Parse a policy name ("off", "warn", "throw", "abort").
 * @return true and set @p out on success; false on unknown names.
 */
bool parseCheckPolicy(const std::string &name, CheckPolicy &out);

/**
 * The policy requested by the PUBS_CHECK environment variable, or
 * @p configured when the variable is unset. An unparsable value warns
 * and falls back to @p configured.
 */
CheckPolicy checkPolicyFromEnv(CheckPolicy configured);

/**
 * Apply @p policy to a violation: warn, throw the SimError subclass for
 * @p kind, or abort. A policy of Off ignores the violation (callers
 * normally skip the check entirely).
 */
void reportViolation(CheckPolicy policy, SimError::Kind kind,
                     const std::string &message);

} // namespace pubs

#endif // PUBS_COMMON_ERROR_HH
