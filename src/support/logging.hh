/**
 * @file
 * Error-reporting helpers, modelled on the gem5 panic()/fatal()/warn()
 * convention.
 *
 * panic() is for internal invariant violations (a bug in this library);
 * fatal() is for unrecoverable user errors (bad input program, bad
 * configuration). Both are implemented as [[noreturn]] functions that
 * throw typed exceptions so tests can assert on them.
 */

#ifndef MSQ_SUPPORT_LOGGING_HH
#define MSQ_SUPPORT_LOGGING_HH

#include <stdexcept>
#include <string>

namespace msq {

/** Exception thrown by panic(): an internal library bug was detected. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Exception thrown by fatal(): user input or configuration is invalid. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Report an internal invariant violation and unwind. */
[[noreturn]] void panic(const std::string &msg);

/** Report an unrecoverable user/configuration error and unwind. */
[[noreturn]] void fatal(const std::string &msg);

/** Print a warning to stderr (does not stop execution). */
void warn(const std::string &msg);

} // namespace msq

#endif // MSQ_SUPPORT_LOGGING_HH
