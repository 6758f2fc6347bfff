#include "support/logging.hh"

#include <iostream>

namespace msq {

void
panic(const std::string &msg)
{
    throw PanicError("panic: " + msg);
}

void
fatal(const std::string &msg)
{
    throw FatalError("fatal: " + msg);
}

void
warn(const std::string &msg)
{
    std::cerr << "warn: " << msg << "\n";
}

} // namespace msq
