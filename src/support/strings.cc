#include "support/strings.hh"

#include <cstdarg>

namespace msq {

std::string
csprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);

    std::string out;
    if (len > 0) {
        out.resize(static_cast<size_t>(len));
        std::vsnprintf(out.data(), static_cast<size_t>(len) + 1, fmt,
                       args_copy);
    }
    va_end(args_copy);
    return out;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::vector<std::string>
split(const std::string &text, char sep, bool keep_empty)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : text) {
        if (c == sep) {
            if (keep_empty || !cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (keep_empty || !cur.empty())
        out.push_back(cur);
    return out;
}

bool
parseCount(std::string_view text, uint64_t &out, uint64_t min, uint64_t max)
{
    uint64_t value = 0;
    if (text == "inf" || text == "unbounded") {
        value = std::numeric_limits<uint64_t>::max();
    } else {
        if (text.empty())
            return false;
        for (char c : text) {
            if (c < '0' || c > '9')
                return false;
            const uint64_t digit = static_cast<uint64_t>(c - '0');
            if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10)
                return false;
            value = value * 10 + digit;
        }
    }
    if (value < min || value > max)
        return false;
    out = value;
    return true;
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.size() >= prefix.size() &&
           text.compare(0, prefix.size(), prefix) == 0;
}

std::string
withCommas(const Count &value)
{
    std::string digits = value.str();
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count > 0 && count % 3 == 0)
            out += ',';
        out += *it;
        ++count;
    }
    return {out.rbegin(), out.rend()};
}

} // namespace msq
