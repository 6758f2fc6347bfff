/**
 * @file
 * Small string-formatting helpers used across the library. GCC 12 does not
 * ship std::format, so we provide a minimal printf-style csprintf() plus a
 * few join/parse utilities.
 */

#ifndef MSQ_SUPPORT_STRINGS_HH
#define MSQ_SUPPORT_STRINGS_HH

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "support/count.hh"

namespace msq {

/**
 * printf-style formatting into a std::string.
 *
 * @param fmt printf format string.
 * @return the formatted string.
 */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Join the elements of @p parts with @p sep between them. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Split @p text on @p sep, dropping empty fields when @p keep_empty. */
std::vector<std::string> split(const std::string &text, char sep,
                               bool keep_empty = false);

/** @return true when @p text begins with @p prefix. */
bool startsWith(const std::string &text, const std::string &prefix);

/**
 * Parse @p text as a decimal count in [@p min, @p max]: digits only (no
 * sign, space, fraction or exponent), or "inf" / "unbounded" for
 * UINT64_MAX, which the range check then applies to like any value.
 * Every numeric knob of the tools and of msq-served requests reads
 * through this, so none wraps or truncates.
 * @return true and set @p out on success; false, leaving @p out
 *         unchanged, on anything else, including uint64_t overflow.
 */
bool parseCount(std::string_view text, uint64_t &out, uint64_t min = 0,
                uint64_t max = std::numeric_limits<uint64_t>::max());

/** Render @p value with thousands separators, e.g. 1234567 -> "1,234,567". */
std::string withCommas(const Count &value);

} // namespace msq

#endif // MSQ_SUPPORT_STRINGS_HH
