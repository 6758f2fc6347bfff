/**
 * @file
 * Minimal JSON value model and recursive-descent parser — just enough
 * for the msq-served NDJSON request protocol (core/serve.hh). Writing
 * JSON stays string-based (jsonEscape/jsonNumber in telemetry.hh);
 * this header only covers the *reading* side, which the repo previously
 * never needed.
 *
 * Scope: full JSON syntax (objects, arrays, strings with escapes,
 * numbers, booleans, null) with two deliberate simplifications —
 * numbers are stored as double, beside their token so that integer
 * request fields are read exactly, and \uXXXX escapes outside the
 * Basic Multilingual Plane are decoded per surrogate half.
 */

#ifndef MSQ_SUPPORT_JSON_HH
#define MSQ_SUPPORT_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace msq {

/** One parsed JSON value (tree-owning). */
class JsonValue
{
  public:
    enum class Kind : uint8_t {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isObject() const { return kind_ == Kind::Object; }

    /// @name Typed accessors (defaulted when the kind does not match,
    /// so protocol code reads optional fields without kind juggling)
    /// @{
    bool asBool(bool fallback = false) const
    {
        return isBool() ? bool_ : fallback;
    }

    double asNumber(double fallback = 0.0) const
    {
        return isNumber() ? num_ : fallback;
    }

    /**
     * The number's text read exactly through parseCount; @p fallback
     * for a fraction, exponent, sign, value past 2^64 - 1, a number
     * built without its text, or any other kind.
     */
    uint64_t asUnsigned(uint64_t fallback = 0) const;

    /** The string; empty for every other kind. */
    const std::string &asString() const
    {
        return isString() ? str_ : emptyText();
    }

    /**
     * A parsed number's token as written ("42", "2.9", "1e30"), so that
     * integer fields are read exactly through parseCount
     * (support/strings.hh) instead of through the double; empty for
     * every other kind and for a number built without its text.
     */
    const std::string &numberText() const
    {
        return isNumber() ? str_ : emptyText();
    }

    const std::vector<JsonValue> &elements() const { return arr_; }

    /** Object member by key, or a shared Null value when absent. */
    const JsonValue &get(const std::string &key) const;

    bool has(const std::string &key) const
    {
        return obj_.count(key) > 0;
    }
    /// @}

    /// @name Construction (parser + tests)
    /// @{
    static JsonValue makeNull() { return JsonValue(); }
    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v, std::string text = {});
    static JsonValue makeString(std::string v);
    static JsonValue makeArray(std::vector<JsonValue> v);
    static JsonValue makeObject(std::map<std::string, JsonValue> v);
    /// @}

  private:
    static const std::string &emptyText();

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_; ///< a String's value or a Number's token
    std::vector<JsonValue> arr_;
    std::map<std::string, JsonValue> obj_;
};

/**
 * Parse @p text as one JSON document.
 * @param error receives a human-readable message on failure.
 * @return the parsed value, or nullptr on malformed input (never
 *         throws: daemon request lines are untrusted).
 */
std::unique_ptr<JsonValue> parseJson(const std::string &text,
                                     std::string &error);

} // namespace msq

#endif // MSQ_SUPPORT_JSON_HH
