/**
 * @file
 * The repo's JSON format in both directions: a minimal value model and
 * recursive-descent parser (the msq-served NDJSON request protocol,
 * core/serve.hh), and the one streaming writer that emits every report,
 * response, metrics file and trace.
 *
 * Parser scope: full JSON syntax (objects, arrays, strings with
 * escapes, numbers, booleans, null) with two deliberate simplifications
 * — numbers are stored as double, beside their token so that integer
 * request fields are read exactly, and \uXXXX escapes outside the
 * Basic Multilingual Plane are decoded per surrogate half.
 *
 * Writer layout, one rule that follows from the data: everything is
 * inline, separated by ": " and ", ", except that an array element
 * which is itself an object or array starts its own line, indented two
 * spaces per open container. An NDJSON response therefore stays one
 * line, and a report's rows sit one per line. Integers (and Count)
 * print as exact decimals, every double through jsonNumber.
 */

#ifndef MSQ_SUPPORT_JSON_HH
#define MSQ_SUPPORT_JSON_HH

#include <concepts>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/count.hh"

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

/** Escape @p text for inclusion inside a JSON string literal. */
std::string jsonEscape(std::string_view text);

/**
 * Format a double for JSON: the shortest decimal form that round-trips;
 * NaN and +-inf, which JSON cannot spell, print as 0.
 */
std::string jsonNumber(double value);

/**
 * Streaming JSON writer onto an ostream. Callers open and close
 * containers and name members; the writer owns the punctuation,
 * escaping, number format and layout (see the file comment), so every
 * document it emits is well-formed by construction:
 *
 *   JsonWriter json(os);
 *   json.beginObject().member("id", 7, "ok", true).key("rows");
 *   json.beginArray();
 *   ...
 *   json.endArray().endObject();  // {"id": 7, "ok": true, "rows": [...]}
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    JsonWriter &beginObject() { return open(false); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open(true); }
    JsonWriter &endArray() { return close(']'); }

    /** The next member's name; its value follows. */
    JsonWriter &key(std::string_view name);

    JsonWriter &
    value(std::string_view text)
    {
        return token('"' + jsonEscape(text) + '"');
    }

    JsonWriter &value(double number) { return token(jsonNumber(number)); }
    JsonWriter &value(Count count) { return token(count.str()); }
    JsonWriter &null() { return token("null"); }

    /** An integer, or true/false for a bool. A string literal never
     * lands here: a pointer is not integral. */
    template <std::integral T>
    JsonWriter &
    value(T number)
    {
        if constexpr (std::same_as<T, bool>)
            return token(number ? "true" : "false");
        else
            return token(std::to_string(number));
    }

    /** key(@p name) then value(@p v), and the same for each further
     * (name, value) pair of @p more, in order. */
    template <class T, class... More>
    JsonWriter &
    member(std::string_view name, const T &v, const More &...more)
    {
        key(name).value(v);
        if constexpr (sizeof...(more) > 0)
            member(more...);
        return *this;
    }

  private:
    JsonWriter &open(bool array);
    JsonWriter &close(char bracket);

    /** Write @p text after the separator its position needs: ", "
     * between array elements, or a line break before an array element
     * that is a @p container. */
    JsonWriter &token(std::string_view text, bool container = false);

    struct Frame
    {
        bool array = false;
        bool empty = true;
        bool brokenLines = false; ///< an element started its own line
    };

    std::ostream &os_;
    std::vector<Frame> open_;
};

/**
 * Open @p path, let @p write emit one document onto it, and end the
 * file with a newline. @return false when the file cannot be opened or
 * when any byte fails to reach it: the stream is checked after the
 * final flush and close, so a full disk is an error, not a silently
 * truncated report.
 */
bool writeJsonFile(const std::string &path,
                   const std::function<void(std::ostream &)> &write);

} // namespace msq

#endif // MSQ_SUPPORT_JSON_HH
