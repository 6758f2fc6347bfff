#include "support/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "support/strings.hh"

namespace msq {

uint64_t
JsonValue::asUnsigned(uint64_t fallback) const
{
    uint64_t value = 0;
    return parseCount(numberText(), value) ? value : fallback;
}

const JsonValue &
JsonValue::get(const std::string &key) const
{
    static const JsonValue nullValue;
    auto it = obj_.find(key);
    return it == obj_.end() ? nullValue : it->second;
}

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue out;
    out.kind_ = Kind::Bool;
    out.bool_ = v;
    return out;
}

const std::string &
JsonValue::emptyText()
{
    static const std::string empty;
    return empty;
}

JsonValue
JsonValue::makeNumber(double v, std::string text)
{
    JsonValue out;
    out.kind_ = Kind::Number;
    out.num_ = v;
    out.str_ = std::move(text);
    return out;
}

JsonValue
JsonValue::makeString(std::string v)
{
    JsonValue out;
    out.kind_ = Kind::String;
    out.str_ = std::move(v);
    return out;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> v)
{
    JsonValue out;
    out.kind_ = Kind::Array;
    out.arr_ = std::move(v);
    return out;
}

JsonValue
JsonValue::makeObject(std::map<std::string, JsonValue> v)
{
    JsonValue out;
    out.kind_ = Kind::Object;
    out.obj_ = std::move(v);
    return out;
}

namespace {

struct Parser
{
    explicit Parser(const std::string &text) : text(text) {}

    const std::string &text;
    size_t pos = 0;
    std::string error;
    unsigned depth = 0;

    static constexpr unsigned maxDepth = 64; ///< stack-overflow guard

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = csprintf("JSON parse error at offset %zu: %s", pos,
                             msg.c_str());
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos >= text.size() || text[pos] != c)
            return fail(csprintf("expected '%c'", c));
        ++pos;
        return true;
    }

    bool
    literal(const char *word)
    {
        size_t len = std::char_traits<char>::length(word);
        if (text.compare(pos, len, word) != 0)
            return fail(csprintf("invalid literal, expected \"%s\"",
                                 word));
        pos += len;
        return true;
    }

    bool
    parseHex4(uint32_t &out)
    {
        if (pos + 4 > text.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text[pos++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<uint32_t>(c - 'A' + 10);
            else
                return fail("invalid \\u escape digit");
        }
        return true;
    }

    static void
    appendUtf8(std::string &out, uint32_t cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (true) {
            if (pos >= text.size())
                return fail("unterminated string");
            char c = text[pos++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= text.size())
                return fail("truncated escape");
            char esc = text[pos++];
            switch (esc) {
              case '"':  out.push_back('"');  break;
              case '\\': out.push_back('\\'); break;
              case '/':  out.push_back('/');  break;
              case 'b':  out.push_back('\b'); break;
              case 'f':  out.push_back('\f'); break;
              case 'n':  out.push_back('\n'); break;
              case 'r':  out.push_back('\r'); break;
              case 't':  out.push_back('\t'); break;
              case 'u': {
                  uint32_t cp = 0;
                  if (!parseHex4(cp))
                      return false;
                  appendUtf8(out, cp);
                  break;
              }
              default:
                return fail("invalid escape character");
            }
        }
    }

    bool
    parseNumber(JsonValue &out)
    {
        size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        std::string token = text.substr(start, pos - start);
        char *end = nullptr;
        double value = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || *end != '\0')
            return fail("invalid number");
        out = JsonValue::makeNumber(value, std::move(token));
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (++depth > maxDepth)
            return fail("nesting too deep");
        skipSpace();
        if (pos >= text.size()) {
            --depth;
            return fail("unexpected end of input");
        }
        bool ok = false;
        switch (text[pos]) {
          case '{': {
              ++pos;
              std::map<std::string, JsonValue> members;
              skipSpace();
              if (pos < text.size() && text[pos] == '}') {
                  ++pos;
                  ok = true;
              } else {
                  while (true) {
                      std::string key;
                      skipSpace();
                      if (!parseString(key))
                          break;
                      if (!consume(':'))
                          break;
                      JsonValue value;
                      if (!parseValue(value))
                          break;
                      members[std::move(key)] = std::move(value);
                      skipSpace();
                      if (pos < text.size() && text[pos] == ',') {
                          ++pos;
                          continue;
                      }
                      ok = consume('}');
                      break;
                  }
              }
              if (ok)
                  out = JsonValue::makeObject(std::move(members));
              break;
          }
          case '[': {
              ++pos;
              std::vector<JsonValue> items;
              skipSpace();
              if (pos < text.size() && text[pos] == ']') {
                  ++pos;
                  ok = true;
              } else {
                  while (true) {
                      JsonValue value;
                      if (!parseValue(value))
                          break;
                      items.push_back(std::move(value));
                      skipSpace();
                      if (pos < text.size() && text[pos] == ',') {
                          ++pos;
                          continue;
                      }
                      ok = consume(']');
                      break;
                  }
              }
              if (ok)
                  out = JsonValue::makeArray(std::move(items));
              break;
          }
          case '"': {
              std::string s;
              ok = parseString(s);
              if (ok)
                  out = JsonValue::makeString(std::move(s));
              break;
          }
          case 't':
            ok = literal("true");
            if (ok)
                out = JsonValue::makeBool(true);
            break;
          case 'f':
            ok = literal("false");
            if (ok)
                out = JsonValue::makeBool(false);
            break;
          case 'n':
            ok = literal("null");
            if (ok)
                out = JsonValue::makeNull();
            break;
          default:
            ok = parseNumber(out);
            break;
        }
        --depth;
        return ok;
    }
};

} // anonymous namespace

std::unique_ptr<JsonValue>
parseJson(const std::string &text, std::string &error)
{
    Parser parser(text);
    auto value = std::make_unique<JsonValue>();
    if (!parser.parseValue(*value)) {
        error = parser.error.empty() ? "JSON parse error"
                                     : parser.error;
        return nullptr;
    }
    parser.skipSpace();
    if (parser.pos != text.size()) {
        error = csprintf("JSON parse error: trailing content at "
                         "offset %zu", parser.pos);
        return nullptr;
    }
    error.clear();
    return value;
}

// --- writing ------------------------------------------------------------

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    // The fewest significant digits that round-trip (stable across runs
    // for identical values, unlike a fixed high precision with its noise
    // digits), spelled as "%.*g" spells them. The shortest scientific
    // form counts the digits; the general form at that count prints
    // them, unless the value is a power of two whose round-trip interval
    // is lopsided, and the nearest decimal of that length falls outside
    // it: then it takes more digits.
    char buf[64];
    char *end = std::to_chars(buf, buf + sizeof(buf), value,
                              std::chars_format::scientific)
                    .ptr;
    int digits = 0;
    for (const char *c = buf; c != end && *c != 'e'; ++c)
        digits += std::isdigit(static_cast<unsigned char>(*c)) != 0;
    for (;; ++digits) {
        end = std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::general, digits)
                  .ptr;
        double back = 0.0;
        std::from_chars(buf, end, back);
        if (back == value || digits == 17) // 17 digits always round-trip
            break;
    }
    return {buf, end};
}

JsonWriter &
JsonWriter::token(std::string_view text, bool container)
{
    if (!open_.empty() && open_.back().array) {
        Frame &array = open_.back();
        if (container) {
            os_ << (array.empty ? "\n" : ",\n")
                << std::string(2 * open_.size(), ' ');
            array.brokenLines = true;
        } else if (!array.empty) {
            os_ << ", ";
        }
        array.empty = false;
    }
    os_ << text;
    return *this;
}

JsonWriter &
JsonWriter::open(bool array)
{
    token(array ? "[" : "{", true);
    open_.push_back({.array = array});
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    const bool broken = open_.back().brokenLines;
    open_.pop_back();
    if (broken)
        os_ << '\n' << std::string(2 * open_.size(), ' ');
    os_ << bracket;
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    os_ << (open_.back().empty ? "\"" : ", \"") << jsonEscape(name)
        << "\": ";
    open_.back().empty = false;
    return *this;
}

bool
writeJsonFile(const std::string &path,
              const std::function<void(std::ostream &)> &write)
{
    std::ofstream out(path);
    if (!out)
        return false;
    write(out);
    out << '\n';
    out.close();
    return !out.fail();
}

} // namespace msq
