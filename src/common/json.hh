/**
 * @file
 * A strict RFC 8259 JSON parser and validator.
 *
 * Every JSON document this repo emits (stats registry exports, sweep
 * statsJson, progress.json, Chrome trace events, the dashboard data
 * block) is consumed by tools that hard-fail on invalid JSON —
 * Perfetto, browsers, python json.load, stats_diff. This parser is the
 * in-repo referee: tests strict-parse every emitted document through
 * it, and stats_diff and the dashboard read their inputs with it
 * instead of ad-hoc scanning.
 *
 * Strictness: exactly one top-level value, no trailing input, no
 * comments, no trailing commas, no NaN/Infinity literals, strings must
 * be valid UTF-8 with control characters escaped, numbers must match
 * the RFC grammar. Object member order is preserved; duplicate keys are
 * rejected (the RFC allows them, but every document we emit is
 * duplicate-free and a duplicate always indicates an emitter bug).
 */

#ifndef PUBS_COMMON_JSON_HH
#define PUBS_COMMON_JSON_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pubs::json
{

/** A parsed JSON value; a small ordered DOM, not a streaming API. */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool boolean() const { return bool_; }
    double number() const { return number_; }
    const std::string &str() const { return string_; }
    const std::vector<Value> &array() const { return array_; }

    /** Object members in document order. */
    const std::vector<std::pair<std::string, Value>> &members() const
        { return members_; }

    /** Object member by key, or nullptr. */
    const Value *find(const std::string &key) const;

    /** Nested lookup: find("a")->find("b") without the null checks. */
    const Value *find(const std::string &key,
                      const std::string &nested) const;

    /** Number at @p key or @p fallback when absent / not a number. */
    double numberOr(const std::string &key, double fallback) const;

    /** String at @p key or @p fallback when absent / not a string. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    static Value makeNull() { return Value(); }
    static Value makeBool(bool b);
    static Value makeNumber(double v);
    static Value makeString(std::string s);
    static Value makeArray(std::vector<Value> items);
    static Value makeObject(std::vector<std::pair<std::string, Value>> m);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> array_;
    std::vector<std::pair<std::string, Value>> members_;
};

/**
 * Parse @p text as one strict RFC 8259 document into @p out.
 * @return true on success; false with @p error set to a
 * "line:column: message" diagnostic on the first violation.
 */
bool parse(const std::string &text, Value &out, std::string &error);

/** Validate without keeping the DOM. */
bool validate(const std::string &text, std::string &error);

/**
 * Parse the file at @p path. @return true on success; false with
 * @p error set (including for an unreadable file).
 */
bool parseFile(const std::string &path, Value &out, std::string &error);

} // namespace pubs::json

#endif // PUBS_COMMON_JSON_HH
