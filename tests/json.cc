#include "json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pubs::json
{

const Value *
Value::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &member : members_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

const Value *
Value::find(const std::string &key, const std::string &nested) const
{
    const Value *inner = find(key);
    return inner ? inner->find(nested) : nullptr;
}

double
Value::numberOr(const std::string &key, double fallback) const
{
    const Value *v = find(key);
    return v && v->isNumber() ? v->number() : fallback;
}

std::string
Value::stringOr(const std::string &key, const std::string &fallback) const
{
    const Value *v = find(key);
    return v && v->isString() ? v->str() : fallback;
}

Value
Value::makeBool(bool b)
{
    Value v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

Value
Value::makeNumber(double n)
{
    Value v;
    v.kind_ = Kind::Number;
    v.number_ = n;
    return v;
}

Value
Value::makeString(std::string s)
{
    Value v;
    v.kind_ = Kind::String;
    v.string_ = std::move(s);
    return v;
}

Value
Value::makeArray(std::vector<Value> items)
{
    Value v;
    v.kind_ = Kind::Array;
    v.array_ = std::move(items);
    return v;
}

Value
Value::makeObject(std::vector<std::pair<std::string, Value>> m)
{
    Value v;
    v.kind_ = Kind::Object;
    v.members_ = std::move(m);
    return v;
}

namespace
{

/**
 * Recursive-descent parser over the raw bytes. Tracks line/column for
 * diagnostics and enforces a nesting-depth cap so a hostile or broken
 * document cannot overflow the stack.
 */
class Parser
{
  public:
    Parser(const std::string &text, std::string &error)
        : text_(text), error_(error)
    {
    }

    bool
    run(Value &out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after the document");
        return true;
    }

  private:
    static constexpr int maxDepth = 128;

    const std::string &text_;
    std::string &error_;
    size_t pos_ = 0;
    size_t line_ = 1;
    size_t lineStart_ = 0;

    bool
    fail(const std::string &message)
    {
        char prefix[48];
        std::snprintf(prefix, sizeof(prefix), "%zu:%zu: ", line_,
                      pos_ - lineStart_ + 1);
        error_ = prefix + message;
        return false;
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void
    advance()
    {
        if (text_[pos_] == '\n') {
            ++line_;
            lineStart_ = pos_ + 1;
        }
        ++pos_;
    }

    void
    skipWs()
    {
        while (!atEnd()) {
            char c = peek();
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            advance();
        }
    }

    bool
    expect(char c)
    {
        if (atEnd() || peek() != c) {
            return fail(std::string("expected '") + c + "'" +
                        (atEnd() ? " but hit end of input" : ""));
        }
        advance();
        return true;
    }

    bool
    literal(const char *word, size_t len)
    {
        if (text_.compare(pos_, len, word) != 0)
            return fail(std::string("invalid literal (expected ") + word +
                        ")");
        for (size_t i = 0; i < len; ++i)
            advance();
        return true;
    }

    bool
    parseValue(Value &out, int depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        if (atEnd())
            return fail("unexpected end of input (expected a value)");
        switch (peek()) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out = Value::makeString(std::move(s));
            return true;
          }
          case 't':
            if (!literal("true", 4))
                return false;
            out = Value::makeBool(true);
            return true;
          case 'f':
            if (!literal("false", 5))
                return false;
            out = Value::makeBool(false);
            return true;
          case 'n':
            if (!literal("null", 4))
                return false;
            out = Value::makeNull();
            return true;
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(Value &out, int depth)
    {
        advance(); // '{'
        std::vector<std::pair<std::string, Value>> members;
        skipWs();
        if (!atEnd() && peek() == '}') {
            advance();
            out = Value::makeObject(std::move(members));
            return true;
        }
        while (true) {
            skipWs();
            if (atEnd() || peek() != '"')
                return fail("expected a string object key");
            std::string key;
            if (!parseString(key))
                return false;
            for (const auto &member : members) {
                if (member.first == key)
                    return fail("duplicate object key \"" + key + "\"");
            }
            skipWs();
            if (!expect(':'))
                return false;
            skipWs();
            Value value;
            if (!parseValue(value, depth + 1))
                return false;
            members.emplace_back(std::move(key), std::move(value));
            skipWs();
            if (atEnd())
                return fail("unterminated object");
            if (peek() == ',') {
                advance();
                continue;
            }
            if (peek() == '}') {
                advance();
                out = Value::makeObject(std::move(members));
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(Value &out, int depth)
    {
        advance(); // '['
        std::vector<Value> items;
        skipWs();
        if (!atEnd() && peek() == ']') {
            advance();
            out = Value::makeArray(std::move(items));
            return true;
        }
        while (true) {
            skipWs();
            Value value;
            if (!parseValue(value, depth + 1))
                return false;
            items.push_back(std::move(value));
            skipWs();
            if (atEnd())
                return fail("unterminated array");
            if (peek() == ',') {
                advance();
                continue;
            }
            if (peek() == ']') {
                advance();
                out = Value::makeArray(std::move(items));
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    static int
    hexDigit(char c)
    {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        if (c >= 'A' && c <= 'F')
            return c - 'A' + 10;
        return -1;
    }

    bool
    parseHex4(unsigned &out)
    {
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            if (atEnd())
                return fail("unterminated \\u escape");
            int digit = hexDigit(peek());
            if (digit < 0)
                return fail("invalid hex digit in \\u escape");
            value = value << 4 | (unsigned)digit;
            advance();
        }
        out = value;
        return true;
    }

    void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += (char)cp;
        } else if (cp < 0x800) {
            out += (char)(0xc0 | cp >> 6);
            out += (char)(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += (char)(0xe0 | cp >> 12);
            out += (char)(0x80 | (cp >> 6 & 0x3f));
            out += (char)(0x80 | (cp & 0x3f));
        } else {
            out += (char)(0xf0 | cp >> 18);
            out += (char)(0x80 | (cp >> 12 & 0x3f));
            out += (char)(0x80 | (cp >> 6 & 0x3f));
            out += (char)(0x80 | (cp & 0x3f));
        }
    }

    /** Validate one UTF-8 sequence starting at the current byte. */
    bool
    consumeUtf8(std::string &out)
    {
        unsigned char lead = (unsigned char)peek();
        size_t extra;
        unsigned cp;
        if (lead < 0x80) {
            extra = 0;
            cp = lead;
        } else if ((lead & 0xe0) == 0xc0) {
            extra = 1;
            cp = lead & 0x1f;
        } else if ((lead & 0xf0) == 0xe0) {
            extra = 2;
            cp = lead & 0x0f;
        } else if ((lead & 0xf8) == 0xf0) {
            extra = 3;
            cp = lead & 0x07;
        } else {
            return fail("invalid UTF-8 byte in string");
        }
        out += (char)lead;
        advance();
        for (size_t i = 0; i < extra; ++i) {
            if (atEnd() || ((unsigned char)peek() & 0xc0) != 0x80)
                return fail("truncated UTF-8 sequence in string");
            cp = cp << 6 | ((unsigned char)peek() & 0x3f);
            out += peek();
            advance();
        }
        // Reject overlong encodings, surrogates, and out-of-range points.
        static constexpr unsigned minByLen[4] = {0x0, 0x80, 0x800, 0x10000};
        if (cp < minByLen[extra])
            return fail("overlong UTF-8 encoding in string");
        if (cp >= 0xd800 && cp <= 0xdfff)
            return fail("raw surrogate code point in string");
        if (cp > 0x10ffff)
            return fail("UTF-8 code point beyond U+10FFFF");
        return true;
    }

    bool
    parseString(std::string &out)
    {
        advance(); // opening quote
        out.clear();
        while (true) {
            if (atEnd())
                return fail("unterminated string");
            char c = peek();
            if (c == '"') {
                advance();
                return true;
            }
            if ((unsigned char)c < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                if (!consumeUtf8(out))
                    return false;
                continue;
            }
            advance(); // backslash
            if (atEnd())
                return fail("unterminated escape");
            char esc = peek();
            advance();
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                unsigned cp;
                if (!parseHex4(cp))
                    return false;
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // High surrogate: a low surrogate must follow.
                    if (atEnd() || peek() != '\\')
                        return fail("unpaired high surrogate");
                    advance();
                    if (atEnd() || peek() != 'u')
                        return fail("unpaired high surrogate");
                    advance();
                    unsigned low;
                    if (!parseHex4(low))
                        return false;
                    if (low < 0xdc00 || low > 0xdfff)
                        return fail("invalid low surrogate");
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                    return fail("unpaired low surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("invalid escape character");
            }
        }
    }

    bool
    parseNumber(Value &out)
    {
        size_t start = pos_;
        if (!atEnd() && peek() == '-')
            advance();
        // Integer part: one digit, or a nonzero digit followed by more.
        if (atEnd() || peek() < '0' || peek() > '9')
            return fail("invalid number");
        if (peek() == '0') {
            advance();
            if (!atEnd() && peek() >= '0' && peek() <= '9')
                return fail("leading zero in number");
        } else {
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                advance();
        }
        if (!atEnd() && peek() == '.') {
            advance();
            if (atEnd() || peek() < '0' || peek() > '9')
                return fail("digit required after decimal point");
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                advance();
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            advance();
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                advance();
            if (atEnd() || peek() < '0' || peek() > '9')
                return fail("digit required in exponent");
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                advance();
        }
        std::string token = text_.substr(start, pos_ - start);
        double value = std::strtod(token.c_str(), nullptr);
        if (!std::isfinite(value))
            return fail("number out of double range");
        out = Value::makeNumber(value);
        return true;
    }
};

} // namespace

bool
parse(const std::string &text, Value &out, std::string &error)
{
    error.clear();
    Parser parser(text, error);
    return parser.run(out);
}

bool
validate(const std::string &text, std::string &error)
{
    Value ignored;
    return parse(text, ignored, error);
}

} // namespace pubs::json
