/// \file json.hpp
/// A minimal recursive-descent JSON parser for the library's own output
/// formats (metrics registry dumps, explanation reports, BENCH_*.json).
/// Header-only and dependency-free; not a general-purpose JSON library —
/// no streaming, no \uXXXX surrogate pairs beyond the BMP, numbers parsed
/// as double. Throws etcs::InputError on malformed input with a byte
/// offset, which is what the test suites assert against.
#pragma once

#include <cctype>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace etcs::util {

struct JsonValue {
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;                              ///< Array
    std::vector<std::pair<std::string, JsonValue>> members;    ///< Object, in input order

    [[nodiscard]] bool isObject() const noexcept { return type == Type::Object; }
    [[nodiscard]] bool isArray() const noexcept { return type == Type::Array; }
    [[nodiscard]] bool isNumber() const noexcept { return type == Type::Number; }
    [[nodiscard]] bool isString() const noexcept { return type == Type::String; }

    /// Member lookup on an object; nullptr when absent or not an object.
    [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept {
        if (type != Type::Object) {
            return nullptr;
        }
        for (const auto& [name, value] : members) {
            if (name == key) {
                return &value;
            }
        }
        return nullptr;
    }
};

namespace detail {

class JsonParser {
public:
    /// Deepest array/object nesting accepted: far above the few levels the
    /// library writes, far below what would exhaust the stack.
    static constexpr int kMaxDepth = 256;

    explicit JsonParser(std::string_view text) : text_(text) {}

    JsonValue parse() {
        JsonValue value = parseValue();
        skipWhitespace();
        require(pos_ == text_.size(), "trailing characters after JSON value");
        return value;
    }

private:
    void require(bool condition, const char* message) const {
        if (!condition) {
            throw InputError("JSON parse error at offset " + std::to_string(pos_) + ": " +
                             message);
        }
    }

    void skipWhitespace() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
            ++pos_;
        }
    }

    [[nodiscard]] char peek() {
        skipWhitespace();
        require(pos_ < text_.size(), "unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        require(peek() == c, "unexpected character");
        ++pos_;
    }

    bool consumeLiteral(std::string_view literal) {
        if (text_.substr(pos_, literal.size()) == literal) {
            pos_ += literal.size();
            return true;
        }
        return false;
    }

    JsonValue parseValue() {
        switch (peek()) {
            case '{':
            case '[': {
                require(depth_ < kMaxDepth, "nesting too deep");
                ++depth_;
                JsonValue v = text_[pos_] == '{' ? parseObject() : parseArray();
                --depth_;
                return v;
            }
            case '"': {
                JsonValue v;
                v.type = JsonValue::Type::String;
                v.text = parseString();
                return v;
            }
            case 't':
            case 'f': {
                JsonValue v;
                v.type = JsonValue::Type::Bool;
                v.boolean = consumeLiteral("true");
                require(v.boolean || consumeLiteral("false"), "invalid literal");
                return v;
            }
            case 'n': {
                require(consumeLiteral("null"), "invalid literal");
                return JsonValue{};
            }
            default: return parseNumber();
        }
    }

    JsonValue parseObject() {
        expect('{');
        JsonValue v;
        v.type = JsonValue::Type::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            require(peek() == '"', "object key must be a string");
            std::string key = parseString();
            expect(':');
            v.members.emplace_back(std::move(key), parseValue());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue parseArray() {
        expect('[');
        JsonValue v;
        v.type = JsonValue::Type::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.items.push_back(parseValue());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string parseString() {
        expect('"');
        std::string out;
        while (true) {
            require(pos_ < text_.size(), "unterminated string");
            const char c = text_[pos_++];
            if (c == '"') {
                return out;
            }
            if (c != '\\') {
                require(static_cast<unsigned char>(c) >= 0x20, "raw control character");
                out.push_back(c);
                continue;
            }
            require(pos_ < text_.size(), "unterminated escape");
            const char escape = text_[pos_++];
            switch (escape) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    require(pos_ + 4 <= text_.size(), "truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4U;
                        if (h >= '0' && h <= '9') {
                            code |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            require(false, "invalid \\u escape digit");
                        }
                    }
                    // UTF-8 encode (BMP only; lone surrogates pass through).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
                        out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
                    } else {
                        out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
                        out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
                        out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
                    }
                    break;
                }
                default: require(false, "unknown escape character");
            }
        }
    }

    JsonValue parseNumber() {
        skipWhitespace();
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            ++pos_;
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-')) {
            ++pos_;
        }
        require(pos_ > start, "expected a value");
        const std::string token(text_.substr(start, pos_ - start));
        char* end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        require(end != nullptr && *end == '\0' && end != token.c_str(), "invalid number");
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.number = value;
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;  ///< arrays/objects open at pos_
};

}  // namespace detail

/// Parse one JSON document. Throws etcs::InputError on malformed input.
[[nodiscard]] inline JsonValue parseJson(std::string_view text) {
    return detail::JsonParser(text).parse();
}

}  // namespace etcs::util
