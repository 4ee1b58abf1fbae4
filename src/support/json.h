/**
 * @file
 * The one JSON value type: every JSON document the project reads or
 * writes — the serve protocol (serve/protocol.h), `pibe check --json`,
 * the surface and decode-stats reports, scalebench and the bench
 * artifacts — is built as a `Json` and written with dump().
 *
 * The repo is dependency-free, so this is a small self-contained
 * implementation: null/bool/number/string/array/object, a
 * recursive-descent parser, and a canonical dumper (one line, object
 * keys sorted, strings escaped).
 *
 * Numbers keep an integer flag: values parsed or constructed from
 * integers round-trip as integers (no exponent, no fraction), which
 * keeps counters and ids exact. Doubles are emitted as the shortest
 * text that parses back to the same bits (std::to_chars), so 0.1
 * prints as `0.1` and a measurement survives a protocol round trip
 * bit-exactly. JSON has no NaN or infinity; dump() writes them as
 * `null`.
 */
#ifndef PIBE_SUPPORT_JSON_H_
#define PIBE_SUPPORT_JSON_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pibe {

/** One JSON value (immutable type, mutable contents). */
class Json
{
  public:
    enum class Type {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject
    };

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool v) : type_(Type::kBool), bool_(v) {}
    Json(int v) : Json(static_cast<int64_t>(v)) {}
    Json(unsigned v) : Json(static_cast<int64_t>(v)) {}
    Json(int64_t v)
        : type_(Type::kNumber), num_(static_cast<double>(v)), int_(v),
          is_int_(true)
    {
    }
    Json(uint64_t v) : Json(static_cast<int64_t>(v)) {}
    Json(double v) : type_(Type::kNumber), num_(v) {}
    Json(const char* v) : type_(Type::kString), str_(v) {}
    Json(std::string v) : type_(Type::kString), str_(std::move(v)) {}

    static Json
    array()
    {
        Json j;
        j.type_ = Type::kArray;
        return j;
    }

    static Json
    object()
    {
        Json j;
        j.type_ = Type::kObject;
        return j;
    }

    /** Parse `text`; std::nullopt on any syntax error or trailing
     *  garbage (a malformed request must not kill the daemon). */
    static std::optional<Json> parse(std::string_view text);

    /** Canonical single-line serialization (object keys sorted). */
    std::string dump() const;

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::kNull; }
    bool isBool() const { return type_ == Type::kBool; }
    bool isNumber() const { return type_ == Type::kNumber; }
    bool isString() const { return type_ == Type::kString; }
    bool isArray() const { return type_ == Type::kArray; }
    bool isObject() const { return type_ == Type::kObject; }

    bool asBool(bool fallback = false) const;
    double asDouble(double fallback = 0) const;
    int64_t asInt(int64_t fallback = 0) const;
    const std::string& asString() const; // "" unless kString

    // Object access. operator[] on a const object returns a shared
    // null for missing keys, so `req["params"]["x"].asInt(7)` is safe
    // on any input.
    const Json& operator[](const std::string& key) const;
    bool has(const std::string& key) const;
    Json& set(const std::string& key, Json value); // makes an object
    const std::map<std::string, Json>& items() const { return obj_; }

    // Array access.
    Json& push(Json value); // makes an array
    size_t size() const;
    const Json& at(size_t i) const; // shared null if out of range
    const std::vector<Json>& elements() const { return arr_; }

  private:
    static const Json& nullValue();
    void dumpTo(std::string& out) const;

    Type type_ = Type::kNull;
    bool bool_ = false;
    double num_ = 0;
    int64_t int_ = 0;
    bool is_int_ = false;
    std::string str_;
    std::vector<Json> arr_;
    std::map<std::string, Json> obj_;
};

} // namespace pibe

#endif // PIBE_SUPPORT_JSON_H_
