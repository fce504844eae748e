// Minimal JSON support: a streaming writer and a strict parser.
//
// The writer renders the service layer's `--format=json` CLI output. The
// parser exists for `rwdom batch` JSONL scripts. Both are deliberately
// tiny: objects, arrays, strings, numbers, bools, null — RFC 8259
// essentials, nothing more (no comments, no trailing commas, no NaN/Inf).
//
// Writer usage:
//   JsonWriter json;
//   json.BeginObject();
//   json.Key("bench").String("parallel_scaling");
//   json.Key("series").BeginArray();
//   json.BeginObject().Key("threads").Int(4).EndObject();
//   json.EndArray().EndObject();
//   json.ToString();  // {"bench":"parallel_scaling","series":[{"threads":4}]}
#ifndef RWDOM_UTIL_JSON_H_
#define RWDOM_UTIL_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/status.h"
#include "util/strings.h"

namespace rwdom {

class JsonWriter {
 public:
  JsonWriter& BeginObject() {
    BeginValue();
    out_ += '{';
    stack_.push_back(State::kFirstInObject);
    return *this;
  }

  JsonWriter& EndObject() {
    RWDOM_CHECK(!stack_.empty() && (stack_.back() == State::kFirstInObject ||
                                    stack_.back() == State::kInObject))
        << "EndObject outside an object";
    stack_.pop_back();
    out_ += '}';
    return *this;
  }

  JsonWriter& BeginArray() {
    BeginValue();
    out_ += '[';
    stack_.push_back(State::kFirstInArray);
    return *this;
  }

  JsonWriter& EndArray() {
    RWDOM_CHECK(!stack_.empty() && (stack_.back() == State::kFirstInArray ||
                                    stack_.back() == State::kInArray))
        << "EndArray outside an array";
    stack_.pop_back();
    out_ += ']';
    return *this;
  }

  /// Starts an object member; must be followed by exactly one value.
  JsonWriter& Key(const std::string& name) {
    RWDOM_CHECK(!pending_key_) << "Key after Key without a value";
    RWDOM_CHECK(!stack_.empty() && (stack_.back() == State::kFirstInObject ||
                                    stack_.back() == State::kInObject))
        << "Key outside an object";
    if (stack_.back() == State::kInObject) out_ += ',';
    stack_.back() = State::kInObject;
    AppendEscaped(name);
    out_ += ':';
    pending_key_ = true;
    return *this;
  }

  JsonWriter& String(const std::string& value) {
    BeginValue();
    AppendEscaped(value);
    return *this;
  }

  JsonWriter& Int(int64_t value) {
    BeginValue();
    out_ += std::to_string(value);
    return *this;
  }

  /// %.9g keeps timings readable while preserving sub-microsecond detail.
  JsonWriter& Number(double value) {
    BeginValue();
    out_ += StrFormat("%.9g", value);
    return *this;
  }

  JsonWriter& Bool(bool value) {
    BeginValue();
    out_ += value ? "true" : "false";
    return *this;
  }

  /// Splices `json` — which must itself be one complete serialized JSON
  /// value — verbatim where a value is expected. For embedding already-
  /// rendered documents (e.g. proxied backend responses) without a
  /// parse/re-serialize round trip.
  JsonWriter& Raw(std::string_view json) {
    BeginValue();
    out_ += json;
    return *this;
  }

  /// Serialized document; every Begin* must have been matched.
  std::string ToString() const {
    RWDOM_CHECK(stack_.empty() && !pending_key_)
        << "unbalanced JSON document";
    return out_;
  }

 private:
  enum class State { kFirstInObject, kInObject, kFirstInArray, kInArray };

  // Emits the comma/placement bookkeeping owed before any new value.
  void BeginValue() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (stack_.empty()) {
      RWDOM_CHECK(out_.empty()) << "only one top-level JSON value allowed";
      return;
    }
    RWDOM_CHECK(stack_.back() == State::kFirstInArray ||
                stack_.back() == State::kInArray)
        << "object members need Key() first";
    if (stack_.back() == State::kInArray) out_ += ',';
    stack_.back() = State::kInArray;
  }

  void AppendEscaped(const std::string& text) {
    out_ += '"';
    for (char c : text) {
      switch (c) {
        case '"':
          out_ += "\\\"";
          break;
        case '\\':
          out_ += "\\\\";
          break;
        case '\n':
          out_ += "\\n";
          break;
        case '\t':
          out_ += "\\t";
          break;
        case '\r':
          out_ += "\\r";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            out_ += StrFormat("\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<State> stack_;
  bool pending_key_ = false;
};

/// An immutable parsed JSON value. Object members keep their source order
/// (so batch scripts execute flags deterministically in the order written).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() : type_(Type::kNull) {}
  static JsonValue MakeBool(bool value);
  static JsonValue MakeNumber(double value);
  static JsonValue MakeString(std::string value);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(std::vector<Member> members);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors die (RWDOM_CHECK) on type mismatch; check first.
  bool bool_value() const;
  double number_value() const;
  const std::string& string_value() const;
  const std::vector<JsonValue>& array() const;
  const std::vector<Member>& object() const;

  /// First member named `key`, or nullptr (object values only).
  const JsonValue* Find(const std::string& key) const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // Shared so JsonValue stays cheaply copyable; parsed values are
  // immutable, so the sharing is invisible.
  std::shared_ptr<const std::vector<JsonValue>> array_;
  std::shared_ptr<const std::vector<Member>> object_;
};

/// Parses `text` as exactly one JSON value (leading/trailing whitespace
/// allowed, trailing garbage is an error). Errors carry a byte offset.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace rwdom

#endif  // RWDOM_UTIL_JSON_H_
