//===- support/JSON.h - Minimal JSON parser ---------------------*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON parser for the telemetry tooling
/// (`obs_diff`): the repo's own artifacts -- stats snapshots,
/// BENCH_*.json, event logs -- are machine-written, so the parser favors
/// exact error positions over streaming performance.
/// Objects preserve member order (the artifacts are rendered in
/// registration order, and diff reports should follow it).
///
//===----------------------------------------------------------------------===//

#ifndef PACO_SUPPORT_JSON_H
#define PACO_SUPPORT_JSON_H

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace paco {
namespace json {

class Value;

using Array = std::vector<Value>;
using Member = std::pair<std::string, Value>;
using Object = std::vector<Member>;

/// One JSON value. Numbers are kept as double plus the raw source text
/// (so 64-bit counters survive round-trips unchanged when re-emitted).
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() : K(Kind::Null) {}
  explicit Value(bool B) : K(Kind::Bool), BoolV(B) {}
  explicit Value(double N, std::string Raw = "")
      : K(Kind::Number), NumberV(N), StringV(std::move(Raw)) {}
  explicit Value(std::string S) : K(Kind::String), StringV(std::move(S)) {}
  explicit Value(Array A) : K(Kind::Array), ArrayV(std::move(A)) {}
  explicit Value(Object O) : K(Kind::Object), ObjectV(std::move(O)) {}

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool boolean() const { return BoolV; }
  double number() const { return NumberV; }
  /// Raw source spelling for numbers ("" when synthesized), string
  /// contents for strings.
  const std::string &text() const { return StringV; }
  const Array &array() const { return ArrayV; }
  const Object &object() const { return ObjectV; }

  /// Object member lookup; null when missing or not an object.
  const Value *find(const std::string &Key) const {
    if (K != Kind::Object)
      return nullptr;
    for (const Member &M : ObjectV)
      if (M.first == Key)
        return &M.second;
    return nullptr;
  }

private:
  Kind K;
  bool BoolV = false;
  double NumberV = 0;
  std::string StringV;
  Array ArrayV;
  Object ObjectV;
};

/// Parse result: either a value or a one-line error with byte offset.
struct ParseResult {
  Value V;
  bool Ok = false;
  std::string Error; ///< `offset N: message` when !Ok.
};

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage is an error).
ParseResult parse(const std::string &Text);

} // namespace json
} // namespace paco

#endif // PACO_SUPPORT_JSON_H
