//===- obs/JSONText.h - JSON text rendering helpers -------------*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The string escaping and number formatting every obs writer shares, so
/// stats snapshots, traces, event logs, time series and cost audits
/// render strings and `%.6g` numbers the same way.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_OBS_JSONTEXT_H
#define PACO_OBS_JSONTEXT_H

#include <string>
#include <string_view>

namespace paco {
namespace obs {

/// Appends \p Text as the body of a JSON string (no surrounding quotes):
/// quote, backslash, newline and tab get their short escapes, any other
/// byte below 0x20 becomes `\u00XX`, and every other byte (UTF-8
/// included) passes through.
void appendJSONEscaped(std::string &Out, std::string_view Text);

/// Appends \p V printed with `%.6g`, as a bare JSON number (callers pass
/// finite values only).
void appendJSONNumber(std::string &Out, double V);

} // namespace obs
} // namespace paco

#endif // PACO_OBS_JSONTEXT_H
