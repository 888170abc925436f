//===- obs/EventLog.cpp - Structured JSONL event log ----------------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "obs/EventLog.h"

#include "obs/JSONText.h"

using namespace paco;
using namespace paco::obs;

const char *paco::obs::logLevelName(LogLevel L) {
  switch (L) {
  case LogLevel::Debug:
    return "debug";
  case LogLevel::Info:
    return "info";
  case LogLevel::Warn:
    return "warn";
  case LogLevel::Error:
    return "error";
  }
  return "info";
}

namespace {

void appendKey(std::string &Out, const char *Key) {
  Out += ", \"";
  appendJSONEscaped(Out, Key);
  Out += "\": ";
}

} // namespace

EventLog::EventBuilder &EventLog::EventBuilder::field(const char *Key,
                                                      const std::string &V) {
  if (!Log)
    return *this;
  appendKey(Line, Key);
  Line += "\"";
  appendJSONEscaped(Line, V);
  Line += "\"";
  return *this;
}

EventLog::EventBuilder &EventLog::EventBuilder::field(const char *Key,
                                                      const char *V) {
  if (!Log)
    return *this;
  appendKey(Line, Key);
  Line += "\"";
  appendJSONEscaped(Line, V);
  Line += "\"";
  return *this;
}

EventLog::EventBuilder &EventLog::EventBuilder::field(const char *Key,
                                                      uint64_t V) {
  if (!Log)
    return *this;
  appendKey(Line, Key);
  Line += std::to_string(V);
  return *this;
}

EventLog::EventBuilder &EventLog::EventBuilder::field(const char *Key,
                                                      int64_t V) {
  if (!Log)
    return *this;
  appendKey(Line, Key);
  Line += std::to_string(V);
  return *this;
}

EventLog::EventBuilder &EventLog::EventBuilder::field(const char *Key,
                                                      double V) {
  if (!Log)
    return *this;
  appendKey(Line, Key);
  appendJSONNumber(Line, V);
  return *this;
}

EventLog::EventBuilder &EventLog::EventBuilder::field(const char *Key,
                                                      bool V) {
  if (!Log)
    return *this;
  appendKey(Line, Key);
  Line += V ? "true" : "false";
  return *this;
}

EventLog::EventBuilder EventLog::event(LogLevel L, const char *Type) {
  if (L < MinLevel)
    return EventBuilder(nullptr, std::string());
  // The `seq` value is patched in at commit time (committed events are
  // numbered densely even when a builder for a dropped level was created
  // in between); the placeholder keeps field order stable.
  std::string Line = "{\"run\": \"";
  appendJSONEscaped(Line, RunId);
  Line += "\", \"seq\": @, \"level\": \"";
  Line += logLevelName(L);
  Line += "\", \"type\": \"";
  appendJSONEscaped(Line, Type);
  Line += "\"";
  return EventBuilder(this, std::move(Line));
}

void EventLog::commit(std::string Line) {
  // Match the full placeholder, not a bare '@' (the run id may contain
  // one); the escaped run id cannot contain an unescaped '"'.
  static const char Placeholder[] = "\"seq\": @";
  size_t At = Line.find(Placeholder);
  if (At != std::string::npos)
    Line.replace(At + sizeof(Placeholder) - 2, 1, std::to_string(Seq));
  ++Seq;
  Line += "}";
  Lines.push_back(std::move(Line));
}

std::string EventLog::toJSONL() const {
  std::string Out;
  for (const std::string &L : Lines) {
    Out += L;
    Out += "\n";
  }
  return Out;
}
