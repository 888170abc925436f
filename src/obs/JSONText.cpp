//===- obs/JSONText.cpp - JSON text rendering helpers ---------------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "obs/JSONText.h"

#include <cstdio>

void paco::obs::appendJSONEscaped(std::string &Out, std::string_view Text) {
  for (char C : Text) {
    switch (C) {
    case '"':  Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

void paco::obs::appendJSONNumber(std::string &Out, double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  Out += Buf;
}
