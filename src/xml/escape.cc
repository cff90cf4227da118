#include "xml/escape.h"

namespace csxa::xml {

std::string Escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  AppendEscaped(raw, &out);
  return out;
}

void AppendEscaped(std::string_view raw, std::string* outp) {
  std::string& out = *outp;
  // Each run between special characters goes in with one append.
  size_t run = 0;
  for (size_t i = 0; i < raw.size(); ++i) {
    const char* entity;
    switch (raw[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '"':
        entity = "&quot;";
        break;
      case '\'':
        entity = "&apos;";
        break;
      default:
        continue;
    }
    out.append(raw.data() + run, i - run);
    out += entity;
    run = i + 1;
  }
  out.append(raw.data() + run, raw.size() - run);
}

Result<std::string> Unescape(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  CSXA_RETURN_IF_ERROR(AppendUnescaped(escaped, &out));
  return out;
}

Status AppendUnescaped(std::string_view escaped, std::string* outp) {
  std::string& out = *outp;
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '&') {
      out.push_back(escaped[i]);
      continue;
    }
    size_t semi = escaped.find(';', i + 1);
    if (semi == std::string_view::npos) {
      return csxa::Status::ParseError("unterminated entity reference");
    }
    std::string_view ent = escaped.substr(i + 1, semi - i - 1);
    if (ent == "amp") {
      out.push_back('&');
    } else if (ent == "lt") {
      out.push_back('<');
    } else if (ent == "gt") {
      out.push_back('>');
    } else if (ent == "quot") {
      out.push_back('"');
    } else if (ent == "apos") {
      out.push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      int base = 10;
      size_t start = 1;
      if (ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X')) {
        base = 16;
        start = 2;
      }
      if (start >= ent.size()) {
        return csxa::Status::ParseError("empty character reference");
      }
      unsigned long code = 0;
      for (size_t k = start; k < ent.size(); ++k) {
        char c = ent[k];
        int digit;
        if (c >= '0' && c <= '9') {
          digit = c - '0';
        } else if (base == 16 && c >= 'a' && c <= 'f') {
          digit = c - 'a' + 10;
        } else if (base == 16 && c >= 'A' && c <= 'F') {
          digit = c - 'A' + 10;
        } else {
          return csxa::Status::ParseError("bad character reference digit");
        }
        code = code * base + static_cast<unsigned long>(digit);
        if (code > 0x10FFFF) {
          return csxa::Status::ParseError("character reference out of range");
        }
      }
      // Encode as UTF-8.
      if (code < 0x80) {
        out.push_back(static_cast<char>(code));
      } else if (code < 0x800) {
        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else if (code < 0x10000) {
        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else {
        out.push_back(static_cast<char>(0xF0 | (code >> 18)));
        out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      }
    } else {
      return csxa::Status::ParseError("unknown entity: &" + std::string(ent) +
                                      ";");
    }
    i = semi;
  }
  return Status::OK();
}

}  // namespace csxa::xml
