#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace exotica {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

std::string EscapeQuoted(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(s, &out);
  return out;
}

void AppendEscaped(std::string_view s, std::string* out) {
  // Copies unescaped runs in bulk; only the five special characters are
  // written one by one.
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    char escaped;
    switch (s[i]) {
      case '\\': escaped = '\\'; break;
      case '"': escaped = '"'; break;
      case '\n': escaped = 'n'; break;
      case '\t': escaped = 't'; break;
      case '\r': escaped = 'r'; break;
      default: continue;
    }
    out->append(s.data() + run, i - run);
    out->push_back('\\');
    out->push_back(escaped);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

bool UnescapeQuoted(std::string_view s, std::string* out) {
  out->clear();
  out->reserve(s.size());
  size_t run = 0;
  for (size_t i = s.find('\\'); i != std::string_view::npos;
       i = s.find('\\', run)) {
    out->append(s.data() + run, i - run);
    if (i + 1 >= s.size()) return false;
    switch (s[i + 1]) {
      case '\\': out->push_back('\\'); break;
      case '"': out->push_back('"'); break;
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'r': out->push_back('\r'); break;
      default: return false;
    }
    run = i + 2;
  }
  out->append(s.data() + run, s.size() - run);
  return true;
}

bool ParseNumber(std::string_view s, uint64_t* out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace exotica
