// Small string utilities used across the library.

#ifndef EXOTICA_COMMON_STRINGS_H_
#define EXOTICA_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace exotica {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Lowercases ASCII letters.
std::string ToLower(std::string_view s);

/// Uppercases ASCII letters.
std::string ToUpper(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// ASCII case-insensitive equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Escapes a string for embedding in a double-quoted literal
/// (used by the FDL printer and the journal codec).
std::string EscapeQuoted(std::string_view s);

/// Appends EscapeQuoted(s) to `out` without building a temporary.
void AppendEscaped(std::string_view s, std::string* out);

/// Inverse of EscapeQuoted, written over `out` (its storage is reused).
/// Returns false on a malformed escape.
bool UnescapeQuoted(std::string_view s, std::string* out);

/// Parses a decimal number written as the journal and image encoders
/// write one: digits only, so no sign, no blank, no trailing text and no
/// overflow. Returns false otherwise (also for an empty string).
bool ParseNumber(std::string_view s, uint64_t* out);

}  // namespace exotica

#endif  // EXOTICA_COMMON_STRINGS_H_
